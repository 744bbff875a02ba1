// Quickstart: the smallest end-to-end Master-and-Parasite run.
//
// One victim browser on a public WiFi, one target website, one armed
// master. We infect the site's persistent script, leave the network and
// show the parasite still executing from cache.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"masterparasite/internal/attacker"
	"masterparasite/internal/core"
	"masterparasite/internal/parasite"
	"masterparasite/internal/script"
)

func main() {
	// 1. Assemble the laboratory: victim + master on "public-wifi",
	//    servers across the uplink.
	s, err := core.NewScenario(core.Config{})
	if err != nil {
		log.Fatal(err)
	}

	// 2. A website with a persistent script (the infection target).
	s.AddPage("news.example", "/", `<html><body><script src="/js/site.js"></script></body></html>`,
		map[string]string{"Cache-Control": "no-store"})
	s.AddPage("news.example", "/js/site.js", "function render(){}",
		map[string]string{"Cache-Control": "max-age=3600"})

	// 3. Arm the master: one parasite strain, one target object.
	strain := parasite.NewConfig("quick", "bot-1", core.MasterHost)
	s.Registry.Add(strain)
	s.Master.AddTarget(attacker.Target{
		Name:            "news.example/js/site.js",
		Kind:            attacker.KindJS,
		ParasitePayload: "quick",
		Original:        []byte("function render(){}"),
	})

	// 4. The victim browses; the master races the server and wins.
	page, err := s.Visit("news.example", "/")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("first visit:  script infected = %v (injections: %d)\n",
		script.Infected(page.Scripts[0].Content), s.Master.Stats().Injections)

	// 5. The victim goes home. The master is no longer on-path.
	s.LeaveAttackerNetwork()

	// 6. The parasite persists: it executes from the cache on every
	//    later visit, with no attacker anywhere near the victim.
	page2, err := s.Visit("news.example", "/")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after moving: script infected = %v (served from cache, master off-path)\n",
		script.Infected(page2.Scripts[0].Content))
	fmt.Printf("cache-API anchors: %d — survives Ctrl+F5 and cache clearing (Table III)\n",
		s.Victim.CacheAPI().Len())
}
