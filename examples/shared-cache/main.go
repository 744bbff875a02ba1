// Shared-cache propagation: the §VI-B2 "propagation between devices"
// result across the Table IV device taxonomy.
//
// One client behind a shared network cache (Squid, a web filter, a CDN
// edge) receives an injected object; the cache stores it; every other
// client behind the same cache is served the parasite with no attacker
// anywhere near them. Per-client isolation contains the infection at a
// measurable origin-fetch cost.
//
//	go run ./examples/shared-cache
package main

import (
	"fmt"

	"masterparasite/internal/httpcache"
	"masterparasite/internal/httpsim"
	"masterparasite/internal/proxycache"
	"masterparasite/internal/script"
)

func main() {
	infected := httpsim.NewResponse(200,
		script.Embed([]byte("function lib(){}"), "parasite", "shared"))
	infected.Header.Set("Cache-Control", httpcache.MaxFreshness)

	const clients = 12
	fmt.Printf("%-30s %-6s %-9s %-14s\n", "device", "HTTP", "infected", "origin fetches")
	for _, dev := range proxycache.Devices() {
		if !dev.Shared || !dev.HTTP.Vulnerable() {
			continue
		}
		cache := proxycache.NewSharedCache(dev.Instance, 1<<20, false)
		res := proxycache.RunInfection(cache, infected, clients)
		fmt.Printf("%-30s %-6s %2d/%-6d %-14d\n",
			dev.Instance, dev.HTTP.Symbol(), res.VictimsServed, clients, res.OriginFetches)
	}

	// The countermeasure: per-client isolation. The infection is
	// contained, but every client now costs an origin round trip — "which
	// however would harm performance" (§VI-B2).
	fmt.Println()
	isolated := proxycache.NewSharedCache("squid (per-client isolation)", 1<<20, true)
	res := proxycache.RunInfection(isolated, infected, clients)
	fmt.Printf("%-30s %-6s %2d/%-6d %-14d  <- contained, at a performance cost\n",
		isolated.Name(), "●", res.VictimsServed, clients, res.OriginFetches)
}
