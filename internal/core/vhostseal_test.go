package core

import (
	"strings"
	"testing"
)

// TestInterleavedTLSVhostsEndToEnd drives the same pairing through the
// full network path: two HTTPS vhosts visited alternately from the
// victim browser, every page forced to the network (no-store), each
// load returning that host's own script — which can only happen when
// every response on port 443 was sealed with the key of the vhost
// that the in-flight request was opened with.
func TestInterleavedTLSVhostsEndToEnd(t *testing.T) {
	s, err := NewScenario(Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, host := range []string{"a-bank.com", "b-shop.com"} {
		marker := strings.ReplaceAll(host, "-", "_")
		marker = strings.ReplaceAll(marker, ".", "_")
		s.AddPage(host, "/", `<html><body><script src="/app.js"></script></body></html>`,
			map[string]string{"Cache-Control": "no-store"})
		s.AddPage(host, "/app.js", "function "+marker+"(){}",
			map[string]string{"Cache-Control": "no-store", "Content-Type": "application/javascript"})
		s.SetTLS(host, true)
	}

	for round := 0; round < 3; round++ {
		for _, host := range []string{"a-bank.com", "b-shop.com"} {
			page, err := s.Visit(host, "/")
			if err != nil {
				t.Fatalf("round %d: visit %s: %v", round, host, err)
			}
			if len(page.Scripts) != 1 {
				t.Fatalf("round %d: %s loaded %d scripts", round, host, len(page.Scripts))
			}
			marker := strings.NewReplacer("-", "_", ".", "_").Replace(host)
			if !strings.Contains(string(page.Scripts[0].Content), marker) {
				t.Fatalf("round %d: %s served the wrong script: %q", round, host, page.Scripts[0].Content)
			}
		}
	}
}
