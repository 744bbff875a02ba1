package main

import "testing"

// TestExampleRuns runs the walkthrough end to end: a step that fails
// stops it with log.Fatal, which fails the test binary. It builds a
// 10⁵-bot fleet, a few seconds of work, so -short skips it.
func TestExampleRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 10^5-bot fleet; run without -short")
	}
	main()
}
