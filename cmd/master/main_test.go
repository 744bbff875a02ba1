package main

import "testing"

// TestDemo runs the self-contained demo: a C&C server on a loopback
// port, one bot that polls a command and uploads a stream back.
func TestDemo(t *testing.T) {
	if err := run([]string{"-demo"}); err != nil {
		t.Fatal(err)
	}
}
