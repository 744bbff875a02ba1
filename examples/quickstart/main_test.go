package main

import "testing"

// TestExampleRuns runs the walkthrough end to end: a step that fails
// stops it with log.Fatal, which fails the test binary.
func TestExampleRuns(t *testing.T) { main() }
