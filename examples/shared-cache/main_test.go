package main

import "testing"

// TestExampleRuns runs the walkthrough end to end, every vulnerable
// shared cache and the isolated one; a panic fails it.
func TestExampleRuns(t *testing.T) { main() }
