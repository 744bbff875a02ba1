package main

import (
	"strings"
	"testing"
)

// TestFlagValidation locks the upfront CLI contract: bad invocations
// fail before a listener ever opens, with errors naming the problem.
func TestFlagValidation(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown flag", []string{"-bogus"}, "flag provided but not defined"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			err := run(c.args, &strings.Builder{})
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("run(%v) err = %v, want containing %q", c.args, err, c.want)
			}
		})
	}
}
