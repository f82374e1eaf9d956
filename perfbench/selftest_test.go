package main

import (
	"io"
	"testing"
)

// TestSelfTest runs the benchmark's self-test: every workload briefly,
// traced and untraced, plus the corrupted-output negative control.
func TestSelfTest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	if err := selfTest(io.Discard); err != nil {
		t.Fatal(err)
	}
}
