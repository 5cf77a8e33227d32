package main

import (
	"strings"
	"testing"
)

// TestTierManagerDeterministic: the tier manager part prints the same
// lines in the same order on every run.
func TestTierManagerDeterministic(t *testing.T) {
	var first strings.Builder
	if err := tierManager(&first); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		var again strings.Builder
		if err := tierManager(&again); err != nil {
			t.Fatal(err)
		}
		if again.String() != first.String() {
			t.Fatalf("run %d printed\n%s\nfirst run printed\n%s", i+1, again.String(), first.String())
		}
	}
}
