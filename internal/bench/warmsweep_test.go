package bench

import "testing"

// The warm sweep's own invariants: full replay, zero warm
// eigendecompositions, and a positive speedup — RunReplaySweep errors on
// any divergence, so success plus these fields is the whole contract.
func TestRunWarmSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("warm sweep runs real fits")
	}
	r, err := RunReplaySweep(3, 4, 24, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Replayed != 3 || r.WarmEigendecomps != 0 {
		t.Fatalf("warm run did work: %+v", r)
	}
	if r.ColdEigendecomps == 0 || r.Cold <= 0 || r.Warm <= 0 {
		t.Fatalf("cold run not measured: %+v", r)
	}
	if r.Speedup() <= 0 {
		t.Fatalf("speedup %v", r.Speedup())
	}
}
