package bench

import (
	"bytes"
	"strings"
	"testing"
)

// The kernel sweep must time both kernels on every shape, hand-rolled
// first, and render one table row per (shape, kernel).
func TestRunKernelSweep(t *testing.T) {
	s := RunKernelSweep([][3]int{{8, 5, 3}, {16, 8, 8}}, 2)
	if len(s.Shapes) != 2 {
		t.Fatalf("got %d shapes, want 2", len(s.Shapes))
	}
	for _, sh := range s.Shapes {
		if len(sh.Timings) != 2 {
			t.Fatalf("shape %dx%dx%d timed %d kernels, want 2", sh.M, sh.N, sh.K, len(sh.Timings))
		}
		if sh.Timings[0].Kernel != "hand-rolled" || sh.Timings[0].SpeedupVsHandRolled != 1 {
			t.Fatalf("first timing %+v, want hand-rolled at speedup 1", sh.Timings[0])
		}
		for _, kt := range sh.Timings {
			if kt.NsPerOp <= 0 || kt.PackedNs <= 0 {
				t.Fatalf("kernel %s on %dx%dx%d has non-positive timing: %+v", kt.Kernel, sh.M, sh.N, sh.K, kt)
			}
		}
	}
	var buf bytes.Buffer
	PrintKernelSweep(&buf, s)
	out := buf.String()
	if !strings.Contains(out, "hand-rolled") || !strings.Contains(out, "blocked") || !strings.Contains(out, "8×5×3") {
		t.Fatalf("table missing expected rows:\n%s", out)
	}
}
