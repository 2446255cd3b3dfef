package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
)

// A tiny snapshot must round-trip through JSON with its GOMAXPROCS and
// caveat intact — the recorded file's contract.
func TestSnapshotRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("snapshot recording runs real sweeps")
	}
	snap, err := RecordSnapshot([]int{1, 2}, []int{8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if snap.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		t.Fatalf("snapshot records GOMAXPROCS %d, machine has %d", snap.GOMAXPROCS, runtime.GOMAXPROCS(0))
	}
	if snap.Caveat == "" || !strings.Contains(snap.Caveat, "GOMAXPROCS") {
		t.Fatalf("caveat must carry the core count: %q", snap.Caveat)
	}
	if snap.ParallelEval.SerialNs <= 0 || len(snap.ParallelEval.Points) != 2 {
		t.Fatalf("parallel sweep missing: %+v", snap.ParallelEval)
	}
	if len(snap.TransitionRefresh) != 1 || snap.TransitionRefresh[0].SerialNs <= 0 {
		t.Fatalf("transition sweep missing: %+v", snap.TransitionRefresh)
	}
	if len(snap.KernelSweep) != len(KernelShapes) {
		t.Fatalf("kernel sweep has %d shapes, want %d", len(snap.KernelSweep), len(KernelShapes))
	}
	if ws := snap.WarmSweep; ws == nil || ws.Replayed != ws.Genes ||
		ws.WarmEigendecomps != 0 || ws.ColdEigendecomps == 0 || ws.Speedup <= 0 {
		t.Fatalf("warm sweep missing or incoherent: %+v", snap.WarmSweep)
	}
	for _, sh := range snap.KernelSweep {
		if len(sh.Kernels) != 2 || sh.Kernels[0].Kernel != "hand-rolled" || sh.Kernels[0].NsPerOp <= 0 {
			t.Fatalf("kernel sweep shape %dx%dx%d incomplete: %+v", sh.M, sh.N, sh.K, sh.Kernels)
		}
	}
	var buf bytes.Buffer
	if err := snap.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.GOMAXPROCS != snap.GOMAXPROCS || len(back.TransitionRefresh) != 1 {
		t.Fatalf("snapshot did not round-trip: %+v", back)
	}
}

// TestRecordBenchSnapshot writes the repository's recorded snapshot
// when BENCH_SNAPSHOT names the output path — the recording procedure
// documented in docs/OPERATIONS.md:
//
//	BENCH_SNAPSHOT=$PWD/BENCH_fanout.json go test ./internal/bench -run TestRecordBenchSnapshot
func TestRecordBenchSnapshot(t *testing.T) {
	out := os.Getenv("BENCH_SNAPSHOT")
	if out == "" {
		t.Skip("set BENCH_SNAPSHOT=<path> to record a snapshot")
	}
	snap, err := RecordSnapshot([]int{1, 2, 4, 8}, []int{8, 16, 32}, 30)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.Write(f); err != nil {
		f.Close()
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("recorded %s (GOMAXPROCS=%d)", out, snap.GOMAXPROCS)
}
