package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"

	"repro/internal/core"
)

// Snapshot is a machine-readable recording of the parallel sweeps —
// the perf-trajectory format checked into the repository root
// (BENCH_fanout.json). Like the printed sweep tables, it embeds the
// measuring machine's GOMAXPROCS and an explicit caveat, so a
// recording taken on a 1-core CI container cannot be mistaken for a
// multicore scaling result.
type Snapshot struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	Caveat     string `json:"caveat"`
	// ParallelEval is the full-evaluation sweep (serial vs block pool)
	// on the dataset-iii shape; durations in ns/op.
	ParallelEval SnapshotEval `json:"parallel_eval"`
	// TransitionRefresh is the transition-phase sweep (full P(t)
	// rebuild) across tree sizes of the dataset-iv family.
	TransitionRefresh []SnapshotRefresh `json:"transition_refresh"`
	// KernelSweep times every registered GEMM kernel on the NT shapes
	// the likelihood computation issues (single-thread ns/op; all
	// kernels are bit-exact, so this is pure speed).
	KernelSweep []SnapshotKernelShape `json:"kernel_sweep"`
	// WarmSweep contrasts a cold streaming run with a warm re-run
	// through the persistent cross-run cache (internal/persistcache).
	// The recording procedure asserts the warm run replayed every gene
	// byte-identically with zero eigendecompositions, so the ratio is a
	// sound single-thread measurement even on a 1-core container.
	WarmSweep *SnapshotWarm `json:"warm_sweep,omitempty"`
}

// SnapshotWarm mirrors WarmSweepResult with JSON-stable units.
type SnapshotWarm struct {
	Genes            int     `json:"genes"`
	ColdNs           int64   `json:"cold_ns"`
	WarmNs           int64   `json:"warm_ns"`
	ColdEigendecomps int     `json:"cold_eigendecompositions"`
	WarmEigendecomps int     `json:"warm_eigendecompositions"`
	Replayed         int     `json:"replayed"`
	Speedup          float64 `json:"speedup"`
}

// SnapshotKernelShape mirrors KernelShapeResult with JSON-stable units.
type SnapshotKernelShape struct {
	M       int                    `json:"m"`
	N       int                    `json:"n"`
	K       int                    `json:"k"`
	Kernels []SnapshotKernelTiming `json:"kernels"`
}

// SnapshotKernelTiming is one kernel's timing on one shape.
type SnapshotKernelTiming struct {
	Kernel         string  `json:"kernel"`
	NsPerOp        int64   `json:"ns_per_op"`
	PackedNsPerOp  int64   `json:"packed_ns_per_op"`
	SpeedupVsNaive float64 `json:"speedup_vs_naive"`
}

// SnapshotEval mirrors ParallelSweep with JSON-stable units.
type SnapshotEval struct {
	SerialNs int64           `json:"serial_ns_per_op"`
	Points   []SnapshotPoint `json:"block_pool"`
}

// SnapshotRefresh mirrors TransitionSweep with JSON-stable units.
type SnapshotRefresh struct {
	Species  int             `json:"species"`
	Branches int             `json:"branches"`
	Tasks    int             `json:"builds_per_refresh"`
	SerialNs int64           `json:"serial_ns_per_op"`
	Points   []SnapshotPoint `json:"block_pool"`
}

// SnapshotPoint is one worker count's timing.
type SnapshotPoint struct {
	Workers int     `json:"workers"`
	NsPerOp int64   `json:"ns_per_op"`
	Speedup float64 `json:"speedup"`
}

// caveatFor states what a recording at this core count can and cannot
// demonstrate — carried inside the file, not in a README footnote.
func caveatFor(procs int) string {
	if procs <= 1 {
		return fmt.Sprintf("recorded with GOMAXPROCS=%d: all pool workers share one hardware thread, so these numbers demonstrate only that pool scheduling overhead is within noise of the serial engine, NOT multicore scaling; re-record on a >=8-core machine", procs)
	}
	return fmt.Sprintf("recorded with GOMAXPROCS=%d; speedups are bounded by that core count", procs)
}

// RecordSnapshot runs the two sweeps on the current machine and
// packages them as a snapshot: the parallel-evaluation sweep on the
// dataset-iii shape, and the transition sweep on the dataset-iv family
// at the given species counts. Every configuration computes
// bit-identical results; only scheduling differs.
func RecordSnapshot(workerCounts []int, species []int, evals int) (*Snapshot, error) {
	snap := &Snapshot{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Caveat:     caveatFor(runtime.GOMAXPROCS(0)),
	}

	fx, err := NewEvalFixture("iii", 0, 1)
	if err != nil {
		return nil, err
	}
	// The same engine configurations the repository's testing.B
	// benchmarks record: bundled kernels for the evaluation sweep, the
	// slim engine for the transition sweep.
	ps, err := RunParallelSweep(fx, core.EngineSlimBundled.LikConfig(), workerCounts, evals)
	if err != nil {
		return nil, err
	}
	snap.ParallelEval = SnapshotEval{SerialNs: ps.Serial.Nanoseconds()}
	for _, p := range ps.Points {
		snap.ParallelEval.Points = append(snap.ParallelEval.Points, SnapshotPoint{
			Workers: p.Workers, NsPerOp: p.Eval.Nanoseconds(), Speedup: p.SpeedupVsSerial,
		})
	}

	for _, sp := range species {
		fx, err := NewEvalFixture("iv", sp, 1)
		if err != nil {
			return nil, err
		}
		ts, err := RunTransitionSweep(fx, core.EngineSlim.LikConfig(), workerCounts, evals)
		if err != nil {
			return nil, err
		}
		ref := SnapshotRefresh{
			Species:  sp,
			Branches: ts.Branches,
			Tasks:    ts.Tasks,
			SerialNs: ts.Serial.Nanoseconds(),
		}
		for _, p := range ts.Points {
			ref.Points = append(ref.Points, SnapshotPoint{
				Workers: p.Workers, NsPerOp: p.Refresh.Nanoseconds(), Speedup: p.SpeedupVsSerial,
			})
		}
		snap.TransitionRefresh = append(snap.TransitionRefresh, ref)
	}

	ws, err := RunReplaySweep(8, 6, 48, 3)
	if err != nil {
		return nil, err
	}
	snap.WarmSweep = &SnapshotWarm{
		Genes:            ws.Genes,
		ColdNs:           ws.Cold.Nanoseconds(),
		WarmNs:           ws.Warm.Nanoseconds(),
		ColdEigendecomps: ws.ColdEigendecomps,
		WarmEigendecomps: ws.WarmEigendecomps,
		Replayed:         ws.Replayed,
		Speedup:          ws.Speedup(),
	}

	ks := RunKernelSweep(nil, 64*evals)
	for _, sh := range ks.Shapes {
		rec := SnapshotKernelShape{M: sh.M, N: sh.N, K: sh.K}
		for _, kt := range sh.Timings {
			rec.Kernels = append(rec.Kernels, SnapshotKernelTiming{
				Kernel:         kt.Kernel,
				NsPerOp:        kt.NsPerOp,
				PackedNsPerOp:  kt.PackedNs,
				SpeedupVsNaive: kt.SpeedupVsNaive,
			})
		}
		snap.KernelSweep = append(snap.KernelSweep, rec)
	}
	return snap, nil
}

// Write emits the snapshot as indented JSON.
func (s *Snapshot) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
