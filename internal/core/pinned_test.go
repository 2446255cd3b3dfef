package core

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/align"
	"repro/internal/bsm"
	"repro/internal/codon"
	"repro/internal/lik"
	"repro/internal/newick"
	"repro/internal/sim"
)

// pinnedGolden holds the exact bits TestPinnedBytes expects.
var pinnedGolden = filepath.Join("testdata", "pinned_bytes.golden")

// TestPinnedBytes pins the complete numerical outcome of one small
// simulated gene for every engine kind, plus one M0Start run: the IEEE
// bits of both fits' lnL, parameters and branch lengths, the optimizer's
// iteration and function-evaluation counts, the positive sites, and the
// engine's four operation counters. A refactor of the fitter, the
// kernels or the engine's execution strategies is correct only if it
// leaves this file untouched; a failure prints the full new text, so the
// first differing line names the byte that moved.
//
// The golden bits are amd64's. On arm64, ppc64le and s390x the Go
// compiler fuses x*y+z into one FMA instruction, which rounds once
// instead of twice, so the same code yields different bits there.
func TestPinnedBytes(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bits are amd64's; %s may fuse multiply-adds (FMA) and round differently", runtime.GOARCH)
	}
	tr, err := sim.RandomTree(sim.TreeConfig{Species: 4, MeanBranchLength: 0.15, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	a, err := sim.Simulate(tr, codon.Universal, sim.SeqConfig{
		Sites:  30,
		Params: bsm.Params{Kappa: 2.5, Omega0: 0.08, Omega2: 8, P0: 0.3, P1: 0.2},
		Seed:   111,
	})
	if err != nil {
		t.Fatal(err)
	}
	type run struct {
		name string
		opts Options
	}
	runs := []run{
		{"baseline", Options{Engine: EngineBaseline}},
		{"slim", Options{Engine: EngineSlim}},
		{"slim-sym", Options{Engine: EngineSlimSym}},
		{"slim-bundled", Options{Engine: EngineSlimBundled}},
		{"slim-m0start", Options{Engine: EngineSlim, M0Start: true}},
	}
	// The runs are independent analyses, so they run concurrently; the
	// text is assembled in run order afterwards.
	out := make([]string, len(runs))
	var wg sync.WaitGroup
	for i, r := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = pinnedRun(t, a, tr, r.name, r.opts)
		}()
	}
	wg.Wait()
	got := strings.Join(out, "")
	want, err := os.ReadFile(pinnedGolden)
	if err != nil {
		t.Fatalf("%v\ncomputed:\n%s", err, got)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				t.Errorf("first difference at line %d:\n got %s", i+1, gl[i])
				if i < len(wl) {
					t.Errorf("want %s", wl[i])
				}
				break
			}
		}
		t.Fatalf("pinned bytes changed; computed:\n%s", got)
	}
}

// pinnedRun runs the full H0/H1 test on one engine configuration and
// renders everything TestPinnedBytes pins, one line per item.
func pinnedRun(t *testing.T, a *align.Alignment, tr *newick.Tree, name string, opts Options) string {
	opts.MaxIterations = 2
	opts.Seed = 3
	// A private decomposition cache keeps the run fast; its hits are
	// deterministic, so the counters stay exact.
	opts.decomps = lik.NewDecompCache(0)
	an, err := NewAnalysis(a, tr, opts)
	if err != nil {
		t.Error(err)
		return ""
	}
	res, err := an.Run()
	if err != nil {
		t.Errorf("%s: %v", name, err)
		return ""
	}
	var b strings.Builder
	for _, fit := range []*FitResult{res.H0, res.H1} {
		p := fit.Params
		fmt.Fprintf(&b, "%s %v lnl=%s params=%s lens=%s iter=%d evals=%d\n",
			name, fit.Hypothesis, bitsOf(fit.LnL),
			bitsOf(p.Kappa, p.Omega0, p.Omega2, p.P0, p.P1),
			bitsOf(fit.BranchLengths...), fit.Iterations, fit.FuncEvals)
	}
	fmt.Fprintf(&b, "%s sites=", name)
	for _, s := range res.PositiveSites {
		fmt.Fprintf(&b, "%d:%s,", s.Site, bitsOf(s.Probability))
	}
	st := an.eng.Stats()
	fmt.Fprintf(&b, "\n%s stats decomp=%d trans=%d full=%d branch=%d\n", name,
		st.Eigendecompositions, st.TransitionBuilds, st.FullEvaluations, st.BranchEvaluations)
	return b.String()
}

// bitsOf renders float64s as their IEEE-754 bit patterns in hex.
func bitsOf(vs ...float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%016x", math.Float64bits(v))
	}
	return strings.Join(parts, "/")
}
