package bench

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/bsm"
	"repro/internal/core"
	"repro/internal/sim"
)

func fakePair() *Pair {
	preset, _ := sim.PresetByID("i")
	mk := func(kind core.EngineKind, rt0, rt1 time.Duration, it0, it1 int, l0, l1 float64) *EngineResult {
		return &EngineResult{
			Engine:     kind,
			Dataset:    "i",
			H0:         &core.FitResult{Hypothesis: bsm.H0, LnL: l0, Iterations: it0},
			H1:         &core.FitResult{Hypothesis: bsm.H1, LnL: l1, Iterations: it1},
			RuntimeH0:  rt0,
			RuntimeH1:  rt1,
			Iterations: it0 + it1,
		}
	}
	return &Pair{
		Dataset:  preset,
		Baseline: mk(core.EngineBaseline, 85*time.Second, 100*time.Second, 108, 100, -1000, -995),
		Slim:     mk(core.EngineSlim, 43*time.Second, 50*time.Second, 108, 100, -1000.000001, -995.0000005),
	}
}

func TestComputeSpeedups(t *testing.T) {
	p := fakePair()
	s := ComputeSpeedups(p)
	if math.Abs(s.OverallH0-85.0/43.0) > 1e-12 {
		t.Fatalf("OverallH0 = %g", s.OverallH0)
	}
	if math.Abs(s.OverallH1-2.0) > 1e-12 {
		t.Fatalf("OverallH1 = %g", s.OverallH1)
	}
	if math.Abs(s.Combined-185.0/93.0) > 1e-12 {
		t.Fatalf("Combined = %g", s.Combined)
	}
	// Identical iteration counts → per-iteration equals overall.
	if math.Abs(s.PerIterH0-s.OverallH0) > 1e-12 || math.Abs(s.PerIterBoth-s.Combined) > 1e-12 {
		t.Fatalf("per-iteration speedups inconsistent: %+v", s)
	}
}

func TestComputeSpeedupsZeroGuard(t *testing.T) {
	p := fakePair()
	p.Slim.RuntimeH0 = 0
	p.Slim.RuntimeH1 = 0
	p.Slim.H0.Iterations = 0
	p.Slim.H1.Iterations = 0
	p.Slim.Iterations = 0
	s := ComputeSpeedups(p)
	if s.OverallH0 != 0 || s.PerIterBoth != 0 {
		t.Fatalf("zero-division guard failed: %+v", s)
	}
}

func TestComputeAccuracy(t *testing.T) {
	acc := ComputeAccuracy(fakePair())
	if acc.Dataset != "i" {
		t.Fatalf("dataset %q", acc.Dataset)
	}
	// D = |lnL − lnL̂|/|lnL| per §IV-1.
	wantH0 := 0.000001 / 1000.0
	wantH1 := 0.0000005 / 995.0
	if math.Abs(acc.DH0-wantH0) > 1e-15 {
		t.Fatalf("DH0 = %g, want %g", acc.DH0, wantH0)
	}
	if math.Abs(acc.DH1-wantH1) > 1e-15 {
		t.Fatalf("DH1 = %g, want %g", acc.DH1, wantH1)
	}
}

func TestPrintersProduceTables(t *testing.T) {
	var b strings.Builder
	PrintTable2(&b)
	if !strings.Contains(b.String(), "5004") {
		t.Fatal("Table II missing dataset ii length")
	}
	b.Reset()
	PrintTable3Header(&b)
	PrintTable3Row(&b, fakePair())
	out := b.String()
	if !strings.Contains(out, "185.00") || !strings.Contains(out, "208") {
		t.Fatalf("Table III row wrong:\n%s", out)
	}
	b.Reset()
	PrintTable4(&b, []*Pair{fakePair()})
	if !strings.Contains(b.String(), "Per-iteration speedup H0+H1") {
		t.Fatal("Table IV missing rows")
	}
	b.Reset()
	PrintAccuracy(&b, []Accuracy{ComputeAccuracy(fakePair())})
	if !strings.Contains(b.String(), "D (H1)") {
		t.Fatal("accuracy table missing header")
	}
	b.Reset()
	PrintFig3(&b, []Fig3Point{{Species: 15, OverallH0: 2, OverallH1: 2, Combined: 2}})
	if !strings.Contains(b.String(), "15") {
		t.Fatal("Fig3 table missing data")
	}
}

func TestQuickAndFullConfigs(t *testing.T) {
	q, f := Quick(), Full()
	if q.MaxIterations >= f.MaxIterations {
		t.Fatal("quick must cap iterations below full")
	}
}

// End-to-end: the smallest Fig. 3 point runs and produces a positive
// speedup structure.
func TestRunFig3Smallest(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run in -short mode")
	}
	pts, err := RunFig3([]int{6}, Config{MaxIterations: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || pts[0].Species != 6 {
		t.Fatalf("unexpected points: %+v", pts)
	}
	if !(pts[0].Combined > 0) {
		t.Fatalf("no speedup measured: %+v", pts[0])
	}
}

// The parallel sweep harness must time every strategy, and every
// strategy must agree bit-for-bit on the likelihood it computes.
func TestParallelSweep(t *testing.T) {
	fx, err := NewEvalFixture("i", 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	base := core.EngineSlimBundled.LikConfig()
	sweep, err := RunParallelSweep(fx, base, []int{1, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sweep.Serial <= 0 || len(sweep.Points) != 2 {
		t.Fatalf("incomplete sweep: %+v", sweep)
	}
	for _, p := range sweep.Points {
		if p.Eval <= 0 || !(p.SpeedupVsSerial > 0) {
			t.Fatalf("bad point: %+v", p)
		}
	}

	serial, err := fx.NewEngine(base)
	if err != nil {
		t.Fatal(err)
	}
	want := serial.LogLikelihood()
	par := base
	par.Workers = 2
	eng, err := fx.NewEngine(par)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if got := eng.LogLikelihood(); got != want {
		t.Fatalf("block-pool lnL %0.17g != serial %0.17g", got, want)
	}

	var buf strings.Builder
	PrintParallelSweep(&buf, sweep)
	if !strings.Contains(buf.String(), "block-pool 2 workers") {
		t.Fatalf("table missing block-pool row:\n%s", buf.String())
	}
	// The header must record the core count the table was measured on,
	// so a 1-core recording carries its own caveat.
	if want := fmt.Sprintf("GOMAXPROCS=%d", runtime.GOMAXPROCS(0)); !strings.Contains(buf.String(), want) {
		t.Fatalf("table header missing %s:\n%s", want, buf.String())
	}
}

// The transition sweep harness must time the serial and pooled
// transition phases, and the pooled rebuild must leave the engine
// computing the identical likelihood.
func TestTransitionSweep(t *testing.T) {
	fx, err := NewEvalFixture("i", 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	base := core.EngineSlim.LikConfig()
	sweep, err := RunTransitionSweep(fx, base, []int{1, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sweep.Serial <= 0 || len(sweep.Points) != 2 || sweep.Branches == 0 || sweep.Tasks < sweep.Branches {
		t.Fatalf("incomplete sweep: %+v", sweep)
	}
	for _, p := range sweep.Points {
		if p.Refresh <= 0 || !(p.SpeedupVsSerial > 0) {
			t.Fatalf("bad point: %+v", p)
		}
	}

	serial, err := fx.NewEngine(base)
	if err != nil {
		t.Fatal(err)
	}
	want := serial.LogLikelihood()
	par := base
	par.Workers = 2
	eng, err := fx.NewEngine(par)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.RefreshTransitions() // pooled build of every branch
	if got := eng.LogLikelihood(); got != want {
		t.Fatalf("pooled transitions changed lnL: %0.17g != serial %0.17g", got, want)
	}

	var buf strings.Builder
	PrintTransitionSweep(&buf, sweep)
	if !strings.Contains(buf.String(), "block-pool 2 workers") {
		t.Fatalf("table missing block-pool row:\n%s", buf.String())
	}
	if want := fmt.Sprintf("GOMAXPROCS=%d", runtime.GOMAXPROCS(0)); !strings.Contains(buf.String(), want) {
		t.Fatalf("table header missing %s:\n%s", want, buf.String())
	}
}
