package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"

	"repro/internal/blas"
	"repro/internal/bsm"
	"repro/internal/codon"
	"repro/internal/core"
	"repro/internal/lik"
	"repro/internal/manifest"
)

// checker accumulates output-check failures over a run. Every failed
// check counts as a failed gene.
type checker struct {
	attempted, failed int
	problems          []string
	ref               []byte // first pass's runtime-zeroed projection
	lnlSum            float64
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.problems) < 10 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// runtimeField matches the one non-deterministic field of a row.
var runtimeField = regexp.MustCompile(`"runtime_sec":[-0-9.eE+]+`)

// pass checks one pass's JSONL output against the manifest: one row
// per gene in manifest order, every row parsing, no row carrying an
// error, every likelihood finite, and the runtime-zeroed bytes equal
// to the first pass's.
func (c *checker) pass(out []byte, entries []manifest.Entry) {
	c.attempted += len(entries)
	lines := bytes.Split(bytes.TrimSuffix(out, []byte("\n")), []byte("\n"))
	if len(out) == 0 {
		lines = nil
	}
	var rows []core.GeneRecord
	for i, e := range entries {
		if i >= len(lines) {
			c.fail("gene %s: missing row", e.Name)
			continue
		}
		var r core.GeneRecord
		if err := json.Unmarshal(lines[i], &r); err != nil {
			c.fail("row %d: %v", i, err)
			continue
		}
		switch {
		case r.Name != e.Name:
			c.fail("row %d is gene %q, manifest row is %q", i, r.Name, e.Name)
		case r.Error != "":
			c.fail("gene %s: %s", r.Name, r.Error)
		case !finite(r.LnL0) || !finite(r.LnL1) || r.LnL0 >= 0 || r.LnL1 >= 0:
			c.fail("gene %s: log-likelihoods %g, %g", r.Name, r.LnL0, r.LnL1)
		default:
			rows = append(rows, r)
		}
	}
	if len(lines) > len(entries) {
		c.fail("%d rows for %d genes", len(lines), len(entries))
	}
	proj := runtimeField.ReplaceAll(out, []byte(`"runtime_sec":0`))
	if c.ref == nil {
		c.ref = proj
		for _, r := range rows {
			c.lnlSum += r.LnL0 + r.LnL1
		}
	} else if !bytes.Equal(proj, c.ref) {
		c.fail("output differs from the first pass's")
	}
}

func (c *checker) ok() bool { return c.failed == 0 }

func (c *checker) report() {
	for _, p := range c.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check:", p)
	}
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// lnlTolerance is the relative agreement the independent recomputation
// must reach.
const lnlTolerance = 1e-6

// checkGene refits one gene with core.Analysis — outside the batch
// stream, its pool and its caches — and requires the row the stream
// wrote to be byte-identical to this refit's runtime-zeroed record.
// It then recomputes the H1 log-likelihood at the refit's MLE on the
// baseline engine configuration under the naive BLAS kernel, an
// arithmetic path independent of the tuned one, and requires it to
// match the reported lnl_h1 to lnlTolerance relative.
func (c *checker) checkGene(w workload, e manifest.Entry, row []byte) {
	c.attempted++
	if err := checkGene(w, e, row); err != nil {
		c.fail("gene %s: %v", e.Name, err)
	}
}

func checkGene(w workload, e manifest.Entry, row []byte) error {
	g, err := loadGene(e)
	if err != nil {
		return err
	}
	opts := fitOptions(w)
	opts.Workers = poolWorkers // bit-identical to the serial engine
	an, err := core.NewAnalysis(g.Alignment, g.Tree, opts)
	if err != nil {
		return err
	}
	defer an.Close()
	res, err := an.Run()
	if err != nil {
		return err
	}
	rec := core.NewGeneRecord(core.GeneResult{Name: e.Name, Result: res})
	rec.RuntimeSec = 0
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if !bytes.Equal(b, runtimeField.ReplaceAll(row, []byte(`"runtime_sec":0`))) {
		return fmt.Errorf("stream row differs from a standalone refit:\n  %s\n  %s", row, b)
	}
	lnl, err := naiveH1(g, an.Pi(), res.H1)
	if err != nil {
		return err
	}
	if d := math.Abs(lnl-rec.LnL1) / math.Abs(rec.LnL1); !(d <= lnlTolerance) {
		return fmt.Errorf("lnl_h1 %v, naive recomputation %v (relative difference %.3g)", rec.LnL1, lnl, d)
	}
	return nil
}

// naiveH1 evaluates the H1 log-likelihood at a fit's parameters and
// branch lengths with the baseline engine and the naive kernel.
func naiveH1(g *core.Gene, pi []float64, fit *core.FitResult) (float64, error) {
	prev := blas.ActiveKernel().Name()
	if err := blas.SetKernel("naive"); err != nil {
		return 0, err
	}
	defer blas.SetKernel(prev)
	pats, names, err := g.Patterns(codon.Universal)
	if err != nil {
		return 0, err
	}
	m, err := bsm.New(codon.Universal, bsm.H1, fit.Params, pi)
	if err != nil {
		return 0, err
	}
	eng, err := lik.New(g.Tree, pats, names, core.EngineBaseline.LikConfig())
	if err != nil {
		return 0, err
	}
	defer eng.Close()
	if err := eng.SetModel(m); err != nil {
		return 0, err
	}
	if err := eng.SetBranchLengths(fit.BranchLengths); err != nil {
		return 0, err
	}
	return eng.LogLikelihood(), nil
}
