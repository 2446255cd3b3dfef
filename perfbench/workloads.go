package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/align"
	"repro/internal/bsm"
	"repro/internal/codon"
	"repro/internal/core"
	"repro/internal/lik"
	"repro/internal/manifest"
	"repro/internal/sim"
)

// workload is one input set: a gene shape, a gene count, the engine
// every fit uses and the tier it runs through.
type workload struct {
	name    string
	engine  string // as spelled by the -engine flag
	species int
	codons  int
	meanBL  float64 // mean branch length of the workload's species tree
	genes   int     // genes per pass
	maxIter int     // BFGS iterations per hypothesis
	fleet   bool    // tier-5 replay instead of tier-3 cold fits
}

// The gene counts size one pass to 7–16 s on a 2-CPU machine,
// depending on how busy its host is. The iteration cap is below every
// gene's convergence point, so each gene does about the same
// optimizer work and a pass's cost is set by the
// gene shape, not by how far a simulated gene happens to sit from its
// optimum (see METRICS.md for why converged fits are not used).
var workloads = []workload{
	{name: "small-genes", engine: "slim", species: 5, codons: 30, meanBL: 0.08, genes: 24, maxIter: 3},
	{name: "deep-tree", engine: "slim", species: 16, codons: 30, meanBL: 0.06, genes: 10, maxIter: 3},
	{name: "long-alignment", engine: "slim-bundled", species: 6, codons: 600, meanBL: 0.10, genes: 6, maxIter: 3},
	{name: "fleet-rescan", engine: "slim", species: 3, codons: 24, meanBL: 0.20, genes: 24, maxIter: 1, fleet: true},
}

// kind is the workload's engine.
func (w workload) kind() core.EngineKind {
	k, err := core.ParseEngineKind(w.engine)
	if err != nil {
		panic(err)
	}
	return k
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// speciesSeed fixes each workload's species tree and codon usage: like
// a genome scan, all of a workload's genes share one tree and one
// background composition, and the run seed draws the sequences evolved
// along it (each site's class, the root codons and every substitution).
const speciesSeed = 20120521

// genePi is each workload's codon usage.
func genePi() []float64 {
	return sim.RandomPi(codon.Universal.NumStates(), 5, rand.New(rand.NewSource(speciesSeed)))
}

// geneParams is the generating model of gene i: sim.TrueParams
// (ω2 = 2.5) for even-numbered genes, the null (ω2 = 1) for odd ones.
func geneParams(i int) bsm.Params {
	p := sim.TrueParams()
	if i%2 == 1 {
		p.Omega2 = 1
	}
	return p
}

// writeInputs simulates the workload's genes from seed under dir and
// writes one FASTA file per gene, the species tree and a manifest with
// relative paths. It returns the manifest's absolute path.
func writeInputs(w workload, seed int64, dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	tree, err := sim.RandomTree(sim.TreeConfig{Species: w.species, MeanBranchLength: w.meanBL, Seed: speciesSeed})
	if err != nil {
		return "", err
	}
	const treeFile = "species.nwk"
	if err := os.WriteFile(filepath.Join(dir, treeFile), []byte(tree.String()+"\n"), 0o644); err != nil {
		return "", err
	}
	pi := genePi()
	rng := rand.New(rand.NewSource(seed))
	entries := make([]manifest.Entry, w.genes)
	for i := range entries {
		aln, err := sim.Simulate(tree, codon.Universal, sim.SeqConfig{Sites: w.codons, Params: geneParams(i), Pi: pi, Seed: rng.Int63()})
		if err != nil {
			return "", err
		}
		name := fmt.Sprintf("g%03d", i)
		if err := writeFasta(filepath.Join(dir, name+".fasta"), aln); err != nil {
			return "", err
		}
		entries[i] = manifest.Entry{Name: name, AlignPath: name + ".fasta", TreePath: treeFile}
	}
	path, err := filepath.Abs(filepath.Join(dir, "manifest.tsv"))
	if err != nil {
		return "", err
	}
	return path, manifest.WriteFile(path, entries)
}

// trueLnL sums over the manifest's genes the log-likelihood of each
// alignment under the model that generated it (species tree,
// parameters and codon usage), on the baseline engine.
func trueLnL(entries []manifest.Entry) (float64, error) {
	pi := genePi()
	var sum float64
	for i, e := range entries {
		g, err := loadGene(e)
		if err != nil {
			return 0, err
		}
		lnl, err := geneTrueLnL(g, geneParams(i), pi)
		if err != nil {
			return 0, err
		}
		sum += lnl
	}
	return sum, nil
}

func geneTrueLnL(g *core.Gene, p bsm.Params, pi []float64) (float64, error) {
	pats, names, err := g.Patterns(codon.Universal)
	if err != nil {
		return 0, err
	}
	h := bsm.H1
	if p.Omega2 == 1 {
		h = bsm.H0
	}
	m, err := bsm.New(codon.Universal, h, p, pi)
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
	return eng.LogLikelihood(), nil
}

func writeFasta(path string, a *align.Alignment) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := align.WriteFasta(f, a); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// loadGene reads one manifest row the way the program does.
func loadGene(e manifest.Entry) (*core.Gene, error) {
	a, err := align.ReadFile(e.AlignPath, align.FormatAuto)
	if err != nil {
		return nil, err
	}
	t, err := core.ReadTreeFile(e.TreePath)
	if err != nil {
		return nil, err
	}
	return &core.Gene{Name: e.Name, Alignment: a, Tree: t}, nil
}
