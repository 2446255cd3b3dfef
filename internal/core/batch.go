package core

import (
	"repro/internal/align"
	"repro/internal/codon"
	"repro/internal/newick"
	"repro/internal/persistcache"
)

// Gene is one unit of a batch run: an alignment paired with a tree
// carrying exactly one #1-marked foreground branch. Genome-scale
// selection scans (paper §I-A, Selectome) are expressed naturally:
// many genes each with their own tree, or — for a per-branch scan —
// one alignment repeated with differently marked trees.
type Gene struct {
	Name      string
	Alignment *align.Alignment
	Tree      *newick.Tree

	// Cached encode+compress product (see Patterns). The batch driver
	// fills it at most once per gene, so the shared-frequency pre-pass
	// and the fit reuse a single encoding.
	encCode  *codon.GeneticCode
	encPats  *align.Patterns
	encNames []string
	encodes  int // number of EncodeCodons+Compress runs (tests assert 1)

	// loadErr marks a gene whose files could not be loaded
	// (ManifestSource). The streaming driver turns it into an error
	// result for this gene instead of aborting the stream.
	loadErr error

	// Persistent-store state attached by ManifestSource (nil/zero
	// elsewhere): a replayed record that makes the fit a no-op, a
	// warm-start seed, and the identity (manifest row digest + input
	// file metadata) a fresh fit is stored back under.
	replay    *GeneRecord
	seed      *persistcache.WarmSeed
	rowDigest string
	fmeta     persistcache.FileMeta
	haveMeta  bool
}

// Patterns returns the gene's codon-encoded, pattern-compressed
// alignment under the genetic code, encoding at most once: repeated
// calls with the same code return the cached product. Not safe for
// concurrent use on one Gene — the batch driver touches each gene from
// one goroutine at a time (the serial pre-pass, then exactly one
// worker).
func (g *Gene) Patterns(gc *codon.GeneticCode) (*align.Patterns, []string, error) {
	if g.loadErr != nil {
		return nil, nil, g.loadErr
	}
	if g.encPats != nil && g.encCode == gc {
		return g.encPats, g.encNames, nil
	}
	ca, err := align.EncodeCodons(g.Alignment, gc)
	if err != nil {
		return nil, nil, err
	}
	g.encPats = align.Compress(ca)
	g.encNames = ca.Names
	g.encCode = gc
	g.encodes++
	return g.encPats, g.encNames, nil
}

// BatchOptions configures a batch run (embedded in StreamOptions for
// RunBatchStream). The embedded Options apply to every gene.
type BatchOptions struct {
	Options
	// Concurrency is the number of genes fitted concurrently; 0
	// selects GOMAXPROCS.
	Concurrency int
	// PoolWorkers sizes the worker pool shared by every gene's
	// likelihood engine; 0 (or less) selects GOMAXPROCS.
	PoolWorkers int
	// ShareFrequencies estimates one equilibrium frequency vector from
	// the pooled codon counts of all genes instead of per-gene
	// estimates. Besides the usual pipeline rationale (one background
	// composition for the whole genome), a shared π makes the batch's
	// eigendecomposition cache effective across genes.
	ShareFrequencies bool
}

// GeneResult is one gene's outcome; exactly one of Result, Err and Rec
// is set.
type GeneResult struct {
	Name   string
	Result *TestResult
	Err    error
	// Rec, when non-nil, is a record replayed verbatim from the
	// persistent result store: the gene was already analyzed under the
	// same fingerprint and input files, so no fit ran. Sinks serialize
	// it via NewGeneRecord exactly as a fresh result — byte-identically,
	// since Go's JSON encoding round-trips (its runtime_sec is the
	// stored deterministic projection's zero).
	Rec *GeneRecord
}
