package core

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/align"
	"repro/internal/blas"
)

// zeroRuntimeSink strips the only intentionally non-deterministic
// field (wall time) before serialization so JSONL bytes can be
// compared across runs.
type zeroRuntimeSink struct{ inner ResultSink }

func (z zeroRuntimeSink) Write(r GeneResult) error {
	if r.Result != nil {
		r.Result.TotalRuntime = 0
	}
	return z.inner.Write(r)
}

// TestKernelJSONLParity runs the tier-2 streaming batch (manifest →
// JSONL) of the slim-bundled engine once on each shipped GEMM kernel
// and requires byte-identical output (modulo the wall-time field).
// This is the end-to-end face of the kernel seam's bit-exact contract:
// through eigendecomposition, transition builds, pruning, BFGS and the
// LRT, the choice of micro-kernel must be invisible in every emitted
// digit.
func TestKernelJSONLParity(t *testing.T) {
	if testing.Short() {
		t.Skip("full kernel sweep of the streaming batch; skipped under -short")
	}
	genes := streamGenes(t, 6)
	entries := writeManifestDir(t, genes)

	var ref []byte
	var refName string
	for _, kr := range []blas.Kernel{blas.BlockedKernel, blas.HandRolledKernel} {
		opts := BatchOptions{
			Options:     Options{Engine: EngineSlimBundled, MaxIterations: 2, Seed: 1, kernel: kr},
			Concurrency: 2,
			PoolWorkers: 2,
		}
		var buf bytes.Buffer
		sum, err := RunBatchStream(context.Background(), NewManifestSource(entries, align.FormatAuto),
			zeroRuntimeSink{NewJSONLSink(&buf)}, StreamOptions{BatchOptions: opts, Prefetch: 3})
		if err != nil {
			t.Fatalf("kernel %s: %v", kr.Name(), err)
		}
		if sum.Genes != len(genes) || sum.Failed != 0 {
			t.Fatalf("kernel %s: summary %+v", kr.Name(), sum)
		}
		if ref == nil {
			ref, refName = buf.Bytes(), kr.Name()
			continue
		}
		if !bytes.Equal(buf.Bytes(), ref) {
			t.Fatalf("kernel %s JSONL output differs from kernel %s", kr.Name(), refName)
		}
	}
}
