// Command perfbench is the repository benchmark. It simulates one
// workload's genes from a seed, writes them as FASTA, Newick and
// manifest files, drives them through the real stack from the outside
// — tier 3 (checkpoint.Run with a persistcache.Store, the path
// `slimcodeml -manifest -resume -cachedir` takes) or tier 5
// (fanout.Run over in-process serve daemons on loopback) — checks
// every output row, and prints one JSON result line.
//
//	go run . --workload small-genes --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs an untraced
// and a traced pass, writes the span file and prints the per-layer
// metrics. METRICS.md lists every workload and metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"repro/internal/blas"
)

// Every workload runs with at most this many genes fitted at once and
// this many shared pool workers (a closed loop: a batch worker starts
// the next gene only when one finishes).
const (
	fitConcurrency = 2
	poolWorkers    = 2
)

type config struct {
	workload workload
	seed     int64
	seconds  float64
	trace    bool
	workDir  string // inputs and outputs; removed when the run ends
	spanDir  string // where a traced run leaves its span file
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "workload seed; the inputs are a pure function of it")
		seconds = flag.Float64("seconds", 20, "length of the measured window")
		trace   = flag.Int("trace", 0, "1 = traced run: per-layer metrics and a span file")
		workDir = flag.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for generated inputs and outputs")
		spanDir = flag.String("spandir", filepath.Join(".bench_build", "spans"), "directory the traced run writes its span file to")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	)
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace takes 0 or 1")
		os.Exit(2)
	}
	dir, err := os.MkdirTemp(mustMkdir(*workDir), w.name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	stopProfile := startProfile(*cpuProf)
	cfg := config{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, workDir: dir, spanDir: *spanDir}
	res, err := run(context.Background(), cfg)
	stopProfile()
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	env, _ := json.Marshal(map[string]any{"environment": environment(cfg)})
	fmt.Println(string(env))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// startProfile starts a CPU profile into path, if one is asked for,
// and returns the function that stops it.
func startProfile(path string) func() {
	if path == "" {
		return func() {}
	}
	f, err := os.Create(path)
	if err == nil {
		err = pprof.StartCPUProfile(f)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}
}

func mustMkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	return dir
}

// run executes one benchmark invocation.
func run(ctx context.Context, cfg config) (*result, error) {
	runtime.GOMAXPROCS(runtime.NumCPU())
	if cfg.workload.fleet {
		return runFleet(ctx, cfg)
	}
	return runFitted(ctx, cfg)
}

// environment is the stamp printed beside every result.
func environment(cfg config) map[string]any {
	w := cfg.workload
	return map[string]any{
		"workload":   w.name,
		"seed":       cfg.seed,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"engine":     w.engine,
		"kernel":     blas.ActiveKernel().Name(),
		"go":         runtime.Version(),
		"genes":      w.genes,
		"species":    w.species,
		"codons":     w.codons,
		"max_iter":   w.maxIter,
		"jobs":       fitConcurrency,
		"workers":    poolWorkers,
	}
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
