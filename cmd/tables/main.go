// Command tables regenerates the paper's evaluation artifacts: the
// Table II dataset inventory, the §IV-1 accuracy comparison, Table III
// (runtimes and iterations), Table IV (speedups) and Figure 3 (speedup
// vs species count).
//
// By default a quick configuration runs everything in minutes with
// capped optimizer iterations; -full reproduces the paper's scale
// (hours of CPU). Individual experiments can be selected with flags.
//
// Usage:
//
//	tables                 # all experiments, quick mode
//	tables -table3 -full   # full-scale Table III only
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/sim"
)

func main() {
	var (
		full     = flag.Bool("full", false, "paper-scale runs (uncapped iterations; hours of CPU)")
		table2   = flag.Bool("table2", false, "print the dataset inventory (Table II)")
		accuracy = flag.Bool("accuracy", false, "run the accuracy comparison (paper §IV-1)")
		table3   = flag.Bool("table3", false, "run Table III (runtimes and iterations)")
		table4   = flag.Bool("table4", false, "run Table IV (speedups)")
		fig3     = flag.Bool("fig3", false, "run Figure 3 (speedup vs species)")
		seed     = flag.Int64("seed", 1, "dataset and starting-point seed")
		maxIter  = flag.Int("maxiter", 0, "override the iteration cap (0 = mode default)")
	)
	flag.Parse()

	all := !*table2 && !*accuracy && !*table3 && !*table4 && !*fig3
	cfg := bench.Quick()
	if *full {
		cfg = bench.Full()
	}
	cfg.Seed = *seed
	if *maxIter > 0 {
		cfg.MaxIterations = *maxIter
	}
	fmt.Printf("mode: maxIterations=%d seed=%d (per-iteration speedups are cap-independent; see the E1–E7 index in bench_test.go)\n\n",
		cfg.MaxIterations, cfg.Seed)

	if all || *table2 {
		bench.PrintTable2(os.Stdout)
		fmt.Println()
	}

	needPairs := all || *accuracy || *table3 || *table4
	var pairs []*bench.Pair
	if needPairs {
		for _, preset := range sim.TableII {
			fmt.Fprintf(os.Stderr, "running dataset %s (%d species × %d codons)...\n",
				preset.ID, preset.Species, preset.Codons)
			pair, err := bench.RunPair(preset, cfg)
			if err != nil {
				fatal(err)
			}
			pairs = append(pairs, pair)
		}
		fmt.Fprintln(os.Stderr)
	}

	if all || *table3 {
		bench.PrintTable3Header(os.Stdout)
		for _, p := range pairs {
			bench.PrintTable3Row(os.Stdout, p)
		}
		fmt.Println()
	}
	if all || *table4 {
		bench.PrintTable4(os.Stdout, pairs)
		fmt.Println()
	}
	if all || *accuracy {
		rows := make([]bench.Accuracy, 0, len(pairs))
		for _, p := range pairs {
			rows = append(rows, bench.ComputeAccuracy(p))
		}
		bench.PrintAccuracy(os.Stdout, rows)
		fmt.Println()
	}
	if all || *fig3 {
		counts := []int{15, 35, 55, 75, 95}
		if *full {
			counts = nil
			for s := 15; s <= 95; s += 10 {
				counts = append(counts, s)
			}
		}
		fmt.Fprintf(os.Stderr, "running Figure 3 sweep over %v species...\n", counts)
		pts, err := bench.RunFig3(counts, cfg)
		if err != nil {
			fatal(err)
		}
		bench.PrintFig3(os.Stdout, pts)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tables:", err)
	os.Exit(1)
}
