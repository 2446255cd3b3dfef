package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"
)

// Set-up is repeated until setupSeconds of it have been timed, and at
// least twice, so that a short set-up is timed often enough for its
// median to hold still and a long one (fleet-rescan's cache fill)
// still fits in a run.
const (
	setupSeconds = 4.0
	setupMinReps = 2
)

// repeatSetup runs setup repeatedly, each time into a fresh directory
// under workDir, and returns the last repetition's directory and the
// median set-up time: the last repetition's state is the one
// measured. Earlier repetitions' directories are removed.
func repeatSetup(workDir string, setup func(dir string) error) (string, float64, error) {
	var times []float64
	var dir string
	for total := 0.0; len(times) < setupMinReps || total < setupSeconds; {
		if dir != "" {
			if err := os.RemoveAll(dir); err != nil {
				return "", 0, err
			}
		}
		dir = filepath.Join(workDir, fmt.Sprintf("setup%d", len(times)))
		u, err := measure(func() error { return setup(dir) })
		if err != nil {
			return "", 0, err
		}
		times = append(times, u.wall)
		total += u.wall
	}
	return dir, median(times), nil
}

// passLoop runs pass at least once, and again while another pass as
// long as the last one still ends inside the window of the given
// seconds. Every pass processes the same genes, so a faster program
// completes more passes, not different work. Passes run under the
// profiler label perfbench=pass, so `go tool pprof -tagfocus
// perfbench=pass` on a --cpuprofile shows the timed passes alone.
func passLoop(seconds float64, pass func(i int) error) error {
	window := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	for i := 0; ; i++ {
		t0 := time.Now()
		var err error
		pprof.Do(context.Background(), pprof.Labels("perfbench", "pass"), func(context.Context) { err = pass(i) })
		if err != nil {
			return err
		}
		if time.Since(start)+time.Since(t0) > window {
			return nil
		}
	}
}

// usage is what one measured call cost.
type usage struct {
	wall, cpu float64 // seconds
	peakHeap  uint64  // bytes of live heap, sampled
}

// measured accumulates the usage of a run's passes.
type measured struct {
	walls    []float64
	genes    int
	cpu      float64
	peakHeap uint64
}

func (m *measured) add(u usage, genes int) {
	m.walls = append(m.walls, u.wall)
	m.genes += genes
	m.cpu += u.cpu
	if u.peakHeap > m.peakHeap {
		m.peakHeap = u.peakHeap
	}
}

// genesPerSecond is the median over passes of genes ÷ pass wall time.
func (m *measured) genesPerSecond(genesPerPass int) float64 {
	rates := make([]float64, len(m.walls))
	for i, w := range m.walls {
		rates[i] = float64(genesPerPass) / w
	}
	return median(rates)
}

// measure runs f, timing it and sampling the Go heap while it runs.
// The times are as measured: nothing rescales them for the machine's
// state (METRICS.md says why). It collects garbage first, so set-up
// leftovers do not count.
func measure(f func() error) (usage, error) {
	runtime.GC()
	stop := make(chan struct{})
	peak := make(chan uint64)
	go sampleHeap(stop, peak)
	c0 := cpuSeconds()
	t0 := time.Now()
	err := f()
	u := usage{wall: time.Since(t0).Seconds(), cpu: cpuSeconds() - c0}
	close(stop)
	u.peakHeap = <-peak
	return u, err
}

// heapSampleEvery is the heap sampling period: short against a pass,
// cheap (runtime/metrics reads do not stop the world).
const heapSampleEvery = 2 * time.Millisecond

// sampleHeap reports on peak the largest live heap seen until stop
// closes. The live heap is what the last garbage collection marked
// reachable: the working set, without the garbage whose amount depends
// on when collections happen to run.
func sampleHeap(stop <-chan struct{}, peak chan<- uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var max uint64
	read := func() {
		metrics.Read(s)
		if v := s[0].Value.Uint64(); v > max {
			max = v
		}
	}
	t := time.NewTicker(heapSampleEvery)
	defer t.Stop()
	for {
		read()
		select {
		case <-stop:
			read()
			peak <- max
			return
		case <-t.C:
		}
	}
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// endToEnd renders the end-to-end metrics shared by every workload.
func endToEnd(m *measured, genesPerPass int, chk *checker, trueLnL, setupS float64) map[string]metric {
	out := metricSet{}
	out.set("genes_per_s", m.genesPerSecond(genesPerPass))
	out.set("cpu_s_per_gene", m.cpu/float64(m.genes))
	// Both hypotheses' fits against the generating model's likelihood.
	out.set("lnl_ratio_to_truth", chk.lnlSum/(2*trueLnL))
	out.set("gene_ok_rate", float64(chk.attempted-chk.failed)/float64(chk.attempted))
	out.set("setup_s", setupS)
	out.set("peak_heap_mb", float64(m.peakHeap)/(1<<20))
	return out
}
