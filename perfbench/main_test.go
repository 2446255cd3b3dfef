package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/manifest"
)

// spec is the part of BENCHMARK.json the self-test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCatalogueMatchesSpec keeps the Go catalogue and BENCHMARK.json
// in step.
func TestCatalogueMatchesSpec(t *testing.T) {
	s := readSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, benchmark %s", got, want)
	}
	check := func(kind string, cat [][2]string, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(got) != len(cat) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(cat))
			return
		}
		for i, m := range got {
			if m.Name != cat[i][0] || m.Unit != cat[i][1] {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark %s [%s]", kind, i, m.Name, m.Unit, cat[i][0], cat[i][1])
			}
		}
	}
	check("end_to_end", endToEndUnits, s.EndToEnd)
	check("per_layer", perLayer, s.PerLayer)
}

// toy shrinks a workload to seconds of work, keeping its engine and
// tier.
func toy(w workload) workload {
	w.species, w.codons, w.maxIter = 4, 12, 1
	w.genes = 2
	if w.fleet {
		w.genes = 4
	}
	return w
}

// TestWorkloadsToy runs every workload at toy size, untraced and
// traced, and requires a correct result carrying exactly the
// catalogued metrics with their units.
func TestWorkloadsToy(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			w, traced := toy(w), traced
			name := w.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				cfg := config{workload: w, seed: 7, trace: traced, workDir: t.TempDir(), spanDir: t.TempDir()}
				res, err := run(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < w.genes {
					t.Fatalf("correct=%t attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				cat := endToEndUnits
				if traced {
					cat = perLayer
				}
				if len(res.Metrics) != len(cat) {
					t.Errorf("%d metrics, catalogue has %d", len(res.Metrics), len(cat))
				}
				for _, c := range cat {
					m, ok := res.Metrics[c[0]]
					switch {
					case !ok:
						t.Errorf("%s missing", c[0])
					case m.Unit != c[1]:
						t.Errorf("%s unit %q, want %q", c[0], m.Unit, c[1])
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0:
						t.Errorf("%s = %v", c[0], m.Value)
					case !traced && m.Value == 0:
						t.Errorf("end-to-end metric %s is 0", c[0])
					}
				}
				if _, err := json.Marshal(res); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// TestCheckerCatchesCorruptRows feeds the output check a clean pass
// and then corrupted copies of it.
func TestCheckerCatchesCorruptRows(t *testing.T) {
	entries := []manifest.Entry{{Name: "g000"}, {Name: "g001"}}
	good := `{"name":"g000","lnl_h0":-100.5,"lnl_h1":-99.25,"runtime_sec":0}` + "\n" +
		`{"name":"g001","lnl_h0":-80,"lnl_h1":-80,"runtime_sec":0}` + "\n"
	var c checker
	c.pass([]byte(good), entries)
	if !c.ok() || c.attempted != 2 || c.lnlSum != -359.75 {
		t.Fatalf("clean pass: failed=%d attempted=%d lnl=%v %v", c.failed, c.attempted, c.lnlSum, c.problems)
	}
	c.pass([]byte(strings.ReplaceAll(good, `"runtime_sec":0`, `"runtime_sec":1.5`)), entries)
	if !c.ok() {
		t.Fatalf("runtime_sec must not count: %v", c.problems)
	}
	corrupt := map[string]string{
		"error row":     strings.Replace(good, `"lnl_h0":-80,`, `"error":"boom","lnl_h0":-80,`, 1),
		"missing row":   strings.SplitAfter(good, "\n")[0],
		"extra row":     good + `{"name":"g002"}` + "\n",
		"renamed row":   strings.Replace(good, `"g001"`, `"g009"`, 1),
		"torn row":      good[:len(good)-10] + "\n",
		"changed value": strings.Replace(good, "-99.25", "-99.5", 1),
		"nan lnl":       strings.Replace(good, `-100.5`, `"NaN"`, 1),
		"positive lnl":  strings.Replace(good, `-100.5`, `100.5`, 1),
	}
	for name, out := range corrupt {
		c := checker{ref: []byte(good)}
		c.pass([]byte(out), entries)
		if c.ok() {
			t.Errorf("%s: not caught", name)
		}
	}
}
