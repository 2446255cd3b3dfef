package fanout_test

import (
	"bytes"
	"context"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/fanout"
	"repro/internal/obs"
	"repro/internal/serve"
)

// sampleValue extracts one sample's value (name with labels, exactly as
// exposed) from a text exposition.
func sampleValue(t *testing.T, exposition, sample string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(line, sample+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("sample %s: bad value %q", sample, rest)
			}
			return v
		}
	}
	t.Fatalf("exposition lacks sample %s:\n%s", sample, exposition)
	return 0
}

// TestFanoutMetricsAndEvents drives a run through one endpoint death
// and one job-level failure and checks the coordinator's metric surface
// (shard phases drained, death and resubmission counted, poll latency
// observed) plus the structured event stream (endpoint exclusion and
// shard resubmission carry endpoint/shard attributes).
func TestFanoutMetricsAndEvents(t *testing.T) {
	entries := stubEntries(t, 6)

	stub := newStubDaemon()
	stub.failFirst = true
	ts := httptest.NewServer(stub.handler())
	defer ts.Close()
	// A second endpoint that refuses connections: its death must be
	// counted and every shard routed to the live stub.
	dead := httptest.NewServer(stub.handler())
	deadURL := dead.URL
	dead.Close()

	var logBuf bytes.Buffer
	logger, err := obs.NewLogger(&logBuf, "json")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	outPath := filepath.Join(t.TempDir(), "merged.jsonl")
	sum, err := fanout.Run(context.Background(), fanout.Config{
		Entries:      entries,
		Endpoints:    []string{ts.URL, deadURL},
		Shards:       2,
		OutPath:      outPath,
		Spec:         serve.JobSpec{MaxIter: 1, Seed: 1},
		Reprobe:      -1, // keep the dead endpoint dead: no readmission races
		MaxResubmits: 3,
		Metrics:      reg,
		Log:          logger,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Resubmits != 1 {
		t.Fatalf("resubmits = %d, want exactly 1 (one scripted job failure)", sum.Resubmits)
	}

	var expBuf bytes.Buffer
	if err := reg.WriteExposition(&expBuf); err != nil {
		t.Fatal(err)
	}
	if err := obs.CheckExposition(expBuf.Bytes()); err != nil {
		t.Fatalf("coordinator exposition not conformant: %v\n%s", err, expBuf.String())
	}
	exp := expBuf.String()
	for sample, want := range map[string]float64{
		"slimcodemlx_shards_merged":                        2,
		`slimcodemlx_shards{phase="pending"}`:              0,
		`slimcodemlx_shards{phase="submitted"}`:            0,
		`slimcodemlx_shards{phase="job_done"}`:             0,
		`slimcodemlx_endpoints{state="alive"}`:             1,
		`slimcodemlx_endpoints{state="dead"}`:              1,
		`slimcodemlx_endpoint_events_total{event="death"}`: 1,
		"slimcodemlx_shard_resubmits_total":                1,
	} {
		if got := sampleValue(t, exp, sample); got != want {
			t.Errorf("%s = %v, want %v", sample, got, want)
		}
	}
	if sampleValue(t, exp, "slimcodemlx_output_bytes") <= 0 {
		t.Error("output_bytes gauge never tracked the merged file")
	}
	if sampleValue(t, exp, "slimcodemlx_poll_seconds_count") < 1 {
		t.Error("poll latency histogram never observed a status round trip")
	}

	log := logBuf.String()
	for _, want := range []string{
		`"msg":"endpoint stopped answering; excluded"`,
		`"endpoint":"` + deadURL + `"`,
		`"msg":"shard needs resubmission"`,
		`"msg":"shard submitted"`,
		`"msg":"shard merged"`,
	} {
		if !strings.Contains(log, want) {
			t.Errorf("structured log lacks %s:\n%s", want, log)
		}
	}
}
