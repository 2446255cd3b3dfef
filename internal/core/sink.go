package core

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// GeneRecord is the flat, serialization-friendly projection of one
// GeneResult that the streaming sinks emit: the H1 parameter
// estimates, both log-likelihoods, the LRT, and the NEB-positive
// sites. A failed gene carries only Name and Error.
type GeneRecord struct {
	Name          string          `json:"name"`
	Error         string          `json:"error,omitempty"`
	LnL0          float64         `json:"lnl_h0"`
	LnL1          float64         `json:"lnl_h1"`
	LRT           float64         `json:"lrt"`
	PChi2         float64         `json:"p_chi2"`
	PMixture      float64         `json:"p_mixture"`
	Kappa         float64         `json:"kappa"`
	Omega0        float64         `json:"omega0"`
	Omega2        float64         `json:"omega2"`
	P0            float64         `json:"p0"`
	P1            float64         `json:"p1"`
	Iterations    int             `json:"iterations"`
	Converged     bool            `json:"converged"`
	RuntimeSec    float64         `json:"runtime_sec"`
	PositiveSites []SiteSelection `json:"positive_sites,omitempty"`
}

// NewGeneRecord flattens a GeneResult for serialization. A replayed
// result returns its stored record as-is, so the serialization is
// byte-identical to the run that produced it.
func NewGeneRecord(r GeneResult) GeneRecord {
	if r.Rec != nil {
		return *r.Rec
	}
	rec := GeneRecord{Name: r.Name}
	if r.Err != nil {
		rec.Error = r.Err.Error()
		return rec
	}
	t := r.Result
	rec.LnL0, rec.LnL1 = t.H0.LnL, t.H1.LnL
	rec.LRT, rec.PChi2, rec.PMixture = t.LRT.Statistic, t.LRT.PValueChi2, t.LRT.PValueMixture
	p := t.H1.Params
	rec.Kappa, rec.Omega0, rec.Omega2, rec.P0, rec.P1 = p.Kappa, p.Omega0, p.Omega2, p.P0, p.P1
	rec.Iterations = t.TotalIterations
	rec.Converged = t.H0.Converged && t.H1.Converged
	rec.RuntimeSec = t.TotalRuntime.Seconds()
	rec.PositiveSites = t.PositiveSites
	return rec
}

// JSONLSink writes one JSON object per gene (JSON Lines) — the
// append-only format downstream pipelines stream back in without
// loading the whole result set.
type JSONLSink struct{ w io.Writer }

// NewJSONLSink returns a sink writing JSON Lines to w. The sink does
// not buffer; wrap w in a bufio.Writer (and flush it) for files.
func NewJSONLSink(w io.Writer) *JSONLSink { return &JSONLSink{w: w} }

// Write emits one gene's record as a JSON line.
func (s *JSONLSink) Write(r GeneResult) error {
	b, err := json.Marshal(NewGeneRecord(r))
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = s.w.Write(b)
	return err
}

// tsvColumns is the fixed column order TSVSink emits.
var tsvColumns = []string{
	"gene", "lnl_h0", "lnl_h1", "lrt", "p_chi2", "p_mixture",
	"kappa", "omega0", "omega2", "p0", "p1",
	"iterations", "converged", "runtime_sec", "positive_sites", "error",
}

// TSVSink writes a header line followed by one tab-separated row per
// gene. Failed genes carry NA in every numeric column and the error
// message in the last one; empty list/error columns hold "-".
type TSVSink struct {
	w           io.Writer
	wroteHeader bool
}

// NewTSVSink returns a sink writing tab-separated rows to w. The sink
// does not buffer; wrap w in a bufio.Writer (and flush it) for files.
func NewTSVSink(w io.Writer) *TSVSink { return &TSVSink{w: w} }

// Write emits one gene's record as a TSV row, preceded by the header
// on first use.
func (s *TSVSink) Write(r GeneResult) error {
	if !s.wroteHeader {
		if _, err := fmt.Fprintln(s.w, strings.Join(tsvColumns, "\t")); err != nil {
			return err
		}
		s.wroteHeader = true
	}
	rec := NewGeneRecord(r)
	row := make([]string, 0, len(tsvColumns))
	if rec.Error != "" {
		row = append(row, rec.Name)
		for i := 1; i < len(tsvColumns)-1; i++ {
			row = append(row, "NA")
		}
		row = append(row, rec.Error)
	} else {
		sites := "-"
		if len(rec.PositiveSites) > 0 {
			parts := make([]string, len(rec.PositiveSites))
			for i, site := range rec.PositiveSites {
				parts[i] = fmt.Sprintf("%d:%.3f", site.Site, site.Probability)
			}
			sites = strings.Join(parts, ",")
		}
		row = append(row,
			rec.Name,
			tsvF(rec.LnL0), tsvF(rec.LnL1), tsvF(rec.LRT),
			tsvG(rec.PChi2), tsvG(rec.PMixture),
			tsvF(rec.Kappa), tsvF(rec.Omega0), tsvF(rec.Omega2),
			tsvF(rec.P0), tsvF(rec.P1),
			strconv.Itoa(rec.Iterations),
			strconv.FormatBool(rec.Converged),
			strconv.FormatFloat(rec.RuntimeSec, 'f', 3, 64),
			sites,
			"-",
		)
	}
	_, err := fmt.Fprintln(s.w, strings.Join(row, "\t"))
	return err
}

func tsvF(v float64) string { return strconv.FormatFloat(v, 'f', 6, 64) }
func tsvG(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// CollectSink accumulates results in memory, in delivery order — the
// natural sink for moderate batches whose results are consumed
// programmatically.
type CollectSink struct{ results []GeneResult }

// Write appends the result.
func (s *CollectSink) Write(r GeneResult) error {
	s.results = append(s.results, r)
	return nil
}

// Results returns the collected results in source order.
func (s *CollectSink) Results() []GeneResult { return s.results }

// MultiSink fans every result out to several sinks in order — e.g. a
// CollectSink for in-process ranking plus a JSONLSink for the archive.
type MultiSink struct{ sinks []ResultSink }

// NewMultiSink returns a sink that writes to each given sink in turn,
// stopping at the first error.
func NewMultiSink(sinks ...ResultSink) *MultiSink { return &MultiSink{sinks: sinks} }

// Write delivers the result to every sink.
func (m *MultiSink) Write(r GeneResult) error {
	for _, s := range m.sinks {
		if err := s.Write(r); err != nil {
			return err
		}
	}
	return nil
}
