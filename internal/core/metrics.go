package core

import (
	"time"

	"repro/internal/obs"
)

// streamMetrics are the instrumentation handles one RunBatchStream
// records into. Built from StreamOptions.Metrics; with a nil registry
// every handle is nil and every call below is a no-op (the
// zero-overhead contract TestStreamMetricsParity enforces — the
// instrumented stream's output bytes never differ from an
// uninstrumented run's, because instrumentation only observes).
type streamMetrics struct {
	fitSeconds *obs.Histogram
	genes      *obs.CounterVec // result: ok | error
	replayed   *obs.Counter
	window     *obs.Gauge
	windowCap  *obs.Gauge
	inflight   *obs.Gauge
}

// newStreamMetrics registers the stream's series. Metric names are
// shared across every process that embeds the stream (CLI, daemon), so
// they carry the slimcodeml_stream prefix rather than a per-binary
// one; re-registration on a long-lived daemon registry is idempotent.
func newStreamMetrics(r *obs.Registry, prefetch int) *streamMetrics {
	m := &streamMetrics{
		fitSeconds: r.Histogram("slimcodeml_stream_gene_fit_seconds",
			"Wall time fitting one gene (H0+H1+BEB); replayed genes are not observed.", nil),
		genes: r.CounterVec("slimcodeml_stream_genes_total",
			"Gene results delivered to the sink, by outcome.", "result"),
		replayed: r.Counter("slimcodeml_stream_replayed_total",
			"Genes delivered from the persistent result store without fitting."),
		window: r.Gauge("slimcodeml_stream_prefetch_occupancy",
			"Genes currently resident in the prefetch window (loaded, fitting, or awaiting in-order delivery)."),
		windowCap: r.Gauge("slimcodeml_stream_prefetch_limit",
			"Configured prefetch window bound."),
		inflight: r.Gauge("slimcodeml_stream_fits_inflight",
			"Genes being fitted right now."),
	}
	m.windowCap.Set(float64(prefetch))
	return m
}

// observeFit records one completed (non-replayed) fit.
func (m *streamMetrics) observeFit(d time.Duration) {
	m.fitSeconds.Observe(d.Seconds())
}

// observeDelivery records one result reaching the sink.
func (m *streamMetrics) observeDelivery(r GeneResult) {
	if r.Err != nil {
		m.genes.With("error").Inc()
	} else {
		m.genes.With("ok").Inc()
	}
	if r.Rec != nil {
		m.replayed.Inc()
	}
}
