package serve

import (
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
)

// Job lifecycle events, the label values of slimcodemld_jobs_total.
// Transitions are counted where they happen (Submit, runJob, recover,
// the retention sweep), so the counter is an audit trail of everything
// that ever moved a job — including the recoveries and sweeps that
// previously happened silently.
const (
	eventSubmitted      = "submitted"
	eventDone           = "done"
	eventFailed         = "failed"
	eventCancelled      = "cancelled"
	eventInterrupted    = "interrupted"
	eventRecovered      = "recovered" // finished job re-listed after restart
	eventRequeued       = "requeued"  // unfinished job re-queued to resume
	eventRecoveryFailed = "recovery_failed"
	eventSwept          = "swept" // purged by the retention sweeper
	eventPurged         = "purged"
)

// serverMetrics is the daemon's metric surface. Pre-existing counters
// (the decomposition cache, the persistent store, queue occupancy) are
// exposed as function-backed series reading the very same state
// /healthz snapshots — the two endpoints cannot disagree because
// neither keeps numbers of its own.
type serverMetrics struct {
	reg          *obs.Registry
	httpRequests *obs.CounterVec   // route, code
	httpSeconds  *obs.HistogramVec // route
	jobEvents    *obs.CounterVec   // event
	activeJobs   *obs.Gauge

	// Follow-mode streaming (always registered: follow is not gated on
	// tenancy).
	followStreams *obs.Counter
	followActive  *obs.Gauge

	// Tenancy series — nil without a tenant source configured, so a
	// tenancy-off daemon's exposition is byte-compatible with the
	// pre-tenancy one. Label cardinality is bounded by the tenants
	// file (maxTenants). The gauges are written only by the
	// scheduler's onChange hook and read by both /metrics and
	// /healthz, so the two endpoints agree by construction.
	tenantActive     *obs.GaugeVec   // tenant
	tenantQueued     *obs.GaugeVec   // tenant
	tenantSubmitted  *obs.CounterVec // tenant
	tenantDispatched *obs.CounterVec // tenant
	tenantRefusals   *obs.CounterVec // tenant
	authRequests     *obs.CounterVec // outcome
	tenantReloads    *obs.CounterVec // result
}

// newServerMetrics registers the daemon's series on a fresh registry.
// The function-backed series close over the server; they are read only
// at scrape time, after New has finished wiring.
func newServerMetrics(s *Server) *serverMetrics {
	r := obs.NewRegistry()
	m := &serverMetrics{
		reg: r,
		httpRequests: r.CounterVec("slimcodemld_http_requests_total",
			"HTTP requests served, by route pattern and status code.", "route", "code"),
		httpSeconds: r.HistogramVec("slimcodemld_http_request_seconds",
			"HTTP request latency by route pattern.", nil, "route"),
		jobEvents: r.CounterVec("slimcodemld_jobs_total",
			"Job lifecycle events (submitted, done, failed, cancelled, interrupted, recovered, requeued, recovery_failed, swept, purged).", "event"),
		activeJobs: r.Gauge("slimcodemld_active_jobs",
			"Jobs in the running state right now."),
		followStreams: r.Counter("slimcodemld_follow_streams_total",
			"Follow-mode result streams opened (GET /jobs/{id}/results?follow=1)."),
		followActive: r.Gauge("slimcodemld_follow_streams_active",
			"Follow-mode result streams currently open."),
	}
	if s.tenancy {
		m.tenantActive = r.GaugeVec("slimcodemld_tenant_active_jobs",
			"Jobs running right now, by tenant.", "tenant")
		m.tenantQueued = r.GaugeVec("slimcodemld_tenant_queued_jobs",
			"Jobs waiting in the scheduler, by tenant.", "tenant")
		m.tenantSubmitted = r.CounterVec("slimcodemld_tenant_jobs_submitted_total",
			"Jobs accepted, by tenant.", "tenant")
		m.tenantDispatched = r.CounterVec("slimcodemld_tenant_jobs_dispatched_total",
			"Jobs handed to a runner by the fair-share scheduler, by tenant.", "tenant")
		m.tenantRefusals = r.CounterVec("slimcodemld_tenant_quota_refusals_total",
			"Submissions refused by a tenant's max_queued quota (HTTP 429), by tenant.", "tenant")
		m.authRequests = r.CounterVec("slimcodemld_auth_requests_total",
			"Authentication outcomes on the /jobs routes (ok, missing, denied).", "outcome")
		m.tenantReloads = r.CounterVec("slimcodemld_tenants_reloads_total",
			"Tenants-file reloads, by result (ok, error).", "result")
	}
	// The scheduler is wired after recovery; scrapes only happen once
	// New has returned, but guard anyway.
	r.GaugeFunc("slimcodemld_queue_depth",
		"Jobs waiting in the intake queue.", func() float64 {
			if s.sched == nil {
				return 0
			}
			return float64(s.sched.queued())
		})
	r.GaugeFunc("slimcodemld_queue_capacity",
		"Intake queue capacity (submissions beyond it are refused with 503).", func() float64 {
			if s.sched == nil {
				return 0
			}
			return float64(s.sched.capacityCap())
		})
	r.GaugeFunc("slimcodemld_jobs",
		"Jobs the daemon currently holds, in any state.", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.jobs))
		})
	r.GaugeFunc("slimcodemld_pool_workers",
		"Workers in the shared likelihood pool.", func() float64 { return float64(s.pool.NumWorkers()) })
	r.CounterFunc("slimcodemld_decomp_cache_hits_total",
		"Shared eigendecomposition cache hits.", func() float64 { h, _ := s.cache.Stats(); return float64(h) })
	r.CounterFunc("slimcodemld_decomp_cache_misses_total",
		"Shared eigendecomposition cache misses.", func() float64 { _, m := s.cache.Stats(); return float64(m) })
	r.CounterFunc("slimcodemld_decomp_cache_evictions_total",
		"Eigendecompositions displaced by the LRU policy.", func() float64 { return float64(s.cache.Evictions()) })
	r.GaugeFunc("slimcodemld_decomp_cache_entries",
		"Eigendecompositions resident in the shared cache.", func() float64 { return float64(s.cache.Len()) })
	if s.store != nil {
		r.CounterFunc("slimcodemld_persist_result_hits_total",
			"Persistent result-store replay hits.", func() float64 { return float64(s.store.Counters().ResultHits) })
		r.CounterFunc("slimcodemld_persist_result_misses_total",
			"Persistent result-store misses.", func() float64 { return float64(s.store.Counters().ResultMisses) })
		r.CounterFunc("slimcodemld_persist_result_writes_total",
			"Results written to the persistent store.", func() float64 { return float64(s.store.Counters().ResultWrites) })
	}
	return m
}

// tenantOccupancy is the scheduler's onChange hook: the single write
// path of the per-tenant occupancy gauges. /healthz reads the same
// gauges back, so the two surfaces cannot drift.
func (m *serverMetrics) tenantOccupancy(tenant string, active, queued int) {
	if m.tenantActive == nil {
		return
	}
	m.tenantActive.With(tenant).Set(float64(active))
	m.tenantQueued.With(tenant).Set(float64(queued))
}

// tenantDispatch is the scheduler's onDispatch hook.
func (m *serverMetrics) tenantDispatch(tenant string) {
	if m.tenantDispatched == nil {
		return
	}
	m.tenantDispatched.With(tenant).Inc()
}

// tenantSubmit counts an accepted submission for its tenant.
func (m *serverMetrics) tenantSubmit(tenant string, tenancy bool) {
	if m.tenantSubmitted == nil || !tenancy {
		return
	}
	m.tenantSubmitted.With(tenant).Inc()
}

// tenantQuotaRefusal counts a 429.
func (m *serverMetrics) tenantQuotaRefusal(tenant string) {
	if m.tenantRefusals == nil {
		return
	}
	m.tenantRefusals.With(tenant).Inc()
}

// authOutcome counts one auth decision (ok / missing / denied).
func (m *serverMetrics) authOutcome(outcome string) {
	if m.authRequests == nil {
		return
	}
	m.authRequests.With(outcome).Inc()
}

// tenantReload counts a tenants-file reload attempt.
func (m *serverMetrics) tenantReload(ok bool) {
	if m.tenantReloads == nil {
		return
	}
	result := "error"
	if ok {
		result = "ok"
	}
	m.tenantReloads.With(result).Inc()
}

// touchTenants pre-creates every configured tenant's series at zero,
// so a scrape right after startup (or a reload that adds a tenant)
// already exposes the full per-tenant surface instead of series
// popping into existence at first use.
func (m *serverMetrics) touchTenants(names []string) {
	if m.tenantActive == nil {
		return
	}
	for _, name := range names {
		m.tenantActive.With(name).Add(0)
		m.tenantQueued.With(name).Add(0)
		m.tenantSubmitted.With(name).Add(0)
		m.tenantDispatched.With(name).Add(0)
		m.tenantRefusals.With(name).Add(0)
	}
}

// statusWriter captures the status code the handler wrote.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so follow-mode streaming
// works through the instrumentation wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps the API mux with request counting and latency
// observation. The route label is the matched ServeMux pattern (e.g.
// "GET /jobs/{id}"), never the raw path, so label cardinality stays
// bounded no matter what clients request.
func (s *Server) instrument(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		mux.ServeHTTP(sw, r)
		route := r.Pattern
		if route == "" {
			route = "unmatched"
		}
		s.met.httpRequests.With(route, strconv.Itoa(sw.code)).Inc()
		s.met.httpSeconds.With(route).Observe(time.Since(t0).Seconds())
	})
}

// Metrics returns the daemon's metric registry — the same one GET
// /metrics serves — so embedding processes (tests, future tooling) can
// scrape or extend it directly.
func (s *Server) Metrics() *obs.Registry { return s.met.reg }
