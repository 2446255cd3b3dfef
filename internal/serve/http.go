package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
)

// Handler returns the service's HTTP API:
//
//	POST   /jobs                  submit a JobSpec, returns the job status (202)
//	GET    /jobs                  list all (visible) jobs
//	GET    /jobs?offset=N&limit=M one window of the listing, with total/next_offset
//	GET    /jobs/{id}             one job's status with per-gene progress
//	GET    /jobs/{id}/results     stream the job's results as JSON Lines
//	GET    /jobs/{id}/results?follow=1[&offset=N]
//	                              follow mode: chunked JSONL that streams each
//	                              gene record as the checkpoint ledger lands it
//	DELETE /jobs/{id}             cancel the job
//	DELETE /jobs/{id}?purge=1     purge a finished job and its data files
//	GET    /healthz               liveness plus queue occupancy (Health)
//	GET    /metrics               Prometheus text exposition (obs)
//
// With tenancy configured the /jobs routes require "Authorization:
// Bearer <token>" (401 without a token, 403 with a wrong one), each
// tenant sees only its own jobs (another tenant's job id is a 404 —
// existence is not leaked), and a tenant over its max_queued quota is
// refused with 429. /healthz and /metrics stay unauthenticated: they
// carry operational aggregates, not tenant data, and probes/scrapers
// should not need credentials.
//
// Errors are JSON objects {"error": "..."} with conventional status
// codes (400 bad spec, 404 unknown job, 409 cancel of a finished job
// or purge of an active one, 429 tenant quota, 503 full queue or
// shutdown). The Client type in this package speaks this API.
//
// Every request — /metrics scrapes included — is counted and timed
// into slimcodemld_http_requests_total / _request_seconds, labelled by
// the matched route pattern.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.auth(s.handleSubmit))
	mux.HandleFunc("GET /jobs", s.auth(s.handleList))
	mux.HandleFunc("GET /jobs/{id}", s.auth(s.handleStatus))
	mux.HandleFunc("GET /jobs/{id}/results", s.auth(s.handleResults))
	mux.HandleFunc("DELETE /jobs/{id}", s.auth(s.handleCancel))
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.Handle("GET /metrics", s.met.reg.Handler())
	return s.instrument(mux)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// tenantCtxKey carries the authenticated tenant name; present in a
// request context iff tenancy is on and the request authenticated.
type tenantCtxKey struct{}

// requestTenant returns the authenticated tenant and whether tenant
// scoping applies to this request.
func requestTenant(r *http.Request) (string, bool) {
	name, ok := r.Context().Value(tenantCtxKey{}).(string)
	return name, ok
}

// bearerToken extracts the Authorization: Bearer credential.
func bearerToken(r *http.Request) (string, bool) {
	h := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if len(h) <= len(prefix) || !strings.EqualFold(h[:len(prefix)], prefix) {
		return "", false
	}
	tok := strings.TrimSpace(h[len(prefix):])
	return tok, tok != ""
}

// auth gates a /jobs handler on tenancy: with no tenant source
// configured it is a pass-through (the pre-tenancy daemon, wire
// shapes untouched); with one, it resolves the bearer token against
// the current tenant set in constant time and stamps the tenant into
// the request context.
func (s *Server) auth(h http.HandlerFunc) http.HandlerFunc {
	if !s.tenancy {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		token, ok := bearerToken(r)
		if !ok {
			s.met.authOutcome("missing")
			w.Header().Set("WWW-Authenticate", `Bearer realm="slimcodemld"`)
			writeError(w, http.StatusUnauthorized, errors.New("missing bearer token"))
			return
		}
		var name string
		authed := false
		if ts := s.tenants.Load(); ts != nil {
			name, authed = ts.authenticate(token)
		}
		if !authed {
			s.met.authOutcome("denied")
			writeError(w, http.StatusForbidden, errors.New("invalid token"))
			return
		}
		s.met.authOutcome("ok")
		h(w, r.WithContext(context.WithValue(r.Context(), tenantCtxKey{}, name)))
	}
}

// jobFor resolves {id} under the caller's visibility. Another tenant's
// job answers 404, exactly like a job that never existed.
func (s *Server) jobFor(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	job, ok := s.Job(id)
	if ok {
		if tenant, scoped := requestTenant(r); scoped && job.tenant != tenant {
			ok = false
		}
	}
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %s", id))
		return nil, false
	}
	return job, true
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(io.LimitReader(r.Body, 16<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad job spec: %w", err))
		return
	}
	// The tenant field is server-assigned: whatever the client sent is
	// replaced by the authenticated identity (or cleared with tenancy
	// off), so ownership can neither be spoofed nor invented.
	if tenant, scoped := requestTenant(r); scoped {
		spec.Tenant = tenant
	} else {
		spec.Tenant = ""
	}
	job, err := s.Submit(spec)
	if err != nil {
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, ErrTenantQueueFull):
			status = http.StatusTooManyRequests
		case errors.Is(err, ErrQueueFull), errors.Is(err, ErrShuttingDown):
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusAccepted, job.Status())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	tenant, scoped := requestTenant(r)
	q := r.URL.Query()
	_, hasOffset := q["offset"]
	_, hasLimit := q["limit"]
	if !hasOffset && !hasLimit {
		// The original unpaginated shape, byte-compatible.
		writeJSON(w, http.StatusOK, map[string]any{"jobs": statuses(s.jobsSnapshot(tenant, scoped))})
		return
	}
	parse := func(key string) (int, error) {
		v := q.Get(key)
		if v == "" {
			return 0, nil
		}
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return 0, fmt.Errorf("bad %s %q", key, v)
		}
		return n, nil
	}
	offset, err := parse("offset")
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	limit, err := parse("limit")
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, s.JobsPage(tenant, scoped, offset, limit))
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, job.Status())
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	var offset int64
	if v := q.Get("offset"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad offset %q", v))
			return
		}
		offset = n
	}
	lines := newLineReader(job.ResultsPath(), offset)
	if v := q.Get("follow"); v != "" {
		follow, err := strconv.ParseBool(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad follow value %q", v))
			return
		}
		if follow {
			s.streamResults(w, r, job, lines)
			return
		}
	}
	// A plain fetch is one pass of the follow reader with no wait: the
	// complete records on disk now, never a line caught mid-append. A
	// missing file (no results yet) is an empty stream, not an error.
	w.Header().Set("Content-Type", "application/x-ndjson")
	if _, err := lines.forward(w); err != nil {
		writeError(w, http.StatusInternalServerError, err)
	}
}

// followHeader marks a follow-capable response — the capability signal
// Client.FollowResults and the fan-out coordinator check; the
// coordinator refuses a daemon that does not send it.
const followHeader = "X-Slimcodemld-Follow"

// streamResults is follow mode: a chunked JSONL stream that forwards
// each gene record as the checkpoint ledger makes it durable. The
// fsync-before-describe discipline guarantees every complete line in
// the results file is a durable, final record, and the stream only
// ever forwards through the last complete line — so the client sees a
// clean prefix of the final results at every instant, including when
// the stream ends early (daemon shutdown, client disconnect). The
// stream closes after the job reaches a terminal state and the file is
// drained; a client that wants the remainder after an interrupted
// daemon restarts re-follows with ?offset=<bytes received>.
//
// The stream sleeps on the job's change signal, which fires after each
// row is durable and on every state change — no timer paces it.
func (s *Server) streamResults(w http.ResponseWriter, r *http.Request, job *Job, lines *lineReader) {
	flusher, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set(followHeader, "1")
	w.WriteHeader(http.StatusOK)
	if canFlush {
		flusher.Flush() // headers out: the client learns follow is live
	}
	s.met.followStreams.Inc()
	s.met.followActive.Inc()
	defer s.met.followActive.Dec()

	for {
		// Snapshot before read: a terminal state means no further
		// writes, so the read after it drains everything; otherwise any
		// row landing after the read fires changed. A file that cannot
		// be opened yet (job not started, purged mid-stream) is simply
		// no new bytes.
		terminal, changed := job.watch()
		if n, _ := lines.forward(w); n > 0 && canFlush {
			flusher.Flush()
		}
		if terminal {
			// Drained. A leftover partial line cannot happen on a sound
			// results file (records are complete lines); if the file was
			// torn by outside interference the fragment is not a record
			// and is dropped with the connection.
			return
		}
		select {
		case <-r.Context().Done():
			return // client went away
		case <-s.quit:
			return // daemon shutting down: the prefix sent is clean
		case <-changed:
		}
	}
}

// lineReader reads a job's results file from a byte offset and hands
// out complete lines only — the one reader behind both the plain and
// the follow results fetch. A partial line caught mid-append waits in
// pending until its terminator lands; memory is one read buffer plus
// that partial tail.
type lineReader struct {
	path    string
	pos     int64 // file offset read so far, pending included
	pending []byte
	buf     []byte
}

func newLineReader(path string, offset int64) *lineReader {
	return &lineReader{path: path, pos: offset, buf: make([]byte, 64<<10)}
}

// forward copies the bytes appended since the last call to w, reading
// to EOF and writing through the last '\n' after each read. It returns
// the bytes written. A missing file is zero bytes and no error; any
// other open or seek failure is returned before anything is written. A
// read or write error ends the pass: whatever was written is a clean
// prefix, and a write error means the client went away.
func (l *lineReader) forward(w io.Writer) (int, error) {
	f, err := os.Open(l.path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	defer f.Close()
	if _, err := f.Seek(l.pos, io.SeekStart); err != nil {
		return 0, err
	}
	written := 0
	for {
		n, rerr := f.Read(l.buf)
		l.pos += int64(n)
		l.pending = append(l.pending, l.buf[:n]...)
		if i := bytes.LastIndexByte(l.pending, '\n'); i >= 0 {
			m, werr := w.Write(l.pending[:i+1])
			written += m
			l.pending = append(l.pending[:0], l.pending[i+1:]...)
			if werr != nil {
				return written, nil
			}
		}
		if rerr != nil {
			return written, nil
		}
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.jobFor(w, r); !ok {
		return
	}
	id := r.PathValue("id")
	if q := r.URL.Query().Get("purge"); q != "" {
		purge, err := strconv.ParseBool(q)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad purge value %q", q))
			return
		}
		if purge {
			switch err := s.Purge(id); {
			case err == nil:
				writeJSON(w, http.StatusOK, map[string]string{"purged": id})
			case errors.Is(err, ErrJobActive):
				writeError(w, http.StatusConflict, err)
			case errors.Is(err, ErrUnknownJob):
				// A concurrent purge (retention sweep, another DELETE)
				// got there first: gone is gone, not a server error.
				writeError(w, http.StatusNotFound, err)
			default:
				writeError(w, http.StatusInternalServerError, err)
			}
			return
		}
		// purge=0/false is an explicit plain cancel: fall through.
	}
	if err := s.Cancel(id); err != nil {
		status := http.StatusConflict
		if errors.Is(err, ErrUnknownJob) {
			// Purged between jobFor and Cancel: gone is gone.
			status = http.StatusNotFound
		}
		writeError(w, status, err)
		return
	}
	// Re-look the job up: a concurrent ?purge=1 may have removed it
	// between the cancel and here.
	job, ok := s.Job(id)
	if !ok {
		writeJSON(w, http.StatusOK, map[string]string{"cancelled": id})
		return
	}
	writeJSON(w, http.StatusOK, job.Status())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := len(s.jobs)
	closed := s.closed
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, Health{
		Status:      map[bool]string{false: "ok", true: "shutting-down"}[closed],
		Jobs:        jobs,
		QueueLen:    s.sched.queued(),
		QueueCap:    s.sched.capacityCap(),
		PoolWorkers: s.pool.NumWorkers(),
		Cache:       s.cacheHealth(),
		Tenants:     s.tenantHealth(),
	})
}
