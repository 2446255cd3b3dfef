package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
)

// Client is a typed client for the slimcodemld HTTP API — the same
// wire types (JobSpec, Status, Health) the server serves, so a
// coordinator process (internal/fanout, cmd/slimcodemlx) talks to a
// daemon without hand-rolling JSON. Methods take a context so callers
// can bound or cancel individual requests.
//
// Server-reported errors come back as *APIError carrying the HTTP
// status code; transport failures (connection refused, reset — the
// daemon is gone) come back as the underlying error. IsUnavailable and
// IsNotFound classify the API errors a coordinator routes on.
type Client struct {
	// Base is the daemon's base URL, e.g. "http://host:8710".
	Base string
	// HTTP is the underlying client (nil = http.DefaultClient).
	HTTP *http.Client
	// Token, when set, is sent as "Authorization: Bearer <Token>" on
	// every request — required against a daemon with tenancy on,
	// harmless against one without (the header is ignored).
	Token string
}

// NewClient builds a client for the daemon at base, accepting bare
// "host:port" by assuming http.
func NewClient(base string) *Client {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &Client{Base: strings.TrimRight(base, "/")}
}

// APIError is a server-reported error: the HTTP status code plus the
// {"error": "..."} message body.
type APIError struct {
	StatusCode int
	Msg        string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("serve: daemon answered %d: %s", e.StatusCode, e.Msg)
}

// IsUnavailable reports whether err is the daemon refusing work
// (503: full queue or shutting down) — retry later or elsewhere.
func IsUnavailable(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.StatusCode == http.StatusServiceUnavailable
}

// IsNotFound reports whether err is the daemon not knowing the job
// (404) — e.g. it was purged or the data directory was recreated.
func IsNotFound(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.StatusCode == http.StatusNotFound
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// newRequest builds a request with the client's credentials attached.
func (c *Client) newRequest(ctx context.Context, method, path string, body io.Reader) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, body)
	if err != nil {
		return nil, err
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	return req, nil
}

// do issues one request and decodes the JSON response into out
// (unless out is nil). Non-2xx responses become *APIError.
func (c *Client) do(ctx context.Context, method, path string, body io.Reader, out any) error {
	req, err := c.newRequest(ctx, method, path, body)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeError(resp)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// decodeError turns a non-2xx response into an *APIError, falling back
// to the raw body when it is not the conventional {"error": ...}.
func decodeError(resp *http.Response) error {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var e struct {
		Error string `json:"error"`
	}
	msg := strings.TrimSpace(string(data))
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		msg = e.Error
	}
	return &APIError{StatusCode: resp.StatusCode, Msg: msg}
}

// Submit posts a job spec and returns the accepted job's status.
func (c *Client) Submit(ctx context.Context, spec JobSpec) (Status, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return Status{}, err
	}
	var st Status
	err = c.do(ctx, http.MethodPost, "/jobs", bytes.NewReader(body), &st)
	return st, err
}

// JobStatus fetches one job's status.
func (c *Client) JobStatus(ctx context.Context, id string) (Status, error) {
	var st Status
	err := c.do(ctx, http.MethodGet, "/jobs/"+url.PathEscape(id), nil, &st)
	return st, err
}

// ListJobs fetches every job's status in submission order.
func (c *Client) ListJobs(ctx context.Context) ([]Status, error) {
	var out struct {
		Jobs []Status `json:"jobs"`
	}
	err := c.do(ctx, http.MethodGet, "/jobs", nil, &out)
	return out.Jobs, err
}

// ListJobsPage fetches one window of the job listing (GET
// /jobs?offset=N&limit=M). limit <= 0 means "the rest".
func (c *Client) ListJobsPage(ctx context.Context, offset, limit int) (JobsPage, error) {
	var page JobsPage
	path := fmt.Sprintf("/jobs?offset=%d&limit=%d", offset, limit)
	err := c.do(ctx, http.MethodGet, path, nil, &page)
	return page, err
}

// FollowResults opens a follow-mode result stream (GET
// /jobs/{id}/results?follow=1&offset=N): a chunked JSONL stream that
// delivers each gene record as the daemon's checkpoint ledger makes it
// durable, ending when the job reaches a terminal state (or early on
// daemon shutdown — always at a line boundary, so the bytes received
// are a clean prefix of the final results).
//
// The returned bool reports whether the daemon actually followed
// (the X-Slimcodemld-Follow response header): an older daemon ignores
// the parameters and answers with a bounded point-in-time body, which
// the fan-out coordinator refuses. offset skips bytes already received
// — how a caller resumes after an interrupted stream.
func (c *Client) FollowResults(ctx context.Context, id string, offset int64) (io.ReadCloser, bool, error) {
	path := fmt.Sprintf("/jobs/%s/results?follow=1&offset=%d", url.PathEscape(id), offset)
	req, err := c.newRequest(ctx, http.MethodGet, path, nil)
	if err != nil {
		return nil, false, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, false, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, false, decodeError(resp)
	}
	return resp.Body, resp.Header.Get(followHeader) == "1", nil
}

// Cancel stops the job (DELETE /jobs/{id}) and returns its status.
func (c *Client) Cancel(ctx context.Context, id string) (Status, error) {
	var st Status
	err := c.do(ctx, http.MethodDelete, "/jobs/"+url.PathEscape(id), nil, &st)
	return st, err
}

// Purge removes a finished job and its results, ledger and spec files
// from the daemon's data directory (DELETE /jobs/{id}?purge=1) —
// how a fan-out coordinator cleans up after collecting a shard.
func (c *Client) Purge(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/jobs/"+url.PathEscape(id)+"?purge=1", nil, nil)
}

// Health fetches the daemon's liveness and queue occupancy.
func (c *Client) Health(ctx context.Context) (Health, error) {
	var h Health
	err := c.do(ctx, http.MethodGet, "/healthz", nil, &h)
	return h, err
}

// Metrics fetches the daemon's raw Prometheus text exposition
// (GET /metrics), unparsed — callers that want structure run it
// through obs.CheckExposition or their own scraper.
func (c *Client) Metrics(ctx context.Context) ([]byte, error) {
	req, err := c.newRequest(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	return io.ReadAll(resp.Body)
}
