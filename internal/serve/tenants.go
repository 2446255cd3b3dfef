// Tenants: the daemon's multi-tenancy configuration and token
// authentication. Tenancy is opt-in — a daemon started without a
// tenants file behaves exactly as before (no auth, one shared FIFO
// queue, unchanged wire shapes); with one, every /jobs request must
// carry a tenant's bearer token, per-tenant quotas gate admission, and
// the scheduler round-robins across tenants (see sched.go).
//
// # File format
//
// One tenant per line, whitespace-separated; '#' starts a comment and
// blank lines are ignored:
//
//	# name    token                  optional key=value quotas
//	alice     tok-alice-8f3a2b91     max_active=2 max_queued=16
//	bob       tok-bob-55e01c77
//
// Tokens are compared in constant time (crypto/subtle) against every
// configured tenant, so response timing leaks neither token bytes nor
// which tenant nearly matched. The file is hot-reloadable: the daemon
// re-reads it when its mtime changes (and on SIGHUP); a reload that
// fails to parse keeps the previous tenant set, so a bad edit can't
// lock every client out.
package serve

import (
	"crypto/subtle"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Tenant is one configured tenant: a name, its bearer token, and its
// admission quotas (0 = unlimited).
type Tenant struct {
	Name  string
	Token string
	// MaxActive caps the tenant's concurrently running jobs; further
	// jobs wait in the tenant's queue even when the pool has capacity.
	MaxActive int
	// MaxQueued caps the tenant's queued (not yet running) jobs;
	// submissions beyond it are refused with 429.
	MaxQueued int
}

const (
	maxTenantNameLen = 64
	minTokenLen      = 8
	maxTokenLen      = 256
	maxTenants       = 4096
)

// ParseTenants reads a tenants file. It validates shape (names, token
// length and charset, quota bounds) and global coherence (no duplicate
// names, no duplicate tokens). An empty file is a valid lockdown: with
// tenancy on and zero tenants, every request is refused.
func ParseTenants(r io.Reader) ([]Tenant, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("tenants: %w", err)
	}
	var tenants []Tenant
	names := make(map[string]bool)
	tokens := make(map[string]bool)
	for i, line := range strings.Split(string(data), "\n") {
		lineNo := i + 1
		if j := strings.IndexByte(line, '#'); j >= 0 {
			line = line[:j]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(fields) < 2 {
			return nil, fmt.Errorf("tenants: line %d: want 'name token [key=value...]'", lineNo)
		}
		t := Tenant{Name: fields[0], Token: fields[1]}
		if err := validTenantName(t.Name); err != nil {
			return nil, fmt.Errorf("tenants: line %d: %w", lineNo, err)
		}
		if err := validToken(t.Token); err != nil {
			return nil, fmt.Errorf("tenants: line %d: tenant %s: %w", lineNo, t.Name, err)
		}
		if names[t.Name] {
			return nil, fmt.Errorf("tenants: line %d: duplicate tenant %q", lineNo, t.Name)
		}
		if tokens[t.Token] {
			return nil, fmt.Errorf("tenants: line %d: tenant %s reuses another tenant's token", lineNo, t.Name)
		}
		seenKey := make(map[string]bool)
		for _, kv := range fields[2:] {
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("tenants: line %d: tenant %s: %q is not key=value", lineNo, t.Name, kv)
			}
			if seenKey[key] {
				return nil, fmt.Errorf("tenants: line %d: tenant %s: duplicate key %q", lineNo, t.Name, key)
			}
			seenKey[key] = true
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("tenants: line %d: tenant %s: %s must be a non-negative integer, got %q", lineNo, t.Name, key, val)
			}
			switch key {
			case "max_active":
				t.MaxActive = n
			case "max_queued":
				t.MaxQueued = n
			default:
				return nil, fmt.Errorf("tenants: line %d: tenant %s: unknown key %q", lineNo, t.Name, key)
			}
		}
		names[t.Name] = true
		tokens[t.Token] = true
		tenants = append(tenants, t)
		if len(tenants) > maxTenants {
			return nil, fmt.Errorf("tenants: more than %d tenants", maxTenants)
		}
	}
	return tenants, nil
}

// LoadTenants reads a tenants file from disk.
func LoadTenants(path string) ([]Tenant, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("tenants: %w", err)
	}
	defer f.Close()
	ts, err := ParseTenants(f)
	if err != nil {
		return nil, fmt.Errorf("%w (%s)", err, path)
	}
	return ts, nil
}

func validTenantName(name string) error {
	if name == "" || len(name) > maxTenantNameLen {
		return fmt.Errorf("tenant name must be 1..%d characters", maxTenantNameLen)
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("tenant name %q: only [A-Za-z0-9._-] allowed", name)
		}
	}
	return nil
}

func validToken(tok string) error {
	if len(tok) < minTokenLen || len(tok) > maxTokenLen {
		return fmt.Errorf("token must be %d..%d bytes", minTokenLen, maxTokenLen)
	}
	for i := 0; i < len(tok); i++ {
		if tok[i] <= ' ' || tok[i] > '~' {
			return fmt.Errorf("token contains non-printable or whitespace byte 0x%02x", tok[i])
		}
	}
	return nil
}

// tenantSet is an immutable snapshot of the configured tenants, held
// behind an atomic pointer on the Server so auth never blocks on a
// reload.
type tenantSet struct {
	tenants []Tenant
	byName  map[string]*Tenant
}

func newTenantSet(tenants []Tenant) *tenantSet {
	ts := &tenantSet{
		tenants: append([]Tenant(nil), tenants...),
		byName:  make(map[string]*Tenant, len(tenants)),
	}
	for i := range ts.tenants {
		ts.byName[ts.tenants[i].Name] = &ts.tenants[i]
	}
	return ts
}

// authenticate resolves a bearer token to a tenant name. It compares
// against every configured token in constant time, never breaking
// early, so timing reveals neither a match's position nor its length
// class beyond the fixed length buckets.
func (ts *tenantSet) authenticate(token string) (string, bool) {
	name, found := "", false
	for i := range ts.tenants {
		t := &ts.tenants[i]
		match := len(token) == len(t.Token) &&
			subtle.ConstantTimeCompare([]byte(token), []byte(t.Token)) == 1
		if match && !found {
			name, found = t.Name, true
		}
	}
	return name, found
}

// limits returns a tenant's quotas; unknown tenants (e.g. pre-tenancy
// jobs recovered under the empty name) are unlimited.
func (ts *tenantSet) limits(name string) (maxActive, maxQueued int) {
	if t, ok := ts.byName[name]; ok {
		return t.MaxActive, t.MaxQueued
	}
	return 0, 0
}

// names returns the configured tenant names in file order.
func (ts *tenantSet) names() []string {
	out := make([]string, len(ts.tenants))
	for i := range ts.tenants {
		out[i] = ts.tenants[i].Name
	}
	return out
}
