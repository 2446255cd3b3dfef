package checkpoint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// appendLog is the one append-only JSON Lines file under all three
// ledgers — the gene ledger, the fan-out shard ledger and the job
// index. Each ledger brings its own line envelope and decoder; the log
// owns the discipline they share: a header line written at creation,
// every append marshalled, written and fsynced before it returns, and
// a torn tail (a crash mid-append) dropped on open so appends continue
// from a clean line boundary.
type appendLog struct {
	path string
	f    *os.File
}

// createLog starts a fresh log at path (truncating any previous one)
// and durably writes its header line.
func createLog(path string, header any) (appendLog, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return appendLog{}, fmt.Errorf("checkpoint: %w", err)
	}
	l := appendLog{path: path, f: f}
	if err := l.append(header); err != nil {
		f.Close()
		return appendLog{}, err
	}
	return l, nil
}

// envelope is a ledger's line type. version reports whether the line
// is the ledger's header, and the format version the header names.
type envelope interface {
	version() (v int, header bool)
}

// openLog reads the log at path and hands each complete line, in
// order, to decode as an envelope L. The first line must be the only
// header and name version want; anything else is an error. The first
// line without a trailing newline or that does not parse is a torn
// tail (a crash mid-append): it and everything after it are cut from
// the file, and torn reports that. The log is returned open for
// appends at the end of the last good line.
func openLog[L envelope](path string, want int, decode func(L) error) (l appendLog, torn bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return appendLog{}, false, fmt.Errorf("checkpoint: %w", err)
	}
	good := 0 // bytes covered by fully parsed lines
	for good < len(data) {
		n := bytes.IndexByte(data[good:], '\n')
		if n < 0 {
			break
		}
		var ln L
		if json.Unmarshal(data[good:good+n], &ln) != nil {
			break
		}
		switch v, header := ln.version(); {
		case header && good > 0:
			return appendLog{}, false, fmt.Errorf("checkpoint: %s: duplicate header", path)
		case header && v != want:
			return appendLog{}, false, fmt.Errorf("checkpoint: %s: ledger version %d, this build reads %d", path, v, want)
		case !header && good == 0:
			return appendLog{}, false, fmt.Errorf("checkpoint: %s: record before header", path)
		}
		if err := decode(ln); err != nil {
			return appendLog{}, false, err
		}
		good += n + 1
	}
	if good == 0 {
		return appendLog{}, false, fmt.Errorf("checkpoint: %s: no ledger header", path)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return appendLog{}, false, fmt.Errorf("checkpoint: %w", err)
	}
	if err := f.Truncate(int64(good)); err != nil {
		f.Close()
		return appendLog{}, false, fmt.Errorf("checkpoint: %w", err)
	}
	if _, err := f.Seek(int64(good), 0); err != nil {
		f.Close()
		return appendLog{}, false, fmt.Errorf("checkpoint: %w", err)
	}
	return appendLog{path: path, f: f}, good < len(data), nil
}

// append durably writes one line per value: marshal, write, fsync —
// one write and one fsync for the lot.
func (l appendLog) append(vs ...any) error {
	var b []byte
	for _, v := range vs {
		line, err := json.Marshal(v)
		if err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		b = append(append(b, line...), '\n')
	}
	if _, err := l.f.Write(b); err != nil {
		return fmt.Errorf("checkpoint: %s: %w", l.path, err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("checkpoint: %s: %w", l.path, err)
	}
	return nil
}

// Close closes the log file.
func (l appendLog) Close() error { return l.f.Close() }
