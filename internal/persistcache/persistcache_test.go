package persistcache

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// flipByte returns data with one bit flipped at offset i.
func flipByte(data []byte, i int) []byte {
	out := append([]byte(nil), data...)
	out[i] ^= 0x40
	return out
}

// tamperField flips one hex digit inside the named JSON string field,
// which must trip the checksum.
func tamperField(t *testing.T, data []byte, marker string) []byte {
	t.Helper()
	i := bytes.Index(data, []byte(marker))
	if i < 0 {
		t.Fatalf("marker %q not found", marker)
	}
	out := append([]byte(nil), data...)
	j := i + len(marker)
	if out[j] == '0' {
		out[j] = '1'
	} else {
		out[j] = '0'
	}
	return out
}

func testEntry() ResultEntry {
	return ResultEntry{
		Row:         "00112233",
		Fingerprint: "engine=slim freq=f61 pi=abcdef",
		Meta:        FileMeta{AlignSize: 123, AlignMTimeNS: 456, TreeSize: 78, TreeMTimeNS: 90},
		Record:      []byte(`{"name":"g1","lnl_h0":-1,"lnl_h1":-0.5}`),
	}
}

// TestResultRoundTrip checks the result tier: a full match replays the
// record verbatim, and any key component mismatch is a miss.
func TestResultRoundTrip(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry()
	if err := store.PutResult(e); err != nil {
		t.Fatal(err)
	}

	rec, ok := store.LookupResult(e.Row, e.Fingerprint, e.Meta)
	if !ok || !bytes.Equal(rec, e.Record) {
		t.Fatalf("LookupResult = %q, %v; want the stored record", rec, ok)
	}
	if _, ok := store.LookupResult(e.Row, e.Fingerprint+" x", e.Meta); ok {
		t.Error("LookupResult matched a different fingerprint")
	}
	stale := e.Meta
	stale.AlignMTimeNS++
	if _, ok := store.LookupResult(e.Row, e.Fingerprint, stale); ok {
		t.Error("LookupResult matched stale file metadata")
	}
	if _, ok := store.LookupResult("ffffffff", e.Fingerprint, e.Meta); ok {
		t.Error("LookupResult matched an absent row")
	}

	c := store.Counters()
	if c.ResultWrites != 1 || c.ResultHits != 1 || c.ResultMisses != 3 {
		t.Fatalf("counters: %+v", c)
	}
}

// TestResultRowBinding verifies an entry copied (or digest-colliding)
// under another row's file is rejected by the stored row digest.
func TestResultRowBinding(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry()
	if err := store.PutResult(e); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(store.resultPath(e.Row))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(store.resultPath("deadbeef"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.LookupResult("deadbeef", e.Fingerprint, e.Meta); ok {
		t.Fatal("LookupResult accepted an entry bound to a different row")
	}
}

// TestResultV1EntryIsRewritten upgrades a cache written before the
// entry format dropped its optimizer seed: testdata/result-v1.json is
// testEntry() as version 1 wrote it, seed fields and valid checksum
// included. It must read as a miss; the refit's PutResult then rewrites
// the file as version 2, which replays.
func TestResultV1EntryIsRewritten(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry()
	v1, err := os.ReadFile(filepath.Join("testdata", "result-v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	path := store.resultPath(e.Row)
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.LookupResult(e.Row, e.Fingerprint, e.Meta); ok {
		t.Fatal("version-1 entry replayed")
	}
	if err := store.PutResult(e); err != nil {
		t.Fatal(err)
	}
	v2, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(v2, []byte(`"version":2,`)) || bytes.Contains(v2, []byte(`"seed_`)) {
		t.Fatalf("rewritten entry is not a seedless version 2:\n%s", v2)
	}
	rec, ok := store.LookupResult(e.Row, e.Fingerprint, e.Meta)
	if !ok || !bytes.Equal(rec, e.Record) {
		t.Fatalf("rewritten entry: LookupResult = %q, %v; want the stored record", rec, ok)
	}
}

// TestResultCorruptionIsMiss overwrites a valid entry with every kind
// of defect a shared directory can accumulate — truncation, bit flips,
// garbage, version skew — and requires each to read as a miss, never a
// wrong record or a panic.
func TestResultCorruptionIsMiss(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry()
	if err := store.PutResult(e); err != nil {
		t.Fatal(err)
	}
	path := store.resultPath(e.Row)
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corruptions := map[string][]byte{
		"empty":           {},
		"garbage":         []byte("xx"),
		"truncated":       valid[:len(valid)-10],
		"bit flip":        flipByte(valid, len(valid)/3),
		"version":         bytes.Replace(valid, []byte(`"version":2`), []byte(`"version":3`), 1),
		"tampered record": tamperField(t, valid, `"row":"`),
	}
	for name, data := range corruptions {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := store.LookupResult(e.Row, e.Fingerprint, e.Meta); ok {
			t.Errorf("%s: corrupted result entry replayed", name)
		}
	}
}

// TestRejectsInvalidRecord ensures a syntactically-authentic entry with
// a non-JSON record (e.g. written by a broken producer) never replays.
func TestRejectsInvalidRecord(t *testing.T) {
	e := testEntry()
	e.Record = []byte("not json")
	data, err := encodeResultFile(&e)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeResultFile(data); err == nil ||
		!strings.Contains(err.Error(), "not valid JSON") {
		t.Fatalf("decodeResultFile accepted a non-JSON record: %v", err)
	}
}

// TestConcurrentAccess races result writes and lookups from many
// goroutines over two Store handles sharing one directory — the
// multi-daemon shape. Run under -race in CI; correctness here is "no
// race, no torn read": every successful lookup is byte-identical to the
// single valid record ever written for its key.
func TestConcurrentAccess(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		s := s1
		if i%2 == 1 {
			s = s2
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if err := s.PutResult(e); err != nil {
					t.Errorf("PutResult: %v", err)
					return
				}
				if rec, ok := s.LookupResult(e.Row, e.Fingerprint, e.Meta); ok && !bytes.Equal(rec, e.Record) {
					t.Error("concurrent LookupResult returned torn record")
					return
				}
			}
		}()
	}
	wg.Wait()
	// No temp-file litter: every write either renamed or cleaned up.
	ents, err := os.ReadDir(filepath.Join(dir, "result"))
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		if strings.Contains(ent.Name(), ".tmp") {
			t.Errorf("leftover temp file result/%s", ent.Name())
		}
	}
}
