package persistcache

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

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
		Seed: WarmSeed{
			Kappa: 2.0000000000000004, Omega0: 0.1, Omega2: 3.7, P0: 0.5, P1: 0.3,
			BranchLengths: []float64{0.1, 0.2, math.Nextafter(0.3, 1)},
		},
	}
}

// TestResultRoundTrip checks the result tier: a full match replays the
// record verbatim, any key component mismatch is a miss, and the
// warm-start seed survives bit-exactly while ignoring the fingerprint.
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

	// The seed ignores the fingerprint (that is its point) but still
	// requires the input files to match.
	seed, ok := store.LookupSeed(e.Row, e.Meta)
	if !ok {
		t.Fatal("LookupSeed missed a matching row")
	}
	if !sameBits([]float64{seed.Kappa, seed.Omega0, seed.Omega2, seed.P0, seed.P1},
		[]float64{e.Seed.Kappa, e.Seed.Omega0, e.Seed.Omega2, e.Seed.P0, e.Seed.P1}) ||
		!sameBits(seed.BranchLengths, e.Seed.BranchLengths) {
		t.Error("seed differs in bits")
	}
	if _, ok := store.LookupSeed(e.Row, stale); ok {
		t.Error("LookupSeed matched stale file metadata")
	}

	c := store.Counters()
	if c.ResultWrites != 1 || c.ResultHits != 1 || c.ResultMisses != 3 || c.WarmHits != 1 {
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
	if _, ok := store.LookupSeed("deadbeef", e.Meta); ok {
		t.Fatal("LookupSeed accepted an entry bound to a different row")
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
		"version":         bytes.Replace(valid, []byte(`"version":1`), []byte(`"version":2`), 1),
		"tampered record": tamperField(t, valid, `"row":"`),
	}
	for name, data := range corruptions {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := store.LookupResult(e.Row, e.Fingerprint, e.Meta); ok {
			t.Errorf("%s: corrupted result entry replayed", name)
		}
		if _, ok := store.LookupSeed(e.Row, e.Meta); ok {
			t.Errorf("%s: corrupted result entry seeded", name)
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

// TestEncodeFloatsExactBits round-trips every awkward IEEE-754 corner:
// signed zeros, denormals, infinities and NaN payloads must come back
// with identical bits.
func TestEncodeFloatsExactBits(t *testing.T) {
	vals := []float64{
		0, math.Copysign(0, -1), 1.0 / 3.0, math.MaxFloat64,
		5e-324, -5e-324, math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7ff80000deadbeef), // NaN with payload
		math.Nextafter(1, 2),
	}
	s := encodeFloats(vals)
	if len(s) != 16*len(vals) {
		t.Fatalf("encoded length %d, want %d", len(s), 16*len(vals))
	}
	got, err := decodeFloats(s, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
			t.Errorf("value %d: bits %016x, want %016x", i,
				math.Float64bits(got[i]), math.Float64bits(vals[i]))
		}
	}
	if _, err := decodeFloats(s[:len(s)-1], len(vals)); err == nil {
		t.Error("decodeFloats accepted a short payload")
	}
	if _, err := decodeFloats(strings.Replace(s, "0", "g", 1), len(vals)); err == nil {
		t.Error("decodeFloats accepted non-hex digits")
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
