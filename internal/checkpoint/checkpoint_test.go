package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/manifest"
)

func testEntries(n int) []manifest.Entry {
	entries := make([]manifest.Entry, n)
	for i := range entries {
		name := string(rune('a' + i))
		entries[i] = manifest.Entry{Name: name, AlignPath: name + ".fasta", TreePath: name + ".nwk"}
	}
	return entries
}

func TestLedgerRoundTrip(t *testing.T) {
	entries := testEntries(3)
	path := filepath.Join(t.TempDir(), "out.jsonl.ckpt")
	h := Header{ManifestDigest: manifest.Digest(entries), Genes: 3, Options: "opts"}
	l, err := Create(path, h)
	if err != nil {
		t.Fatal(err)
	}
	pi := []float64{0.25, 0.5, 0.125, 0.125}
	if err := l.AppendFrequencies(pi); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Seq: 0, Name: "a", Digest: entries[0].Digest(), Offset: 10}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Seq: 1, Name: "b", Digest: entries[1].Digest(), Err: true, Offset: 25}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.Header(); got != (Header{Version: Version, ManifestDigest: h.ManifestDigest, Genes: 3, Options: "opts"}) {
		t.Fatalf("header changed: %+v", got)
	}
	gotPi := l2.Frequencies()
	if len(gotPi) != len(pi) {
		t.Fatalf("pi lost: %v", gotPi)
	}
	for i := range pi {
		if gotPi[i] != pi[i] {
			t.Fatalf("pi[%d] = %v, want bit-identical %v", i, gotPi[i], pi[i])
		}
	}
	plan, err := l2.Plan(entries, "opts")
	if err != nil {
		t.Fatal(err)
	}
	if plan.Skip != 2 || plan.Failed != 1 || plan.Offset != 25 {
		t.Fatalf("plan = %+v, want skip 2, failed 1, offset 25", plan)
	}
}

// A torn final line — the crash signature — must be dropped, and
// appends must continue cleanly after it.
func TestLedgerTornTail(t *testing.T) {
	entries := testEntries(3)
	path := filepath.Join(t.TempDir(), "l.ckpt")
	l, err := Create(path, Header{ManifestDigest: manifest.Digest(entries), Genes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Seq: 0, Name: "a", Digest: entries[0].Digest(), Offset: 7}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"gene":{"seq":1,"na`) // torn mid-append, no newline
	f.Close()

	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(l2.Records()); got != 1 {
		t.Fatalf("torn ledger yields %d records, want 1", got)
	}
	if err := l2.Append(Record{Seq: 1, Name: "b", Digest: entries[1].Digest(), Offset: 14}); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	l3, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if got := len(l3.Records()); got != 2 {
		t.Fatalf("append after torn tail lost records: %d", got)
	}
}

// A complete line that does not parse in the middle of a ledger is
// corruption, not a torn tail: Open must fail naming the path and the
// line, and must not cut the file (which would silently drop every
// later record and make a resume refit them).
func TestLedgerCorruptMiddleLineFailsOpen(t *testing.T) {
	entries := testEntries(3)
	path := filepath.Join(t.TempDir(), "l.ckpt")
	l, err := Create(path, Header{ManifestDigest: manifest.Digest(entries), Genes: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, off := range []int64{10, 25, 40} {
		if err := l.Append(Record{Seq: i, Name: entries[i].Name, Digest: entries[i].Digest(), Offset: off}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Replace(data, []byte(`"offset":25`), []byte(`"offset":2X`), 1)
	if bytes.Equal(bad, data) {
		t.Fatal("second record not found")
	}
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(path)
	if err == nil {
		l2.Close()
		t.Fatal("ledger with a corrupt middle line opened")
	}
	if msg := err.Error(); !strings.Contains(msg, path) || !strings.Contains(msg, "line 3") {
		t.Fatalf("error %q does not name the path and line 3", msg)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, bad) {
		t.Fatalf("failed open changed the file: %d bytes, want %d", len(after), len(bad))
	}
}

// Resuming against a changed manifest or changed options must be
// refused.
func TestPlanRefusesMismatches(t *testing.T) {
	entries := testEntries(3)
	path := filepath.Join(t.TempDir(), "l.ckpt")
	l, err := Create(path, Header{ManifestDigest: manifest.Digest(entries), Genes: 3, Options: "opts"})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Seq: 0, Name: "a", Digest: entries[0].Digest(), Offset: 5}); err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	if _, err := l.Plan(entries, "other-opts"); err == nil {
		t.Fatal("changed options accepted")
	}
	edited := append([]manifest.Entry(nil), entries...)
	edited[1].TreePath = "other.nwk"
	if _, err := l.Plan(edited, "opts"); err == nil {
		t.Fatal("edited manifest accepted")
	}
	if _, err := l.Plan(entries[:2], "opts"); err == nil {
		t.Fatal("truncated manifest accepted")
	}
	if _, err := l.Plan(entries, "opts"); err != nil {
		t.Fatalf("matching plan refused: %v", err)
	}
}

func TestOpenOutputTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.jsonl")
	if err := os.WriteFile(path, []byte("complete line\npartial ga"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := OpenOutput(path, int64(len("complete line\n")))
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "complete line\n" {
		t.Fatalf("torn tail survived: %q", data)
	}
	// Output shorter than the checkpoint: refuse.
	if _, err := OpenOutput(path, 1000); err == nil {
		t.Fatal("output shorter than checkpoint accepted")
	}
}
