package manifest

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParse(t *testing.T) {
	in := `# selectome export
g1	aln/g1.fasta	trees/g1.nwk

g2  aln/g2.phy   trees/g2.nwk
`
	entries, err := Parse(strings.NewReader(in), "/data")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("got %d entries, want 2", len(entries))
	}
	want := Entry{Name: "g1", AlignPath: "/data/aln/g1.fasta", TreePath: "/data/trees/g1.nwk"}
	if entries[0] != want {
		t.Fatalf("entry 0 = %+v, want %+v", entries[0], want)
	}
	if entries[1].Name != "g2" || entries[1].AlignPath != "/data/aln/g2.phy" {
		t.Fatalf("entry 1 = %+v", entries[1])
	}
}

func TestParseAbsolutePathsKept(t *testing.T) {
	entries, err := Parse(strings.NewReader("g1 /abs/a.fasta /abs/t.nwk\n"), "/data")
	if err != nil {
		t.Fatal(err)
	}
	if entries[0].AlignPath != "/abs/a.fasta" {
		t.Fatalf("absolute path rewritten: %s", entries[0].AlignPath)
	}
}

func TestEntryAbs(t *testing.T) {
	dir := t.TempDir()
	t.Chdir(dir)
	got, err := Entry{Name: "g1", AlignPath: "aln/g1.fasta", TreePath: "/abs/t.nwk"}.Abs()
	if err != nil {
		t.Fatal(err)
	}
	want := Entry{Name: "g1", AlignPath: filepath.Join(dir, "aln/g1.fasta"), TreePath: "/abs/t.nwk"}
	if got != want {
		t.Fatalf("Abs = %+v, want %+v", got, want)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"missing tree field": "g1 aln.fasta\n",
		"extra field":        "g1 aln.fasta t.nwk spare\n",
		"duplicate name":     "g1 a.fasta t.nwk\ng1 b.fasta u.nwk\n",
		"empty manifest":     "# only comments\n\n",
	}
	for name, in := range cases {
		if _, err := Parse(strings.NewReader(in), ""); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}

// writeScanDir lays out a valid two-gene directory and returns it.
func writeScanDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, f := range []string{"g1.fasta", "g1.nwk", "g2.phy", "g2.tree"} {
		if err := os.WriteFile(filepath.Join(dir, f), []byte("x\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestLoad(t *testing.T) {
	dir := writeScanDir(t)
	maniPath := filepath.Join(dir, "genes.manifest")
	body := "g1\tg1.fasta\tg1.nwk\ng2\tg2.phy\tg2.tree\n"
	if err := os.WriteFile(maniPath, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err := Load(maniPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("got %d entries, want 2", len(entries))
	}
	// Paths must be resolved against the manifest's directory.
	if entries[0].AlignPath != filepath.Join(dir, "g1.fasta") {
		t.Fatalf("alignment path not resolved: %s", entries[0].AlignPath)
	}
}

func TestLoadBadPath(t *testing.T) {
	dir := writeScanDir(t)
	maniPath := filepath.Join(dir, "genes.manifest")
	if err := os.WriteFile(maniPath, []byte("g1\tg1.fasta\tmissing.nwk\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(maniPath); err == nil {
		t.Fatal("manifest referencing a missing tree file accepted")
	}
}

// Verify refuses two entries with one gene name, however the list was
// built: a comma-separated alignment list names each gene by its base
// name, so g1.fasta and sub/g1.fasta would otherwise become two
// indistinguishable g1 result rows.
func TestVerifyDuplicateName(t *testing.T) {
	dir := writeScanDir(t)
	if err := os.Mkdir(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "sub", "g1.fasta"), []byte("x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	tree := filepath.Join(dir, "g1.nwk")
	entries := []Entry{
		{Name: "g1", AlignPath: filepath.Join(dir, "g1.fasta"), TreePath: tree},
		{Name: "g2", AlignPath: filepath.Join(dir, "g2.phy"), TreePath: tree},
		{Name: "g1", AlignPath: filepath.Join(dir, "sub", "g1.fasta"), TreePath: tree},
	}
	if err := Verify(entries[:2]); err != nil {
		t.Fatalf("distinct names refused: %v", err)
	}
	err := Verify(entries)
	if err == nil || !strings.Contains(err.Error(), `row 3: duplicate gene name "g1"`) {
		t.Fatalf("Verify = %v, want row 3 refused as a duplicate of g1", err)
	}
}

func TestWriteLoadRoundTrip(t *testing.T) {
	dir := writeScanDir(t)
	entries := []Entry{
		{Name: "g1", AlignPath: filepath.Join(dir, "g1.fasta"), TreePath: filepath.Join(dir, "g1.nwk")},
		{Name: "g2", AlignPath: filepath.Join(dir, "g2.phy"), TreePath: filepath.Join(dir, "g2.tree")},
	}
	maniPath := filepath.Join(dir, "rt.manifest")
	if err := WriteFile(maniPath, entries); err != nil {
		t.Fatal(err)
	}
	got, err := Load(maniPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("round trip lost entries: %d != %d", len(got), len(entries))
	}
	for i := range got {
		if got[i] != entries[i] {
			t.Fatalf("entry %d: %+v != %+v", i, got[i], entries[i])
		}
	}
}

// Write must refuse entries Parse cannot round-trip, instead of
// emitting a manifest that fails (or drops rows) on load.
func TestWriteRejectsUnparseable(t *testing.T) {
	cases := map[string]Entry{
		"space in path":   {Name: "g1", AlignPath: "my aln.fasta", TreePath: "t.nwk"},
		"space in name":   {Name: "gene one", AlignPath: "a.fasta", TreePath: "t.nwk"},
		"empty tree path": {Name: "g1", AlignPath: "a.fasta", TreePath: ""},
		"comment name":    {Name: "#g1", AlignPath: "a.fasta", TreePath: "t.nwk"},
	}
	for name, e := range cases {
		var sb strings.Builder
		if err := Write(&sb, []Entry{e}); err == nil {
			t.Errorf("%s: accepted %+v", name, e)
		}
	}
}

func TestScanDir(t *testing.T) {
	dir := writeScanDir(t)
	entries, err := ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("got %d entries, want 2", len(entries))
	}
	// ReadDir sorts, so order is deterministic.
	if entries[0].Name != "g1" || entries[1].Name != "g2" {
		t.Fatalf("unexpected names: %s, %s", entries[0].Name, entries[1].Name)
	}
	if entries[1].TreePath != filepath.Join(dir, "g2.tree") {
		t.Fatalf("g2 tree not paired: %s", entries[1].TreePath)
	}
}

func TestScanDirMissingTree(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "lonely.fasta"), []byte("x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ScanDir(dir); err == nil {
		t.Fatal("alignment without a tree file accepted")
	}
}

func TestScanDirEmpty(t *testing.T) {
	if _, err := ScanDir(t.TempDir()); err == nil {
		t.Fatal("directory without alignments accepted")
	}
}

// The n shards must partition the manifest exactly — every row in
// precisely one shard, in order, with sizes differing by at most one —
// for any (rows, n) shape including more shards than rows.
func TestShardPartitions(t *testing.T) {
	for _, rows := range []int{1, 2, 5, 7, 12} {
		entries := make([]Entry, rows)
		for i := range entries {
			entries[i] = Entry{Name: fmt.Sprintf("g%02d", i), AlignPath: "a", TreePath: "t"}
		}
		for _, n := range []int{1, 2, 3, rows, rows + 3} {
			var got []Entry
			minSz, maxSz := rows, 0
			for i := 1; i <= n; i++ {
				s, err := Shard(entries, i, n)
				if err != nil {
					t.Fatalf("rows=%d shard %d/%d: %v", rows, i, n, err)
				}
				if len(s) < minSz {
					minSz = len(s)
				}
				if len(s) > maxSz {
					maxSz = len(s)
				}
				got = append(got, s...)
			}
			if len(got) != rows {
				t.Fatalf("rows=%d n=%d: shards cover %d rows", rows, n, len(got))
			}
			for i := range got {
				if got[i].Name != entries[i].Name {
					t.Fatalf("rows=%d n=%d: row %d is %s, want %s", rows, n, i, got[i].Name, entries[i].Name)
				}
			}
			if maxSz-minSz > 1 {
				t.Fatalf("rows=%d n=%d: shard sizes range %d..%d", rows, n, minSz, maxSz)
			}
		}
	}
}

// Sharding is deterministic: the same spec always selects the same
// rows.
func TestShardDeterministic(t *testing.T) {
	entries := []Entry{{Name: "a"}, {Name: "b"}, {Name: "c"}, {Name: "d"}, {Name: "e"}}
	s1, err := Shard(entries, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Shard(entries, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(s1) != len(s2) {
		t.Fatal("shard size changed between calls")
	}
	for i := range s1 {
		if s1[i].Name != s2[i].Name {
			t.Fatal("shard contents changed between calls")
		}
	}
}

func TestShardErrors(t *testing.T) {
	entries := []Entry{{Name: "a"}}
	for _, bad := range [][2]int{{0, 3}, {4, 3}, {1, 0}, {-1, -1}} {
		if _, err := Shard(entries, bad[0], bad[1]); err == nil {
			t.Fatalf("shard %d/%d accepted", bad[0], bad[1])
		}
	}
}

func TestParseShard(t *testing.T) {
	for spec, want := range map[string][2]int{
		"1/4":   {1, 4},
		"4/4":   {4, 4},
		" 2/3 ": {2, 3},
	} {
		i, n, err := ParseShard(spec)
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		if i != want[0] || n != want[1] {
			t.Fatalf("%q parsed as %d/%d", spec, i, n)
		}
	}
	for _, bad := range []string{"", "1", "0/4", "5/4", "1/0", "a/b", "1/4/2", "-1/4"} {
		if _, _, err := ParseShard(bad); err == nil {
			t.Fatalf("shard spec %q accepted", bad)
		}
	}
}
