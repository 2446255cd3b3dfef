package manifest

import "testing"

func TestEntryDigestSensitivity(t *testing.T) {
	base := Entry{Name: "g1", AlignPath: "a.fasta", TreePath: "t.nwk"}
	variants := []Entry{
		{Name: "g2", AlignPath: "a.fasta", TreePath: "t.nwk"},
		{Name: "g1", AlignPath: "b.fasta", TreePath: "t.nwk"},
		{Name: "g1", AlignPath: "a.fasta", TreePath: "u.nwk"},
	}
	d := base.Digest()
	if d != base.Digest() {
		t.Fatal("digest not deterministic")
	}
	for _, v := range variants {
		if v.Digest() == d {
			t.Fatalf("variant %+v collides with %+v", v, base)
		}
	}
}

func TestManifestDigestOrderAndContent(t *testing.T) {
	a := Entry{Name: "a", AlignPath: "a.fasta", TreePath: "a.nwk"}
	b := Entry{Name: "b", AlignPath: "b.fasta", TreePath: "b.nwk"}
	d1 := Digest([]Entry{a, b})
	if d1 != Digest([]Entry{a, b}) {
		t.Fatal("digest not deterministic")
	}
	if Digest([]Entry{b, a}) == d1 {
		t.Fatal("reorder not detected")
	}
	if Digest([]Entry{a}) == d1 {
		t.Fatal("row removal not detected")
	}
}
