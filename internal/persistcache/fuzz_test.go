package persistcache

import "testing"

// FuzzCacheDecode fuzzes the result-file decoder with arbitrary bytes.
// The invariant is total robustness: a cache directory is shared,
// advisory state that any process may have torn, truncated or
// bit-rotted, so the decoder must reject every malformed input with an
// error — never panic, never over-allocate on a corrupt header, never
// return a payload that fails its checksum. CI runs a short -fuzztime
// smoke on every push; the committed corpus under
// testdata/fuzz/FuzzCacheDecode seeds the interesting shapes.
func FuzzCacheDecode(f *testing.F) {
	// Seed with well-formed entries so the fuzzer mutates from valid
	// structure (one without and one with file metadata), plus classic
	// defect shapes.
	for _, e := range []ResultEntry{{
		Row: "bb", Fingerprint: "engine=slim",
		Record: []byte(`{"name":"g"}`),
	}, {
		Row: "cc", Fingerprint: "engine=slim-bundled pi=ab",
		Meta:   FileMeta{AlignSize: 1, AlignMTimeNS: 2, TreeSize: 3, TreeMTimeNS: 4},
		Record: []byte(`{"name":"h","lnl_h1":-1}`),
	}} {
		data, err := encodeResultFile(&e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte("{}"))
	f.Add([]byte(`{"version":1,"n":1000000000}`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		if e, err := decodeResultFile(data); err == nil {
			if len(e.Record) == 0 {
				t.Fatal("accepted result entry with empty record")
			}
		}
	})
}
