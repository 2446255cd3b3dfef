// Package manifest describes gene collections for the streaming batch
// pipeline: one row per gene naming its alignment and tree files
// (per-gene trees, Selectome-style), or a directory convention pairing
// NAME.<alignment-ext> with NAME.<tree-ext>. A manifest is the
// pipeline's unit of input at genome scale — millions of rows can
// stream through core.RunBatchStream's bounded prefetch window
// without the collection ever being materialized in memory.
//
// Format: UTF-8 text, one gene per line,
//
//	name  alignment-path  tree-path
//
// with fields separated by any run of tabs or spaces (paths therefore
// must not contain whitespace). Blank lines and lines starting with
// '#' are ignored. Relative paths are resolved against the manifest
// file's directory, so a manifest and its data files move together.
// Gene names must be unique: they key the result rows downstream.
//
// A manifest is also the unit of multi-host scale-out: Shard slices it
// into deterministic contiguous row ranges (shard i of n), so n
// processes — or n machines — can each run `slimcodeml -shard i/n`
// over the same manifest and the per-shard JSONL outputs concatenate
// into exactly the full run's rows.
package manifest

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Entry is one manifest row: a named gene with its alignment and tree
// files.
type Entry struct {
	Name      string
	AlignPath string
	TreePath  string
}

// Abs returns the entry with both paths made absolute against the
// working directory: the spelling that names the same files from any
// directory, which the result cache keys on and daemons resolve.
func (e Entry) Abs() (Entry, error) {
	for _, p := range []*string{&e.AlignPath, &e.TreePath} {
		a, err := filepath.Abs(*p)
		if err != nil {
			return Entry{}, fmt.Errorf("manifest: %s: %w", *p, err)
		}
		*p = a
	}
	return e, nil
}

// Parse reads manifest rows from r, resolving relative paths against
// baseDir when it is non-empty. It validates syntax and name
// uniqueness but not file existence (see Verify / Load).
func Parse(r io.Reader, baseDir string) ([]Entry, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var entries []Entry
	seen := make(map[string]bool)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("manifest: line %d: want 3 fields (name alignment-path tree-path), got %d", lineNo, len(fields))
		}
		name := fields[0]
		if seen[name] {
			return nil, fmt.Errorf("manifest: line %d: duplicate gene name %q", lineNo, name)
		}
		seen[name] = true
		entries = append(entries, Entry{
			Name:      name,
			AlignPath: resolve(baseDir, fields[1]),
			TreePath:  resolve(baseDir, fields[2]),
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("manifest: reading: %w", err)
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("manifest: no genes")
	}
	return entries, nil
}

func resolve(base, p string) string {
	if base == "" || filepath.IsAbs(p) {
		return p
	}
	return filepath.Join(base, p)
}

// Load parses the manifest file, resolving relative paths against its
// directory, and verifies every referenced file exists — catching bad
// paths up front rather than hours into a streaming run.
func Load(path string) ([]Entry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	entries, err := Parse(f, filepath.Dir(path))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := Verify(entries); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return entries, nil
}

// Verify checks that no two entries share a gene name (results are
// keyed by name) and that every entry's alignment and tree files exist
// and are not directories.
func Verify(entries []Entry) error {
	seen := make(map[string]bool, len(entries))
	for i, e := range entries {
		if seen[e.Name] {
			return fmt.Errorf("manifest: row %d: duplicate gene name %q", i+1, e.Name)
		}
		seen[e.Name] = true
	}
	for _, e := range entries {
		for _, p := range [2]string{e.AlignPath, e.TreePath} {
			info, err := os.Stat(p)
			if err != nil {
				return fmt.Errorf("manifest: gene %s: %w", e.Name, err)
			}
			if info.IsDir() {
				return fmt.Errorf("manifest: gene %s: %s is a directory", e.Name, p)
			}
		}
	}
	return nil
}

// Alignment and tree filename extensions ScanDir pairs up.
var (
	alignExts = []string{".fasta", ".fa", ".fna", ".phy", ".phylip"}
	treeExts  = []string{".nwk", ".tree", ".newick"}
)

// ScanDir builds entries from a directory convention: every file with
// an alignment extension (.fasta/.fa/.fna/.phy/.phylip) is a gene
// named by its base name, paired with the tree file of the same base
// name (.nwk/.tree/.newick). A gene without a tree file is an error.
// Entries come back sorted by file name, so runs are deterministic.
func ScanDir(dir string) ([]Entry, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var entries []Entry
	seen := make(map[string]bool)
	for _, de := range des {
		if de.IsDir() {
			continue
		}
		name := de.Name()
		ext := filepath.Ext(name)
		if !hasExt(alignExts, ext) {
			continue
		}
		base := strings.TrimSuffix(name, ext)
		if seen[base] {
			return nil, fmt.Errorf("manifest: %s: gene %q has multiple alignment files", dir, base)
		}
		seen[base] = true
		treePath := ""
		for _, te := range treeExts {
			p := filepath.Join(dir, base+te)
			if info, err := os.Stat(p); err == nil && !info.IsDir() {
				treePath = p
				break
			}
		}
		if treePath == "" {
			return nil, fmt.Errorf("manifest: %s: gene %q has no tree file (%s.{nwk,tree,newick})", dir, base, base)
		}
		entries = append(entries, Entry{Name: base, AlignPath: filepath.Join(dir, name), TreePath: treePath})
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("manifest: %s: no alignment files found", dir)
	}
	return entries, nil
}

// Shard returns shard index of count as a deterministic contiguous
// row range of the entries: shard i (1-based) of n covers rows
// [(i-1)·len/n, i·len/n), so the n shards partition the manifest
// exactly — every row in precisely one shard, sizes differing by at
// most one — and the same (manifest, i/n) always yields the same rows.
// This is the multi-host scale-out unit: run one process per shard
// (slimcodeml -shard i/n) and concatenate the JSONL outputs. A shard
// may be empty when count exceeds the row count; callers decide
// whether that is an error.
func Shard(entries []Entry, index, count int) ([]Entry, error) {
	if count < 1 {
		return nil, fmt.Errorf("manifest: shard count %d < 1", count)
	}
	if index < 1 || index > count {
		return nil, fmt.Errorf("manifest: shard index %d outside 1..%d", index, count)
	}
	lo := (index - 1) * len(entries) / count
	hi := index * len(entries) / count
	return entries[lo:hi], nil
}

// ParseShard parses an "i/n" shard specification (1-based shard i of
// n), as accepted by slimcodeml -shard.
func ParseShard(spec string) (index, count int, err error) {
	i, n, ok := strings.Cut(spec, "/")
	if ok {
		index, err = strconv.Atoi(strings.TrimSpace(i))
		if err == nil {
			count, err = strconv.Atoi(strings.TrimSpace(n))
		}
	}
	if !ok || err != nil {
		return 0, 0, fmt.Errorf("manifest: shard spec %q is not of the form i/n", spec)
	}
	if count < 1 || index < 1 || index > count {
		return 0, 0, fmt.Errorf("manifest: shard spec %q needs 1 <= i <= n", spec)
	}
	return index, count, nil
}

func hasExt(exts []string, ext string) bool {
	for _, e := range exts {
		if e == ext {
			return true
		}
	}
	return false
}

// Write emits the entries in the manifest format, paths as given.
// Pairing with Load, it lets pipelines hand their work lists to
// slimcodeml -manifest. Entries that Parse could not read back —
// empty or whitespace-containing fields, a name starting with '#' —
// are rejected here rather than producing a manifest that fails (or
// silently drops rows) on load.
func Write(w io.Writer, entries []Entry) error {
	for _, e := range entries {
		for _, f := range [3]string{e.Name, e.AlignPath, e.TreePath} {
			if f == "" {
				return fmt.Errorf("manifest: gene %q: empty field", e.Name)
			}
			if strings.ContainsAny(f, " \t\n\r") {
				return fmt.Errorf("manifest: gene %q: field %q contains whitespace", e.Name, f)
			}
		}
		if strings.HasPrefix(e.Name, "#") {
			return fmt.Errorf("manifest: gene name %q would parse as a comment", e.Name)
		}
		if _, err := fmt.Fprintf(w, "%s\t%s\t%s\n", e.Name, e.AlignPath, e.TreePath); err != nil {
			return err
		}
	}
	return nil
}

// WriteFile writes the entries as a manifest file.
func WriteFile(path string, entries []Entry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, entries); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
