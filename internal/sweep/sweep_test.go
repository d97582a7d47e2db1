package sweep

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseShard(t *testing.T) {
	for spec, want := range map[string]Shard{
		"0/1":  {0, 1},
		"0/4":  {0, 4},
		"3/4":  {3, 4},
		" 1/2": {1, 2},
	} {
		got, err := ParseShard(spec)
		if err != nil {
			t.Errorf("ParseShard(%q): %v", spec, err)
			continue
		}
		if got != want {
			t.Errorf("ParseShard(%q) = %v, want %v", spec, got, want)
		}
	}
	for _, bad := range []string{"", "3", "a/4", "1/b", "-1/4", "4/4", "0/0", "1/-2"} {
		if _, err := ParseShard(bad); err == nil {
			t.Errorf("ParseShard(%q) succeeded, want error", bad)
		}
	}
	// The classic off-by-one gets a helpful hint.
	if _, err := ParseShard("4/4"); err == nil || !strings.Contains(err.Error(), "0-based") {
		t.Errorf("ParseShard(4/4) err = %v, want 0-based hint", err)
	}
}

func TestShardPartition(t *testing.T) {
	// Every cell is owned by exactly one shard, and Cells agrees with
	// Owns, for several totals and shard counts.
	for _, n := range []int{1, 2, 3, 5, 8} {
		for _, total := range []int{0, 1, 7, 16, 100} {
			counted := 0
			for i := 0; i < n; i++ {
				sh := Shard{Index: i, Count: n}
				owns := 0
				for c := 0; c < total; c++ {
					if sh.Owns(c) {
						owns++
					}
				}
				if got := sh.Cells(total); got != owns {
					t.Errorf("Shard %v.Cells(%d) = %d, but owns %d", sh, total, got, owns)
				}
				counted += owns
			}
			if counted != total {
				t.Errorf("n=%d total=%d: shards own %d cells", n, total, counted)
			}
		}
	}
}

func TestHashLengthPrefixed(t *testing.T) {
	if Hash("ab", "c") == Hash("a", "bc") {
		t.Error("Hash collides across part boundaries")
	}
	if Hash("x") != Hash("x") {
		t.Error("Hash not deterministic")
	}
}

func TestWriteAtomic(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "f")
	if err := WriteAtomic(p, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := WriteAtomic(p, []byte("two")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(p)
	if err != nil || string(data) != "two" {
		t.Fatalf("read %q, %v", data, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Errorf("temp files left behind: %v", ents)
	}
}

func line(i int) []byte {
	return []byte(fmt.Sprintf("{\"index\":%d,\"scenario\":\"cell-%d\"}\n", i, i))
}

func testManifest(shard Shard, total int) Manifest {
	return Manifest{
		Schema:      ManifestSchema,
		Suite:       "t",
		SuiteHash:   Hash("t"),
		ShardIndex:  shard.Index,
		ShardCount:  shard.Count,
		TotalCells:  total,
		ShardCells:  shard.Cells(total),
		MetricNames: []string{"mlu"},
	}
}

func TestWriterCheckpointAndResume(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "s0.jsonl")
	sh := Shard{Index: 0, Count: 2}
	m := testManifest(sh, 20) // owns cells 0,2,...,18

	w, err := NewWriter(p, m, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Resumed()) != 0 {
		t.Fatalf("fresh writer resumed %d cells", len(w.Resumed()))
	}
	for _, c := range []int{0, 2, 4, 6} { // 4 cells: one checkpoint at 3
		if err := w.Append(c, line(c)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Append(1, line(1)); err == nil {
		t.Error("Append accepted a cell the shard does not own")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	pr, err := readProgress(ProgressPath(p))
	if err != nil {
		t.Fatal(err)
	}
	if pr.CellsDone != 4 || pr.Complete {
		t.Errorf("progress after close = %+v", pr)
	}
	fi, err := os.Stat(p)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Offset != fi.Size() {
		t.Errorf("progress offset %d, file size %d", pr.Offset, fi.Size())
	}

	// Simulate a SIGKILL: truncate mid-line, then resume.
	if err := os.Truncate(p, fi.Size()-7); err != nil {
		t.Fatal(err)
	}
	w2, err := NewWriter(p, m, 3)
	if err != nil {
		t.Fatal(err)
	}
	res := w2.Resumed()
	// The torn tail loses the final checkpoint record and possibly the
	// last cell; every surviving line must be one of the appended cells.
	if len(res) < 3 {
		t.Errorf("resumed only %d cells after torn tail", len(res))
	}
	for c := range res {
		if c != 0 && c != 2 && c != 4 && c != 6 {
			t.Errorf("resumed unexpected cell %d", c)
		}
	}
	for _, c := range []int{0, 2, 4, 6, 8, 10, 12, 14, 16, 18} {
		if res[c] {
			continue
		}
		if err := w2.Append(c, line(c)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	pr, err = readProgress(ProgressPath(p))
	if err != nil {
		t.Fatal(err)
	}
	if pr.CellsDone != 10 || !pr.Complete {
		t.Errorf("final progress = %+v", pr)
	}

	// A different sweep's manifest refuses to resume the same path.
	other := testManifest(sh, 20)
	other.SuiteHash = Hash("other")
	if _, err := NewWriter(p, other, 3); err == nil || !strings.Contains(err.Error(), "refusing to resume") {
		t.Errorf("mismatched hash resume err = %v", err)
	}
	wrongShard := testManifest(Shard{Index: 1, Count: 2}, 20)
	wrongShard.SuiteHash = m.SuiteHash
	if _, err := NewWriter(p, wrongShard, 3); err == nil {
		t.Error("mismatched shard index resumed")
	}
}

// writeShard runs a complete shard to disk for the merge tests.
func writeShard(t testing.TB, path string, sh Shard, total int, order []int) {
	t.Helper()
	w, err := NewWriter(path, testManifest(sh, total), 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range order {
		if err := w.Append(c, line(c)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func ownedCells(sh Shard, total int) []int {
	var out []int
	for c := 0; c < total; c++ {
		if sh.Owns(c) {
			out = append(out, c)
		}
	}
	return out
}

func TestMergeRestoresOrder(t *testing.T) {
	dir := t.TempDir()
	total := 17
	// Write each shard's cells in a scrambled (completion-like) order.
	var paths []string
	for i := 0; i < 3; i++ {
		sh := Shard{Index: i, Count: 3}
		cells := ownedCells(sh, total)
		for j := range cells { // deterministic scramble
			k := (j * 5) % len(cells)
			cells[j], cells[k] = cells[k], cells[j]
		}
		p := filepath.Join(dir, fmt.Sprintf("s%d.jsonl", i))
		writeShard(t, p, sh, total, cells)
		paths = append(paths, p)
	}
	// Shards merge in any argument order.
	mg, err := NewMerger(paths[2], paths[0], paths[1])
	if err != nil {
		t.Fatal(err)
	}
	if m := mg.Manifest(); m.TotalCells != total || m.Suite != "t" {
		t.Errorf("merged manifest = %+v", m)
	}
	var got bytes.Buffer
	if err := mg.Merge(func(l []byte) error { _, err := got.Write(l); return err }); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for c := 0; c < total; c++ {
		want.Write(line(c))
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("merged output:\n%s\nwant:\n%s", got.String(), want.String())
	}
}

func TestMergeValidation(t *testing.T) {
	dir := t.TempDir()
	total := 10
	s0 := filepath.Join(dir, "s0.jsonl")
	s1 := filepath.Join(dir, "s1.jsonl")
	writeShard(t, s0, Shard{0, 2}, total, ownedCells(Shard{0, 2}, total))
	writeShard(t, s1, Shard{1, 2}, total, ownedCells(Shard{1, 2}, total))

	// Missing shard.
	if _, err := NewMerger(s0); err == nil || !strings.Contains(err.Error(), "missing 1/2") {
		t.Errorf("missing shard err = %v", err)
	}
	// Duplicate shard.
	if _, err := NewMerger(s0, s0); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("duplicate shard err = %v", err)
	}
	// Mismatched config refuses to merge.
	alien := filepath.Join(dir, "alien.jsonl")
	am := testManifest(Shard{1, 2}, total)
	am.SuiteHash = Hash("alien")
	aw, err := NewWriter(alien, am, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewMerger(s0, alien); err == nil || !strings.Contains(err.Error(), "suite hash mismatch") {
		t.Errorf("mismatched hash err = %v", err)
	}

	// An unfinished shard fails the coverage check with cells named.
	part := filepath.Join(dir, "part.jsonl")
	writeShard(t, part, Shard{1, 2}, total, []int{1, 3})
	mg, err := NewMerger(s0, part)
	if err != nil {
		t.Fatal(err)
	}
	err = mg.Merge(func([]byte) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "missing 3 of 10 cells") {
		t.Errorf("unfinished shard merge err = %v", err)
	}
}
