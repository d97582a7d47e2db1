package sweep

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// FuzzScanShard feeds the shard scanner arbitrary files for shard 1/3
// of a 20-cell sweep, seeded from a file the Writer writes (six cells,
// two checkpoints) and from its torn, foreign-line, duplicated-line and
// foreign-cell variants. Whatever the input, the scanner must not
// panic; its valid prefix must end on a line boundary, and reach the
// end of the input exactly when it reports nothing after it; every
// visited cell must be the shard's and visited once, each at a whole
// line (of the valid prefix, when the scan succeeds); and re-scanning
// the prefix must visit the same cells and report nothing after it.
func FuzzScanShard(f *testing.F) {
	sh := Shard{Index: 1, Count: 3}
	const total = 20
	path := filepath.Join(f.TempDir(), "s1.jsonl")
	writeShard(f, path, sh, total, []int{1, 4, 7, 10, 13, 16})
	good, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	first := bytes.IndexByte(good, '\n') + 1
	with := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	f.Add(good)
	f.Add(good[:len(good)-5])                                     // torn
	f.Add(with(good[:first], []byte("not json\n"), good[first:])) // a foreign line
	f.Add(with(good[:first], good[:first], good[first:]))         // a duplicated line
	f.Add(with(good, line(2)))                                    // a cell the shard does not own

	m := testManifest(sh, total)
	type visit struct {
		cell int
		off  int64
		n    int
	}
	scan := func(data []byte) (visits []visit, valid int64, trailing bool, err error) {
		valid, trailing, err = scanShard(bytes.NewReader(data), &m, func(cell int, off int64, n int) {
			visits = append(visits, visit{cell, off, n})
		})
		return visits, valid, trailing, err
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		visits, valid, trailing, err := scan(data)
		if valid < 0 || valid > int64(len(data)) || (valid > 0 && data[valid-1] != '\n') {
			t.Fatalf("valid prefix %d of %d bytes does not end a line", valid, len(data))
		}
		limit := int64(len(data))
		if err == nil {
			limit = valid
		}
		seen := make(map[int]bool)
		for _, v := range visits {
			if v.cell < 0 || v.cell >= total || !sh.Owns(v.cell) || seen[v.cell] {
				t.Fatalf("visited cell %d (visits %v): foreign or repeated", v.cell, visits)
			}
			seen[v.cell] = true
			if end := v.off + int64(v.n); v.off < 0 || v.n <= 0 || end > limit || data[end-1] != '\n' {
				t.Fatalf("cell %d visited at [%d, %d) of %d bytes (valid %d), not a whole line", v.cell, v.off, end, len(data), valid)
			}
		}
		if err != nil {
			return
		}
		if trailing == (valid == int64(len(data))) {
			t.Fatalf("valid prefix %d of %d bytes, trailing %v", valid, len(data), trailing)
		}
		again, valid2, trailing2, err := scan(data[:valid])
		if err != nil || trailing2 || valid2 != valid || !slices.Equal(again, visits) {
			t.Fatalf("re-scan of the valid prefix: visits %v, valid %d, trailing %v, err %v; first scan: visits %v, valid %d",
				again, valid2, trailing2, err, visits, valid)
		}
	})
}
