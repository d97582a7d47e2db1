package sweep

import (
	"fmt"
	"os"
	"sort"
	"strings"
)

// Merger combines a complete set of shard files back into one sweep.
// Construction validates the manifests — same suite hash, same shard
// count, every shard present exactly once — and Merge validates the
// cells: every global index covered exactly once, each by the shard
// that owns it. Only then does it emit, so a merge either reproduces
// the single-process output exactly or fails loudly.
type Merger struct {
	paths     []string
	manifests []*Manifest
}

// NewMerger reads and cross-validates the manifests of the given shard
// files (in any order).
func NewMerger(paths ...string) (*Merger, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("sweep: merge needs at least one shard file")
	}
	mg := &Merger{paths: paths}
	byIndex := make(map[int]string)
	for _, p := range paths {
		m, err := ReadManifest(ManifestPath(p))
		if err != nil {
			return nil, fmt.Errorf("sweep: shard %s: %w", p, err)
		}
		if err := manifestSet(mg.manifests).compatible(m); err != nil {
			return nil, fmt.Errorf("sweep: shard %s: %w", p, err)
		}
		if prev, dup := byIndex[m.ShardIndex]; dup {
			return nil, fmt.Errorf("sweep: shard index %d appears twice: %s and %s", m.ShardIndex, prev, p)
		}
		byIndex[m.ShardIndex] = p
		mg.manifests = append(mg.manifests, m)
	}
	n := mg.manifests[0].ShardCount
	if len(paths) != n {
		var missing []string
		for i := 0; i < n; i++ {
			if _, ok := byIndex[i]; !ok {
				missing = append(missing, fmt.Sprintf("%d/%d", i, n))
			}
		}
		return nil, fmt.Errorf("sweep: have %d of %d shards (missing %s)", len(paths), n, strings.Join(missing, ", "))
	}
	return mg, nil
}

type manifestSet []*Manifest

func (ms manifestSet) compatible(m *Manifest) error {
	if len(ms) == 0 {
		return nil
	}
	return ms[0].Compatible(m)
}

// Manifest returns the sweep-level view shared by every shard: suite
// name and hash, total cell count, metric names.
func (mg *Merger) Manifest() Manifest {
	m := *mg.manifests[0]
	m.ShardIndex, m.ShardCells = 0, 0
	return m
}

// mergeEntry locates one cell's line: which file, where, how long.
type mergeEntry struct {
	file int
	off  int64
	n    int
}

// Merge streams every shard file once to index it, verifies exact
// coverage of the cell space, then emits each cell's raw JSONL line in
// global index order — the batch order a single-process run writes.
// Checkpoint records are skipped. A shard killed before finishing is
// refused at the byte offset of its torn tail, or, when it was cut at a
// line boundary, by the coverage check naming the missing cells; resume
// that shard first.
func (mg *Merger) Merge(emit func(line []byte) error) error {
	total := mg.manifests[0].TotalCells
	entries := make([]mergeEntry, total)
	for i := range entries {
		entries[i].file = -1
	}
	files := make([]*os.File, len(mg.paths))
	defer func() {
		for _, f := range files {
			if f != nil {
				f.Close()
			}
		}
	}()
	for fi, path := range mg.paths {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		files[fi] = f
		valid, trailing, err := scanShard(f, mg.manifests[fi], func(cell int, off int64, n int) {
			entries[cell] = mergeEntry{file: fi, off: off, n: n}
		})
		if err != nil {
			return fmt.Errorf("sweep: shard %s: %w", path, err)
		}
		if trailing {
			return fmt.Errorf("sweep: shard %s: torn or invalid record at byte offset %d (killed mid-write? resume it with the same `spef suite -shard` command before merging)", path, valid)
		}
	}
	var missing []int
	for i, e := range entries {
		if e.file == -1 {
			missing = append(missing, i)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("sweep: merge is missing %d of %d cells (%s) — an unfinished shard? resume it with the same `spef suite -shard` command",
			len(missing), total, cellList(missing, 8))
	}
	var buf []byte
	for _, e := range entries {
		if e.n > cap(buf) {
			buf = make([]byte, e.n)
		}
		if _, err := files[e.file].ReadAt(buf[:e.n], e.off); err != nil {
			return err
		}
		if err := emit(buf[:e.n]); err != nil {
			return err
		}
	}
	return nil
}

// cellList renders the first few missing cell indices.
func cellList(cells []int, max int) string {
	sort.Ints(cells)
	var parts []string
	for i, c := range cells {
		if i == max {
			parts = append(parts, fmt.Sprintf("and %d more", len(cells)-max))
			break
		}
		parts = append(parts, fmt.Sprintf("%d", c))
	}
	return strings.Join(parts, ", ")
}
