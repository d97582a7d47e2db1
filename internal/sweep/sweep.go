// Package sweep is the sharded, resumable execution layer behind
// `spef suite -shard` and `spef merge`: deterministic partitioning of a
// suite's cell index space into n stable shards, self-describing shard
// JSONL files with manifests so mismatched configs refuse to merge, a
// checkpoint protocol that bounds the loss of a killed sweep to the
// checkpoint interval, and a merger that restores global batch order.
//
// The package is deliberately ignorant of the scenario engine: it deals
// in global cell indices and opaque JSONL lines that carry an "index"
// field. The public spef package supplies both (see spef.RunShard and
// spef.MergeShards); this layer owns the files.
//
// On-disk layout for a shard written to PATH:
//
//	PATH           the shard JSONL: one result record per completed
//	               cell (in completion order) interleaved with
//	               checkpoint records {"checkpoint":{"done":N}}
//	PATH.manifest  the shard manifest (schema spef-shard-manifest/v1)
//	PATH.progress  the checkpoint cursor (schema spef-shard-progress/v1)
//
// Manifest and progress files are written via temp-file + rename, so a
// crash can never leave them torn; the shard JSONL is append-only and
// flushed + fsynced at every checkpoint, so a SIGKILL loses at most the
// cells completed since the last checkpoint. Resume scans the shard
// file itself — the single source of truth — keeping every complete,
// valid line and truncating a torn tail.
package sweep

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Schema identifiers of the shard sidecar files.
const (
	ManifestSchema = "spef-shard-manifest/v1"
	ProgressSchema = "spef-shard-progress/v1"
)

// DefaultCheckpointEvery is the checkpoint interval (in completed
// cells) when the caller does not choose one.
const DefaultCheckpointEvery = 64

// Shard identifies one deterministic slice of a sweep's cell index
// space: shard i of n owns every global cell index with index % n == i.
// The assignment depends only on the cell index and n — never on
// worker count, completion order, or which machine runs the shard — so
// the same spec always names the same cells, which is what makes a
// shard resumable and a merge exact.
type Shard struct {
	Index int
	Count int
}

// ParseShard parses "i/n" (0-based: shards of a 4-way split are 0/4 ..
// 3/4).
func ParseShard(s string) (Shard, error) {
	is, ns, ok := strings.Cut(s, "/")
	if !ok {
		return Shard{}, fmt.Errorf("sweep: shard spec %q is not of the form i/n (e.g. 0/4)", s)
	}
	i, err := strconv.Atoi(strings.TrimSpace(is))
	if err != nil {
		return Shard{}, fmt.Errorf("sweep: shard spec %q: bad index %q", s, is)
	}
	n, err := strconv.Atoi(strings.TrimSpace(ns))
	if err != nil {
		return Shard{}, fmt.Errorf("sweep: shard spec %q: bad count %q", s, ns)
	}
	sh := Shard{Index: i, Count: n}
	if err := sh.Validate(); err != nil {
		if n >= 1 && i == n {
			return Shard{}, fmt.Errorf("%w (shard indices are 0-based: the last of %d shards is %d/%d)", err, n, n-1, n)
		}
		return Shard{}, err
	}
	return sh, nil
}

// Validate checks 0 <= Index < Count.
func (s Shard) Validate() error {
	if s.Count < 1 {
		return fmt.Errorf("sweep: shard count %d must be >= 1", s.Count)
	}
	if s.Index < 0 || s.Index >= s.Count {
		return fmt.Errorf("sweep: shard index %d out of range [0, %d)", s.Index, s.Count)
	}
	return nil
}

// Owns reports whether this shard owns the global cell index.
func (s Shard) Owns(cell int) bool { return cell%s.Count == s.Index }

// Cells returns how many of total cells this shard owns.
func (s Shard) Cells(total int) int {
	if total <= s.Index {
		return 0
	}
	return (total-s.Index-1)/s.Count + 1
}

func (s Shard) String() string { return fmt.Sprintf("%d/%d", s.Index, s.Count) }

// Hash digests the parts into the sweep identity hash recorded in
// manifests. Parts are length-prefixed, so no concatenation of
// different part lists collides.
func Hash(parts ...string) string {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		io.WriteString(h, p)
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}

// Manifest is the self-description of one shard file: which suite (by
// content hash), which slice of its cell space, and what the records
// carry. Merging validates manifests against each other, so shards
// from mismatched configs refuse to combine instead of producing a
// silently wrong sweep.
type Manifest struct {
	Schema      string   `json:"schema"`
	Suite       string   `json:"suite,omitempty"`
	SuiteHash   string   `json:"suite_hash"`
	ShardIndex  int      `json:"shard_index"`
	ShardCount  int      `json:"shard_count"`
	TotalCells  int      `json:"total_cells"`
	ShardCells  int      `json:"shard_cells"`
	MetricNames []string `json:"metric_names,omitempty"`
}

// Shard returns the manifest's shard spec.
func (m *Manifest) Shard() Shard { return Shard{Index: m.ShardIndex, Count: m.ShardCount} }

// Compatible reports whether two manifests describe shards of the same
// sweep (everything but the shard index must match).
func (m *Manifest) Compatible(o *Manifest) error {
	switch {
	case m.SuiteHash != o.SuiteHash:
		return fmt.Errorf("sweep: suite hash mismatch: %s vs %s (shards were produced by different suite configs)", m.SuiteHash, o.SuiteHash)
	case m.ShardCount != o.ShardCount:
		return fmt.Errorf("sweep: shard count mismatch: %d vs %d", m.ShardCount, o.ShardCount)
	case m.TotalCells != o.TotalCells:
		return fmt.Errorf("sweep: total cell count mismatch: %d vs %d", m.TotalCells, o.TotalCells)
	case strings.Join(m.MetricNames, ",") != strings.Join(o.MetricNames, ","):
		return fmt.Errorf("sweep: metric set mismatch: [%s] vs [%s]",
			strings.Join(m.MetricNames, ","), strings.Join(o.MetricNames, ","))
	}
	return nil
}

// Progress is the checkpoint cursor of one shard: how many cells are
// durably in the shard file and the byte offset after the last
// checkpoint. It is advisory — resume re-derives completed cells by
// scanning the shard file — but it pins the shard's identity, so a
// stale file from another sweep refuses to resume.
type Progress struct {
	Schema     string `json:"schema"`
	SuiteHash  string `json:"suite_hash"`
	ShardIndex int    `json:"shard_index"`
	ShardCount int    `json:"shard_count"`
	CellsDone  int    `json:"cells_done"`
	Offset     int64  `json:"offset"`
	Complete   bool   `json:"complete,omitempty"`
}

// ManifestPath and ProgressPath name a shard file's sidecars.
func ManifestPath(shardPath string) string { return shardPath + ".manifest" }

// ProgressPath returns the checkpoint-cursor path for a shard file.
func ProgressPath(shardPath string) string { return shardPath + ".progress" }

// WriteAtomic writes data to path via a temp file in the same
// directory, fsync, and rename — a reader (or a crash) sees either the
// old content or the new, never a torn write.
func WriteAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err == nil {
		err = tmp.Sync()
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

func writeJSONAtomic(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return WriteAtomic(path, append(data, '\n'))
}

// ReadManifest loads and validates a shard manifest.
func ReadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("sweep: parsing manifest %s: %w", path, err)
	}
	if m.Schema != ManifestSchema {
		return nil, fmt.Errorf("sweep: manifest %s has schema %q, want %q", path, m.Schema, ManifestSchema)
	}
	if err := m.Shard().Validate(); err != nil {
		return nil, fmt.Errorf("sweep: manifest %s: %w", path, err)
	}
	return &m, nil
}

func readProgress(path string) (*Progress, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var p Progress
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("sweep: parsing progress %s: %w", path, err)
	}
	if p.Schema != ProgressSchema {
		return nil, fmt.Errorf("sweep: progress %s has schema %q, want %q", path, p.Schema, ProgressSchema)
	}
	return &p, nil
}

// lineProbe is the minimal decoding of one shard JSONL line: a result
// record carries "index", a checkpoint record carries "checkpoint".
type lineProbe struct {
	Index      *int `json:"index"`
	Checkpoint *struct {
		Done int `json:"done"`
	} `json:"checkpoint"`
}

// scanShard walks a shard file: the one reader of the shard-file
// grammar, shared by resume and merge. It checks that shard m owns
// every recorded cell, that no cell is recorded twice and that every
// checkpoint counts the result lines before it, and calls visit with
// each result line's cell, byte offset and length. It returns the byte
// offset after the last complete, valid line and whether anything
// follows it: a torn or foreign tail, which only a killed run leaves
// (only cells after the last durable flush can live there). Resume
// truncates such a tail; merge refuses the file.
func scanShard(r io.Reader, m *Manifest, visit func(cell int, off int64, n int)) (valid int64, trailing bool, err error) {
	seen := make(map[int]bool)
	br := bufio.NewReaderSize(r, 1<<16)
	for {
		line, rerr := br.ReadBytes('\n')
		if rerr == io.EOF {
			return valid, len(line) > 0, nil // an unterminated line is a torn write
		}
		if rerr != nil {
			return 0, false, rerr
		}
		var p lineProbe
		if json.Unmarshal(line, &p) != nil || (p.Index == nil) == (p.Checkpoint == nil) {
			return valid, true, nil // torn or foreign line: stop here
		}
		if p.Index != nil {
			i := *p.Index
			if i < 0 || i >= m.TotalCells || !m.Shard().Owns(i) {
				return 0, false, fmt.Errorf("records cell %d, which shard %s does not own", i, m.Shard())
			}
			if seen[i] {
				return 0, false, fmt.Errorf("records cell %d twice", i)
			}
			seen[i] = true
			visit(i, valid, len(line))
		} else if p.Checkpoint.Done != len(seen) {
			return 0, false, fmt.Errorf("checkpoint records %d cells done, file has %d — file was edited or mixed",
				p.Checkpoint.Done, len(seen))
		}
		valid += int64(len(line))
	}
}

// Writer appends result lines to a shard JSONL file under the
// checkpoint protocol: every `every` completed cells it appends a
// checkpoint record, flushes and fsyncs the file, and atomically
// rewrites the progress sidecar. Opening an existing shard resumes it:
// the file is scanned, complete cells are reported via Resumed, a torn
// tail is truncated, and new lines append after the survivors.
type Writer struct {
	path    string
	m       Manifest
	every   int
	f       *os.File
	bw      *bufio.Writer
	off     int64 // logical end of the shard file
	done    int   // result lines in the file
	pending int   // cells since the last checkpoint
	resumed map[int]bool
}

// NewWriter opens path for shard m, creating or resuming it. A
// pre-existing manifest from a different sweep (or shard) refuses to
// resume rather than corrupting the file.
func NewWriter(path string, m Manifest, every int) (*Writer, error) {
	if every <= 0 {
		every = DefaultCheckpointEvery
	}
	m.Schema = ManifestSchema
	if err := m.Shard().Validate(); err != nil {
		return nil, err
	}
	if existing, err := ReadManifest(ManifestPath(path)); err == nil {
		if err := existing.Compatible(&m); err != nil {
			return nil, fmt.Errorf("sweep: refusing to resume %s: %w", path, err)
		}
		if existing.ShardIndex != m.ShardIndex {
			return nil, fmt.Errorf("sweep: refusing to resume %s: it holds shard %s, not %s",
				path, existing.Shard(), m.Shard())
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	if err := writeJSONAtomic(ManifestPath(path), &m); err != nil {
		return nil, err
	}

	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	done := make(map[int]bool)
	off, _, err := scanShard(f, &m, func(cell int, _ int64, _ int) { done[cell] = true })
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("sweep: refusing to resume %s: %w", path, err)
	}
	// The progress sidecar is advisory (the scan is the truth), but its
	// identity must match: a cursor from another sweep means the caller
	// is mixing output paths.
	if p, perr := readProgress(ProgressPath(path)); perr == nil {
		if p.SuiteHash != m.SuiteHash || p.ShardIndex != m.ShardIndex || p.ShardCount != m.ShardCount {
			f.Close()
			return nil, fmt.Errorf("sweep: refusing to resume %s: progress sidecar belongs to a different sweep or shard", path)
		}
	}
	if err := f.Truncate(off); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return &Writer{
		path:    path,
		m:       m,
		every:   every,
		f:       f,
		bw:      bufio.NewWriterSize(f, 1<<16),
		off:     off,
		done:    len(done),
		resumed: done,
	}, nil
}

// Resumed returns the global cell indices already complete when the
// writer opened — the cells the caller must skip.
func (w *Writer) Resumed() map[int]bool { return w.resumed }

// Append writes one result line (newline included) for the given
// global cell index, checkpointing when the interval is reached.
func (w *Writer) Append(cell int, line []byte) error {
	if !w.m.Shard().Owns(cell) {
		return fmt.Errorf("sweep: cell %d does not belong to shard %s", cell, w.m.Shard())
	}
	if len(line) == 0 || line[len(line)-1] != '\n' {
		return fmt.Errorf("sweep: shard line for cell %d is not newline-terminated", cell)
	}
	if _, err := w.bw.Write(line); err != nil {
		return err
	}
	w.off += int64(len(line))
	w.done++
	w.pending++
	if w.pending >= w.every {
		return w.Checkpoint()
	}
	return nil
}

// Checkpoint appends a checkpoint record, flushes and fsyncs the shard
// file, and atomically rewrites the progress sidecar. After it
// returns, everything appended so far survives a SIGKILL.
func (w *Writer) Checkpoint() error {
	rec := fmt.Sprintf("{\"checkpoint\":{\"done\":%d}}\n", w.done)
	if _, err := w.bw.WriteString(rec); err != nil {
		return err
	}
	w.off += int64(len(rec))
	if err := w.bw.Flush(); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.pending = 0
	return w.writeProgress()
}

func (w *Writer) writeProgress() error {
	return writeJSONAtomic(ProgressPath(w.path), &Progress{
		Schema:     ProgressSchema,
		SuiteHash:  w.m.SuiteHash,
		ShardIndex: w.m.ShardIndex,
		ShardCount: w.m.ShardCount,
		CellsDone:  w.done,
		Offset:     w.off,
		Complete:   w.done == w.m.ShardCells,
	})
}

// Close takes a final checkpoint (when cells completed since the last
// one), refreshes the progress sidecar, and closes the file.
func (w *Writer) Close() error {
	var err error
	if w.pending > 0 {
		err = w.Checkpoint()
	} else if ferr := w.bw.Flush(); ferr != nil {
		err = ferr
	} else {
		err = w.writeProgress()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}
