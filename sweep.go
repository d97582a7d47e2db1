package spef

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/scenario"
	"repro/internal/sweep"
)

// ShardSpec selects one deterministic slice of a suite's cell index
// space: shard i of n owns every cell whose global Index satisfies
// Index % n == i. The partition depends only on the grid — never on
// worker count or completion order — so n shard processes (on one
// machine or many) cover the sweep exactly once, and re-running a
// shard resumes it. See Suite.RunShard and `spef suite -shard`.
type ShardSpec struct {
	// Index is the 0-based shard number, Count the total shard count:
	// a 4-way split is 0/4, 1/4, 2/4, 3/4.
	Index int
	Count int
}

// ParseShardSpec parses "i/n" (0-based).
func ParseShardSpec(s string) (ShardSpec, error) {
	sh, err := sweep.ParseShard(s)
	if err != nil {
		return ShardSpec{}, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	return ShardSpec{Index: sh.Index, Count: sh.Count}, nil
}

// Owns reports whether the shard owns the global cell index.
func (sp ShardSpec) Owns(index int) bool { return sp.shard().Owns(index) }

func (sp ShardSpec) String() string { return sp.shard().String() }

func (sp ShardSpec) shard() sweep.Shard { return sweep.Shard{Index: sp.Index, Count: sp.Count} }

// DefaultCheckpointEvery is the checkpoint interval RunShard uses when
// ShardOptions leaves it unset.
const DefaultCheckpointEvery = sweep.DefaultCheckpointEvery

// ShardOptions tunes Suite.RunShard.
type ShardOptions struct {
	// CheckpointEvery is the checkpoint interval in completed cells
	// (<= 0 selects 64): at every boundary the shard file is flushed
	// and fsynced and the progress sidecar atomically rewritten, so a
	// killed shard loses at most this many cells.
	CheckpointEvery int
	// Progress, when non-nil, is called after every completed cell
	// with the shard-local done and total counts (done starts at the
	// resumed count). Calls are serialized.
	Progress func(done, total int)
}

// ShardReport summarizes one RunShard invocation.
type ShardReport struct {
	// Shard and Path echo the invocation; SuiteHash is the sweep
	// identity recorded in the manifest.
	Shard     ShardSpec
	Path      string
	SuiteHash string
	// TotalCells counts the whole suite's cells, ShardCells the ones
	// this shard owns. Resumed cells were already complete when the
	// shard file was opened; Ran were executed (and persisted) by this
	// invocation; Failed counts persisted cells carrying an error.
	TotalCells int
	ShardCells int
	Resumed    int
	Ran        int
	Failed     int
}

// Hash returns the suite's sweep-identity hash: a digest of the
// normalized suite configuration, the resolved metric columns, and
// every expanded cell name. Shards record it in their manifests, and
// `spef merge` refuses to combine shards whose hashes differ — two
// shard files belong to the same sweep only if the suites that
// produced them would expand to the very same cells.
func (s *Suite) Hash() (string, error) {
	cells, opts, err := s.resolve()
	if err != nil {
		return "", err
	}
	return suiteHash(s, cells, metricNames(opts.metrics())), nil
}

func metricNames(metrics []Metric) []string {
	names := make([]string, len(metrics))
	for i, m := range metrics {
		names[i] = m.Name()
	}
	return names
}

// suiteHash digests what determines a sweep's output rows: the suite
// config (with the worker count zeroed — it never changes results),
// the metric columns, and the expanded cell names in order. Router
// parameters that cell names do not carry (iteration budgets, seeds)
// are covered by the config part.
func suiteHash(s *Suite, cells []Scenario, names []string) string {
	norm := *s
	norm.Workers = 0
	cfg, err := json.Marshal(&norm)
	if err != nil {
		cfg = []byte(s.Name) // Suite has no unmarshalable fields; defensive
	}
	parts := make([]string, 0, len(cells)+3)
	parts = append(parts, string(cfg), strings.Join(names, ","), strconv.Itoa(len(cells)))
	for _, c := range cells {
		parts = append(parts, c.Name)
	}
	return sweep.Hash(parts...)
}

// RunShard executes the shard's slice of the suite, streaming each
// completed cell as one JSONL line into path (plus a manifest sidecar
// at path+".manifest" and a checkpoint cursor at path+".progress").
// Results are bit-identical to the corresponding rows of a
// single-process run — including under ReuseWeights, where every shard
// optimizes the same global reference cell of each (topology, failure,
// router) group — so merging a complete shard set reproduces the
// single-process output exactly (see MergeShardsJSONL).
//
// Re-running the same shard command resumes it: cells already in the
// file are skipped, a torn tail from a killed run is truncated, and at
// most CheckpointEvery cells of work are lost. Cancelling ctx
// checkpoints what completed and returns the context's error; cells
// interrupted by the cancellation are not persisted and re-run on
// resume (only deterministic per-cell failures are recorded in the
// shard file).
func (s *Suite) RunShard(ctx context.Context, shard ShardSpec, path string, sopts ShardOptions) (*ShardReport, error) {
	cells, opts, err := s.resolve()
	if err != nil {
		return nil, err
	}
	names := metricNames(opts.metrics())
	return runShard(ctx, cells, opts, s.Name, suiteHash(s, cells, names), names, shard, path, sopts)
}

// runShard is the cell-level core of RunShard, shared with tests that
// need hand-built grids (error cells, custom metrics).
func runShard(ctx context.Context, cells []Scenario, opts RunOptions, suiteName, hash string, names []string, shard ShardSpec, path string, sopts ShardOptions) (*ShardReport, error) {
	if err := shard.shard().Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	var owned []int
	for i := range cells {
		if shard.Owns(i) {
			owned = append(owned, i)
		}
	}
	w, err := sweep.NewWriter(path, sweep.Manifest{
		Suite:       suiteName,
		SuiteHash:   hash,
		ShardIndex:  shard.Index,
		ShardCount:  shard.Count,
		TotalCells:  len(cells),
		ShardCells:  len(owned),
		MetricNames: names,
	}, sopts.CheckpointEvery)
	if err != nil {
		return nil, err
	}
	done := w.Resumed()
	pending := owned[:0:0]
	for _, i := range owned {
		if !done[i] {
			pending = append(pending, i)
		}
	}
	rep := &ShardReport{
		Shard:      shard,
		Path:       path,
		SuiteHash:  hash,
		TotalCells: len(cells),
		ShardCells: len(owned),
		Resumed:    len(done),
	}
	if sopts.Progress != nil {
		sopts.Progress(rep.Resumed, rep.ShardCells)
	}
	// The store's weight-reuse groups are built over the FULL cell list,
	// so each group's reference cell is the global one: every shard
	// optimizes the same reference and extracts the same weights,
	// keeping sharded results bit-identical to a single-process
	// ReuseWeights run (at the cost of re-optimizing shared references
	// once per shard). Shared searches are counted over the pending
	// cells only: a search depends only on its key, so sharing it inside
	// one shard changes no bit.
	store := newRunStore(cells, opts.ReuseWeights, func(i int) bool { return shard.Owns(i) && !done[i] })
	metrics := opts.metrics()
	completed := rep.Resumed
	var appendErr error
	scenario.Stream(store.install(ctx), len(pending), opts.Workers,
		func(ctx context.Context, i int) ScenarioResult {
			g := pending[i]
			return runScenario(ctx, g, cells[g], metrics, store)
		},
		func(i int) ScenarioResult {
			g := pending[i]
			r := resultShell(g, cells[g])
			r.setErr(ctx.Err())
			return r
		},
		func(i int, r ScenarioResult) {
			if appendErr != nil {
				return
			}
			// A cancelled cell is transient state, not a result: leaving
			// it out of the shard file makes the cell re-run on resume
			// instead of surviving as a bogus error row.
			if r.Err != nil && (errors.Is(r.Err, context.Canceled) || errors.Is(r.Err, context.DeadlineExceeded)) {
				return
			}
			line, err := marshalResultLine(r)
			if err == nil {
				err = w.Append(r.Index, line)
			}
			if err != nil {
				appendErr = err
				return
			}
			rep.Ran++
			if r.Err != nil {
				rep.Failed++
			}
			completed++
			if sopts.Progress != nil {
				sopts.Progress(completed, rep.ShardCells)
			}
		})
	closeErr := w.Close()
	switch {
	case appendErr != nil:
		return rep, appendErr
	case closeErr != nil:
		return rep, closeErr
	default:
		return rep, ctx.Err()
	}
}

// ShardManifest is the public view of a shard file's manifest sidecar.
type ShardManifest struct {
	// Suite and SuiteHash identify the sweep (see Suite.Hash).
	Suite     string
	SuiteHash string
	// Shard is the slice this file holds.
	Shard ShardSpec
	// TotalCells counts the whole sweep's cells, ShardCells this
	// shard's.
	TotalCells int
	ShardCells int
	// MetricNames lists the metric columns every record carries.
	MetricNames []string
}

// ReadShardManifest loads the manifest sidecar of a shard file written
// by RunShard (shardPath + ".manifest").
func ReadShardManifest(shardPath string) (*ShardManifest, error) {
	m, err := sweep.ReadManifest(sweep.ManifestPath(shardPath))
	if err != nil {
		return nil, err
	}
	return publicManifest(m), nil
}

func publicManifest(m *sweep.Manifest) *ShardManifest {
	return &ShardManifest{
		Suite:       m.Suite,
		SuiteHash:   m.SuiteHash,
		Shard:       ShardSpec{Index: m.ShardIndex, Count: m.ShardCount},
		TotalCells:  m.TotalCells,
		ShardCells:  m.ShardCells,
		MetricNames: m.MetricNames,
	}
}

// MergeInfo describes a validated, merged shard set.
type MergeInfo struct {
	// Suite and SuiteHash identify the sweep.
	Suite     string
	SuiteHash string
	// Cells is the merged cell count, Shards the shard count.
	Cells  int
	Shards int
	// MetricNames lists the metric columns of every record.
	MetricNames []string
}

// MergeShardsJSONL merges a complete shard set into w as JSONL in
// global cell order — byte-identical (runtimes aside, which are
// wall-clock) to what a single-process `spef suite -format jsonl` run
// of the same suite writes. Manifests are cross-validated first
// (mismatched suite hashes, shard counts or metric sets refuse to
// merge), then every cell must appear exactly once, each in the shard
// that owns it; missing or duplicate cells fail with the cells named.
func MergeShardsJSONL(w io.Writer, shardPaths ...string) (*MergeInfo, error) {
	return mergeShards(shardPaths, func(line []byte) error {
		_, err := w.Write(line)
		return err
	})
}

// MergeShards merges a complete shard set through any Sink (CSV,
// table, or JSONL), decoding each record — the path `spef merge
// -format csv|table` takes. Validation is identical to
// MergeShardsJSONL.
func MergeShards(sink Sink, shardPaths ...string) (*MergeInfo, error) {
	info, err := mergeShards(shardPaths, func(line []byte) error {
		r, err := UnmarshalResultJSONL(line)
		if err != nil {
			return err
		}
		return sink.Write(r)
	})
	if err != nil {
		return info, err
	}
	return info, sink.Flush()
}

func mergeShards(paths []string, emit func(line []byte) error) (*MergeInfo, error) {
	mg, err := sweep.NewMerger(paths...)
	if err != nil {
		return nil, err
	}
	m := mg.Manifest()
	info := &MergeInfo{
		Suite:       m.Suite,
		SuiteHash:   m.SuiteHash,
		Cells:       m.TotalCells,
		Shards:      m.ShardCount,
		MetricNames: m.MetricNames,
	}
	if err := mg.Merge(emit); err != nil {
		return info, err
	}
	return info, nil
}
