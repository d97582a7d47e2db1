package bench

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	spef "repro"
)

// SweepThroughput compares the sharded sweep pipeline against the
// single-process batch path on one suite: cells/sec on each path, and
// ShardEfficiency — single-process elapsed over sharded elapsed (all
// shards run back to back in-process, plus the merge), the median over
// alternating rounds, so values near 1 mean the shard/checkpoint/merge
// machinery is close to free. The ratio is measured in one process, so
// machine speed cancels and Check gates it; the raw cells/sec are
// machine-dependent trend data.
type SweepThroughput struct {
	Name              string  `json:"name"`
	Cells             int     `json:"cells"`
	Shards            int     `json:"shards"`
	SingleCellsPerSec float64 `json:"single_cells_per_sec"`
	ShardCellsPerSec  float64 `json:"shard_cells_per_sec"`
	ShardEfficiency   float64 `json:"shard_efficiency"`
}

// sweepSuite is the zoo-fixture sweep both bench modes run: identical
// in quick and full runs, so the CI quick check compares meaningfully
// against the committed full baseline.
func sweepSuite() (*spef.Suite, error) {
	zoo, err := zooFixture()
	if err != nil {
		return nil, err
	}
	return &spef.Suite{
		Name:       "bench-sweep",
		Topologies: []string{"zoo:file=" + zoo},
		Demands:    "gravity:seed=3",
		Loads:      []float64{0.05, 0.08, 0.12},
		Routers:    []string{"invcap", "spef:iters=60"},
		Metrics:    []string{"mlu", "utility"},
		Failures:   "single",
		Workers:    2,
	}, nil
}

// sweepThroughput measures the surface and verifies the merged sharded
// output matches the single-process run bit-for-bit (runtimes aside).
func sweepThroughput() ([]SweepThroughput, []Parity, error) {
	suite, err := sweepSuite()
	if err != nil {
		return nil, nil, err
	}
	ctx := context.Background()
	const shards = 2

	var results []spef.ScenarioResult
	var single, merged bytes.Buffer
	var info *spef.MergeInfo
	runSingle := func() (float64, error) {
		runtime.GC()
		start := time.Now()
		res, err := suite.Collect(ctx)
		if err != nil {
			return 0, err
		}
		var buf bytes.Buffer
		if err := spef.WriteResults(spef.NewJSONLSink(&buf), res); err != nil {
			return 0, err
		}
		secs := time.Since(start).Seconds()
		results, single = res, buf
		return secs, nil
	}
	runSharded := func() (float64, error) {
		dir, err := os.MkdirTemp("", "spef-bench-sweep")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		runtime.GC()
		start := time.Now()
		var paths []string
		for i := 0; i < shards; i++ {
			p := filepath.Join(dir, fmt.Sprintf("shard%d.jsonl", i))
			if _, err := suite.RunShard(ctx, spef.ShardSpec{Index: i, Count: shards}, p,
				spef.ShardOptions{CheckpointEvery: 8}); err != nil {
				return 0, err
			}
			paths = append(paths, p)
		}
		var buf bytes.Buffer
		in, err := spef.MergeShardsJSONL(&buf, paths...)
		if err != nil {
			return 0, err
		}
		secs := time.Since(start).Seconds()
		merged, info = buf, in
		return secs, nil
	}

	// Alternating rounds, as timePair times the kernels: after one
	// warm-up run of each path, single and sharded runs alternate, and
	// the efficiency is the median of the per-round single/sharded
	// ratios. A burst of machine noise then lands on both paths alike,
	// and one disturbed round cannot move the median. Each run starts
	// from a collected heap, so neither path pays for the garbage of
	// the run before it.
	var singleSecs, shardSecs float64
	var ratios [pairRounds]float64
	for r := -1; r < pairRounds; r++ {
		ts, err := runSingle()
		if err != nil {
			return nil, nil, err
		}
		tsh, err := runSharded()
		if err != nil {
			return nil, nil, err
		}
		if r >= 0 {
			ratios[r] = ts / tsh
			singleSecs += ts
			shardSecs += tsh
		}
	}
	slices.Sort(ratios[:])

	same := info.Cells == len(results)
	detail := fmt.Sprintf("%d cells, %d-way sharded+checkpointed+merged JSONL vs single-process batch", len(results), shards)
	if same {
		if err := shardMergeParity(single.Bytes(), merged.Bytes()); err != nil {
			same = false
			detail += ": " + err.Error()
		}
	}
	st := SweepThroughput{
		Name:            "zoo/suite-shard-vs-single",
		Cells:           len(results),
		Shards:          shards,
		ShardEfficiency: ratios[pairRounds/2],
	}
	if singleSecs > 0 {
		st.SingleCellsPerSec = float64(pairRounds*len(results)) / singleSecs
	}
	if shardSecs > 0 {
		st.ShardCellsPerSec = float64(pairRounds*len(results)) / shardSecs
	}
	par := Parity{
		Name:         "zoo/shard-merge-vs-single",
		Detail:       detail,
		BitIdentical: same,
	}
	return []SweepThroughput{st}, []Parity{par}, nil
}

// shardMergeParity compares two JSONL result streams field by field —
// every metric bit-for-bit — ignoring only the wall-clock runtime.
func shardMergeParity(single, merged []byte) error {
	a, b := bytes.Split(single, []byte("\n")), bytes.Split(merged, []byte("\n"))
	if len(a) != len(b) {
		return fmt.Errorf("%d vs %d lines", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) == 0 && len(b[i]) == 0 {
			continue
		}
		ra, err := spef.UnmarshalResultJSONL(a[i])
		if err != nil {
			return fmt.Errorf("single line %d: %v", i, err)
		}
		rb, err := spef.UnmarshalResultJSONL(b[i])
		if err != nil {
			return fmt.Errorf("merged line %d: %v", i, err)
		}
		if ra.Index != rb.Index || ra.Scenario != rb.Scenario || ra.Error != rb.Error ||
			len(ra.Metrics) != len(rb.Metrics) {
			return fmt.Errorf("cell %d identity differs (%q vs %q)", i, ra.Scenario, rb.Scenario)
		}
		for name, va := range ra.Metrics {
			vb, ok := rb.Metrics[name]
			if !ok || math.Float64bits(va) != math.Float64bits(vb) {
				return fmt.Errorf("cell %s metric %s: %v vs %v", ra.Scenario, name, va, vb)
			}
		}
	}
	return nil
}
