package spef

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// constMetric always reports the same value — used to prove NaN and
// the infinities survive the shard/merge round trip bit-for-bit.
type constMetric struct {
	name string
	v    float64
}

func (m constMetric) Name() string { return m.name }
func (m constMetric) Compute(*Routes, *Demands, *TrafficReport) (float64, error) {
	return m.v, nil
}

// canonicalJSONL re-encodes a JSONL result stream with runtimes zeroed
// — the only field of a result that legitimately differs between two
// runs of the same cell. Everything else must match bit-for-bit, so
// equal canonical forms mean bitwise-identical results.
func canonicalJSONL(t *testing.T, data []byte) string {
	t.Helper()
	var out strings.Builder
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		r, err := UnmarshalResultJSONL(line)
		if err != nil {
			t.Fatalf("canonicalJSONL: %v (line %q)", err, line)
		}
		r.Runtime = 0
		enc, err := marshalResultLine(r)
		if err != nil {
			t.Fatalf("canonicalJSONL: re-encode: %v", err)
		}
		out.Write(enc)
	}
	return out.String()
}

// encodeResults renders batch results exactly as `spef suite -format
// jsonl` would — the single-process reference the merged shards must
// reproduce.
func encodeResults(t *testing.T, results []ScenarioResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteResults(NewJSONLSink(&buf), results); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// runShards executes every shard of an n-way split into dir and
// returns the merged JSONL plus the shard paths.
func runShards(t *testing.T, cells []Scenario, opts RunOptions, hash string, names []string, n int, dir string) []byte {
	t.Helper()
	var paths []string
	for i := 0; i < n; i++ {
		p := filepath.Join(dir, fmt.Sprintf("shard%d.jsonl", i))
		rep, err := runShard(t.Context(), cells, opts, "t", hash, names,
			ShardSpec{Index: i, Count: n}, p, ShardOptions{CheckpointEvery: 3})
		if err != nil {
			t.Fatalf("runShard %d/%d: %v", i, n, err)
		}
		if rep.Ran != rep.ShardCells || rep.Resumed != 0 {
			t.Fatalf("fresh shard %d/%d report = %+v", i, n, rep)
		}
		paths = append(paths, p)
	}
	var merged bytes.Buffer
	info, err := MergeShardsJSONL(&merged, paths...)
	if err != nil {
		t.Fatalf("merge %d shards: %v", n, err)
	}
	if info.Cells != len(cells) || info.Shards != n {
		t.Fatalf("merge info = %+v", info)
	}
	return merged.Bytes()
}

// TestShardMergeBitIdenticalToSingleProcess is the tentpole property
// test: an n-way sharded run, merged, is bitwise identical to the
// single-process batch run — including error cells and non-finite
// metric values — for several shard counts.
func TestShardMergeBitIdenticalToSingleProcess(t *testing.T) {
	n, d := gridNetwork(t)
	grid := Grid{
		Topologies: []Topology{{Name: "ring5", Network: n, Demands: d}},
		Routers:    []Router{OSPF(nil), SPEF(WithMaxIterations(100))},
		Failures:   "single",
	}
	cells, err := grid.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	// One unroutable cell: a demand to an isolated node. Error rows
	// must shard and merge like any other.
	bad := NewNetwork()
	a := bad.AddNode("a")
	b := bad.AddNode("b")
	bad.AddNode("isolated")
	if _, _, err := bad.AddDuplex(a, b, 1); err != nil {
		t.Fatal(err)
	}
	badD := NewDemands(bad)
	if err := badD.Add(a, 2, 1); err != nil {
		t.Fatal(err)
	}
	cells = append(cells, Scenario{Name: "bad", Topology: "bad", Network: bad, Demands: badD, Router: OSPF(nil)})

	mlu, err := MetricsByName("mlu")
	if err != nil {
		t.Fatal(err)
	}
	opts := RunOptions{
		Workers: 3,
		Metrics: append(mlu,
			constMetric{"always_nan", math.NaN()},
			constMetric{"neg_inf", math.Inf(-1)},
			constMetric{"pos_inf", math.Inf(1)}),
	}
	names := metricNames(opts.metrics())

	results, err := RunScenarios(t.Context(), cells, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := canonicalJSONL(t, encodeResults(t, results))
	if !strings.Contains(want, `"nan"`) || !strings.Contains(want, `"-inf"`) ||
		!strings.Contains(want, `"+inf"`) || !strings.Contains(want, `"error"`) {
		t.Fatalf("reference output does not exercise non-finite and error spellings:\n%s", want)
	}

	hash := "sha256:" + strings.Repeat("ab", 32)
	for _, nShards := range []int{1, 2, 3, 5} {
		merged := runShards(t, cells, opts, hash, names, nShards, t.TempDir())
		if got := canonicalJSONL(t, merged); got != want {
			t.Errorf("%d-way sharded+merged output differs from single-process run:\ngot:\n%s\nwant:\n%s",
				nShards, got, want)
		}
	}
}

// TestShardMergeBitIdenticalWithReuseWeights pins the subtle case: with
// weight reuse on, every shard must optimize the same global reference
// cell of each (topology, failure, router) group, or sharded results
// drift from the single-process run. OSPF-LS and SR-2seg ask for one
// search per cell, which each shard shares only among its own cells.
func TestShardMergeBitIdenticalWithReuseWeights(t *testing.T) {
	n, d := gridNetwork(t)
	grid := Grid{
		Topologies: []Topology{{Name: "ring5", Network: n, Demands: d}},
		Routers: []Router{
			SPEF(WithMaxIterations(100)), OSPF(nil),
			OSPFLocalSearch(LocalSearchOptions{MaxEvals: 60}), SegmentRouting(ExplicitOptions{MaxEvals: 60}),
		},
		Loads:    []float64{0.5, 0.8, 1.1},
		Failures: "single",
	}
	cells, err := grid.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	opts := RunOptions{Workers: 2, ReuseWeights: true}
	names := metricNames(opts.metrics())
	results, err := RunScenarios(t.Context(), cells, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := canonicalJSONL(t, encodeResults(t, results))

	hash := "sha256:" + strings.Repeat("cd", 32)
	for _, nShards := range []int{2, 3} {
		merged := runShards(t, cells, opts, hash, names, nShards, t.TempDir())
		if got := canonicalJSONL(t, merged); got != want {
			t.Errorf("%d-way sharded+merged ReuseWeights output differs from single-process run", nShards)
		}
	}
}

// TestShardKillAndResume simulates a SIGKILL mid-stream: the shard file
// is truncated at several byte offsets (including mid-line), the same
// shard command re-runs, and the merged sweep must still be bitwise
// identical with no duplicate or missing cells.
func TestShardKillAndResume(t *testing.T) {
	n, d := gridNetwork(t)
	grid := Grid{
		Topologies: []Topology{{Name: "ring5", Network: n, Demands: d}},
		Routers:    []Router{OSPF(nil), SPEF(WithMaxIterations(100))},
		Failures:   "single",
	}
	cells, err := grid.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	opts := RunOptions{Workers: 2}
	names := metricNames(opts.metrics())
	results, err := RunScenarios(t.Context(), cells, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := canonicalJSONL(t, encodeResults(t, results))
	hash := "sha256:" + strings.Repeat("ef", 32)

	run := func(i int, p string) *ShardReport {
		t.Helper()
		rep, err := runShard(t.Context(), cells, opts, "t", hash, names,
			ShardSpec{Index: i, Count: 2}, p, ShardOptions{CheckpointEvery: 3})
		if err != nil {
			t.Fatalf("runShard %d/2: %v", i, err)
		}
		return rep
	}
	// Truncation fractions: mid-stream, late (mid-line almost surely),
	// and a tail cut of one byte (always mid-line).
	for _, cut := range []func(size int64) int64{
		func(s int64) int64 { return s / 3 },
		func(s int64) int64 { return s * 2 / 3 },
		func(s int64) int64 { return s - 1 },
	} {
		dir := t.TempDir()
		s0 := filepath.Join(dir, "shard0.jsonl")
		s1 := filepath.Join(dir, "shard1.jsonl")
		run(0, s0)
		run(1, s1)
		fi, err := os.Stat(s0)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(s0, cut(fi.Size())); err != nil {
			t.Fatal(err)
		}
		// The torn shard no longer merges: the coverage check names it.
		if _, err := MergeShardsJSONL(&bytes.Buffer{}, s0, s1); err == nil {
			t.Fatal("merge of a torn shard succeeded")
		}
		rep := run(0, s0)
		if rep.Resumed+rep.Ran != rep.ShardCells {
			t.Fatalf("resume report = %+v, want resumed+ran = %d", rep, rep.ShardCells)
		}
		if cut(fi.Size()) > 0 && rep.Resumed == 0 && fi.Size() > 200 {
			t.Errorf("resume after partial truncation recovered no cells (report %+v)", rep)
		}
		var merged bytes.Buffer
		if _, err := MergeShardsJSONL(&merged, s1, s0); err != nil {
			t.Fatalf("merge after resume: %v", err)
		}
		if got := canonicalJSONL(t, merged.Bytes()); got != want {
			t.Errorf("merged output after kill+resume differs from single-process run")
		}
	}
}

// TestShardRefusesForeignResume: a shard path carrying a different
// sweep's data must not be silently overwritten or extended.
func TestShardRefusesForeignResume(t *testing.T) {
	n, d := gridNetwork(t)
	cells := []Scenario{
		{Name: "a", Topology: "ring5", Network: n, Demands: d, Router: OSPF(nil)},
		{Name: "b", Topology: "ring5", Network: n, Demands: d, Router: OSPF(nil)},
	}
	opts := RunOptions{Workers: 1}
	names := metricNames(opts.metrics())
	p := filepath.Join(t.TempDir(), "shard.jsonl")
	if _, err := runShard(t.Context(), cells, opts, "t", "sha256:aaaa", names,
		ShardSpec{Index: 0, Count: 1}, p, ShardOptions{}); err != nil {
		t.Fatal(err)
	}
	_, err := runShard(t.Context(), cells, opts, "t", "sha256:bbbb", names,
		ShardSpec{Index: 0, Count: 1}, p, ShardOptions{})
	if err == nil || !strings.Contains(err.Error(), "refusing to resume") {
		t.Errorf("foreign resume err = %v, want refusal", err)
	}
}

// TestShardCancelDoesNotPersistCanceledCells: cancelling a shard run
// must checkpoint completed cells but never write cancellation rows —
// they re-run on resume.
func TestShardCancelDoesNotPersistCanceledCells(t *testing.T) {
	n, d := gridNetwork(t)
	var cells []Scenario
	for i := 0; i < 8; i++ {
		cells = append(cells, Scenario{
			Name: fmt.Sprintf("cell%d", i), Topology: "ring5",
			Network: n, Demands: d, Router: OSPF(nil),
		})
	}
	opts := RunOptions{Workers: 2}
	names := metricNames(opts.metrics())
	p := filepath.Join(t.TempDir(), "shard.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := runShard(ctx, cells, opts, "t", "sha256:cc", names,
		ShardSpec{Index: 0, Count: 1}, p, ShardOptions{CheckpointEvery: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep.Ran != 0 || rep.Failed != 0 {
		t.Errorf("cancelled run persisted cells: %+v", rep)
	}
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "canceled") {
		t.Errorf("shard file contains cancellation rows:\n%s", data)
	}
	// The same command completes the shard afterwards.
	rep, err = runShard(t.Context(), cells, opts, "t", "sha256:cc", names,
		ShardSpec{Index: 0, Count: 1}, p, ShardOptions{CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resumed+rep.Ran != len(cells) || rep.Failed != 0 {
		t.Errorf("completion report = %+v", rep)
	}
}

// TestSuiteHash: the sweep-identity hash is stable across calls and
// worker counts, and moves when anything result-affecting moves.
func TestSuiteHash(t *testing.T) {
	base := func() *Suite {
		return &Suite{
			Name:       "mini",
			Topologies: []string{"fig1"},
			Routers:    []string{"invcap", "spef:iters=200"},
			Metrics:    []string{"mlu", "utility"},
			Loads:      []float64{0.5, 1.0},
			Workers:    2,
		}
	}
	h1, err := base().Hash()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(h1, "sha256:") {
		t.Errorf("hash = %q, want sha256: prefix", h1)
	}
	same := base()
	same.Workers = 7 // workers never change results
	h2, err := same.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Error("hash depends on worker count")
	}
	for _, mutate := range []func(*Suite){
		func(s *Suite) { s.Loads = []float64{0.5} },
		func(s *Suite) { s.Routers = []string{"invcap"} },
		func(s *Suite) { s.Metrics = []string{"mlu"} },
		func(s *Suite) { s.Routers = []string{"invcap", "spef:iters=300"} },
	} {
		s := base()
		mutate(s)
		h, err := s.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if h == h1 {
			t.Errorf("hash unchanged by mutation to %+v", s)
		}
	}
}

// TestSuiteRunShardAndMergeSinks drives the public Suite API end to
// end: shard a real suite, read the manifests back, and merge through
// both the raw JSONL path and a decoding sink.
func TestSuiteRunShardAndMergeSinks(t *testing.T) {
	suite := &Suite{
		Name:       "fig1-shards",
		Topologies: []string{"fig1"},
		Routers:    []string{"invcap", "spef:iters=200"},
		Metrics:    []string{"mlu", "utility"},
		Loads:      []float64{0.5, 1.0},
		Workers:    2,
	}
	batch, err := suite.Collect(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	want := canonicalJSONL(t, encodeResults(t, batch))

	dir := t.TempDir()
	var paths []string
	var progressed int
	for i := 0; i < 2; i++ {
		p := filepath.Join(dir, fmt.Sprintf("s%d.jsonl", i))
		rep, err := suite.RunShard(t.Context(), ShardSpec{Index: i, Count: 2}, p, ShardOptions{
			Progress: func(done, total int) { progressed++ },
		})
		if err != nil {
			t.Fatalf("RunShard %d/2: %v", i, err)
		}
		if rep.TotalCells != len(batch) || rep.Ran != rep.ShardCells {
			t.Errorf("shard %d report = %+v", i, rep)
		}
		paths = append(paths, p)
	}
	if progressed == 0 {
		t.Error("progress callback never fired")
	}

	m, err := ReadShardManifest(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	wantHash, err := suite.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if m.Suite != "fig1-shards" || m.SuiteHash != wantHash || m.TotalCells != len(batch) ||
		m.Shard != (ShardSpec{Index: 0, Count: 2}) ||
		strings.Join(m.MetricNames, ",") != "mlu,utility" {
		t.Errorf("manifest = %+v", m)
	}

	var merged bytes.Buffer
	info, err := MergeShardsJSONL(&merged, paths...)
	if err != nil {
		t.Fatal(err)
	}
	if info.SuiteHash != wantHash || info.Cells != len(batch) {
		t.Errorf("merge info = %+v", info)
	}
	if got := canonicalJSONL(t, merged.Bytes()); got != want {
		t.Errorf("suite-level sharded+merged output differs from Collect:\ngot:\n%s\nwant:\n%s", got, want)
	}

	// The decoding path renders the same rows through any sink.
	var csv bytes.Buffer
	if _, err := MergeShards(NewCSVSink(&csv, m.MetricNames...), paths...); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(csv.String(), "\n"), "\n")
	if len(lines) != len(batch)+1 {
		t.Fatalf("CSV merge produced %d lines, want %d:\n%s", len(lines), len(batch)+1, csv.String())
	}
	if !strings.HasPrefix(lines[0], "index,scenario,") || !strings.Contains(lines[0], "mlu,utility") {
		t.Errorf("CSV header = %q", lines[0])
	}
}

func TestParseShardSpec(t *testing.T) {
	sp, err := ParseShardSpec("2/4")
	if err != nil || sp != (ShardSpec{Index: 2, Count: 4}) {
		t.Errorf("ParseShardSpec(2/4) = %v, %v", sp, err)
	}
	if sp.String() != "2/4" {
		t.Errorf("String() = %q", sp.String())
	}
	if _, err := ParseShardSpec("4/4"); !errors.Is(err, ErrBadInput) {
		t.Errorf("ParseShardSpec(4/4) err = %v, want ErrBadInput", err)
	}
}
