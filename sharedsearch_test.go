package spef

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/localsearch"
	"repro/internal/traffic"
)

// countSearches counts the Fortz-Thorup searches run until the test
// ends. started, when non-nil, is closed as the first search begins.
func countSearches(t *testing.T, started chan struct{}) *atomic.Int64 {
	t.Helper()
	var n atomic.Int64
	var first sync.Once
	orig := runSearch
	runSearch = func(ctx context.Context, g *graph.Graph, m *traffic.Matrix, o localsearch.Options) (*localsearch.Result, error) {
		n.Add(1)
		if started != nil {
			first.Do(func() { close(started) })
		}
		return orig(ctx, g, m, o)
	}
	t.Cleanup(func() { runSearch = orig })
	return &n
}

// TestLadderRunsOneSearch: the OSPF-LS, SR-2seg and MPLS-kSP rungs of
// the six-rung ladder ask for one search, and a run computes it once,
// for any worker count and on the batch and streaming paths alike.
func TestLadderRunsOneSearch(t *testing.T) {
	cells, opts, err := ladderSuite().resolve()
	if err != nil {
		t.Fatal(err)
	}
	n := countSearches(t, nil)
	for _, workers := range []int{1, 6} {
		opts.Workers = workers
		n.Store(0)
		res, err := RunScenarios(t.Context(), cells, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			if r.Err != nil {
				t.Fatalf("%s: %v", r.Scenario, r.Err)
			}
		}
		if got := n.Load(); got != 1 {
			t.Errorf("RunScenarios, %d workers: %d searches, want 1", workers, got)
		}
		n.Store(0)
		for r := range StreamScenarios(t.Context(), cells, opts) {
			if r.Err != nil {
				t.Fatalf("%s: %v", r.Scenario, r.Err)
			}
		}
		if got := n.Load(); got != 1 {
			t.Errorf("StreamScenarios, %d workers: %d searches, want 1", workers, got)
		}
	}
}

// TestFailureGridRunsOneSearchPerVariant: across two loads and the
// single-failure axis, the three searching rungs share one search per
// (load, failure variant).
func TestFailureGridRunsOneSearchPerVariant(t *testing.T) {
	net, d := lsTestInstance(t)
	eo := ExplicitOptions{MaxEvals: 40, Seed: 1}
	grid := Grid{
		Topologies: []Topology{{Name: "rand8", Network: net, Demands: d}},
		Loads:      []float64{0.15, 0.3},
		Routers:    []Router{OSPFLocalSearch(LocalSearchOptions{MaxEvals: 40, Seed: 1}), SegmentRouting(eo), MPLSKSP(eo)},
		Failures:   "single",
	}
	cells, err := grid.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	variants := make(map[string]bool)
	for _, c := range cells {
		variants[fmt.Sprintf("%g/%s", c.Load, c.FailedLink)] = true
	}
	n := countSearches(t, nil)
	res, err := RunScenarios(t.Context(), cells, RunOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Scenario, r.Err)
		}
	}
	if got := n.Load(); got != int64(len(variants)) {
		t.Errorf("%d searches for %d (load, variant) pairs, want one each", got, len(variants))
	}
}

// TestRunStorePrePass pins when a run installs shared searches: only
// for keys two or more of the cells that will run ask for.
func TestRunStorePrePass(t *testing.T) {
	cells, _, err := ladderSuite().resolve()
	if err != nil {
		t.Fatal(err)
	}
	if st := newRunStore(cells, false, nil); st == nil || len(st.searches) != 1 {
		t.Fatalf("six-rung ladder: store %+v, want one shared search", st)
	}
	// Counted over the shard's own cells: shard 0/2 runs InvCap, SPEF
	// and MPLS-kSP, one asker; shard 1/2 runs OSPF-LS, SR-2seg and
	// Optimal, two askers of one key.
	for i, want := range []int{0, 1} {
		sh := ShardSpec{Index: i, Count: 2}
		st := newRunStore(cells, false, sh.Owns)
		if (st == nil) != (want == 0) || (st != nil && len(st.searches) != want) {
			t.Errorf("shard %s: store %+v, want %d shared searches", sh, st, want)
		}
	}
	// With weight reuse, an OSPF-LS group's reference search is asked
	// once for the whole group, so a lone ospf-ls router per failure
	// variant (the campaign's shape) shares nothing.
	net, d := lsTestInstance(t)
	grid := Grid{
		Topologies: []Topology{{Name: "rand8", Network: net, Demands: d}},
		Loads:      []float64{0.15, 0.3},
		Routers:    []Router{OSPF(nil), OSPFLocalSearch(LocalSearchOptions{MaxEvals: 40})},
		Failures:   "single",
	}
	cells, err = grid.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	if st := newRunStore(cells, false, nil); st != nil {
		t.Errorf("one ospf-ls per cell, no reuse: store %+v, want none", st)
	}
	if st := newRunStore(cells, true, nil); st == nil || st.searches != nil {
		t.Errorf("one ospf-ls per cell, reuse: store %+v, want reuse groups only", st)
	}
}

// TestSearchKeyDefaultsMatchSearch pins the defaults newSearchKey
// applies to localsearch.Search's own: options that key alike must
// search alike, bit for bit.
func TestSearchKeyDefaultsMatchSearch(t *testing.T) {
	net, d := lsTestInstance(t)
	zero, defaults := localsearch.Options{}, localsearch.Options{MaxEvals: 2000, WeightMax: 20}
	ka, oka := newSearchKey(net, d, zero)
	kb, okb := newSearchKey(net, d, defaults)
	if !oka || !okb || ka != kb {
		t.Fatalf("keys %+v (%v) and %+v (%v), want equal", ka, oka, kb, okb)
	}
	wa, err := searchWeights(t.Context(), net, d, zero)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := searchWeights(t.Context(), net, d, defaults)
	if err != nil {
		t.Fatal(err)
	}
	for e := range wa {
		if math.Float64bits(wa[e]) != math.Float64bits(wb[e]) {
			t.Fatalf("link %d weight %v vs %v", e, wa[e], wb[e])
		}
	}
	if _, ok := newSearchKey(net, d, OSPFLocalSearch(LocalSearchOptions{Robust: true}).(ospfLSRouter).searchOptions()); ok {
		t.Error("a robust search must have no key")
	}
}

// searchSpec is one drawn searching router, described independently of
// the code under test so the test can predict which cells share a
// search.
type searchSpec struct {
	kind  string // ls, tabu, robust, sr, sr-invcap, mpls
	iters int
	seed  int64
	wmax  int
}

func (s searchSpec) router() Router {
	eo := ExplicitOptions{MaxEvals: s.iters, WeightMax: s.wmax, Seed: s.seed}
	lo := LocalSearchOptions{MaxEvals: s.iters, WeightMax: s.wmax, Seed: s.seed}
	switch s.kind {
	case "tabu":
		lo.Accept = "tabu"
	case "robust":
		lo.Robust, lo.SampleFailures = true, 2
	case "sr":
		return SegmentRouting(eo)
	case "sr-invcap":
		eo.InvCapBase = true
		return SegmentRouting(eo)
	case "mpls":
		return MPLSKSP(eo)
	}
	return OSPFLocalSearch(lo)
}

func (s searchSpec) reusable() bool { return s.kind == "ls" || s.kind == "tabu" || s.kind == "robust" }

// drawSearchSpecs draws k >= 6 routers: every kind once in a random
// order, then kinds at random, each with a random budget, seed and
// weight range.
func drawSearchSpecs(rng *rand.Rand, k int) []searchSpec {
	kinds := []string{"ls", "tabu", "robust", "sr", "sr-invcap", "mpls"}
	order := rng.Perm(len(kinds))
	out := make([]searchSpec, k)
	for i := range out {
		kind := kinds[rng.Intn(len(kinds))]
		if i < len(order) {
			kind = kinds[order[i]]
		}
		out[i] = searchSpec{
			kind:  kind,
			iters: []int{30, 60}[rng.Intn(2)],
			seed:  int64(rng.Intn(2)),
			// 0 and 20 both select the default weight range.
			wmax: []int{0, 20, 12}[rng.Intn(3)],
		}
	}
	return out
}

// expectedSearches predicts a run's search count: each distinct key
// once, plus every robust search, where with reuse an OSPF-LS group —
// one (failure variant, router position) across the loads — searches
// at its first cell only. shared counts the keys asked for twice or
// more.
func expectedSearches(cells []Scenario, specs []searchSpec, reuse bool) (want, shared int) {
	type key struct {
		net   *Network
		d     *Demands
		iters int
		seed  int64
		wmax  int
		tabu  bool
	}
	type group struct {
		failed string
		router int
	}
	asks := make(map[key]int)
	seen := make(map[group]bool)
	robust := 0
	for i, c := range cells {
		j := i % len(specs)
		sp := specs[j]
		if sp.kind == "sr-invcap" {
			continue
		}
		if reuse && sp.reusable() {
			g := group{c.FailedLink, j}
			if seen[g] {
				continue
			}
			seen[g] = true
		}
		if sp.kind == "robust" {
			robust++
			continue
		}
		wmax := sp.wmax
		if wmax == 0 {
			wmax = 20
		}
		asks[key{c.Network, c.Demands, sp.iters, sp.seed, wmax, sp.kind == "tabu"}]++
	}
	for _, n := range asks {
		if n >= 2 {
			shared++
		}
	}
	return len(asks) + robust, shared
}

// aloneRow runs r on cell c outside any scenario run — Routes, then
// Evaluate and the metrics — and returns the metric values and routes.
func aloneRow(t *testing.T, r Router, c Scenario, metrics []Metric) ([]float64, *Routes) {
	t.Helper()
	routes, err := r.Routes(context.Background(), c.Network, c.Demands)
	if err != nil {
		t.Fatalf("%s alone: %v", c.Name, err)
	}
	report, err := routes.Evaluate(c.Demands)
	if err != nil {
		t.Fatalf("%s alone: evaluate: %v", c.Name, err)
	}
	out := make([]float64, len(metrics))
	for k, m := range metrics {
		if out[k], err = m.Compute(routes, c.Demands, report); err != nil {
			t.Fatalf("%s alone: %s: %v", c.Name, m.Name(), err)
		}
	}
	return out, routes
}

// TestSharedSearchGridProperty runs randomized grids of searching
// routers over two loads and the single-failure axis, with weight reuse
// on and off, on 1 and 8 workers, batch and streamed. Every cell must
// equal, bit for bit, its own router run outside any scenario run (with
// reuse: its reference's extracted fixed-weight router run on the
// cell), and each run must search exactly once per distinct key plus
// once per robust search.
func TestSharedSearchGridProperty(t *testing.T) {
	net, d := lsTestInstance(t)
	metrics, err := MetricsByName("mlu", "utility", "fortz_norm")
	if err != nil {
		t.Fatal(err)
	}
	n := countSearches(t, nil)
	totalShared := 0
	for trial := int64(1); trial <= 3; trial++ {
		specs := drawSearchSpecs(rand.New(rand.NewSource(trial)), 7)
		routers := make([]Router, len(specs))
		for j, sp := range specs {
			routers[j] = sp.router()
		}
		cells, err := Grid{
			Topologies: []Topology{{Name: "rand8", Network: net, Demands: d}},
			Loads:      []float64{0.15, 0.3},
			Routers:    routers,
			Failures:   "single",
		}.Scenarios()
		if err != nil {
			t.Fatal(err)
		}
		// Expected rows, computed outside any run.
		alone := make([][]float64, len(cells))
		aloneRoutes := make([]*Routes, len(cells))
		for i, c := range cells {
			alone[i], aloneRoutes[i] = aloneRow(t, c.Router, c, metrics)
		}
		reused := make([][]float64, len(cells))
		ref := make(map[string]int)
		for i, c := range cells {
			j := i % len(specs)
			if !specs[j].reusable() {
				reused[i] = alone[i]
				continue
			}
			g := fmt.Sprintf("%s/%d", c.FailedLink, j)
			r, ok := ref[g]
			if !ok {
				ref[g], r = i, i
			}
			fixed, ok := fixedRouter(aloneRoutes[r])
			if !ok {
				t.Fatalf("%s: no fixed-weight router", cells[r].Name)
			}
			reused[i], _ = aloneRow(t, fixed, c, metrics)
			if r == i {
				checkRow(t, "reference cell vs its router alone", c.Name, reused[i], alone[i])
			}
		}
		for _, reuse := range []bool{false, true} {
			want, shared := expectedSearches(cells, specs, reuse)
			totalShared += shared
			expect := alone
			if reuse {
				expect = reused
			}
			for _, workers := range []int{1, 8} {
				opts := RunOptions{Workers: workers, Metrics: metrics, ReuseWeights: reuse}
				label := fmt.Sprintf("trial %d, reuse %v, %d workers", trial, reuse, workers)
				n.Store(0)
				res, err := RunScenarios(t.Context(), cells, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got := n.Load(); got != int64(want) {
					t.Errorf("%s: %d searches, want %d", label, got, want)
				}
				checkRows(t, label, res, metrics, expect)
				n.Store(0)
				streamed := make([]ScenarioResult, len(cells))
				for r := range StreamScenarios(t.Context(), cells, opts) {
					streamed[r.Index] = r
				}
				if got := n.Load(); got != int64(want) {
					t.Errorf("%s, streamed: %d searches, want %d", label, got, want)
				}
				checkRows(t, label+", streamed", streamed, metrics, expect)
			}
		}
	}
	if totalShared == 0 {
		t.Fatal("no trial drew a shared search; the property went untested")
	}
}

func checkRows(t *testing.T, label string, res []ScenarioResult, metrics []Metric, want [][]float64) {
	t.Helper()
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("%s: %s: %v", label, r.Scenario, r.Err)
		}
		got := make([]float64, len(metrics))
		for k, m := range metrics {
			got[k] = r.Metrics[m.Name()]
		}
		checkRow(t, label, r.Scenario, got, want[i])
	}
}

func checkRow(t *testing.T, label, cell string, got, want []float64) {
	t.Helper()
	for k := range want {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Fatalf("%s: %s metric %d: %v, want %v bit for bit", label, cell, k, got[k], want[k])
		}
	}
}

// TestSharedSearchCancel cancels a run while its first shared search is
// in flight: every searching cell, waiting on that search or another,
// must report the cancellation, no cell may start a search of its own,
// and a shard run must persist none of them.
func TestSharedSearchCancel(t *testing.T) {
	net, err := RandomNetwork(3, 20, 80)
	if err != nil {
		t.Fatal(err)
	}
	d, err := FortzThorupDemands(1, net)
	if err != nil {
		t.Fatal(err)
	}
	const evals = 1 << 20 // far more than any test waits for
	eo := ExplicitOptions{MaxEvals: evals}
	cells, err := Grid{
		Topologies: []Topology{{Name: "rand20", Network: net, Demands: d}},
		Loads:      []float64{0.2, 0.3},
		Routers:    []Router{OSPFLocalSearch(LocalSearchOptions{MaxEvals: evals}), SegmentRouting(eo), MPLSKSP(eo)},
	}.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	run := func(label string, f func(ctx context.Context) []ScenarioResult) {
		started := make(chan struct{})
		n := countSearches(t, started)
		ctx, cancel := context.WithCancel(t.Context())
		defer cancel()
		go func() {
			<-started
			cancel()
		}()
		for _, r := range f(ctx) {
			if !errors.Is(r.Err, context.Canceled) {
				t.Errorf("%s: %s: err %v, want context.Canceled", label, r.Scenario, r.Err)
			}
		}
		if got := n.Load(); got > 2 {
			t.Errorf("%s: %d searches for 2 shared keys", label, got)
		}
	}
	run("RunScenarios", func(ctx context.Context) []ScenarioResult {
		res, err := RunScenarios(ctx, cells, RunOptions{Workers: 4})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("RunScenarios: err %v, want context.Canceled", err)
		}
		return res
	})
	path := filepath.Join(t.TempDir(), "shard.jsonl")
	run("runShard", func(ctx context.Context) []ScenarioResult {
		rep, err := runShard(ctx, cells, RunOptions{Workers: 4}, "cancel", "h", metricNames(DefaultMetrics()), ShardSpec{Index: 0, Count: 1}, path, ShardOptions{})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("runShard: err %v, want context.Canceled", err)
		}
		if rep == nil || rep.Ran != 0 {
			t.Errorf("runShard persisted cells: %+v", rep)
		}
		return nil
	})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "canceled") {
		t.Errorf("shard file holds cancelled cells:\n%s", data)
	}
}
