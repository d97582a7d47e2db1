package spef

// Streaming-path tests: StreamScenarios must be a pure delivery-order
// relaxation of RunScenarios — same cells, same bits, any worker count.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"
)

func streamToSlice(ctx context.Context, t *testing.T, cells []Scenario, opts RunOptions) []ScenarioResult {
	t.Helper()
	var out []ScenarioResult
	for r := range StreamScenarios(ctx, cells, opts) {
		out = append(out, r)
	}
	return out
}

// TestStreamMatchesBatchAcrossWorkerCounts is the streaming acceptance
// test: streamed results, reordered by Index, are bit-identical to the
// batch path for every worker count, including over a failure grid.
func TestStreamMatchesBatchAcrossWorkerCounts(t *testing.T) {
	n, d := gridNetwork(t)
	grid := Grid{
		Topologies: []Topology{{Name: "ring5", Network: n, Demands: d}},
		Routers:    []Router{OSPF(nil), SPEF(WithMaxIterations(300))},
		Failures:   "single",
	}
	cells, err := grid.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	batch, err := RunScenarios(t.Context(), cells, RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 8} {
		streamed := streamToSlice(t.Context(), t, cells, RunOptions{Workers: workers})
		if len(streamed) != len(batch) {
			t.Fatalf("workers=%d: streamed %d results, batch %d", workers, len(streamed), len(batch))
		}
		sort.Slice(streamed, func(i, j int) bool { return streamed[i].Index < streamed[j].Index })
		for i, r := range streamed {
			b := batch[i]
			if r.Index != b.Index || r.Scenario != b.Scenario || r.Router != b.Router {
				t.Fatalf("workers=%d: result %d is %q (index %d), batch has %q (index %d)",
					workers, i, r.Scenario, r.Index, b.Scenario, b.Index)
			}
			if r.Err != nil || b.Err != nil {
				t.Fatalf("workers=%d: cell %s errors: stream %v, batch %v", workers, r.Scenario, r.Err, b.Err)
			}
			if len(r.MetricNames) != len(b.MetricNames) {
				t.Fatalf("workers=%d: cell %s has %d metrics, batch %d",
					workers, r.Scenario, len(r.MetricNames), len(b.MetricNames))
			}
			for _, name := range b.MetricNames {
				// Bitwise equality: cells compute independently, so the
				// delivery mode must not change a single bit.
				if r.Metrics[name] != b.Metrics[name] {
					t.Errorf("workers=%d: cell %s metric %s = %v, batch %v",
						workers, r.Scenario, name, r.Metrics[name], b.Metrics[name])
				}
			}
		}
	}
}

func TestStreamScenariosEarlyBreak(t *testing.T) {
	n, d := gridNetwork(t)
	var cells []Scenario
	for i := 0; i < 16; i++ {
		cells = append(cells, Scenario{
			Name: fmt.Sprintf("cell%d", i), Topology: "ring5",
			Network: n, Demands: d, Router: OSPF(nil),
		})
	}
	seen := 0
	for range StreamScenarios(t.Context(), cells, RunOptions{Workers: 2}) {
		seen++
		if seen == 3 {
			break
		}
	}
	// The iterator must terminate promptly after the break (the drain
	// path); reaching here without deadlock is the assertion, the count
	// just confirms the break.
	if seen != 3 {
		t.Fatalf("consumed %d results, want 3", seen)
	}
}

func TestStreamScenariosCancellation(t *testing.T) {
	n, d := gridNetwork(t)
	var cells []Scenario
	for i := 0; i < 6; i++ {
		cells = append(cells, Scenario{
			Name: fmt.Sprintf("cell%d", i), Topology: "ring5",
			Network: n, Demands: d, Router: SPEF(WithMaxIterations(200)),
		})
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results := streamToSlice(ctx, t, cells, RunOptions{Workers: 2})
	if len(results) != len(cells) {
		t.Fatalf("%d results for %d cells", len(results), len(cells))
	}
	for _, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("cell %s: err = %v, want context.Canceled", r.Scenario, r.Err)
		}
		if r.Error == "" {
			t.Errorf("cell %s: serializable Error string empty for failed cell", r.Scenario)
		}
	}
}

func TestStreamScenariosProgress(t *testing.T) {
	n, d := gridNetwork(t)
	cells := []Scenario{
		{Name: "a", Topology: "ring5", Network: n, Demands: d, Router: OSPF(nil)},
		{Name: "b", Topology: "ring5", Network: n, Demands: d, Router: OSPF(nil)},
		{Name: "c", Topology: "ring5", Network: n, Demands: d, Router: OSPF(nil)},
	}
	var seen []int
	streamToSlice(t.Context(), t, cells, RunOptions{
		Workers:  2,
		Progress: func(done, total int) { seen = append(seen, done*100+total) },
	})
	want := []int{103, 203, 303}
	if len(seen) != len(want) {
		t.Fatalf("progress called %d times, want %d", len(seen), len(want))
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Errorf("progress[%d] = %d, want %d", i, seen[i], want[i])
		}
	}
}
