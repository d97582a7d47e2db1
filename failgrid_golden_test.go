package spef

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// The failure-grid golden pins every cell of failure grids whose
// routers carry per-link configuration into the failure cells: fixed
// weight vectors read in the stale-weight window after a failure, and
// per-link q coefficients of the optimizing routers. The paper's
// failure golden covers InvCap and SPEF on Abilene single failures
// only.

const (
	failGridGoldenPath = "testdata/failgrid.golden.jsonl"
	// failGridSRLGPath groups the zoo fixture's links: two groups keep
	// the gravity demands routable, one single-link group, and one that
	// isolates Atlanta and is screened out.
	failGridSRLGPath = "testdata/failgrid.srlg.json"
)

// failGridQ is the per-link q coefficients of the golden's optimizing
// routers: 1, 1.25, 1.5, 1.75, repeating over the intact link IDs.
func failGridQ(links int) []float64 {
	q := make([]float64, links)
	for i := range q {
		q[i] = 1 + 0.25*float64(i%4)
	}
	return q
}

// failGridWeights is the golden's deployed OSPF weight setting: the
// integers 1 to 5 over the intact link IDs.
func failGridWeights(links int) []float64 {
	w := make([]float64, links)
	for i := range w {
		w[i] = float64(1 + (3*i)%5)
	}
	return w
}

// failGridRouters returns the golden's two router sets on one intact
// topology. The ECMP set (InvCap, OSPF(w), OSPF-LS) records a weight
// vector, so fail_mlu applies to it; the other set (PEFT(W),
// SPEFWithWeights(W, V) and Optimal under WithQ(q), and with optimize
// SPEF and PEFT under WithQ(q) too) gets every metric but fail_mlu,
// which refuses it. W and V come from an intact Optimize under the
// same q at the topology's first load.
func failGridRouters(t *testing.T, topo Topology, d *Demands, optimize bool) (ecmp, other []Router) {
	t.Helper()
	n := topo.Network
	q := failGridQ(n.NumLinks())
	p, err := Optimize(t.Context(), n, d, WithQ(q), WithMaxIterations(40))
	if err != nil {
		t.Fatalf("%s: intact Optimize: %v", topo.Name, err)
	}
	ls, err := ResolveRouter("ospf-ls:iters=100", 0)
	if err != nil {
		t.Fatal(err)
	}
	ecmp = []Router{OSPF(nil), OSPF(failGridWeights(n.NumLinks())), ls}
	other = []Router{
		Named("PEFT-w", PEFT(p.FirstWeights())),
		SPEFWithWeights(p.FirstWeights(), p.SecondWeights()),
		Optimal(WithQ(q), WithMaxIterations(40)),
	}
	if optimize {
		other = append(other, SPEF(WithQ(q), WithMaxIterations(40)), PEFT(nil, WithQ(q), WithMaxIterations(40)))
	}
	return ecmp, other
}

// failGridJSONL runs the golden's grids and renders every cell exactly
// as JSONLSink would, runtimes zeroed. Abilene fails single duplex
// pairs; the zoo fixture fails dual units, which include the single
// ones, and the SRLG groups of failGridSRLGPath. Optimizing SPEF and
// PEFT run on the zoo fixture only: on Abilene each cell takes tens of
// milliseconds whatever the iteration budget, and the race detector
// runs this test too. Each (topology, failure set) runs at two loads,
// once optimizing every cell and once with ReuseWeights, whose topology
// name carries a "+reuse" suffix so the two runs' rows stay distinct.
func failGridJSONL(t *testing.T) []byte {
	t.Helper()
	all := []string{
		MetricMLU, MetricUtility, MetricMeanUtilization, MetricP95Utilization, MetricMM1Delay,
		MetricMaxStretch, MetricFortz, MetricFortzNorm, MetricFailMLU,
	}
	withFail, err := MetricsByName(all...)
	if err != nil {
		t.Fatal(err)
	}
	withoutFail := withFail[:len(withFail)-1]
	var buf bytes.Buffer
	for _, c := range []struct {
		topo, failures string
		loads          []float64
		optimize       bool
	}{
		{"abilene", "single", []float64{0.05, 0.1}, false},
		{"zoo:file=internal/topoio/testdata/testnet.graphml", "dual", []float64{0.04, 0.08}, true},
		{"zoo:file=internal/topoio/testdata/testnet.graphml", "srlg:file=" + failGridSRLGPath, []float64{0.04, 0.08}, true},
	} {
		topo, err := ResolveTopology(c.topo)
		if err != nil {
			t.Fatal(err)
		}
		if topo.Demands, err = ResolveDemands("gravity", topo.Network); err != nil {
			t.Fatal(err)
		}
		first, err := topo.Demands.ScaledToLoad(topo.Network, c.loads[0])
		if err != nil {
			t.Fatal(err)
		}
		ecmp, other := failGridRouters(t, topo, first, c.optimize)
		for _, reuse := range []bool{false, true} {
			run := topo
			if reuse {
				run.Name += "+reuse"
			}
			for _, set := range []struct {
				routers []Router
				metrics []Metric
			}{{ecmp, withFail}, {other, withoutFail}} {
				cells, err := Grid{
					Topologies: []Topology{run},
					Loads:      c.loads,
					Routers:    set.routers,
					Failures:   c.failures,
				}.Scenarios()
				if err != nil {
					t.Fatal(err)
				}
				results, err := RunScenarios(t.Context(), cells, RunOptions{Metrics: set.metrics, ReuseWeights: reuse})
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range results {
					if r.Err != nil {
						t.Fatalf("cell %s failed: %v", r.Scenario, r.Err)
					}
					r.Runtime = 0
					line, err := marshalResultLine(r)
					if err != nil {
						t.Fatal(err)
					}
					buf.Write(line)
				}
			}
		}
	}
	return buf.Bytes()
}

// TestFailureGridGolden byte-compares the failure grids of
// failGridJSONL against the committed golden. Every cell is
// deterministic for any worker count, so any byte difference is a
// behaviour change. Regenerate with UPDATE_GOLDEN=1 after an
// intentional one.
func TestFailureGridGolden(t *testing.T) {
	got := failGridJSONL(t)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(failGridGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(failGridGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", failGridGoldenPath, len(got))
		return
	}
	want, err := os.ReadFile(failGridGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1 go test -run TestFailureGridGolden)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("failure-grid output drifted from %s.\n got: %s\nwant: %s\nRegenerate with UPDATE_GOLDEN=1 if intentional.",
			failGridGoldenPath, got, want)
	}
}
