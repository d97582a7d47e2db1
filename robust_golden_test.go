package spef

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// robustSuite is the grid the robust golden pins: failure-robust OSPF-LS
// under exhaustive and sampled failure scoring, hill and tabu
// acceptance, and failure penalties 1 and 2.5, on Abilene, Cernet2 and
// a sparse random graph, each with its canonical demands at two loads.
// Some single failures of Cernet2 and of the random graph strand
// demand, so the routability screen drops units there.
func robustSuite() *Suite {
	return &Suite{
		Name:       "robust",
		Topologies: []string{"abilene", "cernet2", "rand:n=12,links=30,seed=2"},
		Loads:      []float64{0.1, 0.15},
		Routers: []string{
			"ospf-ls-robust:iters=300",
			"ospf-ls-robust:iters=300,rho=2.5",
			"ospf-ls-robust:iters=300,accept=tabu",
			"ospf-ls-robust:iters=300,sample=3,sampleseed=7",
			"ospf-ls-robust:iters=300,accept=tabu,rho=2.5,sample=4,sampleseed=2",
		},
	}
}

const robustGoldenPath = "testdata/robust.golden.jsonl"

// robustJSONL runs every cell of the robust suite and renders, one JSON
// line per cell, the optimized weight vector as IEEE-754 bit patterns
// and the cell's mlu, utility and fortz metrics in their shortest
// round-trip spelling (utility is -Inf once a link saturates).
func robustJSONL(t *testing.T) []byte {
	t.Helper()
	cells, err := robustSuite().Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := MetricsByName(MetricMLU, MetricUtility, MetricFortz)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, c := range cells {
		routes, err := c.Router.Routes(t.Context(), c.Network, c.Demands)
		if err != nil {
			t.Fatalf("cell %s: %v", c.Name, err)
		}
		report, err := routes.Evaluate(c.Demands)
		if err != nil {
			t.Fatalf("cell %s: %v", c.Name, err)
		}
		row := struct {
			Cell    string            `json:"cell"`
			Weights []string          `json:"weight_bits"`
			Metrics map[string]string `json:"metrics"`
		}{Cell: c.Name, Metrics: map[string]string{}}
		for _, w := range routes.ecmpWeights {
			row.Weights = append(row.Weights, fmt.Sprintf("%016x", math.Float64bits(w)))
		}
		for _, m := range metrics {
			v, err := m.Compute(routes, c.Demands, report)
			if err != nil {
				t.Fatalf("cell %s metric %s: %v", c.Name, m.Name(), err)
			}
			row.Metrics[m.Name()] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		line, err := json.Marshal(row)
		if err != nil {
			t.Fatalf("cell %s: %v", c.Name, err)
		}
		buf.Write(append(line, '\n'))
	}
	return buf.Bytes()
}

// TestRobustGolden byte-compares failure-robust OSPF-LS against the
// committed golden: weight bits and metrics of every cell of
// robustSuite. Every robust search is deterministic, so any byte
// difference is a behaviour change. Regenerate with UPDATE_GOLDEN=1
// after an intentional one.
func TestRobustGolden(t *testing.T) {
	got := robustJSONL(t)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(robustGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(robustGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", robustGoldenPath, len(got))
		return
	}
	want, err := os.ReadFile(robustGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1 go test -run TestRobustGolden)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("robust OSPF-LS output drifted from %s.\n got: %s\nwant: %s\nRegenerate with UPDATE_GOLDEN=1 if intentional.",
			robustGoldenPath, got, want)
	}
}
