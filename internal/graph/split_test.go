package graph

import (
	"math"
	"math/rand"
	"testing"
)

// TestExpLogIdentities pins the values the split kernel's fast paths
// return without calling math: exp(+0) = exp(-0) = 1 and log(1) = +0
// are what math.Exp and math.Log return there, bit for bit.
func TestExpLogIdentities(t *testing.T) {
	negZero := math.Copysign(0, -1)
	if got := math.Exp(0); math.Float64bits(got) != math.Float64bits(1) {
		t.Errorf("math.Exp(0) = %v, want 1", got)
	}
	if got := math.Exp(negZero); math.Float64bits(got) != math.Float64bits(1) {
		t.Errorf("math.Exp(-0) = %v, want 1", got)
	}
	if got := math.Log(1); math.Float64bits(got) != 0 {
		t.Errorf("math.Log(1) = %v (%#x), want +0", got, math.Float64bits(got))
	}
	for _, x := range []float64{0, negZero, 1, -1, 1e-300, -745.2, 709.8, math.Inf(-1), math.Inf(1), math.NaN()} {
		if got, want := exactExp(x), math.Exp(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("exactExp(%v) = %v, math.Exp %v", x, got, want)
		}
		if got, want := exactLog(x), math.Log(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("exactLog(%v) = %v, math.Log %v", x, got, want)
		}
	}
}

// exponentialSplitsOracle is the split kernel with every term through
// math.Exp and math.Log, as it was before the exact fast paths.
func exponentialSplitsOracle(g *Graph, d *DAG, cost []float64) (ratio, logZ []float64) {
	ratio = make([]float64, g.NumLinks())
	logZ = make([]float64, g.NumNodes())
	for i := range logZ {
		logZ[i] = math.Inf(-1)
	}
	logZ[d.Dst] = 0
	nodes := d.NodesDescending()
	for i := len(nodes) - 1; i >= 0; i-- {
		u := nodes[i]
		if u == d.Dst || len(d.Out[u]) == 0 {
			continue
		}
		maxTerm := math.Inf(-1)
		for _, id := range d.Out[u] {
			if t := -cost[id] + logZ[g.links[id].To]; t > maxTerm {
				maxTerm = t
			}
		}
		var sum float64
		for _, id := range d.Out[u] {
			sum += math.Exp(-cost[id] + logZ[g.links[id].To] - maxTerm)
		}
		logZ[u] = maxTerm + math.Log(sum)
	}
	for _, u := range nodes {
		if u == d.Dst {
			continue
		}
		for _, id := range d.Out[u] {
			ratio[id] = math.Exp(-cost[id] + logZ[g.links[id].To] - logZ[u])
		}
	}
	return ratio, logZ
}

// splitCosts draws a cost vector in one of four regimes: all zero (the
// path-count split, where every term of a node ties), small integers
// (frequent ties), reals, and large costs whose exponentials underflow.
func splitCosts(rng *rand.Rand, links int) []float64 {
	cost := make([]float64, links)
	mode := rng.Intn(4)
	for e := range cost {
		switch mode {
		case 1:
			cost[e] = float64(rng.Intn(3))
		case 2:
			cost[e] = 3 * rng.Float64()
		case 3:
			cost[e] = 50 + 1000*rng.Float64()
			if rng.Intn(4) == 0 {
				cost[e] = 0
			}
		}
	}
	return cost
}

// TestExponentialSplitsMatchesOracleBitwise checks both forms of the
// split kernel against the all-math formula bit for bit, on shortest-
// path DAGs and PEFT downward DAGs of graphs with exact distance ties,
// zero weights, masked links and unreachable nodes.
func TestExponentialSplitsMatchesOracleBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ws := &Workspace{}
	var lone, multi, ties, underflow int
	for trial := 0; trial < 3000; trial++ {
		g, w := adversarialGraph(rng)
		dst := rng.Intn(g.NumNodes())
		var d *DAG
		var err error
		if rng.Intn(2) == 0 {
			d, err = BuildDAG(g, w, dst, 0)
		} else {
			d, err = DownwardDAG(g, w, dst)
		}
		if err != nil {
			t.Fatal(err)
		}
		cost := splitCosts(rng, g.NumLinks())
		wantRatio, wantLogZ := exponentialSplitsOracle(g, d, cost)
		ratio, logZ := ExponentialSplits(g, d, cost)
		wsRatio, wsLogZ := ws.ExponentialSplits(g, d, cost)
		for _, got := range [][2][]float64{{ratio, logZ}, {wsRatio, wsLogZ}} {
			for e := range wantRatio {
				if math.Float64bits(got[0][e]) != math.Float64bits(wantRatio[e]) {
					t.Fatalf("trial %d: link %d: ratio %v, oracle %v", trial, e, got[0][e], wantRatio[e])
				}
			}
			for u := range wantLogZ {
				if math.Float64bits(got[1][u]) != math.Float64bits(wantLogZ[u]) {
					t.Fatalf("trial %d: node %d: logZ %v, oracle %v", trial, u, got[1][u], wantLogZ[u])
				}
			}
		}
		for u, out := range d.Out {
			switch {
			case u == dst || len(out) == 0:
				continue
			case len(out) == 1:
				lone++
				continue
			}
			multi++
			top := 0
			for _, id := range out {
				if wantRatio[id] == 0 {
					underflow++
				}
				if wantRatio[id] == wantRatio[out[0]] {
					top++
				}
			}
			if top == len(out) {
				ties++
			}
		}
	}
	t.Logf("%d lone successors, %d split nodes, %d all-tied nodes, %d underflowed ratios", lone, multi, ties, underflow)
	if lone == 0 || multi == 0 || ties == 0 || underflow == 0 {
		t.Fatalf("weak coverage: %d lone successors, %d split nodes, %d all-tied nodes, %d underflowed ratios", lone, multi, ties, underflow)
	}
}
