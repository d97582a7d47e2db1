package mcf

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// mapFlow is a flow as it was before its commodities became the rows of
// one table: the map is the only record of the commodities, and every
// method walks it. Its methods are the oracle the table must match bit
// for bit.
type mapFlow struct {
	PerDest map[int][]float64
	Total   []float64
}

func (f *mapFlow) destinations() []int { return slices.Sorted(maps.Keys(f.PerDest)) }

func (f *mapFlow) recomputeTotal() {
	for i := range f.Total {
		f.Total[i] = 0
	}
	for _, t := range f.destinations() {
		for i, x := range f.PerDest[t] {
			f.Total[i] += x
		}
	}
}

func (f *mapFlow) blend(other *mapFlow, gamma float64) {
	for t, v := range f.PerDest {
		o := other.PerDest[t]
		for i := range v {
			v[i] = (1-gamma)*v[i] + gamma*o[i]
		}
	}
	for i := range f.Total {
		f.Total[i] = (1-gamma)*f.Total[i] + gamma*other.Total[i]
	}
}

func (f *mapFlow) clone() *mapFlow {
	c := &mapFlow{PerDest: make(map[int][]float64, len(f.PerDest)), Total: append([]float64(nil), f.Total...)}
	for t, v := range f.PerDest {
		c.PerDest[t] = append([]float64(nil), v...)
	}
	return c
}

// checkReuse is CheckReuse's rules and texts over the map.
func (f *mapFlow) checkReuse(g *graph.Graph, tm *traffic.Matrix) error {
	m := g.NumLinks()
	if len(f.Total) != m {
		return fmt.Errorf("mcf: reused flow has %d total entries for %d links", len(f.Total), m)
	}
	dests := 0
	for t := range tm.Size() {
		if !tm.IsDestination(t) {
			continue
		}
		dests++
		ft, ok := f.PerDest[t]
		if !ok {
			return fmt.Errorf("mcf: reused flow lacks commodity %d", t)
		}
		if len(ft) != m {
			return fmt.Errorf("mcf: reused flow's commodity %d has %d entries for %d links", t, len(ft), m)
		}
	}
	if len(f.PerDest) != dests {
		return fmt.Errorf("mcf: reused flow carries %d commodities, demand matrix has %d destinations", len(f.PerDest), dests)
	}
	return nil
}

// allOrNothingInto is the pass as it was over the map: validate, route
// every destination in order into its map entry (cold, from Dijkstra),
// report the first failure, then rebuild Total in destination order.
func (f *mapFlow) allOrNothingInto(g *graph.Graph, tm *traffic.Matrix, w []float64) error {
	if err := f.checkReuse(g, tm); err != nil {
		return err
	}
	if err := graph.CheckWeights(g, w); err != nil {
		return err
	}
	var first error
	ws := graph.NewWorkspace(g)
	for _, t := range f.destinations() {
		var order []int
		if err := aonDestination(g, tm, w, t, f.PerDest[t], &order, ws); err != nil && first == nil {
			first = err
		}
	}
	if first != nil {
		return first
	}
	f.recomputeTotal()
	return nil
}

// tablePair is one flow under test beside its oracle.
type tablePair struct {
	name string
	got  *Flow
	want *mapFlow
}

// diff reports the first way p's flow differs from its oracle: in its
// commodity set, or in any bit of a commodity or Total.
func (p tablePair) diff() string {
	if !slices.Equal(slices.Sorted(maps.Keys(p.got.PerDest)), p.want.destinations()) {
		return fmt.Sprintf("commodities %v, want %v", slices.Sorted(maps.Keys(p.got.PerDest)), p.want.destinations())
	}
	for t, v := range p.want.PerDest {
		if e := firstBitDiff(p.got.PerDest[t], v); e >= 0 {
			return fmt.Sprintf("commodity %d differs at link %d: %v, want %v", t, e, p.got.PerDest[t], v)
		}
	}
	if e := firstBitDiff(p.got.Total, p.want.Total); e >= 0 {
		return fmt.Sprintf("Total differs at link %d: %v, want %v", e, p.got.Total, p.want.Total)
	}
	return ""
}

// randomRow is a commodity vector of random volumes, some exactly zero.
func randomRow(rng *rand.Rand, m int) []float64 {
	row := make([]float64, m)
	for e := range row {
		if rng.Intn(3) > 0 {
			row[e] = rng.Float64() * 10
		}
	}
	return row
}

// TestFlowTableMatchesMapWalk runs random sequences of all-or-nothing
// passes, Blend, RecomputeTotal, Clone and in-place tail sums through
// Rows on random graphs, and after every step requires every flow's
// commodities, Total and any error text to equal, bit for bit, those
// of the map-walking code the table replaced. The flows include one
// built by hand, entries replaced by new vectors, a flow whose
// commodities another matrix does not fit, and weights a pass rejects.
func TestFlowTableMatchesMapWalk(t *testing.T) {
	for seq := range 40 {
		rng := rand.New(rand.NewSource(int64(seq)))
		prev := par.SetExtraWorkers(rng.Intn(3))
		n := 4 + rng.Intn(6)
		g, err := topo.Random(int64(seq), n, 2*(n+rng.Intn(n*(n-1)/2-n+1)))
		if err != nil {
			t.Fatal(err)
		}
		m := g.NumLinks()
		tm, err := traffic.Gravity(traffic.SyntheticVolumes(int64(seq), n, 0.5), 1)
		if err != nil {
			t.Fatal(err)
		}
		// other routes to fewer destinations: no flow of tm fits it.
		other, err := traffic.FromDemands(n, []traffic.Demand{{Src: 0, Dst: n - 1, Volume: 1}})
		if err != nil {
			t.Fatal(err)
		}
		dests := tm.Destinations()
		hand := &Flow{PerDest: map[int][]float64{}, Total: make([]float64, m)}
		handOracle := &mapFlow{PerDest: map[int][]float64{}, Total: make([]float64, m)}
		for _, d := range dests {
			row := randomRow(rng, m)
			hand.PerDest[d] = row
			handOracle.PerDest[d] = slices.Clone(row)
		}
		pairs := []tablePair{
			{"new", NewFlow(g, dests), &mapFlow{PerDest: map[int][]float64{}, Total: make([]float64, m)}},
			{"hand", hand, handOracle},
		}
		for _, d := range dests {
			pairs[0].want.PerDest[d] = make([]float64, m)
		}
		for step := range 30 {
			i := rng.Intn(len(pairs))
			p := pairs[i]
			var op string
			switch rng.Intn(7) {
			case 0, 1:
				w := make([]float64, m)
				for e := range w {
					w[e] = 1 + float64(rng.Intn(3)) + 0.1*rng.Float64()
				}
				matrix := tm
				switch rng.Intn(8) {
				case 0:
					w[rng.Intn(m)] = math.NaN()
				case 1:
					matrix = other
				}
				op = "all-or-nothing pass"
				_, gotErr := AllOrNothingInto(g, matrix, w, p.got)
				wantErr := p.want.allOrNothingInto(g, matrix, w)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("seq %d step %d, %s flow, %s: error %v, want %v", seq, step, p.name, op, gotErr, wantErr)
				}
			case 2:
				q := pairs[rng.Intn(len(pairs))]
				gamma := rng.Float64()
				op = "Blend with the " + q.name + " flow"
				p.got.Blend(q.got, gamma)
				p.want.blend(q.want, gamma)
			case 3:
				op = "in-place write, then RecomputeTotal"
				d := dests[rng.Intn(len(dests))]
				e := rng.Intn(m)
				v := rng.Float64()
				p.got.PerDest[d][e] = v
				p.want.PerDest[d][e] = v
				p.got.RecomputeTotal()
				p.want.recomputeTotal()
			case 4:
				op = "entry replaced by a new vector"
				d := dests[rng.Intn(len(dests))]
				row := randomRow(rng, m)
				p.got.PerDest[d] = row
				p.want.PerDest[d] = slices.Clone(row)
			case 5:
				q := pairs[rng.Intn(len(pairs))]
				op = "tail sum of the " + q.name + " flow through Rows"
				sum, add := p.got.Rows(), q.got.Rows()
				for r, row := range sum {
					for e, x := range add[r] {
						row[e] += x
					}
				}
				for d, row := range p.want.PerDest {
					for e, x := range q.want.PerDest[d] {
						row[e] += x
					}
				}
			case 6:
				op = "Clone"
				pairs = append(pairs, tablePair{fmt.Sprintf("clone %d of %s", step, p.name), p.got.Clone(), p.want.clone()})
			}
			for _, q := range pairs {
				if d := q.diff(); d != "" {
					t.Fatalf("seq %d step %d, %s on the %s flow: %s flow %s", seq, step, op, p.name, q.name, d)
				}
			}
		}
		par.SetExtraWorkers(prev)
	}
}

// TestPassStateIsPerFlow: a clone's pass writes the clone's table, not
// its original's, and two flows' passes interleave without sharing
// error slots.
func TestPassStateIsPerFlow(t *testing.T) {
	g, tm := fig1TM(t)
	a, err := AllOrNothing(g, tm, []float64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	before := a.Clone()
	b := a.Clone()
	if _, err := AllOrNothingInto(g, tm, []float64{9, 1, 1, 1}, b); err != nil {
		t.Fatal(err)
	}
	want, err := AllOrNothing(g, tm, []float64{9, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if d := sameResult(b, nil, want, nil); d != "" {
		t.Errorf("clone after its pass: %s", d)
	}
	if d := sameResult(a, nil, before, nil); d != "" {
		t.Errorf("original after its clone's pass: %s", d)
	}
	if _, err := AllOrNothingInto(g, tm, []float64{1, math.NaN(), 1, 1}, a); err == nil {
		t.Fatal("NaN weight accepted")
	}
	if _, err := AllOrNothingInto(g, tm, []float64{1, 1, 1, 1}, b); err != nil {
		t.Errorf("clone's pass after its original's failure: %v", err)
	}
}

// TestPropagateInputErrors: Propagate rejects a destination without a
// DAG and second weights of the wrong length with ErrBadInput. Without
// second weights it reads the split ratios, so a nil ratio map fails
// with the propagation's own error instead of crashing a worker.
func TestPropagateInputErrors(t *testing.T) {
	g, tm := fig1TM(t)
	w := []float64{1, 1, 1, 1}
	dags := map[int]*graph.DAG{}
	for _, d := range tm.Destinations() {
		dag, err := graph.BuildDAG(g, w, d, 0)
		if err != nil {
			t.Fatal(err)
		}
		dags[d] = dag
	}
	flow := NewFlow(g, tm.Destinations())
	if err := flow.Propagate(g, tm, dags, nil, w); err != nil {
		t.Fatalf("exponential splits: %v", err)
	}
	err := flow.Propagate(g, tm, dags, nil, nil)
	if err == nil || errors.Is(err, ErrBadInput) || !strings.Contains(err.Error(), "ratio vector has 0 entries") {
		t.Errorf("nil split ratios: err = %v, want the propagation's ratio error", err)
	}
	if err := flow.Propagate(g, tm, dags, nil, w[:3]); !errors.Is(err, ErrBadInput) {
		t.Errorf("short second weights: err = %v, want ErrBadInput", err)
	}
	delete(dags, 3)
	if err := flow.Propagate(g, tm, dags, nil, w); !errors.Is(err, ErrBadInput) || !strings.Contains(err.Error(), "destination 3") {
		t.Errorf("missing DAG: err = %v, want ErrBadInput naming destination 3", err)
	}
}
