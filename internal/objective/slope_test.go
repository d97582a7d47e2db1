package objective

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// slopeOracle is the per-link loop CostFunc.Slope batches: one Price
// call per link, summed in link order.
func slopeOracle(cf CostFunc, g *graph.Graph, flow, dir []float64, gamma float64) float64 {
	var d float64
	for e, de := range dir {
		f := flow[e] + gamma*de
		d += de * cf.Price(e, f, g.Link(e).Cap)
	}
	return d
}

// TestSlopeMatchesPriceLoopBitwise pins every Slope implementation to
// the per-link Price loop bit for bit, on flows that put links inside,
// exactly at and beyond capacity (c - f <= 0, where the barrier prices
// are +Inf and a zero direction entry turns the sum into NaN) and on
// directions with zero entries.
func TestSlopeMatchesPriceLoopBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const nodes, links = 7, 30
	g := graph.New(nodes)
	for e := 0; e < links; e++ {
		u := rng.Intn(nodes)
		v := (u + 1 + rng.Intn(nodes-1)) % nodes
		if _, err := g.AddLink(u, v, 0.5+rng.Float64()*10); err != nil {
			t.Fatal(err)
		}
	}
	q := make([]float64, links)
	for e := range q {
		q[e] = 0.25 + rng.Float64()*3
	}
	costs := []CostFunc{FortzThorup{}}
	for _, beta := range []float64{0, 0.5, 1, 2, 3.7} {
		costs = append(costs, MustQBeta(beta, links, nil), MustQBeta(beta, links, q))
	}
	flow := make([]float64, links)
	dir := make([]float64, links)
	var atCap, zeroDir, infinite, nan int
	for trial := 0; trial < 400; trial++ {
		// Trials cycle through interior flows, flows with saturated or
		// overloaded links, and the same with zero directions on them.
		mode := trial % 3
		for e := range flow {
			c := g.Link(e).Cap
			flow[e] = c * rng.Float64() * 0.9
			dir[e] = (2*rng.Float64() - 1) * c
			if rng.Intn(5) == 0 {
				dir[e] = 0
			}
			if mode > 0 && rng.Intn(6) == 0 {
				if rng.Intn(2) == 0 {
					flow[e] = c
				} else {
					flow[e] = c * (1 + rng.Float64())
				}
				if mode == 2 {
					dir[e] = 0
				}
			}
			if flow[e] >= c {
				atCap++
			}
			if dir[e] == 0 {
				zeroDir++
			}
		}
		for _, gamma := range []float64{0, 1, rng.Float64(), 1e-9} {
			for _, cf := range costs {
				want := slopeOracle(cf, g, flow, dir, gamma)
				got := cf.Slope(g, flow, dir, gamma)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d, %s, gamma %v: Slope %v (%#x), Price loop %v (%#x)",
						trial, costName(cf), gamma, got, math.Float64bits(got), want, math.Float64bits(want))
				}
				switch {
				case math.IsNaN(want):
					nan++
				case math.IsInf(want, 0):
					infinite++
				}
			}
		}
	}
	if atCap == 0 || zeroDir == 0 || infinite == 0 || nan == 0 {
		t.Fatalf("weak coverage: %d saturated links, %d zero directions, %d infinite and %d NaN slopes", atCap, zeroDir, infinite, nan)
	}
}

// TestVpBetaOneMatchesPow pins Vp's beta = 1 division, q/s, to the
// general formula q/math.Pow(s, 1) bit for bit, on spare capacities
// from subnormal to +Inf and NaN, and pins s <= 0 to +Inf.
func TestVpBetaOneMatchesPow(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	spares := []float64{math.SmallestNonzeroFloat64, 1e-300, 1e-9, 1, 1 + 0x1p-52, 3, 1e300, math.MaxFloat64, math.Inf(1), math.NaN()}
	for range 2000 {
		spares = append(spares, math.Ldexp(rng.Float64(), rng.Intn(2000)-1000))
	}
	for _, q := range []float64{1, 0.25 + rng.Float64()*3, 1e-300, 1e300} {
		o := MustQBeta(1, 1, []float64{q})
		for _, s := range spares {
			want := q / math.Pow(s, 1)
			if got := o.Vp(0, s); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("q %v, s %v: Vp %v (%#x), q/Pow(s, 1) %v (%#x)", q, s, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		for _, s := range []float64{0, math.Copysign(0, -1), -1e-300, -2, math.Inf(-1)} {
			if got := o.Vp(0, s); !math.IsInf(got, 1) {
				t.Fatalf("q %v, s %v: Vp %v, want +Inf", q, s, got)
			}
		}
	}
}

func costName(cf CostFunc) string {
	if o, ok := cf.(*QBeta); ok {
		return fmt.Sprintf("QBeta(beta=%v)", o.Beta())
	}
	return fmt.Sprintf("%T", cf)
}
