package objective

import (
	"math"
	"sort"

	"repro/internal/graph"
)

// Utilizations returns the per-link utilization vector f_ij / c_ij.
func Utilizations(g *graph.Graph, flows []float64) []float64 {
	out := make([]float64, g.NumLinks())
	for _, l := range g.Links() {
		out[l.ID] = flows[l.ID] / l.Cap
	}
	return out
}

// SortedUtilizations returns the utilizations in decreasing order — the
// x-axis presentation of the paper's Fig. 9.
func SortedUtilizations(g *graph.Graph, flows []float64) []float64 {
	u := Utilizations(g, flows)
	sort.Sort(sort.Reverse(sort.Float64Slice(u)))
	return u
}

// MLU returns the maximum link utilization of the flow vector.
func MLU(g *graph.Graph, flows []float64) float64 {
	var mlu float64
	for _, l := range g.Links() {
		if u := flows[l.ID] / l.Cap; u > mlu {
			mlu = u
		}
	}
	return mlu
}

// LogSpareUtility returns the normalized utility of the paper's Fig. 10:
//
//	sum_ij log(1 - u_ij),
//
// where u_ij is link utilization. It is -Inf whenever MLU >= 1 (the
// paper: "The utility is -Inf if MLU is greater than 1").
func LogSpareUtility(g *graph.Graph, flows []float64) float64 {
	var total float64
	for _, l := range g.Links() {
		u := flows[l.ID] / l.Cap
		if u >= 1 {
			return math.Inf(-1)
		}
		total += math.Log(1 - u)
	}
	return total
}

// TotalUtility evaluates an objective's aggregate utility sum V(c-f).
func TotalUtility(o *QBeta, g *graph.Graph, flows []float64) float64 {
	var total float64
	for _, l := range g.Links() {
		total += o.V(l.ID, l.Cap-flows[l.ID])
	}
	return total
}

// TotalCost evaluates sum Phi(f) for any cost function, summing in link
// order without copying the link table (Frank-Wolfe calls it every
// iteration).
func TotalCost(cf CostFunc, g *graph.Graph, flows []float64) float64 {
	var total float64
	for id := range g.NumLinks() {
		total += cf.Cost(id, flows[id], g.Link(id).Cap)
	}
	return total
}

// Prices returns the per-link marginal cost vector at the given flows —
// the linearization used by Frank-Wolfe and the weight read-out
// w_ij = V'(s_ij) of Theorem 3.1.
func Prices(cf CostFunc, g *graph.Graph, flows []float64) []float64 {
	return PricesInto(cf, g, flows, make([]float64, g.NumLinks()))
}

// PricesInto is Prices writing into out (length NumLinks), for callers
// that reprice every iteration.
func PricesInto(cf CostFunc, g *graph.Graph, flows, out []float64) []float64 {
	for id := range g.NumLinks() {
		out[id] = cf.Price(id, flows[id], g.Link(id).Cap)
	}
	return out
}
