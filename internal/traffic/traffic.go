package traffic

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/graph"
)

// Demand is a single source-destination traffic requirement.
type Demand struct {
	Src    int
	Dst    int
	Volume float64
}

// Matrix is a dense n-by-n traffic matrix; entry (s,t) is the average
// offered volume from s to t. The diagonal is always zero.
//
// Matrix values must not be copied; always pass *Matrix.
type Matrix struct {
	n int
	d []float64 // row-major n*n
	// fp caches the matrix fingerprint (see Fingerprint). Mutators clear
	// it; concurrent readers may race to recompute it, which is safe
	// because the computation is deterministic and the store is atomic.
	fp atomic.Pointer[Fingerprint]
}

// Fingerprint is an O(n) summary of a matrix: the aggregate volume plus
// the per-destination column sums. Two matrices whose fingerprints
// differ (beyond element-wise float tolerance) cannot carry the same
// volumes, which makes the fingerprint a cheap negative filter in front
// of the exact O(n^2) comparison.
type Fingerprint struct {
	Total   float64
	PerDest []float64
}

// Fingerprint returns the matrix's cached fingerprint, computing it on
// first use after any mutation. Safe for concurrent use (the usual
// contract applies: no concurrent mutation).
func (m *Matrix) Fingerprint() *Fingerprint {
	if fp := m.fp.Load(); fp != nil {
		return fp
	}
	fp := &Fingerprint{PerDest: make([]float64, m.n)}
	for s := 0; s < m.n; s++ {
		row := m.d[s*m.n : (s+1)*m.n]
		for t, v := range row {
			fp.PerDest[t] += v
			fp.Total += v
		}
	}
	m.fp.Store(fp)
	return fp
}

// Matches reports whether the fingerprints could belong to equal
// matrices under the element-wise relative tolerance tol: a false
// result guarantees some pair of entries differs by more than tol.
// Volumes are non-negative, so each aggregate's worst-case drift is tol
// times the sum of the two aggregates being compared.
func (fp *Fingerprint) Matches(o *Fingerprint, tol float64) bool {
	if len(fp.PerDest) != len(o.PerDest) {
		return false
	}
	if math.Abs(fp.Total-o.Total) > tol*(fp.Total+o.Total) {
		return false
	}
	for t := range fp.PerDest {
		a, b := fp.PerDest[t], o.PerDest[t]
		if math.Abs(a-b) > tol*(a+b) {
			return false
		}
	}
	return true
}

// ErrBadDemand reports an invalid demand entry.
var ErrBadDemand = errors.New("traffic: bad demand")

// NewMatrix returns an all-zero n-by-n traffic matrix.
func NewMatrix(n int) *Matrix {
	return &Matrix{n: n, d: make([]float64, n*n)}
}

// FromDemands builds a matrix over n nodes from a demand list,
// accumulating duplicates.
func FromDemands(n int, demands []Demand) (*Matrix, error) {
	m := NewMatrix(n)
	for _, d := range demands {
		if err := m.Add(d.Src, d.Dst, d.Volume); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Size returns the number of nodes the matrix covers.
func (m *Matrix) Size() int { return m.n }

// At returns the (s,t) entry.
func (m *Matrix) At(s, t int) float64 { return m.d[s*m.n+t] }

// Set replaces the (s,t) entry.
func (m *Matrix) Set(s, t int, v float64) error {
	if err := m.check(s, t, v); err != nil {
		return err
	}
	m.d[s*m.n+t] = v
	m.fp.Store(nil)
	return nil
}

// Add accumulates v onto the (s,t) entry.
func (m *Matrix) Add(s, t int, v float64) error {
	if err := m.check(s, t, v); err != nil {
		return err
	}
	m.d[s*m.n+t] += v
	m.fp.Store(nil)
	return nil
}

func (m *Matrix) check(s, t int, v float64) error {
	switch {
	case s < 0 || s >= m.n || t < 0 || t >= m.n:
		return fmt.Errorf("%w: pair (%d,%d) out of range for %d nodes", ErrBadDemand, s, t, m.n)
	case s == t:
		return fmt.Errorf("%w: self-demand at node %d", ErrBadDemand, s)
	case v < 0 || math.IsNaN(v) || math.IsInf(v, 0):
		return fmt.Errorf("%w: volume %v", ErrBadDemand, v)
	}
	return nil
}

// Total returns the sum of all demand volumes.
func (m *Matrix) Total() float64 {
	var sum float64
	for _, v := range m.d {
		sum += v
	}
	return sum
}

// Demands lists all nonzero entries in row-major order.
func (m *Matrix) Demands() []Demand {
	var out []Demand
	for s := 0; s < m.n; s++ {
		for t := 0; t < m.n; t++ {
			if v := m.At(s, t); v > 0 {
				out = append(out, Demand{Src: s, Dst: t, Volume: v})
			}
		}
	}
	return out
}

// Destinations lists the distinct destination nodes with positive inbound
// demand, in increasing order (the commodity set D of the paper).
func (m *Matrix) Destinations() []int {
	var out []int
	for t := 0; t < m.n; t++ {
		if m.IsDestination(t) {
			out = append(out, t)
		}
	}
	return out
}

// IsDestination reports whether node t receives positive demand, that
// is, whether t is in Destinations, without building the list.
func (m *Matrix) IsDestination(t int) bool {
	for s := 0; s < m.n; s++ {
		if m.At(s, t) > 0 {
			return true
		}
	}
	return false
}

// ToDestination returns the per-source demand vector d^t for destination
// t: entry s is the volume entering at s destined to t.
func (m *Matrix) ToDestination(t int) []float64 {
	return m.ToDestinationInto(t, make([]float64, m.n))
}

// ToDestinationInto fills out (length Size) with the per-source demand
// vector d^t and returns it — the allocation-free form of ToDestination
// used by the iterative optimizers, which read a destination column on
// every iteration.
func (m *Matrix) ToDestinationInto(t int, out []float64) []float64 {
	for s := 0; s < m.n; s++ {
		out[s] = m.At(s, t)
	}
	return out
}

// Scale multiplies every entry by factor (factor >= 0).
func (m *Matrix) Scale(factor float64) error {
	if factor < 0 || math.IsNaN(factor) || math.IsInf(factor, 0) {
		return fmt.Errorf("%w: scale factor %v", ErrBadDemand, factor)
	}
	for i := range m.d {
		m.d[i] *= factor
	}
	m.fp.Store(nil)
	return nil
}

// Scaled returns a copy of the matrix with every entry multiplied by
// factor.
func (m *Matrix) Scaled(factor float64) (*Matrix, error) {
	c := m.Clone()
	if err := c.Scale(factor); err != nil {
		return nil, err
	}
	return c, nil
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.n)
	copy(c.d, m.d)
	return c
}

// NetworkLoad returns total demand divided by total link capacity — the
// "network load(ing)" x-axis of the paper's Figures 9, 10 and 13.
func (m *Matrix) NetworkLoad(g *graph.Graph) float64 {
	total := g.TotalCapacity()
	if total == 0 {
		return 0
	}
	return m.Total() / total
}

// ScaledToLoad returns a copy of the matrix uniformly scaled so that
// total demand / total capacity equals load.
func (m *Matrix) ScaledToLoad(g *graph.Graph, load float64) (*Matrix, error) {
	cur := m.NetworkLoad(g)
	if cur == 0 {
		return nil, errors.New("traffic: cannot scale an all-zero matrix to a load")
	}
	return m.Scaled(load / cur)
}
