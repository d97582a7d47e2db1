package traffic

import (
	"errors"
	"math"
	"math/rand"

	"repro/internal/graph"
)

// FortzThorup generates a synthetic demand matrix in the style of Fortz
// and Thorup (INFOCOM'00): for every ordered pair (s,t),
//
//	D(s,t) = alpha * O_s * I_t * C_{s,t}
//
// where O_s, I_t, C_{s,t} are independent uniform [0,1) draws (O models
// how much traffic a node originates, I how much it attracts, C a
// pairwise fluctuation). The paper uses these demands for the Abilene and
// GT-ITM/random test cases; absolute scale is irrelevant because every
// experiment rescales to a target network load.
func FortzThorup(seed int64, n int, alpha float64) (*Matrix, error) {
	if n < 2 {
		return nil, errors.New("traffic: need at least 2 nodes")
	}
	if alpha <= 0 || math.IsNaN(alpha) || math.IsInf(alpha, 0) {
		return nil, errors.New("traffic: alpha must be positive and finite")
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	in := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = rng.Float64()
		in[i] = rng.Float64()
	}
	m := NewMatrix(n)
	for s := 0; s < n; s++ {
		for t := 0; t < n; t++ {
			if s == t {
				continue
			}
			v := alpha * out[s] * in[t] * rng.Float64()
			if err := m.Set(s, t, v); err != nil {
				return nil, err
			}
		}
	}
	return m, nil
}

// Gravity builds a gravity-model matrix from per-node volumes:
//
//	D(s,t) = total * vol_s * vol_t / (sum_i vol_i)^2   for s != t,
//
// renormalized so that the matrix total equals the requested total. This
// is the model the paper feeds with link-aggregated Netflow volumes for
// Cernet2.
func Gravity(vols []float64, total float64) (*Matrix, error) {
	n := len(vols)
	if n < 2 {
		return nil, errors.New("traffic: need at least 2 node volumes")
	}
	var sum float64
	for _, v := range vols {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, errors.New("traffic: node volumes must be non-negative and finite")
		}
		sum += v
	}
	if sum == 0 {
		return nil, errors.New("traffic: all node volumes are zero")
	}
	if total <= 0 || math.IsNaN(total) || math.IsInf(total, 0) {
		return nil, errors.New("traffic: total must be positive and finite")
	}
	m := NewMatrix(n)
	var raw float64
	for s := 0; s < n; s++ {
		for t := 0; t < n; t++ {
			if s != t {
				raw += vols[s] * vols[t]
			}
		}
	}
	for s := 0; s < n; s++ {
		for t := 0; t < n; t++ {
			if s == t {
				continue
			}
			if err := m.Set(s, t, total*vols[s]*vols[t]/raw); err != nil {
				return nil, err
			}
		}
	}
	return m, nil
}

// GravityFriction builds a distance-discounted gravity matrix:
//
//	D(s,t) = total-normalized  vol_s * vol_t * e^(-dist(s,t)/scale),
//
// the standard friction variant of the gravity model (backbone traffic
// falls off with distance; Fortz-Thorup's generator uses the same
// exponential discount). dist is any non-negative distance matrix (hop
// counts work well) and scale controls the discount strength.
func GravityFriction(vols []float64, dist [][]float64, scale, total float64) (*Matrix, error) {
	n := len(vols)
	if n < 2 {
		return nil, errors.New("traffic: need at least 2 node volumes")
	}
	if len(dist) != n {
		return nil, errors.New("traffic: distance matrix size mismatch")
	}
	if scale <= 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
		return nil, errors.New("traffic: friction scale must be positive and finite")
	}
	if total <= 0 || math.IsNaN(total) || math.IsInf(total, 0) {
		return nil, errors.New("traffic: total must be positive and finite")
	}
	weights := make([]float64, n*n)
	var sum float64
	for s := 0; s < n; s++ {
		if len(dist[s]) != n {
			return nil, errors.New("traffic: distance matrix row size mismatch")
		}
		for t := 0; t < n; t++ {
			if s == t {
				continue
			}
			if vols[s] < 0 || vols[t] < 0 || dist[s][t] < 0 {
				return nil, errors.New("traffic: volumes and distances must be non-negative")
			}
			w := vols[s] * vols[t] * math.Exp(-dist[s][t]/scale)
			weights[s*n+t] = w
			sum += w
		}
	}
	if sum == 0 {
		return nil, errors.New("traffic: gravity weights are all zero")
	}
	m := NewMatrix(n)
	for s := 0; s < n; s++ {
		for t := 0; t < n; t++ {
			if s == t {
				continue
			}
			if err := m.Set(s, t, total*weights[s*n+t]/sum); err != nil {
				return nil, err
			}
		}
	}
	return m, nil
}

// HopDistances returns the all-pairs hop-count matrix of g (entries are
// +Inf-free: unreachable pairs get the node count, an upper bound).
func HopDistances(g *graph.Graph) ([][]float64, error) {
	n := g.NumNodes()
	unit := make([]float64, g.NumLinks())
	for i := range unit {
		unit[i] = 1
	}
	out := make([][]float64, n)
	for t := 0; t < n; t++ {
		sp, err := graph.DijkstraTo(g, unit, t)
		if err != nil {
			return nil, err
		}
		for s := 0; s < n; s++ {
			if out[s] == nil {
				out[s] = make([]float64, n)
			}
			d := sp.Dist[s]
			if d == graph.Unreachable {
				d = float64(n)
			}
			out[s][t] = d
		}
	}
	return out, nil
}

// SyntheticVolumes generates deterministic heavy-tailed per-node traffic
// volumes, the stand-in for the Cernet2 Netflow link-aggregate volumes
// the paper sampled in January 2010 (see DESIGN.md, substitutions). The
// distribution is log-normal-like: exp(sigma * N(0,1)), which matches the
// few-big-PoPs / many-small-PoPs shape of backbone traffic.
func SyntheticVolumes(seed int64, n int, sigma float64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	vols := make([]float64, n)
	for i := range vols {
		vols[i] = math.Exp(sigma * rng.NormFloat64())
	}
	return vols
}

// UniformMesh returns a matrix with volume v between every ordered pair —
// the simplest stress workload, used by tests and ablation benches.
func UniformMesh(n int, v float64) (*Matrix, error) {
	if n < 2 {
		return nil, errors.New("traffic: need at least 2 nodes")
	}
	m := NewMatrix(n)
	for s := 0; s < n; s++ {
		for t := 0; t < n; t++ {
			if s == t {
				continue
			}
			if err := m.Set(s, t, v); err != nil {
				return nil, err
			}
		}
	}
	return m, nil
}
