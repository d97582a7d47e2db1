package objective

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestNewQBetaValidation(t *testing.T) {
	tests := []struct {
		name  string
		beta  float64
		links int
		q     []float64
	}{
		{name: "negative beta", beta: -1, links: 2},
		{name: "NaN beta", beta: math.NaN(), links: 2},
		{name: "Inf beta", beta: math.Inf(1), links: 2},
		{name: "zero links", beta: 1, links: 0},
		{name: "q length mismatch", beta: 1, links: 2, q: []float64{1}},
		{name: "non-positive q", beta: 1, links: 2, q: []float64{1, 0}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewQBeta(tt.beta, tt.links, tt.q); !errors.Is(err, ErrBadObjective) {
				t.Errorf("NewQBeta err = %v, want ErrBadObjective", err)
			}
		})
	}
	o, err := NewQBeta(2, 3, nil)
	if err != nil {
		t.Fatalf("NewQBeta: %v", err)
	}
	if o.Q(1) != 1 {
		t.Errorf("default q = %v, want 1", o.Q(1))
	}
	if o.Links() != 3 || o.Beta() != 2 {
		t.Errorf("Links/Beta = %d/%v", o.Links(), o.Beta())
	}
}

func TestVKnownValues(t *testing.T) {
	tests := []struct {
		name string
		beta float64
		s    float64
		want float64
	}{
		{name: "beta1 log", beta: 1, s: math.E, want: 1},
		{name: "beta0 linear", beta: 0, s: 2.5, want: 2.5},
		{name: "beta2 -1/s", beta: 2, s: 2, want: -0.5},
		{name: "beta0.5 2*sqrt", beta: 0.5, s: 4, want: 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			o := MustQBeta(tt.beta, 1, nil)
			if got := o.V(0, tt.s); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("V(%v) = %v, want %v", tt.s, got, tt.want)
			}
		})
	}
	o := MustQBeta(1, 1, nil)
	if got := o.V(0, 0); !math.IsInf(got, -1) {
		t.Errorf("beta=1 V(0) = %v, want -Inf", got)
	}
	o2 := MustQBeta(2, 1, nil)
	if got := o2.V(0, 0); !math.IsInf(got, -1) {
		t.Errorf("beta=2 V(0) = %v, want -Inf", got)
	}
}

func TestVpMatchesNumericalDerivative(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		beta := rng.Float64() * 4
		q := 0.5 + rng.Float64()*2
		o := MustQBeta(beta, 1, []float64{q})
		s := 0.2 + rng.Float64()*5
		const h = 1e-6
		num := (o.V(0, s+h) - o.V(0, s-h)) / (2 * h)
		if got := o.Vp(0, s); math.Abs(got-num) > 1e-4*(1+math.Abs(num)) {
			t.Fatalf("beta=%v q=%v s=%v: Vp = %v, numerical %v", beta, q, s, got, num)
		}
	}
}

func TestVpPaperWeights(t *testing.T) {
	// Table I beta=1: spare capacities 1/3, 0.1, 2/3, 2/3 give weights
	// 3, 10, 1.5, 1.5.
	o := MustQBeta(1, 4, nil)
	spares := []float64{1.0 / 3.0, 0.1, 2.0 / 3.0, 2.0 / 3.0}
	want := []float64{3, 10, 1.5, 1.5}
	for i, s := range spares {
		if got := o.Vp(i, s); math.Abs(got-want[i]) > 1e-9 {
			t.Errorf("link %d: Vp(%v) = %v, want %v", i, s, got, want[i])
		}
	}
}

func TestLinkSpare(t *testing.T) {
	tests := []struct {
		name     string
		beta     float64
		w        float64
		capacity float64
		want     float64
	}{
		{name: "beta1 interior", beta: 1, w: 2, capacity: 10, want: 0.5},
		{name: "beta1 clipped", beta: 1, w: 0.01, capacity: 10, want: 10},
		{name: "beta2 interior", beta: 2, w: 4, capacity: 10, want: 0.5},
		{name: "beta0 cheap", beta: 0, w: 0.5, capacity: 10, want: 10},
		{name: "beta0 expensive", beta: 0, w: 2, capacity: 10, want: 0},
		{name: "free spare", beta: 1, w: 0, capacity: 7, want: 7},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			o := MustQBeta(tt.beta, 1, nil)
			if got := o.LinkSpare(0, tt.w, tt.capacity); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("LinkSpare(w=%v,c=%v) = %v, want %v", tt.w, tt.capacity, got, tt.want)
			}
		})
	}
}

func TestLinkSpareIsArgmaxQuick(t *testing.T) {
	// Property: LinkSpare maximizes V(s) - w*s over a grid of [0, cap].
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		beta := rng.Float64() * 3
		o := MustQBeta(beta, 1, []float64{0.5 + rng.Float64()})
		w := 0.05 + rng.Float64()*3
		capacity := 0.5 + rng.Float64()*10
		best := o.LinkSpare(0, w, capacity)
		bestVal := o.V(0, best) - w*best
		for i := 0; i <= 200; i++ {
			s := capacity * float64(i) / 200
			if v := o.V(0, s) - w*s; v > bestVal+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestCostKnownValues(t *testing.T) {
	// Unit capacity, q=1 — the curves of Fig. 2.
	tests := []struct {
		name string
		beta float64
		f    float64
		want float64
	}{
		{name: "beta0 linear", beta: 0, f: 0.5, want: 0.5},
		{name: "beta1 log barrier", beta: 1, f: 0.5, want: math.Log(2)},
		{name: "beta2 inverse", beta: 2, f: 0.5, want: 1},
		{name: "zero flow", beta: 2, f: 0, want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			o := MustQBeta(tt.beta, 1, nil)
			if got := o.Cost(0, tt.f, 1); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("Cost(f=%v) = %v, want %v", tt.f, got, tt.want)
			}
		})
	}
	o := MustQBeta(1, 1, nil)
	if got := o.Cost(0, 1, 1); !math.IsInf(got, 1) {
		t.Errorf("beta=1 Cost at capacity = %v, want +Inf", got)
	}
	if got := o.Cost(0, 1.5, 1); !math.IsInf(got, 1) {
		t.Errorf("Cost beyond capacity = %v, want +Inf", got)
	}
	o0 := MustQBeta(0, 1, nil)
	if got := o0.Cost(0, 1, 1); got != 1 {
		t.Errorf("beta=0 Cost at capacity = %v, want 1", got)
	}
}

func TestCostPriceConsistencyQuick(t *testing.T) {
	// Property: Price is the derivative of Cost (away from capacity).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		beta := rng.Float64() * 3
		o := MustQBeta(beta, 1, nil)
		c := 1 + rng.Float64()*9
		flow := rng.Float64() * c * 0.9
		const h = 1e-6
		num := (o.Cost(0, flow+h, c) - o.Cost(0, flow-h, c)) / (2 * h)
		if flow < h {
			return true
		}
		got := o.Price(0, flow, c)
		return math.Abs(got-num) <= 1e-4*(1+math.Abs(num))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestFortzThorupCost(t *testing.T) {
	ft := FortzThorup{}
	// Marginal costs per segment (c = 1).
	tests := []struct {
		f    float64
		want float64
	}{
		{f: 0.1, want: 1},
		{f: 0.5, want: 3},
		{f: 0.7, want: 10},
		{f: 0.95, want: 70},
		{f: 1.05, want: 500},
		{f: 1.2, want: 5000},
	}
	for _, tt := range tests {
		if got := ft.Price(0, tt.f, 1); got != tt.want {
			t.Errorf("Price(%v) = %v, want %v", tt.f, got, tt.want)
		}
	}
	// Cost is continuous and piecewise linear: evaluate at a breakpoint
	// from both sides.
	const eps = 1e-9
	lo := ft.Cost(0, 1.0/3.0-eps, 1)
	hi := ft.Cost(0, 1.0/3.0+eps, 1)
	if math.Abs(hi-lo) > 1e-6 {
		t.Errorf("FT cost discontinuous at 1/3: %v vs %v", lo, hi)
	}
	if got := ft.Cost(0, 1.0/3.0, 1); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Errorf("Cost(1/3) = %v, want 1/3", got)
	}
	// At u = 2/3: 1/3*1 + 1/3*3 = 4/3.
	if got := ft.Cost(0, 2.0/3.0, 1); math.Abs(got-4.0/3.0) > 1e-12 {
		t.Errorf("Cost(2/3) = %v, want 4/3", got)
	}
	if got := ft.Cost(0, -1, 1); got != 0 {
		t.Errorf("Cost(-1) = %v, want 0", got)
	}
	// Scale invariance in capacity: cost depends on (u, c) as c*phi(u).
	if a, b := ft.Cost(0, 0.5, 1), ft.Cost(0, 5, 10)/10; math.Abs(a-b) > 1e-12 {
		t.Errorf("FT cost not capacity-scaled: %v vs %v", a, b)
	}
}

func TestFortzThorupMonotoneConvexQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := 0.5 + rng.Float64()*9
		ft := FortzThorup{}
		prev := 0.0
		prevSlope := 0.0
		for i := 0; i <= 60; i++ {
			flow := float64(i) / 50 * c // up to 1.2*c
			cost := ft.Cost(0, flow, c)
			if cost < prev-1e-12 {
				return false // not monotone
			}
			slope := ft.Price(0, flow, c)
			if slope < prevSlope {
				return false // not convex
			}
			prev, prevSlope = cost, slope
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func metricsGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New(3)
	if _, err := g.AddLink(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddLink(1, 2, 4); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestMetrics(t *testing.T) {
	g := metricsGraph(t)
	flows := []float64{1, 1}
	u := Utilizations(g, flows)
	if u[0] != 0.5 || u[1] != 0.25 {
		t.Errorf("Utilizations = %v, want [0.5 0.25]", u)
	}
	if got := MLU(g, flows); got != 0.5 {
		t.Errorf("MLU = %v, want 0.5", got)
	}
	sorted := SortedUtilizations(g, flows)
	if sorted[0] != 0.5 || sorted[1] != 0.25 {
		t.Errorf("SortedUtilizations = %v", sorted)
	}
	want := math.Log(0.5) + math.Log(0.75)
	if got := LogSpareUtility(g, flows); math.Abs(got-want) > 1e-12 {
		t.Errorf("LogSpareUtility = %v, want %v", got, want)
	}
	if got := LogSpareUtility(g, []float64{2, 1}); !math.IsInf(got, -1) {
		t.Errorf("LogSpareUtility at MLU=1 = %v, want -Inf", got)
	}
}

func TestTotalUtilityAndCost(t *testing.T) {
	g := metricsGraph(t)
	o := MustQBeta(1, g.NumLinks(), nil)
	flows := []float64{1, 1}
	// V = log(spare): log(1) + log(3).
	if got := TotalUtility(o, g, flows); math.Abs(got-math.Log(3)) > 1e-12 {
		t.Errorf("TotalUtility = %v, want log 3", got)
	}
	wantCost := (o.V(0, 2) - o.V(0, 1)) + (o.V(1, 4) - o.V(1, 3))
	if got := TotalCost(o, g, flows); math.Abs(got-wantCost) > 1e-12 {
		t.Errorf("TotalCost = %v, want %v", got, wantCost)
	}
	p := Prices(o, g, flows)
	if math.Abs(p[0]-1) > 1e-12 || math.Abs(p[1]-1.0/3.0) > 1e-12 {
		t.Errorf("Prices = %v, want [1 1/3]", p)
	}
}

// TestMetricsAllocateNothing: the scalar metrics walk the links by ID
// instead of copying the link table, so none of them allocates.
func TestMetricsAllocateNothing(t *testing.T) {
	g := metricsGraph(t)
	o := MustQBeta(1, g.NumLinks(), nil)
	flows := []float64{1, 1}
	for name, metric := range map[string]func(){
		"MLU":             func() { MLU(g, flows) },
		"LogSpareUtility": func() { LogSpareUtility(g, flows) },
		"TotalUtility":    func() { TotalUtility(o, g, flows) },
	} {
		if allocs := testing.AllocsPerRun(20, metric); allocs != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, allocs)
		}
	}
}
