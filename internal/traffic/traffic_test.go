package traffic

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(3)
	if err := m.Set(0, 1, 2.5); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if err := m.Add(0, 1, 0.5); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := m.Set(2, 0, 1); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if got := m.At(0, 1); got != 3 {
		t.Errorf("At(0,1) = %v, want 3", got)
	}
	if got := m.Total(); got != 4 {
		t.Errorf("Total = %v, want 4", got)
	}
	demands := m.Demands()
	if len(demands) != 2 {
		t.Fatalf("Demands len = %d, want 2", len(demands))
	}
	if demands[0] != (Demand{Src: 0, Dst: 1, Volume: 3}) {
		t.Errorf("Demands[0] = %+v", demands[0])
	}
	dsts := m.Destinations()
	if len(dsts) != 2 || dsts[0] != 0 || dsts[1] != 1 {
		t.Errorf("Destinations = %v, want [0 1]", dsts)
	}
	vec := m.ToDestination(1)
	if vec[0] != 3 || vec[1] != 0 || vec[2] != 0 {
		t.Errorf("ToDestination(1) = %v", vec)
	}
}

func TestMatrixRejectsBadEntries(t *testing.T) {
	m := NewMatrix(2)
	tests := []struct {
		name string
		s, t int
		v    float64
	}{
		{name: "self demand", s: 1, t: 1, v: 1},
		{name: "out of range", s: 0, t: 5, v: 1},
		{name: "negative", s: 0, t: 1, v: -1},
		{name: "NaN", s: 0, t: 1, v: math.NaN()},
		{name: "Inf", s: 0, t: 1, v: math.Inf(1)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := m.Set(tt.s, tt.t, tt.v); !errors.Is(err, ErrBadDemand) {
				t.Errorf("Set(%d,%d,%v) err = %v, want ErrBadDemand", tt.s, tt.t, tt.v, err)
			}
		})
	}
}

func TestFromDemandsAccumulates(t *testing.T) {
	m, err := FromDemands(3, []Demand{{0, 1, 1}, {0, 1, 2}, {2, 1, 5}})
	if err != nil {
		t.Fatalf("FromDemands: %v", err)
	}
	if got := m.At(0, 1); got != 3 {
		t.Errorf("At(0,1) = %v, want 3", got)
	}
	if got := m.Total(); got != 8 {
		t.Errorf("Total = %v, want 8", got)
	}
}

func TestScaleAndClone(t *testing.T) {
	m, err := FromDemands(2, []Demand{{0, 1, 4}})
	if err != nil {
		t.Fatalf("FromDemands: %v", err)
	}
	c := m.Clone()
	if err := c.Scale(0.5); err != nil {
		t.Fatalf("Scale: %v", err)
	}
	if c.At(0, 1) != 2 || m.At(0, 1) != 4 {
		t.Errorf("Scale leaked into original: clone=%v orig=%v", c.At(0, 1), m.At(0, 1))
	}
	if err := c.Scale(-1); err == nil {
		t.Error("negative scale accepted")
	}
}

func loadTestGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New(3)
	if _, _, err := g.AddDuplex(0, 1, 5); err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.AddDuplex(1, 2, 5); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNetworkLoadAndScaledToLoad(t *testing.T) {
	g := loadTestGraph(t) // total capacity 20
	m, err := FromDemands(3, []Demand{{0, 2, 4}})
	if err != nil {
		t.Fatalf("FromDemands: %v", err)
	}
	if got := m.NetworkLoad(g); got != 0.2 {
		t.Errorf("NetworkLoad = %v, want 0.2", got)
	}
	s, err := m.ScaledToLoad(g, 0.1)
	if err != nil {
		t.Fatalf("ScaledToLoad: %v", err)
	}
	if got := s.NetworkLoad(g); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("scaled NetworkLoad = %v, want 0.1", got)
	}
	if _, err := NewMatrix(3).ScaledToLoad(g, 0.1); err == nil {
		t.Error("ScaledToLoad on zero matrix accepted")
	}
}

func TestFortzThorupProperties(t *testing.T) {
	m, err := FortzThorup(7, 10, 1)
	if err != nil {
		t.Fatalf("FortzThorup: %v", err)
	}
	if m.Total() <= 0 {
		t.Error("FortzThorup produced an all-zero matrix")
	}
	for s := 0; s < 10; s++ {
		if m.At(s, s) != 0 {
			t.Errorf("diagonal (%d,%d) = %v", s, s, m.At(s, s))
		}
	}
	// Determinism: same seed, same matrix.
	m2, err := FortzThorup(7, 10, 1)
	if err != nil {
		t.Fatalf("FortzThorup: %v", err)
	}
	for s := 0; s < 10; s++ {
		for u := 0; u < 10; u++ {
			if m.At(s, u) != m2.At(s, u) {
				t.Fatalf("FortzThorup not deterministic at (%d,%d)", s, u)
			}
		}
	}
	if _, err := FortzThorup(7, 1, 1); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := FortzThorup(7, 5, 0); err == nil {
		t.Error("alpha=0 accepted")
	}
}

func TestGravityMatchesTotalsQuick(t *testing.T) {
	f := func(seed int64) bool {
		n := 3 + int(uint64(seed)%8)
		vols := SyntheticVolumes(seed, n, 1.0)
		m, err := Gravity(vols, 100)
		if err != nil {
			return false
		}
		if math.Abs(m.Total()-100) > 1e-6 {
			return false
		}
		// Gravity preserves volume proportions: row sums are ordered like
		// the volume vector for distinct volumes.
		for s := 1; s < n; s++ {
			rowA, rowB := 0.0, 0.0
			for u := 0; u < n; u++ {
				rowA += m.At(0, u)
				rowB += m.At(s, u)
			}
			if (vols[0] > vols[s]) != (rowA > rowB) && rowA != rowB {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestGravityErrors(t *testing.T) {
	if _, err := Gravity([]float64{1}, 1); err == nil {
		t.Error("single volume accepted")
	}
	if _, err := Gravity([]float64{0, 0}, 1); err == nil {
		t.Error("all-zero volumes accepted")
	}
	if _, err := Gravity([]float64{1, -1}, 1); err == nil {
		t.Error("negative volume accepted")
	}
	if _, err := Gravity([]float64{1, 1}, 0); err == nil {
		t.Error("zero total accepted")
	}
}

func TestUniformMesh(t *testing.T) {
	m, err := UniformMesh(4, 2)
	if err != nil {
		t.Fatalf("UniformMesh: %v", err)
	}
	if got := m.Total(); got != 24 { // 12 ordered pairs * 2
		t.Errorf("Total = %v, want 24", got)
	}
	if _, err := UniformMesh(1, 1); err == nil {
		t.Error("n=1 accepted")
	}
}

func TestSyntheticVolumesDeterministic(t *testing.T) {
	a := SyntheticVolumes(3, 20, 1.2)
	b := SyntheticVolumes(3, 20, 1.2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("volumes not deterministic at %d", i)
		}
		if a[i] <= 0 {
			t.Fatalf("volume %d not positive: %v", i, a[i])
		}
	}
}

func TestFingerprintCachesAndInvalidates(t *testing.T) {
	m := NewMatrix(4)
	if err := m.Set(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := m.Set(2, 1, 3); err != nil {
		t.Fatal(err)
	}
	fp := m.Fingerprint()
	if fp.Total != 5 || fp.PerDest[1] != 5 || fp.PerDest[0] != 0 {
		t.Fatalf("fingerprint = %+v", fp)
	}
	if m.Fingerprint() != fp {
		t.Error("fingerprint not cached across calls")
	}
	// Every mutator invalidates the cache.
	if err := m.Add(0, 3, 1); err != nil {
		t.Fatal(err)
	}
	if got := m.Fingerprint(); got == fp || got.Total != 6 || got.PerDest[3] != 1 {
		t.Fatalf("post-Add fingerprint = %+v (cached: %v)", got, got == fp)
	}
	fp = m.Fingerprint()
	if err := m.Scale(2); err != nil {
		t.Fatal(err)
	}
	if got := m.Fingerprint(); got == fp || got.Total != 12 {
		t.Fatalf("post-Scale fingerprint = %+v", got)
	}
	fp = m.Fingerprint()
	if err := m.Set(0, 1, 0); err != nil {
		t.Fatal(err)
	}
	if got := m.Fingerprint(); got == fp || got.Total != 8 {
		t.Fatalf("post-Set fingerprint = %+v", got)
	}
}

func TestFingerprintMatches(t *testing.T) {
	a := NewMatrix(3)
	b := NewMatrix(3)
	for _, set := range [][3]float64{{0, 1, 2.5}, {1, 2, 1.25}, {2, 0, 3}} {
		if err := a.Set(int(set[0]), int(set[1]), set[2]); err != nil {
			t.Fatal(err)
		}
		if err := b.Set(int(set[0]), int(set[1]), set[2]); err != nil {
			t.Fatal(err)
		}
	}
	if !a.Fingerprint().Matches(b.Fingerprint(), 1e-12) {
		t.Error("identical matrices do not match")
	}
	// A perturbation far above the tolerance must be rejected.
	if err := b.Add(0, 2, 0.5); err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint().Matches(b.Fingerprint(), 1e-12) {
		t.Error("perturbed matrix still matches")
	}
	// Different sizes never match.
	c := NewMatrix(4)
	if a.Fingerprint().Matches(c.Fingerprint(), 1e-12) {
		t.Error("different-size matrices match")
	}
	// Tiny relative drift within tolerance still matches (the exact
	// scan, not the fingerprint, decides borderline cases).
	d := a.Clone()
	if err := d.Scale(1 + 1e-15); err != nil {
		t.Fatal(err)
	}
	if !a.Fingerprint().Matches(d.Fingerprint(), 1e-12) {
		t.Error("within-tolerance drift rejected by fingerprint")
	}
}
