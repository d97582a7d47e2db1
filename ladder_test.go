package spef

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/mcf"
)

// ladderTol absorbs float drift between independently assembled flows
// of mathematically identical routings (e.g. SR's rebuilt flow vs the
// OSPF-LS propagation when no detour is accepted).
const ladderTol = 1e-9

// mluOf routes d with r and returns the evaluated MLU.
func mluOf(t *testing.T, r Router, n *Network, d *Demands) float64 {
	t.Helper()
	routes, err := r.Routes(context.Background(), n, d)
	if err != nil {
		t.Fatalf("%s: %v", r.Name(), err)
	}
	rep, err := routes.Evaluate(d)
	if err != nil {
		t.Fatalf("%s evaluate: %v", r.Name(), err)
	}
	return rep.MLU
}

// ladderInstance is one randomized topology + gravity demand set.
type ladderInstance struct {
	name string
	n    *Network
	d    *Demands
}

func ladderInstances(t *testing.T) []ladderInstance {
	t.Helper()
	var out []ladderInstance
	build := func(name string, n *Network, err error) {
		if err != nil {
			t.Fatal(err)
		}
		d, err := FortzThorupDemands(int64(len(out)+1), n)
		if err != nil {
			t.Fatal(err)
		}
		// A moderate operating point: congested enough that detours and
		// path splits matter, far from saturation.
		d, err = d.ScaledToLoad(n, 0.15)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ladderInstance{name: name, n: n, d: d})
	}
	n, err := WaxmanNetwork(3, 10, 0.8, 0.6)
	build("waxman-10", n, err)
	n, err = WaxmanNetwork(11, 12, 0.9, 0.5)
	build("waxman-12", n, err)
	n, err = BarabasiAlbertNetwork(5, 12, 2)
	build("ba-12", n, err)
	n, err = RandomNetwork(7, 9, 24)
	build("random-9", n, err)
	return out
}

// TestLadderOrdering pins the optimality ladder on MLU: each scheme up
// the expressiveness ladder — InvCap OSPF, weight-tuned OSPF, 2-segment
// routing, MPLS k-path splits, the exact multi-commodity optimum — is
// no worse than the one below it. The inner three inequalities hold by
// construction (shared base weights, strict-improvement greedy,
// best-of-candidates selection, LP lower bound); this test is the
// executable statement of that contract across randomized topologies.
func TestLadderOrdering(t *testing.T) {
	const evals = 300
	for _, inst := range ladderInstances(t) {
		inst := inst
		t.Run(inst.name, func(t *testing.T) {
			opts := ExplicitOptions{MaxEvals: evals, Seed: 1}
			invcap := mluOf(t, OSPF(nil), inst.n, inst.d)
			ls := mluOf(t, OSPFLocalSearch(LocalSearchOptions{MaxEvals: evals, Seed: 1}), inst.n, inst.d)
			sr := mluOf(t, SegmentRouting(opts), inst.n, inst.d)
			mpls := mluOf(t, MPLSKSP(opts), inst.n, inst.d)
			opt, err := mcf.MinMLU(inst.n.g, inst.d.m)
			if err != nil {
				t.Fatal(err)
			}
			rungs := []struct {
				hi, lo   float64
				hiN, loN string
				tol      float64
			}{
				{invcap, ls, "InvCap-OSPF", "OSPF-LS", ladderTol},
				{ls, sr, "OSPF-LS", "SR-2seg", ladderTol},
				{sr, mpls, "SR-2seg", "MPLS-kSP", ladderTol},
				// The exact LP optimum lower-bounds every realizable
				// routing; its tolerance covers simplex numerics.
				{mpls, opt.MLU, "MPLS-kSP", "optimal", 1e-6},
			}
			for _, r := range rungs {
				if r.lo > r.hi*(1+r.tol) {
					t.Errorf("ladder inverted: %s MLU %v > %s MLU %v",
						r.loN, r.lo, r.hiN, r.hi)
				}
			}
			t.Logf("MLU ladder: invcap=%.6f ospf-ls=%.6f sr=%.6f mpls=%.6f optimal=%.6f",
				invcap, ls, sr, mpls, opt.MLU)
		})
	}
}

// TestLadderColGenMatchesDense pins the equivalence at the router
// level: MPLS-kSP with colgen=on (column generation over all simple
// paths) must land on the same MLU as the k-path LP within LP tolerance
// on every ladder instance. Colgen's optimum can only be <= the k-path
// LP's (it optimizes over a superset of paths), so the check is
// two-sided with a small tolerance rather than an inequality.
func TestLadderColGenMatchesDense(t *testing.T) {
	const evals = 300
	for _, inst := range ladderInstances(t) {
		inst := inst
		t.Run(inst.name, func(t *testing.T) {
			opts := ExplicitOptions{MaxEvals: evals, Seed: 1, K: 16}
			dense := mluOf(t, MPLSKSP(opts), inst.n, inst.d)
			cgOpts := opts
			cgOpts.ColGen = true
			colgen := mluOf(t, MPLSKSP(cgOpts), inst.n, inst.d)
			if colgen > dense*(1+1e-6)+1e-9 {
				t.Errorf("colgen MLU %v above dense %v", colgen, dense)
			}
			if colgen < dense*(1-1e-6)-1e-9 {
				// Dense k=16 fell short of the all-paths optimum: legal in
				// principle, but on these small instances it means the
				// fixture no longer pins equality — flag it.
				t.Errorf("colgen MLU %v strictly below dense %v (k too small to certify equality)", colgen, dense)
			}
		})
	}
}

// TestLadderSpecsMatchConstructors: the registry specs used by suites
// and the golden ladder resolve to the same parameterizations the
// property test exercises (same names, same iteration mapping).
func TestLadderSpecsMatchConstructors(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want string
	}{
		{"mpls-ksp", "MPLS-kSP"},
		{"mpls-ksp:k=8", "MPLS-kSP(k=8)"},
		{"mpls-ksp:base=invcap", "MPLS-kSP(base=invcap)"},
		{"mpls-ksp:k=6,base=invcap", "MPLS-kSP(k=6,base=invcap)"},
		// colgen changes the solve strategy, not the model, so it stays
		// out of the display name (golden row names are stable).
		{"mpls-ksp:colgen=on", "MPLS-kSP"},
		{"mpls-ksp:colgen=off", "MPLS-kSP"},
		{"sr", "SR-2seg"},
		{"sr:segs=1", "SR-1seg"},
		{"sr:segs=2,base=invcap", "SR-2seg(base=invcap)"},
	} {
		r, err := ResolveRouter(tc.spec, 0)
		if err != nil {
			t.Errorf("%s: %v", tc.spec, err)
			continue
		}
		if r.Name() != tc.want {
			t.Errorf("%s resolves to %q, want %q", tc.spec, r.Name(), tc.want)
		}
	}
	for _, bad := range []struct{ spec, hint string }{
		{"mpls-ksp:k=0", "k=0"},
		{"mpls-ksp:paths=3", "did-you-mean"},
		{"sr:segs=3", "segs=3"},
		{"sr:base=ecmp", "base"},
		{"mpls-ksp:wmax=0", "wmax"},
		{"mpls-ksp:colgen=maybe", "colgen"},
		{"sr:colgen=on", "colgen is mpls-ksp only"},
	} {
		if _, err := ResolveRouter(bad.spec, 0); err == nil {
			t.Errorf("%s (%s) resolved, want error", bad.spec, bad.hint)
		}
	}
	// The midpoint screen is always on; its former switch is now an
	// unknown parameter.
	for _, spec := range []string{"sr:screen=on", "mpls-ksp:screen=off"} {
		_, err := ResolveRouter(spec, 0)
		if !errors.Is(err, ErrBadInput) || !strings.Contains(fmt.Sprint(err), `unknown parameter "screen"`) {
			t.Errorf("%s: err = %v, want the unknown-parameter error", spec, err)
		}
	}
	// The did-you-mean machinery covers the new parameter names.
	_, err := ResolveRouter("mpls-ksp:kk=3", 0)
	if err == nil {
		t.Fatal("mpls-ksp:kk=3 resolved")
	}
	if got := err.Error(); !strings.Contains(got, "did you mean") && !strings.Contains(got, "unknown parameter") {
		t.Errorf("unexpected error shape: %v", err)
	}
}
