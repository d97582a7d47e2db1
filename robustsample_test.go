package spef

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/par"
)

// lsWeightsOf runs a local-search router and returns its optimized
// weight vector.
func lsWeightsOf(t *testing.T, opts LocalSearchOptions, n *Network, d *Demands) []float64 {
	t.Helper()
	routes, err := OSPFLocalSearch(opts).Routes(context.Background(), n, d)
	if err != nil {
		t.Fatal(err)
	}
	return routes.ecmpWeights
}

func sameWeights(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSampledRobustKAboveTotalBitwiseEqualsExhaustive is the sampling
// mode's central property: with k at or above the routable variant
// count, the sorted sample is the identity selection, so the sampled
// search's whole trajectory — and the returned weight vector — is
// bitwise identical to the exhaustive robust search.
func TestSampledRobustKAboveTotalBitwiseEqualsExhaustive(t *testing.T) {
	n, d := lsTestInstance(t)
	base := LocalSearchOptions{MaxEvals: 150, Seed: 3, Robust: true}
	exhaustive := lsWeightsOf(t, base, n, d)
	for _, k := range []int{n.NumLinks(), 10000} {
		opts := base
		opts.SampleFailures = k
		opts.SampleSeed = 42 // the seed must be irrelevant once k covers everything
		if got := lsWeightsOf(t, opts, n, d); !sameWeights(got, exhaustive) {
			t.Fatalf("sample=%d weights differ from exhaustive:\n got: %v\nwant: %v", k, got, exhaustive)
		}
	}
}

// TestSampledRobustDeterministicAcrossWorkerCounts: the sample is drawn
// once on the coordinating goroutine, so the sampled-robust trajectory
// is bitwise identical however many workers score the candidates.
func TestSampledRobustDeterministicAcrossWorkerCounts(t *testing.T) {
	n, d := lsTestInstance(t)
	opts := LocalSearchOptions{MaxEvals: 150, Seed: 3, Robust: true, SampleFailures: 3, SampleSeed: 7}
	prev := par.SetExtraWorkers(0)
	seq := lsWeightsOf(t, opts, n, d)
	par.SetExtraWorkers(8)
	pll := lsWeightsOf(t, opts, n, d)
	par.SetExtraWorkers(prev)
	if !sameWeights(seq, pll) {
		t.Fatalf("sampled-robust weights depend on worker count:\n  sequential: %v\n  parallel:   %v", seq, pll)
	}
}

// TestSampleFailuresSelection pins the draw itself: k distinct variants
// in enumeration order, deterministic per seed, identity when k covers
// the list.
func TestSampleFailuresSelection(t *testing.T) {
	all := make([][]int, 9)
	for i := range all {
		all[i] = []int{i} // tag each failure by index
	}
	indexOf := func(f []int) int { return f[0] }

	for _, k := range []int{9, 10, 100} {
		got := sampleFailures(all, k, 5)
		if len(got) != len(all) {
			t.Fatalf("k=%d selected %d variants, want all %d", k, len(got), len(all))
		}
		for i, f := range got {
			if indexOf(f) != i {
				t.Fatalf("k=%d is not the identity selection at %d: got variant %d", k, i, indexOf(f))
			}
		}
	}
	for _, seed := range []int64{0, 1, 99} {
		got := sampleFailures(all, 4, seed)
		if len(got) != 4 {
			t.Fatalf("seed %d: %d variants, want 4", seed, len(got))
		}
		for i := 1; i < len(got); i++ {
			if indexOf(got[i]) <= indexOf(got[i-1]) {
				t.Fatalf("seed %d: sample not in strict enumeration order: %d after %d",
					seed, indexOf(got[i]), indexOf(got[i-1]))
			}
		}
		again := sampleFailures(all, 4, seed)
		for i := range got {
			if indexOf(got[i]) != indexOf(again[i]) {
				t.Fatalf("seed %d: draw not deterministic: %d vs %d at %d",
					seed, indexOf(got[i]), indexOf(again[i]), i)
			}
		}
	}
	// Different seeds reach different samples somewhere in a small range
	// (C(9,4) = 126 — two equal draws across five seeds would be
	// suspicious but possible; all five equal means the seed is dead).
	first := sampleFailures(all, 4, 0)
	varied := false
	for seed := int64(1); seed <= 5; seed++ {
		s := sampleFailures(all, 4, seed)
		for i := range s {
			if indexOf(s[i]) != indexOf(first[i]) {
				varied = true
			}
		}
	}
	if !varied {
		t.Error("five different seeds drew the identical sample — SampleSeed has no effect")
	}
}

// TestTabuRouterNamesAndSpecs pins the tabu-acceptance surface: the
// suffixed display names, the registry spec plumbing (accept=tabu with
// an embedded tenure survives parameter splitting), and the spec-level
// validation errors.
func TestTabuRouterNamesAndSpecs(t *testing.T) {
	for opts, want := range map[*LocalSearchOptions]string{
		{Accept: "tabu"}:               "OSPF-LS-tabu",
		{Robust: true, Accept: "tabu"}: "OSPF-LS-robust-tabu",
		{Accept: "hill"}:               "OSPF-LS",
		{Robust: true}:                 "OSPF-LS-robust",
	} {
		if got := OSPFLocalSearch(*opts).Name(); got != want {
			t.Errorf("Name(%+v) = %q, want %q", *opts, got, want)
		}
	}

	r, err := ResolveRouter("ospf-ls:accept=tabu:tenure=4,iters=80", 0)
	if err != nil {
		t.Fatal(err)
	}
	got := r.(ospfLSRouter).opts
	if got.Accept != "tabu" || got.TabuTenure != 4 || got.MaxEvals != 80 {
		t.Fatalf("resolved opts = %+v, want tabu tenure 4 iters 80", got)
	}
	if r.Name() != "OSPF-LS-tabu" {
		t.Fatalf("resolved Name() = %q", r.Name())
	}

	r, err = ResolveRouter("ospf-ls-robust:accept=tabu,sample=3,sampleseed=11", 0)
	if err != nil {
		t.Fatal(err)
	}
	got = r.(ospfLSRouter).opts
	if !got.Robust || got.Accept != "tabu" || got.TabuTenure != 0 ||
		got.SampleFailures != 3 || got.SampleSeed != 11 {
		t.Fatalf("resolved robust opts = %+v", got)
	}
	if r.Name() != "OSPF-LS-robust-tabu" {
		t.Fatalf("resolved Name() = %q", r.Name())
	}

	for spec, wantSub := range map[string]string{
		"ospf-ls:accept=tabu:tenure=0":  "must be an integer >= 1",
		"ospf-ls:accept=tabu:tenure=8x": "must be an integer >= 1",
		"ospf-ls:accept=tabu:tenur=8":   "want tabu or tabu:tenure=N",
		"ospf-ls:accept=hill:tenure=2":  "accept=hill takes no tenure",
		"ospf-ls:accept=anneal":         "must be hill or tabu",
		"ospf-ls-robust:sample=0":       "sample=0 must be >= 1",
		"ospf-ls:sample=3":              `unknown parameter "sample"`,
	} {
		_, err := ResolveRouter(spec, 0)
		if err == nil {
			t.Errorf("ResolveRouter(%q) succeeded, want error", spec)
			continue
		}
		if !errors.Is(err, ErrBadInput) || !strings.Contains(err.Error(), wantSub) {
			t.Errorf("ResolveRouter(%q) err = %v, want ErrBadInput containing %q", spec, err, wantSub)
		}
	}
}

// TestTabuRouterNeverWorseThanInvCap: the router seeds the search with
// InvCap weights and reports the best-ever vector, so even with
// worsening moves accepted, the optimized Fortz cost can never exceed
// the deployed default's.
func TestTabuRouterNeverWorseThanInvCap(t *testing.T) {
	n, d := lsTestInstance(t)
	base := fortzOf(t, OSPF(nil), n, d)
	tabu := fortzOf(t, OSPFLocalSearch(LocalSearchOptions{MaxEvals: 300, Seed: 1, Accept: "tabu"}), n, d)
	if tabu > base {
		t.Fatalf("ospf-ls tabu fortz cost %v exceeds InvCap baseline %v", tabu, base)
	}
}

// TestSampledRobustRejectsNegativeK pins the router-level validation.
func TestSampledRobustRejectsNegativeK(t *testing.T) {
	n, d := lsTestInstance(t)
	_, err := OSPFLocalSearch(LocalSearchOptions{Robust: true, SampleFailures: -1}).Routes(context.Background(), n, d)
	if !errors.Is(err, ErrBadInput) {
		t.Fatalf("negative SampleFailures err = %v, want ErrBadInput", err)
	}
}
