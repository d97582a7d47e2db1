package bench

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/explicit"
	"repro/internal/graph"
	"repro/internal/ksp"
	"repro/internal/par"
	"repro/internal/traffic"
)

// kspEndpoints picks the ksp benchmark endpoints: the instance's dst, paired
// with the reachable source farthest from it (the longest, most
// spur-rich enumeration the topology offers).
func kspEndpoints(in *instance) (src, dst int, err error) {
	sp, err := graph.DijkstraTo(in.g, in.w, in.dst)
	if err != nil {
		return 0, 0, err
	}
	src = -1
	var far float64
	for u := 0; u < in.g.NumNodes(); u++ {
		if u == in.dst || sp.Dist[u] == graph.Unreachable {
			continue
		}
		if src < 0 || sp.Dist[u] > far {
			src, far = u, sp.Dist[u]
		}
	}
	if src < 0 {
		return 0, 0, fmt.Errorf("bench: instance %s: destination %d has no reachable source", in.name, in.dst)
	}
	return src, in.dst, nil
}

// mplsMatrix restricts the instance's matrix to its top demands: the
// path LP loads pairs*(k-1) alternate columns over links+pairs rows, so
// the benchmark solves a bounded-size instance whatever the topology.
func mplsMatrix(in *instance, top int) (*traffic.Matrix, error) {
	dems := in.tm.Demands()
	sort.Slice(dems, func(i, j int) bool {
		if dems[i].Volume != dems[j].Volume {
			return dems[i].Volume > dems[j].Volume
		}
		if dems[i].Src != dems[j].Src {
			return dems[i].Src < dems[j].Src
		}
		return dems[i].Dst < dems[j].Dst
	})
	if len(dems) > top {
		dems = dems[:top]
	}
	tm := traffic.NewMatrix(in.tm.Size())
	for _, d := range dems {
		if err := tm.Set(d.Src, d.Dst, d.Volume); err != nil {
			return nil, err
		}
	}
	return tm, nil
}

// explicitKernels measures the explicit-path surfaces:
//
//   - ksppaths: Yen's k-shortest enumeration, the allocating
//     convenience against a reused Enumerator (arena steady state).
//   - mplslp: the MPLS path LP, fresh candidate enumeration + solve per
//     op against a PathLP reusing its cached candidates.
//
// Both comparisons run single-threaded (the LP's parallel enumeration
// is pinned sequential for the measurement), so the speedups are
// machine-portable and gated by Check.
func explicitKernels(in *instance, budget time.Duration) ([]Kernel, error) {
	kernel := func(name, baseLabel, fastLabel string, portable bool, base, fast func()) Kernel {
		return timeKernel(in.name+"/"+name, baseLabel, fastLabel, portable, budget, base, fast)
	}

	src, dst, err := kspEndpoints(in)
	if err != nil {
		return nil, err
	}
	const k = 8
	var enum ksp.Enumerator
	out := []Kernel{
		kernel("ksppaths", "alloc", "reuse", true,
			func() {
				if _, err := ksp.KShortest(in.g, in.w, src, dst, k); err != nil {
					panic(err)
				}
			},
			func() {
				if _, err := enum.KShortest(in.g, in.w, src, dst, k); err != nil {
					panic(err)
				}
			}),
	}

	tm, err := mplsMatrix(in, 32)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	cached, err := explicit.NewPathLP(in.g, in.w, 4)
	if err != nil {
		return nil, err
	}
	prev := par.SetExtraWorkers(0) // single-threaded: portable ratio
	defer par.SetExtraWorkers(prev)
	out = append(out, kernel("mplslp", "enumerate+solve", "cached-solve", true,
		func() {
			fresh, err := explicit.NewPathLP(in.g, in.w, 4)
			if err != nil {
				panic(err)
			}
			if _, err := fresh.Solve(ctx, tm); err != nil {
				panic(err)
			}
		},
		func() {
			if _, err := cached.Solve(ctx, tm); err != nil {
				panic(err)
			}
		}))

	// colgenmaster: the path LP solved over k enumerated candidates (all
	// loaded into the restricted master at once, one solve) vs by column
	// generation (the master grown by dual pricing). Both run from warm
	// caches so the ratio isolates the solve strategies; on bench-sized
	// instances the k-path LP can win — the baseline records the
	// trajectory either way, and colgen's payoff is the scaling the
	// ladder-at-scale recipe measures.
	kpathLP, err := explicit.NewPathLP(in.g, in.w, 4)
	if err != nil {
		return nil, err
	}
	colgen, err := explicit.NewPathLP(in.g, in.w, 4)
	if err != nil {
		return nil, err
	}
	out = append(out, kernel("colgenmaster", "k-path-lp", "colgen", true,
		func() {
			if _, err := kpathLP.Solve(ctx, tm); err != nil {
				panic(err)
			}
		},
		func() {
			if _, err := colgen.SolveColGen(ctx, tm); err != nil {
				panic(err)
			}
		}))
	return out, nil
}

// explicitParity verifies the cached-candidate fast path bitwise
// against a fresh solver, and the reused enumerator against the
// allocating path.
func explicitParity(in *instance) ([]Parity, error) {
	src, dst, err := kspEndpoints(in)
	if err != nil {
		return nil, err
	}
	const k = 8
	slow, err := ksp.KShortest(in.g, in.w, src, dst, k)
	if err != nil {
		return nil, err
	}
	var enum ksp.Enumerator
	if _, err := enum.KShortest(in.g, in.w, src, dst, k); err != nil { // warm buffers
		return nil, err
	}
	fast, err := enum.KShortest(in.g, in.w, src, dst, k)
	if err != nil {
		return nil, err
	}
	same := len(slow) == len(fast)
	if same {
		for i := range slow {
			if slow[i].Cost != fast[i].Cost || len(slow[i].Links) != len(fast[i].Links) {
				same = false
				break
			}
			for j := range slow[i].Links {
				if slow[i].Links[j] != fast[i].Links[j] {
					same = false
					break
				}
			}
		}
	}
	out := []Parity{{
		Name:         in.name + "/ksppaths",
		Detail:       fmt.Sprintf("reused enumerator vs allocating path, %d paths, costs and link IDs", len(slow)),
		BitIdentical: same,
	}}

	tm, err := mplsMatrix(in, 32)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	fresh, err := explicit.NewPathLP(in.g, in.w, 4)
	if err != nil {
		return nil, err
	}
	want, err := fresh.Solve(ctx, tm)
	if err != nil {
		return nil, err
	}
	cached, err := explicit.NewPathLP(in.g, in.w, 4)
	if err != nil {
		return nil, err
	}
	if _, err := cached.Solve(ctx, tm); err != nil { // populate cache
		return nil, err
	}
	got, err := cached.Solve(ctx, tm)
	if err != nil {
		return nil, err
	}
	lpSame := got.MLU == want.MLU && got.Paths == want.Paths && len(got.Flow.Total) == len(want.Flow.Total)
	if lpSame {
		for e := range want.Flow.Total {
			if got.Flow.Total[e] != want.Flow.Total[e] {
				lpSame = false
				break
			}
		}
	}
	out = append(out, Parity{
		Name:         in.name + "/mplslp",
		Detail:       fmt.Sprintf("cached-candidate solve vs fresh solver, MLU and %d-link flow", len(want.Flow.Total)),
		BitIdentical: lpSame,
	})

	// colgenmaster: two independent colgen solvers must agree bitwise
	// (determinism), and their MLU must match the k-path LP within
	// tolerance (colgen optimizes over all simple paths, a superset of
	// the k candidates, reached by a different pivot sequence — so
	// low-order bits may differ from the k-path LP, but not between
	// colgen runs).
	cgA, err := explicit.NewPathLP(in.g, in.w, 4)
	if err != nil {
		return nil, err
	}
	gotA, err := cgA.SolveColGen(ctx, tm)
	if err != nil {
		return nil, err
	}
	cgB, err := explicit.NewPathLP(in.g, in.w, 4)
	if err != nil {
		return nil, err
	}
	gotB, err := cgB.SolveColGen(ctx, tm)
	if err != nil {
		return nil, err
	}
	cgSame := gotA.MLU == gotB.MLU && gotA.Paths == gotB.Paths && gotA.Rounds == gotB.Rounds
	if cgSame {
		for e := range gotA.Flow.Total {
			if gotA.Flow.Total[e] != gotB.Flow.Total[e] {
				cgSame = false
				break
			}
		}
	}
	mluDiff := gotA.MLU - want.MLU
	if mluDiff < 0 {
		mluDiff = -mluDiff
	}
	out = append(out, Parity{
		Name: in.name + "/colgenmaster",
		Detail: fmt.Sprintf("colgen re-run bitwise + MLU vs k-path LP within 1e-6 (diff %.2e; %d cols in %d rounds vs %d k-path columns)",
			mluDiff, gotA.Paths, gotA.Rounds, want.Paths),
		BitIdentical: cgSame && mluDiff <= 1e-6*(1+want.MLU),
	})
	return out, nil
}
