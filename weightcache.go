package spef

import (
	"context"
	"fmt"
	"sync"
)

// once computes one value on first demand; concurrent askers wait for
// it and every asker gets the same value and error.
type once[V any] struct {
	sync.Once
	val V
	err error
}

func (o *once[V]) get(f func() (V, error)) (V, error) {
	o.Do(func() { o.val, o.err = f() })
	return o.val, o.err
}

// runStore is one scenario run's keyed-once store, built from the run's
// cells before any cell runs. searches holds one entry per Fortz-Thorup
// search key (see searchKey) that two or more of the cells ask for; the
// searching routers reach it through ctx (see searchWeights). reuse
// backs RunOptions.ReuseWeights, mapping each cell index to its group
// (nil: the cell reuses nothing). Entries compute on first demand
// under sync.Once, so workers wait instead of duplicating work, and
// what they hold depends only on the cells, never on worker count or
// completion order.
type runStore struct {
	searches sharedSearches
	reuse    []*reuseGroup
}

// sharedSearches maps each shared search key to its one search.
type sharedSearches map[searchKey]*once[[]float64]

// reuseGroup is one weight-reuse group. Its reference cell, the
// group's lowest-index cell (under Grid expansion the first load and
// step), is optimized once; the weights are extracted into a
// fixed-weight router that every cell of the group re-simulates on its
// own demands. The value is nil when extraction fails; cells then
// optimize individually.
type reuseGroup struct {
	once[Router]
	ref Scenario
}

// newRunStore runs the store's pre-pass. Reuse groups span every cell,
// so every shard of a sweep picks the same references. Searches are
// counted over the cells that will run (runs; nil: all): a reuse
// group's reference search once per group, any other search once per
// cell. Only a key counted twice gets an entry, and a store with
// nothing to hold is nil.
func newRunStore(cells []Scenario, reuse bool, runs func(i int) bool) *runStore {
	st := &runStore{}
	if reuse {
		st.reuse = reuseGroups(cells)
	}
	asks := make(map[searchKey]int)
	ask := func(s Scenario) {
		if sk, ok := s.Router.(searchKeyer); ok {
			if k, ok := sk.searchKey(s.Network, s.Demands); ok {
				asks[k]++
			}
		}
	}
	counted := make(map[*reuseGroup]bool)
	for i, s := range cells {
		switch {
		case runs != nil && !runs(i):
		case st.reuse != nil && st.reuse[i] != nil:
			if g := st.reuse[i]; !counted[g] {
				counted[g] = true
				ask(g.ref)
			}
		default:
			ask(s)
		}
	}
	for k, n := range asks {
		if n >= 2 {
			if st.searches == nil {
				st.searches = make(sharedSearches)
			}
			st.searches[k] = new(once[[]float64])
		}
	}
	if st.searches == nil && st.reuse == nil {
		return nil
	}
	return st
}

// reuseGroups groups the weight-extractable cells (reusable(): not
// OSPF, Optimal or fixed-weight variants) by topology, failure variant,
// router name and ordinal among the same-named extractable routers of
// one (topology, failure, load, step). The ordinal keeps apart routers
// whose names hide their parameters (ospf-ls:iters=5 and
// ospf-ls:iters=400 are both "OSPF-LS"). Load and step are otherwise
// left out: reusing weights across them is the point.
func reuseGroups(cells []Scenario) []*reuseGroup {
	type slot struct {
		topology, failed, step, name string
		load                         float64
	}
	type groupKey struct {
		topology, failed, name string
		ordinal                int
	}
	ordinals := make(map[slot]int)
	groups := make(map[groupKey]*reuseGroup)
	out := make([]*reuseGroup, len(cells))
	for i, s := range cells {
		if wr, ok := s.Router.(weightReuser); !ok || !wr.reusable() {
			continue
		}
		name := s.Router.Name()
		sl := slot{s.Topology, s.FailedLink, s.Step, name, s.Load}
		ord := ordinals[sl]
		ordinals[sl] = ord + 1
		k := groupKey{s.Topology, s.FailedLink, name, ord}
		g := groups[k]
		if g == nil {
			// Cells arrive in expansion order, so the first cell seen is
			// the group's lowest-index (reference) cell.
			g = &reuseGroup{ref: s}
			groups[k] = g
		}
		out[i] = g
	}
	return out
}

// install makes the store's shared searches reachable from ctx; a store
// without any leaves ctx unchanged.
func (st *runStore) install(ctx context.Context) context.Context {
	if st == nil || st.searches == nil {
		return ctx
	}
	return context.WithValue(ctx, sharedSearchesKey{}, st.searches)
}

type sharedSearchesKey struct{}

// sharedSearch returns the shared search for key k of the store
// installed in ctx, nil outside a run or for a key the run does not
// share.
func sharedSearch(ctx context.Context, k searchKey) *once[[]float64] {
	shared, _ := ctx.Value(sharedSearchesKey{}).(sharedSearches)
	return shared[k]
}

// router resolves the router cell idx (scenario s) should run with: its
// reuse group's fixed-weight router, computed on first demand, or the
// cell's own router when it has no group or the group's weights cannot
// be extracted. A nil store is a no-op.
func (st *runStore) router(ctx context.Context, idx int, s Scenario) (Router, error) {
	if st == nil || st.reuse == nil || st.reuse[idx] == nil {
		return s.Router, nil
	}
	g := st.reuse[idx]
	fixed, err := g.get(func() (Router, error) {
		routes, err := g.ref.Router.Routes(ctx, g.ref.Network, g.ref.Demands)
		if err != nil {
			return nil, fmt.Errorf("spef: weight reuse: optimizing reference cell %q: %w", g.ref.Name, err)
		}
		fixed, _ := fixedRouter(routes)
		return fixed, nil
	})
	if err != nil {
		return nil, err
	}
	if fixed == nil {
		return s.Router, nil
	}
	return fixed, nil
}
