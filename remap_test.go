package spef

// Property tests for the failure-copy projection: a Network.WithoutLinks
// copy reads every per-link router vector of its parent's length
// through keep (keep[newID] = oldID), through any Named wrapping, and
// reads a vector of its own length as it is.

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
)

func randomVector(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64()*10 + 0.1
	}
	return v
}

// randomDrop picks a random subset of [0, n) to remove, ~25% of it,
// possibly empty.
func randomDrop(rng *rand.Rand, n int) []int {
	var drop []int
	for i := 0; i < n; i++ {
		if rng.Intn(4) == 0 {
			drop = append(drop, i)
		}
	}
	return drop
}

// TestRemapLinkVectorProperties checks the projection itself,
// Network.linkVector, on random copies: a parentless network and a copy
// read every vector as it is; a copy projects a vector of its parent's
// length entry by entry through keep into a fresh slice; a vector of
// any other length, short ones included, comes back unchanged rather
// than with fabricated entries; a copy of a copy does not project the
// grandparent's length.
func TestRemapLinkVectorProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 200; iter++ {
		links := 2 + rng.Intn(30)
		n := NewNetwork()
		nodes := 2 + rng.Intn(5)
		for u := 0; u < nodes; u++ {
			n.AddNode("")
		}
		for e := 0; e < links; e++ {
			from := rng.Intn(nodes)
			if _, err := n.AddLink(from, (from+1+rng.Intn(nodes-1))%nodes, 1); err != nil {
				t.Fatal(err)
			}
		}
		v := randomVector(rng, links)
		short := v[:rng.Intn(links)]

		// A parentless network reads every vector as it is.
		for _, x := range [][]float64{v, short} {
			if got := n.linkVector(x); !sameSlice(got, x) {
				t.Fatalf("iter %d: parentless network rewrote a vector of length %d", iter, len(x))
			}
		}

		// Identity keep: removing nothing projects to the same entries.
		same, keep, err := n.WithoutLinks()
		if err != nil {
			t.Fatal(err)
		}
		if len(keep) != links {
			t.Fatalf("iter %d: removing nothing kept %d of %d links", iter, len(keep), links)
		}
		if got := same.linkVector(v); !sameBits(got, v) {
			t.Fatalf("iter %d: identity keep changed %v to %v", iter, v, got)
		}

		// Truncating keep: out[newID] == v[keep[newID]] for every
		// surviving link, in a slice of its own.
		cp, keep, err := n.WithoutLinks(randomDrop(rng, links)...)
		if err != nil {
			t.Fatal(err)
		}
		got := cp.linkVector(v)
		if len(got) != len(keep) || len(got) != cp.NumLinks() {
			t.Fatalf("iter %d: projection has %d entries for %d kept links", iter, len(got), len(keep))
		}
		for newID, oldID := range keep {
			if got[newID] != v[oldID] {
				t.Fatalf("iter %d: projection[%d] = %v, want v[%d] = %v", iter, newID, got[newID], oldID, v[oldID])
			}
		}
		if len(got) > 0 && &got[0] == &v[0] {
			t.Fatalf("iter %d: projection aliases the parent's vector", iter)
		}

		// Any other length is left to the consumer to reject: the
		// copy's own length, short vectors and long ones.
		long := append(append([]float64(nil), v...), 1)
		for _, x := range [][]float64{v[:cp.NumLinks()], short, long, nil} {
			if len(x) == links {
				continue
			}
			if got := cp.linkVector(x); !sameSlice(got, x) {
				t.Fatalf("iter %d: copy rewrote a vector of length %d (parent %d, copy %d)", iter, len(x), links, cp.NumLinks())
			}
		}

		// A copy of the copy projects the copy's length only.
		if cp.NumLinks() > 0 && cp.NumLinks() < links {
			cc, _, err := cp.WithoutLinks(0)
			if err != nil {
				t.Fatal(err)
			}
			if got := cc.linkVector(v); !sameSlice(got, v) {
				t.Fatalf("iter %d: copy of a copy projected the grandparent's vector", iter)
			}
		}
	}
}

// sameSlice reports whether a and b are the same slice: same length and,
// when non-empty, the same backing array start.
func sameSlice(a, b []float64) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// plainCopy rebuilds n link by link as a network with no parent, so it
// reads every vector as its own.
func plainCopy(t *testing.T, n *Network) *Network {
	t.Helper()
	out := NewNetwork()
	for u := 0; u < n.NumNodes(); u++ {
		out.AddNode(n.NodeName(u))
	}
	for id := 0; id < n.NumLinks(); id++ {
		if _, err := out.AddLink(n.Link(id)); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// linkFlows routes d over n with r and returns the evaluated per-link
// flows.
func linkFlows(t *testing.T, r Router, n *Network, d *Demands) ([]float64, error) {
	t.Helper()
	routes, err := r.Routes(t.Context(), n, d)
	if err != nil {
		return nil, err
	}
	rep, err := routes.Evaluate(d)
	if err != nil {
		return nil, err
	}
	return rep.LinkFlow, nil
}

// TestReindexRouterProperties checks, on random copies of random
// networks (their links reindexed densely), every router that takes a
// per-link vector: given vectors of the parent's length, the router's
// link flows on the copy are bit-identical to the same router's given
// the projected vectors, also wrapped in Named; and a router given
// vectors of the copy's own length routes the copy exactly as it routes
// a parentless network with the same links. A copy of a copy does not
// project the grandparent's length.
func TestReindexRouterProperties(t *testing.T) {
	routers := []struct {
		name string
		make func(w, v []float64) Router
	}{
		{"OSPF(w)", func(w, _ []float64) Router { return OSPF(w) }},
		{"PEFT(w)", func(w, _ []float64) Router { return PEFT(w) }},
		{"SPEFWithWeights", func(w, v []float64) Router { return SPEFWithWeights(w, v) }},
		{"SPEF(WithQ)", func(q, _ []float64) Router { return SPEF(WithQ(q), WithMaxIterations(30)) }},
		{"PEFT(nil, WithQ)", func(q, _ []float64) Router { return PEFT(nil, WithQ(q), WithMaxIterations(30)) }},
		{"Optimal(WithQ)", func(q, _ []float64) Router { return Optimal(WithQ(q), WithMaxIterations(30)) }},
	}
	rng := rand.New(rand.NewSource(11))
	routed := 0
	const copies = 20
	for iter := 0; iter < copies; iter++ {
		nodes := 5 + rng.Intn(3)
		n, err := RandomNetwork(rng.Int63(), nodes, 2*(nodes+1+rng.Intn(nodes-1)))
		if err != nil {
			t.Fatal(err)
		}
		d := NewDemands(n)
		for k := 0; k < 3; k++ {
			s, dst := rng.Intn(nodes), rng.Intn(nodes)
			if s != dst {
				if err := d.Add(s, dst, 0.05+0.1*rng.Float64()); err != nil {
					t.Fatal(err)
				}
			}
		}
		var drop []int
		for len(drop) == 0 {
			for e := 0; e < n.NumLinks(); e++ {
				if rng.Intn(5) == 0 {
					drop = append(drop, e)
				}
			}
		}
		cp, keep, err := n.WithoutLinks(drop...)
		if err != nil {
			t.Fatal(err)
		}
		plain := plainCopy(t, cp)
		w, v := randomVector(rng, n.NumLinks()), randomVector(rng, n.NumLinks())
		pw, pv := make([]float64, len(keep)), make([]float64, len(keep))
		for id, parent := range keep {
			pw[id], pv[id] = w[parent], v[parent]
		}
		for _, rc := range routers {
			want, werr := linkFlows(t, rc.make(pw, pv), cp, d)
			for _, r := range []Router{rc.make(w, v), Named("named", rc.make(w, v))} {
				got, err := linkFlows(t, r, cp, d)
				switch {
				case (err != nil) != (werr != nil):
					t.Fatalf("iter %d %s: parent-length err %v, projected err %v", iter, rc.name, err, werr)
				case err == nil && !sameBits(got, want):
					t.Fatalf("iter %d %s: parent-length flows %v, projected %v", iter, rc.name, got, want)
				}
			}
			own, oerr := linkFlows(t, rc.make(pw, pv), plain, d)
			switch {
			case (oerr != nil) != (werr != nil):
				t.Fatalf("iter %d %s: parentless err %v, copy err %v", iter, rc.name, oerr, werr)
			case werr == nil && !sameBits(own, want):
				t.Fatalf("iter %d %s: copy flows %v, parentless %v", iter, rc.name, want, own)
			case werr == nil:
				routed++
			}
		}
		// A copy of the copy projects the copy's length only.
		if cp.NumLinks() > 1 {
			cc, _, err := cp.WithoutLinks(0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := OSPF(w).Routes(t.Context(), cc, d); !errors.Is(err, ErrBadInput) {
				t.Fatalf("iter %d: grandparent-length weights on a copy of a copy: err = %v, want ErrBadInput", iter, err)
			}
		}
	}
	if routed < copies*len(routers)/2 {
		t.Fatalf("only %d of %d router checks routed their demands", routed, copies*len(routers))
	}
}

// TestSPEFWithWeightsMatchesOptimizedProtocol checks the fixed-weight
// router reproduces the optimizer's forwarding outcome when fed the
// optimizer's own weights on the intact topology.
func TestSPEFWithWeightsMatchesOptimizedProtocol(t *testing.T) {
	n, d, err := Fig1Example()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	p, err := Optimize(ctx, n, d, WithMaxIterations(20000))
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Evaluate(d)
	if err != nil {
		t.Fatal(err)
	}
	routes, err := SPEFWithWeights(p.FirstWeights(), p.SecondWeights()).Routes(ctx, n, d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := routes.Evaluate(d)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.MLU-want.MLU) > 1e-9 {
		t.Errorf("fixed-weight MLU %v, optimizer %v", got.MLU, want.MLU)
	}
	for i := range want.LinkFlow {
		if math.Abs(got.LinkFlow[i]-want.LinkFlow[i]) > 1e-9 {
			t.Errorf("link %d flow %v, optimizer %v", i, got.LinkFlow[i], want.LinkFlow[i])
		}
	}
}

func TestSPEFWithWeightsRejectsLengthMismatch(t *testing.T) {
	n, d, err := Fig1Example()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SPEFWithWeights([]float64{1}, []float64{1}).Routes(context.Background(), n, d); err == nil {
		t.Fatal("length mismatch accepted")
	}
}
