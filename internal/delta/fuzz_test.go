package delta

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/traffic"
)

// FuzzEngineEvents decodes bytes into an event sequence on a small
// random topology — weight pushes (0 and +Inf included, negative ones
// rejected), link failures and restorations, two-link failure and
// restoration batches (a repeated ID included), out-of-range links, and
// the what-ifs of the weight pushes, single failures and restorations
// and failure batches — and checks after every event that an accepted
// event leaves the state projection-equal to a
// from-scratch evaluation of its failure variant, a rejected one
// returns ErrBadInput with the state bitwise unchanged, and every
// what-if equals committing its event.
//
// Each event is three bytes: the kind, then two operands. A link
// operand of NumLinks is out of range; a weight operand picks 0, +Inf,
// -1 or an integer weight 1..19.
func FuzzEngineEvents(f *testing.F) {
	// The property test's seeds, re-drawn as 16-event byte sequences.
	// Short seeds keep the fuzzer's minimization of each new input quick
	// (with 60-event seeds a 15-s run spent nearly all of its time
	// minimizing); the property test covers long sequences.
	for seed := int64(1); seed <= 4; seed++ {
		ops := make([]byte, 3*16)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(seed, ops)
	}
	f.Fuzz(engineEvents)
}

// engineEvents is FuzzEngineEvents' body: one decoded sequence.
func engineEvents(t *testing.T, seed int64, ops []byte) {
	seed &= 15
	rng := rand.New(rand.NewSource(seed))
	nodes := 5 + rng.Intn(4)
	g, gravity := randomInstance(t, seed, nodes, 2*(nodes+nodes/2))
	// Sparse demands, so that many failures keep them routable: one
	// destination per source.
	tm := traffic.NewMatrix(nodes)
	for s := 0; s < nodes; s++ {
		d := (s + 1 + rng.Intn(nodes-1)) % nodes
		if err := tm.Set(s, d, gravity.At(s, d)); err != nil {
			t.Fatal(err)
		}
	}
	w := make([]float64, g.NumLinks())
	for i := range w {
		w[i] = float64(1 + rng.Intn(20))
	}
	en, err := NewEngine(g, tm, w)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	s := en.NewScratch()
	m := g.NumLinks()
	weight := func(b byte) float64 {
		switch b % 10 {
		case 0:
			return 0
		case 1:
			return math.Inf(1)
		case 2:
			return -1
		}
		return float64(1 + int(b)%19)
	}
	for k := 0; k+3 <= len(ops) && k < 3*64; k += 3 {
		a, b := int(ops[k+1])%(m+1), int(ops[k+2])%(m+1)
		var tag string
		var whatIf func() (Metrics, error)
		var commit func() error
		switch ops[k] % 5 {
		case 0:
			wt := weight(ops[k+2])
			tag = fmt.Sprintf("SetWeight(%d, %v)", a, wt)
			whatIf = func() (Metrics, error) { return en.WhatIfWeight(s, a, wt) }
			commit = func() error { return en.SetWeight(a, wt) }
		case 1:
			tag = fmt.Sprintf("LinkDown(%d)", a)
			whatIf = func() (Metrics, error) { return en.WhatIfLinkDown(a) }
			commit = func() error { return en.LinkDown(a) }
		case 2:
			tag = fmt.Sprintf("LinkUp(%d)", a)
			whatIf = func() (Metrics, error) { return en.WhatIfLinkUp(a) }
			commit = func() error { return en.LinkUp(a) }
		case 3:
			tag = fmt.Sprintf("FailLinks(%d, %d)", a, b)
			whatIf = func() (Metrics, error) { return en.WhatIfFailLinks(s, a, b) }
			commit = func() error { return en.FailLinks(a, b) }
		case 4:
			tag = fmt.Sprintf("RestoreLinks(%d, %d)", a, b)
			commit = func() error { return en.RestoreLinks(a, b) }
		}
		tag = fmt.Sprintf("event %d %s", k/3, tag)
		if checkEvent(t, en, tag, whatIf, commit) {
			checkOracle(t, en, tag)
		}
	}
}
