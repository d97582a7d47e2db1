package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	spef "repro"
	"repro/internal/core"
	"repro/internal/mcf"
	"repro/internal/objective"
)

// inputSeeds derives a run's per-input generator seeds from its seed.
func inputSeeds(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = 1 + rng.Int63n(1<<31)
	}
	return out
}

// ospfMLU is the maximum link utilization demands are scaled to under
// InvCap OSPF routing. OSPF's routing is feasible, so the optimum's MLU
// is at most this and every optimizing router has room to work; a
// fixed network load instead leaves about 1% of gravity matrices on
// Cernet2 at load 0.1 infeasible.
const ospfMLU = 0.8

// gravityDemands draws the gravity matrix of the seed and scales it so
// InvCap OSPF routing peaks at ospfMLU.
func gravityDemands(ctx context.Context, n *spef.Network, seed int64) (*spef.Demands, error) {
	d, err := spef.ResolveDemands("gravity:seed="+strconv.FormatInt(seed, 10), n)
	if err != nil {
		return nil, err
	}
	routes, err := spef.OSPF(nil).Routes(ctx, n, d)
	if err != nil {
		return nil, err
	}
	rep, err := routes.Evaluate(d)
	if err != nil {
		return nil, err
	}
	return d.Scaled(ospfMLU / rep.MLU)
}

// digest is a short hash of float vectors' exact bits.
func digest(vs ...[]float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range vs {
		for _, x := range v {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// optimizeSize fixes the optimize workload's inputs.
type optimizeSize struct {
	topology string
	pool     int // demand matrices drawn per run, used in turn
}

func (c config) optimizeSize() optimizeSize {
	if c.quick {
		return optimizeSize{topology: "abilene", pool: quickOps}
	}
	return optimizeSize{topology: "cernet2", pool: 256}
}

// runOptimize times spef.Optimize (the paper's Algorithm 4) followed by
// Protocol.Evaluate on fresh gravity matrices. Traced, the call becomes
// core.FirstWeights then core.BuildWithWeights, as core.Build composes
// them, and the evaluation core's Protocol.Flow.
func runOptimize(ctx context.Context, r *run) error {
	sz := r.optimizeSize()
	var inputs []layerInput
	err := r.timeSetup(func() error {
		t, err := spef.ResolveTopology(sz.topology)
		if err != nil {
			return err
		}
		inputs = inputs[:0]
		for _, s := range inputSeeds(r.seed, sz.pool) {
			d, err := gravityDemands(ctx, t.Network, s)
			if err != nil {
				return err
			}
			in := layerInput{net: t.Network, dem: d}
			if r.trace {
				if in, err = newLayerInput(t.Network, d); err != nil {
					return err
				}
			}
			inputs = append(inputs, in)
		}
		return nil
	}, nil)
	if err != nil {
		return err
	}

	untraced := func(in layerInput) ([]string, error) {
		p, err := spef.Optimize(ctx, in.net, in.dem)
		if err != nil {
			return nil, err
		}
		rep, err := p.Evaluate(in.dem)
		if err != nil {
			return nil, err
		}
		if !(rep.MLU > 0 && rep.MLU < 1) {
			return nil, fmt.Errorf("MLU %v outside (0, 1)", rep.MLU)
		}
		return []string{fbits(rep.MLU), fbits(rep.Utility), digest(p.FirstWeights(), p.SecondWeights())}, nil
	}
	if _, err := untraced(inputs[0]); err != nil { // warm-up
		return fmt.Errorf("warm-up: %w", err)
	}

	var aonTotal, aonScaled time.Duration // probe times, and each times Algorithm 1's iterations
	elapsed := r.loop(func(i int) error {
		in := inputs[i%len(inputs)]
		key := strconv.Itoa(i % len(inputs))
		if !r.trace {
			start := time.Now()
			out, err := untraced(in)
			r.lat = append(r.lat, time.Since(start))
			if err != nil {
				return err
			}
			r.output(key, out...)
			return nil
		}
		var out, tout []string
		var first *core.FirstWeightResult
		err := r.timedOp(func() error {
			var err error
			out, err = untraced(in)
			return err
		}, func() error {
			var err error
			tout, first, err = optimizeTraced(ctx, r, in)
			return err
		})
		if err != nil {
			return err
		}
		r.output(key, out...)
		r.same("optimize", out, tout)
		aon, err := aonProbe(r.rec, in, first.W)
		if err != nil {
			return err
		}
		aonTotal += aon
		aonScaled += aon * time.Duration(first.Iters)
		return nil
	})
	r.tailQ = 0.9
	r.work, r.workTime = float64(r.attempted), elapsed
	if r.trace {
		r.set["mcf.aon_ms"] = millis(aonTotal) / float64(max(r.attempted, 1))
		// A computed share: the probe's time per assignment times the
		// iterations Algorithm 1 ran, over Algorithm 1's traced time.
		if ft := r.rec.summary().self["core.first_weights"]; ft > 0 {
			r.set["mcf.aon_alg1_frac"] = float64(aonScaled) / float64(ft)
		}
	}
	return nil
}

// optimizeTraced is spef.Optimize and Protocol.Evaluate decomposed into
// the layer calls they make.
func optimizeTraced(ctx context.Context, r *run, in layerInput) ([]string, *core.FirstWeightResult, error) {
	var out []string
	var first *core.FirstWeightResult
	err := r.rec.op("optimize", func(root int) error {
		obj, err := objective.NewQBeta(1, in.g.NumLinks(), nil)
		if err != nil {
			return err
		}
		if err := r.rec.in(root, "core.first_weights", func() error {
			first, err = core.FirstWeights(ctx, in.g, in.tm, obj, core.FirstWeightOptions{})
			return err
		}); err != nil {
			return err
		}
		var p *core.Protocol
		if err := r.rec.in(root, "core.build_with_weights", func() error {
			p, err = core.BuildWithWeights(ctx, in.g, in.tm, first.W, first.Flow, 0, core.SecondWeightOptions{})
			return err
		}); err != nil {
			return err
		}
		p.First = first
		var flow *mcf.Flow
		if err := r.rec.in(root, "core.flow", func() error {
			flow, err = p.Flow(in.tm)
			return err
		}); err != nil {
			return err
		}
		rep := reportOf(in.g, flow.Total)
		r.count("core.alg1_iters", float64(first.Iters))
		r.count("core.alg2_iters", float64(p.Second.Iters))
		out = []string{fbits(rep.mlu), fbits(rep.utility), digest(p.W, p.V)}
		return nil
	})
	return out, first, err
}

// aonRepeats is how many all-or-nothing assignments one probe times.
const aonRepeats = 20

// aonProbe times one all-or-nothing shortest-path assignment at the
// final first weights (the kernel Algorithm 1 runs every iteration),
// averaged over aonRepeats calls, as reference work.
func aonProbe(rec *recorder, in layerInput, w []float64) (time.Duration, error) {
	flow := mcf.NewFlow(in.g, in.tm.Destinations())
	start := time.Now()
	err := rec.ref("mcf.aon_probe", func(int) error {
		for i := 0; i < aonRepeats; i++ {
			if _, err := mcf.AllOrNothingInto(in.g, in.tm, w, flow); err != nil {
				return err
			}
		}
		return nil
	})
	return time.Since(start) / aonRepeats, err
}
