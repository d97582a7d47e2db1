package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"time"

	spef "repro"
)

// campaignSize fixes the campaign workload's inputs.
type campaignSize struct {
	topologies []string
	steps      int // diurnal steps per topology
	critlinks  string
	load       float64
	pool       int
}

func (c config) campaignSize() campaignSize {
	if c.quick {
		return campaignSize{topologies: []string{"abilene"}, steps: 2, critlinks: "abilene", load: 0.1, pool: quickOps}
	}
	return campaignSize{topologies: []string{"abilene", "cernet2"}, steps: 2, critlinks: "rand:n=20,links=80,seed=1", load: 0.1, pool: 32}
}

func (sz campaignSize) suite(demandSeed int64) *spef.Suite {
	return &spef.Suite{
		Name:         "bench-campaign",
		Topologies:   sz.topologies,
		Demands:      fmt.Sprintf("gravity-diurnal:steps=%d,seed=%d", sz.steps, demandSeed),
		Loads:        []float64{sz.load},
		Routers:      []string{"invcap", "ospf-ls:iters=100"},
		Metrics:      []string{"mlu", "utility"},
		Failures:     "dual",
		ReuseWeights: true,
	}
}

// campaignInput is one round's resolved inputs.
type campaignInput struct {
	suite         *spef.Suite
	cells         int
	variants      int // failure variants over all topologies
	net           *spef.Network
	dem           *spef.Demands // critical-link ranking inputs
	duplexPairs   int
	critlinksOpts spef.CriticalLinksOptions
}

const shards = 2

// runCampaign times a failure campaign: a dual-failure diurnal suite
// run as two shards through Suite.RunShard and merged with
// MergeShardsJSONL, then a dual-failure critical-link ranking. Traced,
// each call is a span, and the suite also runs in one process (Collect
// plus the JSONL sink) as the reference the merged output must equal
// byte for byte, runtimes aside.
func runCampaign(ctx context.Context, r *run) error {
	sz := r.campaignSize()
	var inputs []campaignInput
	err := r.timeSetup(func() error {
		inputs = inputs[:0]
		for _, s := range inputSeeds(r.seed, sz.pool) {
			su := sz.suite(s)
			cells, err := su.Scenarios()
			if err != nil {
				return err
			}
			ci := campaignInput{suite: su, cells: len(cells)}
			for _, c := range cells {
				if c.FailedLink != "" && c.Step == cells[0].Step && c.Router.Name() == cells[0].Router.Name() {
					ci.variants++
				}
			}
			t, err := spef.ResolveTopology(sz.critlinks)
			if err != nil {
				return err
			}
			d, err := spef.ResolveDemands("gravity:seed="+strconv.FormatInt(s, 10), t.Network)
			if err != nil {
				return err
			}
			if ci.dem, err = d.ScaledToLoad(t.Network, sz.load); err != nil {
				return err
			}
			ci.net = t.Network
			ci.duplexPairs = len(t.Network.DuplexPairs())
			ci.critlinksOpts = spef.CriticalLinksOptions{Failures: "dual", Workers: 2}
			inputs = append(inputs, ci)
		}
		return nil
	}, nil)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "campaign-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	var sweepTime time.Duration
	r.loop(func(i int) error {
		ci := inputs[i%len(inputs)]
		key := strconv.Itoa(i % len(inputs))
		roundDir := filepath.Join(dir, strconv.Itoa(i))
		if err := os.Mkdir(roundDir, 0o755); err != nil {
			return err
		}
		defer os.RemoveAll(roundDir)
		if !r.trace {
			start := time.Now()
			o, err := campaignRound(ctx, nil, ci, roundDir)
			r.lat = append(r.lat, time.Since(start))
			sweepTime += o.sweep
			if err != nil {
				return err
			}
			out, err := o.digests(ci)
			if err != nil {
				return err
			}
			r.output(key, out...)
			return nil
		}
		var o, to roundOutput
		err := r.timedOp(func() error {
			var err error
			o, err = campaignRound(ctx, nil, ci, filepath.Join(roundDir, "untraced"))
			return err
		}, func() error {
			var err error
			to, err = campaignRound(ctx, r, ci, filepath.Join(roundDir, "traced"))
			return err
		})
		if err != nil {
			return err
		}
		out, err := o.digests(ci)
		if err != nil {
			return err
		}
		tout, err := to.digests(ci)
		if err != nil {
			return err
		}
		r.output(key, out...)
		r.same("campaign", out, tout)
		r.count("scenario.cells", float64(ci.cells))
		r.count("failures.variants", float64(ci.variants))
		r.count("critlinks.units", float64(ci.duplexPairs))
		r.count("sweep.bytes", float64(len(to.merged)))
		return campaignReference(ctx, r, ci, tout[0])
	})
	r.tailQ = 0.75
	r.work, r.workTime = 0, sweepTime
	for i := 0; i < r.attempted; i++ {
		r.work += float64(inputs[i%len(inputs)].cells)
	}
	if r.trace {
		ts := r.rec.summary()
		sharded := ts.total["sweep.run_shard"] + ts.total["sweep.merge"]
		single := ts.total["scenario.collect"] + ts.total["sink.jsonl_write"]
		if single > 0 {
			r.set["sweep.overhead_frac"] = float64(sharded)/float64(single) - 1
		}
	}
	return nil
}

// runtimeField matches the wall-clock field of a JSONL result line, the
// one field merged and single-process output may differ in.
var runtimeField = regexp.MustCompile(`"runtime_ms":[^,}]*`)

func normalizeRuntimes(jsonl []byte) []byte {
	return runtimeField.ReplaceAll(jsonl, []byte(`"runtime_ms":0`))
}

func shortHash(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

// roundOutput is what one campaign round produced.
type roundOutput struct {
	merged []byte // the merged shards' JSONL
	rows   []spef.CriticalLink
	sweep  time.Duration // the sharded suite and merge, without the ranking
}

// campaignRound runs the sharded suite, the merge and the critical-link
// ranking, recording spans when r is non-nil.
func campaignRound(ctx context.Context, r *run, ci campaignInput, dir string) (roundOutput, error) {
	var o roundOutput
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return o, err
	}
	body := func(root int) error {
		span := func(name string, f func() error) error {
			if r == nil {
				return f()
			}
			return r.rec.in(root, name, f)
		}
		start := time.Now()
		var paths []string
		for i := 0; i < shards; i++ {
			p := filepath.Join(dir, fmt.Sprintf("shard%d.jsonl", i))
			err := span("sweep.run_shard", func() error {
				rep, err := ci.suite.RunShard(ctx, spef.ShardSpec{Index: i, Count: shards}, p, spef.ShardOptions{})
				if err == nil && rep.Failed > 0 {
					err = fmt.Errorf("shard %d: %d cells failed", i, rep.Failed)
				}
				return err
			})
			if err != nil {
				return err
			}
			paths = append(paths, p)
		}
		var merged bytes.Buffer
		if err := span("sweep.merge", func() error {
			info, err := spef.MergeShardsJSONL(&merged, paths...)
			if err == nil && info.Cells != ci.cells {
				err = fmt.Errorf("merged %d cells, want %d", info.Cells, ci.cells)
			}
			return err
		}); err != nil {
			return err
		}
		o.merged, o.sweep = merged.Bytes(), time.Since(start)
		return span("critlinks.rank", func() error {
			var err error
			o.rows, err = spef.RankCriticalLinks(ctx, ci.net, ci.dem, ci.critlinksOpts)
			return err
		})
	}
	if r == nil {
		return o, body(-1)
	}
	return o, r.rec.op("campaign", body)
}

// digests checks a round's outputs and returns the digests of the merged
// output and the ranking, runtimes normalized out.
func (o roundOutput) digests(ci campaignInput) ([]string, error) {
	if err := checkCells(o.merged); err != nil {
		return nil, err
	}
	if err := checkCritLinks(o.rows, ci.duplexPairs); err != nil {
		return nil, err
	}
	var ranked bytes.Buffer
	if err := spef.WriteCriticalLinksJSONL(&ranked, o.rows); err != nil {
		return nil, err
	}
	return []string{shortHash(normalizeRuntimes(o.merged)), shortHash(normalizeRuntimes(ranked.Bytes()))}, nil
}

// checkCritLinks checks one row per duplex pair, ranked by regret.
func checkCritLinks(rows []spef.CriticalLink, pairs int) error {
	if len(rows) != pairs {
		return fmt.Errorf("critical-link ranking has %d rows for %d duplex pairs", len(rows), pairs)
	}
	for i, row := range rows {
		if row.Rank != i+1 || i > 0 && row.Regret > rows[i-1].Regret || math.IsNaN(row.Regret) {
			return fmt.Errorf("critical-link row %d (%s, regret %v) out of order", i, row.Link, row.Regret)
		}
	}
	return nil
}

// checkCells checks that no merged cell carries an error.
func checkCells(jsonl []byte) error {
	for i, line := range bytes.Split(bytes.TrimSpace(jsonl), []byte("\n")) {
		res, err := spef.UnmarshalResultJSONL(line)
		if err != nil {
			return fmt.Errorf("merged line %d: %w", i, err)
		}
		if res.Error != "" {
			return fmt.Errorf("cell %s failed: %s", res.Scenario, res.Error)
		}
	}
	return nil
}

// campaignReference runs the suite in one process, Collect then the
// JSONL sink, and checks the sharded run's merged output against it.
func campaignReference(ctx context.Context, r *run, ci campaignInput, mergedDigest string) error {
	var single bytes.Buffer
	err := r.rec.ref("campaign.reference", func(root int) error {
		var res []spef.ScenarioResult
		if err := r.rec.in(root, "scenario.collect", func() error {
			var err error
			res, err = ci.suite.Collect(ctx)
			return err
		}); err != nil {
			return err
		}
		return r.rec.in(root, "sink.jsonl_write", func() error {
			return spef.WriteResults(spef.NewJSONLSink(&single), res)
		})
	})
	if err != nil {
		return err
	}
	if got := shortHash(normalizeRuntimes(single.Bytes())); got != mergedDigest {
		r.fail("single-process JSONL digest %s differs from the merged shards' %s", got, mergedDigest)
	}
	return nil
}
