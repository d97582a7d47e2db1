// Ingestion case study: import a real-world-format topology (Topology
// Zoo GraphML), inspect what the capacity-inference rules resolved,
// and sweep a day of traffic over it — a gravity matrix on a diurnal
// cycle with a midday flash-crowd burst — comparing InvCap OSPF and
// SPEF per time step with single-link failures. This is the ingestion
// pipeline of DESIGN.md's "Ingestion & workloads" end to end: file ->
// ImportedNetwork -> registry topology -> temporal suite -> sinks.
//
// Run from the repository root (the fixture path is relative):
//
//	go run ./examples/ingest
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"sort"

	spef "repro"
)

func main() {
	ctx := context.Background()

	// Import the committed Topology Zoo fixture directly to see what
	// the parser resolved. ResolveTopology("zoo:file=...") does the
	// same resolution; the direct API additionally reports how many
	// link capacities were inferred rather than annotated.
	imp, err := spef.LoadTopologyFile("internal/topoio/testdata/testnet.graphml", spef.ImportOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d nodes, %d directed links, %d with inferred capacity\n\n",
		imp.Name, imp.Network.NumNodes(), imp.Network.NumLinks(), imp.InferredLinks)

	// A day over the imported network: 8 diurnal steps of a gravity
	// matrix (trough 0.25x at t00, peak at t04) with 2 hotspot pairs
	// boosted 4x in the middle of the cycle. The load anchors the peak
	// step; failure variants are generated per duplex pair.
	suite := &spef.Suite{
		Name:          "testnet-day",
		Topologies:    []string{"zoo:file=internal/topoio/testdata/testnet.graphml"},
		Demands:       "gravity-diurnal:steps=8,peak=1,trough=0.25,hotspots=2,boost=4,seed=3",
		Loads:         []float64{0.05},
		Routers:       []string{"invcap", "spef"},
		Metrics:       []string{"mlu", "p95_util"},
		Failures:      "single",
		MaxIterations: 50,
		// One optimization per (failure variant, router) at t00,
		// re-simulated across the whole day: the deployed-weights
		// question.
		ReuseWeights: true,
	}
	seq, err := suite.Stream(ctx)
	if err != nil {
		log.Fatal(err)
	}
	var results []spef.ScenarioResult
	for r := range seq {
		if r.Err != nil {
			log.Fatalf("%s: %v", r.Scenario, r.Err)
		}
		results = append(results, r)
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Index < results[j].Index })

	// Worst MLU over the day per (router, failure variant) collapses
	// the time axis into the robustness headline: how bad does the
	// busiest hour get with yesterday's weights?
	type key struct{ router, failed string }
	worst := map[key]float64{}
	for _, r := range results {
		k := key{r.Router, r.FailedLink}
		if m := r.MLU(); m > worst[k] {
			worst[k] = m
		}
	}
	fmt.Println("worst MLU over the day (intact topology):")
	for _, router := range []string{"InvCap-OSPF", "SPEF"} {
		fmt.Printf("  %-12s %.4f\n", router, worst[key{router, ""}])
	}

	// The full time series, streamed as an aligned table.
	fmt.Println("\nper-step results (intact topology):")
	table := spef.NewTableSink(os.Stdout, "mlu", "p95_util")
	for _, r := range results {
		if r.FailedLink == "" {
			if err := table.Write(r); err != nil {
				log.Fatal(err)
			}
		}
	}
	if err := table.Flush(); err != nil {
		log.Fatal(err)
	}
}
