// Pageviews: the paper's Map-Reduce evaluation workload (§5.1.3) end to
// end — summing synthetic Wikipedia-style hourly page-view counts per
// document — run on all three engines under a chosen eviction rate, so
// the engines' different behaviors under eviction are directly visible.
//
//	go run ./examples/pageviews -rate high
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"pado/internal/cluster"
	"pado/internal/dag"
	"pado/internal/data"
	"pado/internal/engines/sparklike"
	"pado/internal/harness"
	"pado/internal/runtime"
	"pado/internal/trace"
	"pado/internal/vtime"
	"pado/internal/workloads"
)

func main() {
	rateName := flag.String("rate", "high", "eviction rate: none, low, medium, high")
	flag.Parse()
	rate, err := harness.ParseRate(*rateName)
	if err != nil {
		log.Fatal(err)
	}

	cfg := workloads.MRConfig{Partitions: 16, LinesPerPart: 4000, Docs: 8000, Seed: 5}
	want := workloads.MRReference(cfg)
	scale := vtime.NewScale(50 * time.Millisecond)

	newCluster := func(seed int64) *cluster.Cluster {
		cl, err := cluster.New(cluster.Config{
			Transient:   12,
			Reserved:    3,
			TransientBW: 3 << 20,
			ReservedBW:  6 << 20,
			MasterBW:    12 << 20,
			Lifetimes:   trace.Lifetimes(rate),
			Scale:       scale,
			Seed:        seed,
		})
		if err != nil {
			log.Fatal(err)
		}
		return cl
	}

	check := func(name string, jct time.Duration, relaunched int64) {
		fmt.Printf("%-17s jct=%-6.1f paper-min  relaunched=%d\n", name, scale.Minutes(jct), relaunched)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Pado.
	res, err := runtime.Run(ctx, newCluster(1), workloads.MR(cfg).Graph(), runtime.Config{})
	if err != nil {
		log.Fatalf("pado: %v", err)
	}
	verify(res.Outputs, want)
	check("Pado", res.Metrics.JCT, res.Metrics.RelaunchedTasks)

	// Plain Spark-like.
	sres, err := sparklike.Run(ctx, newCluster(2), workloads.MR(cfg).Graph(), sparklike.Config{})
	if err != nil {
		log.Fatalf("spark: %v", err)
	}
	verify(sres.Outputs, want)
	check("Spark", sres.Metrics.JCT, sres.Metrics.RelaunchedTasks)

	// Checkpointing Spark-like.
	cres, err := sparklike.Run(ctx, newCluster(3), workloads.MR(cfg).Graph(), sparklike.Config{Checkpoint: true})
	if err != nil {
		log.Fatalf("spark-checkpoint: %v", err)
	}
	verify(cres.Outputs, want)
	check("Spark-checkpoint", cres.Metrics.JCT, cres.Metrics.RelaunchedTasks)

	fmt.Println("\nall three engines produced the exact reference sums")
}

// verify asserts that the single terminal output matches the reference
// sums exactly.
func verify(outputs map[dag.VertexID][]data.Record, want map[string]int64) {
	if len(outputs) != 1 {
		log.Fatalf("expected one terminal output, got %d", len(outputs))
	}
	for _, recs := range outputs {
		if len(recs) != len(want) {
			log.Fatalf("got %d documents, want %d", len(recs), len(want))
		}
		for _, r := range recs {
			if want[r.Key.(string)] != r.Value.(int64) {
				log.Fatalf("doc %v: got %d want %d", r.Key, r.Value, want[r.Key.(string)])
			}
		}
	}
}
