// Command padorun runs one of the built-in workloads on a chosen engine
// and cluster shape, printing the compiled plan, the job metrics, and a
// sample of the output — a quick way to poke at the system. It runs the
// same calibrated cluster cell as padobench (internal/harness), with a
// smaller default shape.
//
//	padorun -workload mr -engine pado -rate high -plan
//	padorun -trace out.json -timeline -
//
// -trace writes the run's event stream in Chrome trace_event format
// (load it at chrome://tracing or https://ui.perfetto.dev); -timeline
// writes a plain-text per-stage timeline ("-" for stdout).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"pado/internal/chaos"
	"pado/internal/core"
	"pado/internal/data"
	"pado/internal/harness"
	"pado/internal/metrics"
	"pado/internal/obs"
)

func main() {
	shared := harness.RegisterFlags(flag.CommandLine, harness.FlagDefaults{
		Engine: "pado", Workload: "mr", Rate: "medium",
		Transient: 12, Reserved: 3, ScaleMS: 50, Seed: 1,
	})
	showPlan := flag.Bool("plan", false, "print the compiled plan (placements and stages)")
	dot := flag.Bool("dot", false, "print the placed logical DAG in Graphviz format")
	sample := flag.Int("sample", 5, "output records to print")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON of the run to this file (\"-\" for stdout)")
	timelineOut := flag.String("timeline", "", "write a plain-text per-stage timeline to this file (\"-\" for stdout)")
	reportOut := flag.String("report", "", "write the analyzer report JSON (critical path, eviction costs, stage latencies) to this file (\"-\" for stdout); render it with padoreport")
	chaosPlan := flag.String("chaos", "", "run under the scripted fault schedule in this plan JSON file (see examples/chaos/)")
	heartbeat := flag.Duration("heartbeat", 0, "executor heartbeat period for the failure detector (0 = default 100ms)")
	suspectAfter := flag.Duration("suspect-after", 0, "heartbeat staleness that marks a node suspect (0 = 4x heartbeat)")
	deadAfter := flag.Duration("dead-after", 0, "heartbeat staleness that declares a node dead and triggers recovery; raise on loaded hosts to avoid false positives (0 = 15x heartbeat)")
	rpcDeadline := flag.Duration("rpc-deadline", 0, "per-attempt deadline on data-plane RPCs (0 = no deadline; recovery then relies on heartbeats)")
	noDetector := flag.Bool("no-detector", false, "disable heartbeats and the failure detector (announced failures only)")
	noRPCPolicy := flag.Bool("no-rpc-policy", false, "disable the RPC retry/backoff/breaker layer")
	incremental := flag.Bool("incremental", false,
		"pado engine only: prime a commit store with one identical run, then run (and report) "+
			"the incremental rerun against it — unchanged stages and tasks are served from the store")
	delta := flag.Float64("delta", 0,
		"with -incremental: fraction of the MR input partitions changed between the priming "+
			"run and the rerun (0 = identical input)")
	flag.Parse()

	prof, err := shared.StartProfile()
	if err != nil {
		fatalf("%v", err)
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			fatalf("%v", err)
		}
	}()

	p, err := shared.Params()
	if err != nil {
		fatalf("%v", err)
	}
	if *delta != 0 && !*incremental {
		fatalf("-delta only makes sense with -incremental")
	}
	p.InputDelta = *delta
	p.Failure.DisableDetector = *noDetector
	p.Failure.HeartbeatEvery = *heartbeat
	p.Failure.SuspectAfter = *suspectAfter
	p.Failure.DeadAfter = *deadAfter
	p.Failure.DisableRPCPolicy = *noRPCPolicy
	p.Failure.RPCDeadline = *rpcDeadline
	if *chaosPlan != "" {
		if p.Chaos, err = chaos.Load(*chaosPlan); err != nil {
			fatalf("chaos: %v", err)
		}
	}
	p.ForceTrace = *traceOut != "" || *timelineOut != "" || *reportOut != ""

	if *showPlan || *dot {
		plan, err := p.Plan()
		if err != nil {
			fatalf("compile: %v", err)
		}
		if *dot {
			fmt.Println(plan.Graph.DOT())
		}
		if *showPlan {
			printPlan(plan)
		}
	}

	var out harness.Outcome
	if *incremental {
		inc, err := harness.RunIncremental(p)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "primed commit store: %v wall, %d manifests, %d chunks, %d bytes\n",
			inc.Prime.Metrics.JCT.Round(time.Millisecond), inc.Store.Manifests, inc.Store.Chunks, inc.Store.UsedBytes)
		out = inc.Rerun
	} else if out, err = harness.Run(p); err != nil {
		fatalf("run: %v", err)
	}

	for _, exp := range []struct {
		path  string
		write func(io.Writer) error
	}{
		{*traceOut, func(w io.Writer) error { return obs.WriteChromeTrace(w, out.Events, p.Scale) }},
		{*timelineOut, func(w io.Writer) error { return obs.WriteTimeline(w, out.Events, p.Scale) }},
		{*reportOut, func(w io.Writer) error { return out.Report().WriteJSON(w) }},
	} {
		if exp.path != "" {
			if err := harness.WriteExport(exp.path, exp.write); err != nil {
				fatalf("export %s: %v", exp.path, err)
			}
		}
	}

	snap := out.Metrics
	fmt.Printf("engine=%s workload=%s rate=%s: jct=%.1f paper-min (%v wall), evictions=%d, relaunched=%d\n",
		strings.ToLower(p.Engine.String()), strings.ToLower(p.Workload.String()), p.Rate,
		out.JCTMinutes, snap.JCT.Round(time.Millisecond), snap.Evictions, snap.RelaunchedTasks)
	if *incremental {
		fmt.Printf("incremental rerun (delta=%.0f%%): %d/%d probes hit, %d stages + %d tasks skipped, "+
			"%d tasks of compute avoided, %dB served from the commit store\n",
			*delta*100,
			snap.Named[metrics.NameCommitHits], snap.Named[metrics.NameCommitProbes],
			snap.Named[metrics.NameStagesSkipped], snap.Named[metrics.NameTasksSkipped],
			snap.Named[metrics.NameComputeAvoidedTasks], snap.Named[metrics.NameCASBytesServed])
	}
	for _, inj := range out.Injections {
		fmt.Printf("chaos injected: %s\n", inj)
	}
	if out.Chaos != nil {
		fmt.Println(out.Chaos)
		fmt.Printf("chaos digest: %s\n", out.Chaos.Digest(chaos.Canonical(out.Outputs)))
	}
	for vid, recs := range out.Outputs {
		fmt.Printf("output vertex %d: %d records\n", vid, len(recs))
		sort.Slice(recs, func(i, j int) bool {
			return fmt.Sprint(recs[i].Key) < fmt.Sprint(recs[j].Key)
		})
		for i := 0; i < *sample && i < len(recs); i++ {
			fmt.Printf("  %v\n", summarize(recs[i]))
		}
	}
	if out.TimedOut {
		fatalf("FAIL: run timed out after %.0f paper minutes", out.JCTMinutes)
	}
}

func summarize(r data.Record) string {
	if v, ok := r.Value.([]float64); ok && len(v) > 4 {
		return fmt.Sprintf("(%v, [%.3f %.3f ... %d values])", r.Key, v[0], v[1], len(v))
	}
	return r.String()
}

func printPlan(plan *core.Plan) {
	g := plan.Graph
	fmt.Printf("operator placement (policy %s):\n", plan.Policy)
	order, _ := g.TopoSort()
	for _, id := range order {
		v := g.Vertex(id)
		fmt.Printf("  %-28s %-10s parallelism=%d\n", v.Name, v.Placement, v.Parallelism)
	}
	fmt.Println("stages (Algorithm 2):")
	for _, ps := range plan.Stages {
		kind := "reserved-root"
		if !ps.RootReserved {
			kind = "terminal-transient"
		}
		fmt.Printf("  stage %d: root=%s (%s, %d tasks), %d fragment(s), %d cross-stage input(s)\n",
			ps.ID, g.Vertex(ps.Root).Name, kind, ps.RootParallelism, len(ps.Fragments), len(ps.Inputs))
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
