// Command perfbench is the repository's benchmark. One process runs one
// workload on the dilated evaluation cell (see cell.go): it generates the
// inputs from -seed, sets up, runs jobs one after another for -seconds,
// checks every job's output against the internal/workloads reference, and
// prints every metric by name with its unit. The last line of its output
// is one JSON object with the end-to-end metrics (-trace 0) or the
// per-layer metrics (-trace 1), which adds a separate traced run.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench -workload mr|mr-evict|mr-delta|mlr-evict -seed N -seconds S -trace 0|1
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pado/internal/metrics"
	"pado/internal/obs"
	"pado/internal/obs/analyze"
)

const (
	// setupReps is how often a run sets up; setup_s is the median.
	setupReps = 3
	// tracedJobs is the size of the traced run; cp.* are medians over it.
	tracedJobs = 3
	// maxCPUPerWall is the host share above which JCT stops measuring the
	// model: the simulated cluster then waits for the host's cores.
	maxCPUPerWall = 0.5
)

func main() {
	name := flag.String("workload", "", "workload: mr, mr-evict, mr-delta or mlr-evict")
	seed := flag.Int64("seed", 1, "workload seed; the inputs are generated from it")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds")
	traced := flag.Int("trace", 0, "1 adds a traced run and reports the per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"),
		"directory for the traced run's span file and analyzer reports")
	flag.Parse()
	if *seconds <= 0 || (*traced != 0 && *traced != 1) || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	r, err := bench(*name, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r.print(os.Stdout, *traced == 1)
}

type metric struct {
	name  string
	value float64
	unit  string
}

// result is one run's verdict and metrics.
type result struct {
	attempted, failed int
	// wrong is set when a finished job's output differed from its
	// reference.
	wrong bool
	jobs  int
	e2e   []metric
	layer []metric
	cp    []string // one line per traced job
}

// record counts one job attempt and prints its failure cause.
func (r *result) record(what string, o outcome) {
	r.attempted++
	if o.err != nil {
		r.failed++
		r.wrong = r.wrong || o.wrong
		fmt.Fprintf(os.Stdout, "FAIL %s: %v\n", what, o.err)
	}
}

// jobRec is one timed job: its measurements, its task count and its
// roofline.
type jobRec struct {
	o                  outcome
	tasks              int
	boundCPU, boundNet time.Duration
}

func bench(name string, seed int64, dur time.Duration, traced bool, outDir string) (*result, error) {
	sp := newSpans()
	r := &result{}

	// Set up setupReps times; the last set-up's state serves the jobs.
	var c *cell
	var setups []float64
	for i := 0; i < setupReps; i++ {
		// Collect the previous set-up's state first, so that peak RSS
		// does not depend on when the collector would have run.
		c = nil
		runtime.GC()
		id := sp.begin("setup", 0)
		t0 := time.Now()
		var err error
		if c, err = newCell(name, seed, sp, id); err != nil {
			return nil, err
		}
		j, err := c.next(0, id)
		if err != nil {
			return nil, err
		}
		wid := sp.begin("warmup", id)
		r.record("warm-up job", c.run(j, clusterSeed(0), nil, wid))
		sp.end(wid)
		sp.end(id)
		// Computing the references and checking outputs against them is
		// the benchmark's own work, not the system's set-up.
		setups = append(setups, (time.Since(t0) - sp.within(id, "reference", "check")).Seconds())
	}

	var jobs []jobRec
	start := time.Now()
	k := 1
	for ; k == 1 || time.Since(start) < dur; k++ {
		id := sp.begin("job", 0)
		j, err := c.next(k, id)
		if err != nil {
			return nil, err
		}
		o := c.run(j, clusterSeed(k), nil, id)
		sp.end(id)
		r.record(fmt.Sprintf("job %d", k), o)
		fmt.Printf("job %d: jct %.3fs cpu %.3fs evictions %d launched %d relaunched %d gc %d\n", k, o.jct.Seconds(),
			o.cpu.Seconds(), o.snap.Evictions, o.snap.OriginalTasks, o.snap.RelaunchedTasks, o.gcs)
		bc, bn := c.bounds(j, o)
		jobs = append(jobs, jobRec{o: o, tasks: j.tasks(), boundCPU: bc, boundNet: bn})
	}
	r.jobs = len(jobs)
	r.e2e, r.layer = jobMetrics(jobs, setups, sp.seconds("core.Compile"), sp.seconds("prime"))

	if traced {
		tm, err := tracedRun(name, seed, c, k, r.e2e[0].value, sp, r, outDir)
		if err != nil {
			return nil, err
		}
		r.layer = append(r.layer, tm...)
		base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", name, seed))
		if err := sp.save(base + ".spans.json"); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// jobMetrics derives the end-to-end metrics and the counter-based
// per-layer metrics from the timed jobs.
func jobMetrics(jobs []jobRec, setups, compiles, primes []float64) (e2e, layer []metric) {
	n := float64(len(jobs))
	var jcts, bounds, boundCPU, boundNet []float64
	var cpu, wall time.Duration
	var tasks, launched, failed, alloc, gcs, ingress float64
	named := map[string]float64{}
	var pushed, evictions, hits, misses float64
	for _, jr := range jobs {
		o := jr.o
		cpu += o.cpu
		wall += o.jct
		alloc += float64(o.alloc)
		gcs += float64(o.gcs)
		ingress += float64(o.ingress)
		jct := o.jct.Seconds()
		if o.err != nil {
			failed++
			jct = math.Inf(1)
		}
		jcts = append(jcts, jct)
		boundCPU = append(boundCPU, jr.boundCPU.Seconds())
		boundNet = append(boundNet, jr.boundNet.Seconds())
		bounds = append(bounds, max(jr.boundCPU, jr.boundNet).Seconds())
		s := o.snap
		if s.OriginalTasks > 0 { // a job that errored may report no counters
			tasks += float64(jr.tasks)
		}
		launched += float64(s.OriginalTasks + s.RelaunchedTasks - s.Named[metrics.NameTasksSkipped])
		for k, v := range s.Named {
			named[k] += float64(v)
		}
		pushed += float64(s.BytesPushed)
		evictions += float64(s.Evictions)
		hits += float64(s.CacheHits)
		misses += float64(s.CacheMisses)
	}
	const mib = 1 << 20
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	p50 := median(jcts)
	e2e = []metric{
		{"jct_p50_s", p50, "s"},
		{"launch_ratio", ratio(launched, tasks), "ratio"},
		{"ok_ratio", (n - failed) / n, "ratio"},
		{"setup_s", median(setups), "s"},
		{"max_rss_mb", float64(ru.Maxrss) / 1024, "MB"},
	}
	layer = []metric{
		{"fail_ratio", failed / n, "ratio"},
		{"cpu_s_per_job", cpu.Seconds() / n, "s"},
		{"core.compile_ms", median(compiles) * 1000, "ms"},
		{"runtime.sched_rounds_per_task", ratio(named[metrics.NameSchedRounds], launched), "count"},
		{"runtime.pushed_mb_per_job", pushed / mib / n, "MB"},
		{"runtime.conn_reuse_ratio", ratio(named[metrics.NameConnReuses], named[metrics.NameConnReuses]+named[metrics.NameConnDials]), "ratio"},
		{"runtime.rpc_retries_per_job", named[metrics.NameRPCRetries] / n, "count"},
		{"runtime.rpc_backoff_s_per_job", named[metrics.NameRPCBackoffNS] / 1e9 / n, "s"},
		{"runtime.breaker_opens_per_job", named[metrics.NameBreakerOpens] / n, "count"},
		{"runtime.declared_dead_per_job", named[metrics.NameNodesDeclaredDead] / n, "count"},
		{"cluster.evictions_per_job", evictions / n, "count"},
		{"recache.hit_ratio", ratio(hits, hits+misses), "ratio"},
		{"cas.probe_hit_ratio", ratio(named[metrics.NameCommitHits], named[metrics.NameCommitProbes]), "ratio"},
		{"cas.tasks_skipped_ratio", ratio(named[metrics.NameTasksSkipped], tasks), "ratio"},
		{"cas.served_mb_per_job", named[metrics.NameCASBytesServed] / mib / n, "MB"},
		{"cas.written_mb_per_job", named[metrics.NameCASBytesWritten] / mib / n, "MB"},
		{"cas.prime_s", median(primes), "s"},
		{"simnet.reserved_ingress_mb_per_job", ingress / mib / n, "MB"},
		{"bound.cpu_s", median(boundCPU), "s"},
		{"bound.net_s", median(boundNet), "s"},
		{"jct_over_bound", p50 / median(bounds), "ratio"},
		{"go.alloc_mb_per_job", alloc / mib / n, "MB"},
		{"go.gc_per_job", gcs / n, "count"},
		{"host.cpu_per_wall", cpu.Seconds() / wall.Seconds(), "ratio"},
	}
	return e2e, layer
}

// tracedRun runs tracedJobs more jobs with the obs tracer on, analyzes
// each with analyze.Analyze, saves the reports under outDir and returns
// the critical-path, waste and stage metrics as medians over the jobs.
// untracedP50 is the timed jobs' JCT median, the base of
// trace.overhead_ratio.
func tracedRun(name string, seed int64, c *cell, k int, untracedP50 float64, sp *spans, r *result, outDir string) ([]metric, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	vals := map[string][]float64{}
	add := func(name string, v float64) { vals[name] = append(vals[name], v) }
	for t := 0; t < tracedJobs; t++ {
		id := sp.begin("traced-job", 0)
		j, err := c.next(k+t, id)
		if err != nil {
			return nil, err
		}
		tracer := obs.New()
		o := c.run(j, clusterSeed(1+t), tracer, id)
		r.record(fmt.Sprintf("traced job %d", t), o)
		aid := sp.begin("analyze.Analyze", id)
		parents := map[int][]int{}
		for _, s := range j.plan.Stages {
			parents[s.ID] = s.Parents
		}
		snap := o.snap
		rep := analyze.Analyze(tracer.Events(), analyze.Options{
			StageParents: parents,
			Scale:        analyze.ScaleInfo{WallPerMinute: c.scale().WallPerMinute},
			Engine:       "pado",
			Workload:     name,
			Rate:         c.rate.String(),
			Seed:         seed,
			Snapshot:     &snap,
		})
		sp.end(aid)
		sp.end(id)
		if err := rep.Save(filepath.Join(outDir, fmt.Sprintf("%s-seed%d-traced%d.report.json", name, seed, t))); err != nil {
			return nil, err
		}

		byNote := map[string]int64{}
		for _, s := range rep.CritPath.Segments {
			byNote[s.Note] += s.EndNS - s.StartNS
		}
		add("cp.task_queue_s", float64(byNote["task_queue"])/1e9)
		add("cp.compute_s", float64(rep.CritPath.Class(analyze.ClassCompute))/1e9)
		add("cp.push_s", float64(rep.CritPath.Class(analyze.ClassPush))/1e9)
		add("cp.relaunch_s", float64(rep.CritPath.Class(analyze.ClassRelaunch))/1e9)
		add("cp.receiver_pull_s", float64(byNote["receiver_pull"])/1e9)
		add("cp.receiver_merge_s", float64(byNote["receiver_merge"])/1e9)
		var p95 int64
		for _, s := range rep.Stages {
			p95 = max(p95, s.P95NS)
		}
		add("stage.task_p95_ms", float64(p95)/1e6)
		w := rep.Waste
		add("waste.compute_s", float64(w.ComputeLostNS+w.FailureComputeLostNS+w.RestartComputeLostNS)/1e9)
		add("waste.pushed_mb", float64(w.BytesLost)/(1<<20))
		jct := o.jct.Seconds()
		if o.err != nil {
			jct = math.Inf(1)
		}
		add("trace.overhead_ratio", jct/untracedP50)
		add("trace.cp_over_jct", float64(rep.CritPath.TotalNS)/float64(o.jct))
		r.cp = append(r.cp, cpLine(t, o, rep, byNote))
	}
	ms := []metric{
		{"cp.task_queue_s", 0, "s"},
		{"cp.compute_s", 0, "s"},
		{"cp.push_s", 0, "s"},
		{"cp.relaunch_s", 0, "s"},
		{"cp.receiver_pull_s", 0, "s"},
		{"cp.receiver_merge_s", 0, "s"},
		{"stage.task_p95_ms", 0, "ms"},
		{"waste.compute_s", 0, "s"},
		{"waste.pushed_mb", 0, "MB"},
		{"trace.overhead_ratio", 0, "ratio"},
		{"trace.cp_over_jct", 0, "ratio"},
	}
	for i := range ms {
		ms[i].value = median(vals[ms[i].name])
	}
	return ms, nil
}

// cpLine summarizes one traced job's critical path: its share by class
// and its three largest segment kinds.
func cpLine(t int, o outcome, rep *analyze.Report, byNote map[string]int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "traced job %d: jct %.3fs, critical path %.3fs:", t, o.jct.Seconds(), float64(rep.CritPath.TotalNS)/1e9)
	for _, cs := range rep.CritPath.ByClass {
		fmt.Fprintf(&b, " %s %.0f%%", cs.Class, cs.Frac*100)
	}
	type kv struct {
		note string
		ns   int64
	}
	var top []kv
	for n, ns := range byNote {
		top = append(top, kv{n, ns})
	}
	sort.Slice(top, func(i, j int) bool {
		return top[i].ns > top[j].ns || top[i].ns == top[j].ns && top[i].note < top[j].note
	})
	b.WriteString("; largest:")
	for i := 0; i < len(top) && i < 3; i++ {
		fmt.Fprintf(&b, " %s %.0f%%", top[i].note, 100*float64(top[i].ns)/float64(rep.CritPath.TotalNS))
	}
	return b.String()
}

// print writes every metric as a "name value unit" line, then the JSON
// result line: the end-to-end metrics, or the per-layer ones when traced.
func (r *result) print(w io.Writer, traced bool) {
	fmt.Fprintf(w, "jobs timed: %d (attempted %d with set-up and traced jobs, failed %d)\n", r.jobs, r.attempted, r.failed)
	for _, l := range r.cp {
		fmt.Fprintln(w, l)
	}
	for _, m := range append(append([]metric(nil), r.e2e...), r.layer...) {
		fmt.Fprintf(w, "%-36s %14s %s\n", m.name, num(m.value), m.unit)
	}
	for _, m := range r.layer {
		if m.name == "host.cpu_per_wall" && m.value > maxCPUPerWall {
			fmt.Fprintf(os.Stderr, "perfbench: warning: host.cpu_per_wall %.2f > %.1f core: JCT measures the host, not the model\n", m.value, maxCPUPerWall)
		}
	}
	ms := r.e2e
	if traced {
		ms = r.layer
	}
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`, !r.wrong, r.attempted, r.failed)
	for i, m := range ms {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, `%q: {"value": %s, "unit": %q}`, m.name, num(m.value), m.unit)
	}
	b.WriteString("}}")
	fmt.Fprintln(w, b.String())
}

// num formats v with all its digits. A median over failed jobs is +Inf,
// which standard JSON cannot express; it is written as the Infinity
// literal that Python's json module reads.
func num(v float64) string {
	if math.IsInf(v, 1) {
		return "Infinity"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// median of vs (0 for none). +Inf entries sort last.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
