package main

import (
	"context"
	"fmt"
	"math"
	goruntime "runtime"
	"time"

	"pado/internal/cluster"
	"pado/internal/core"
	"pado/internal/data"
	"pado/internal/dataflow"
	"pado/internal/metrics"
	"pado/internal/obs"
	"pado/internal/runtime"
	"pado/internal/simnet"
	"pado/internal/storage"
	"pado/internal/trace"
	"pado/internal/vtime"
	"pado/internal/workloads"
)

// The benchmark cell is the evaluation harness's 8-transient + 2-reserved
// cell with one change: a constant time dilation per workload. Every
// modelled rate (executor CPU, node bandwidths) is divided by the
// dilation and the paper minute is multiplied by it, so the compute :
// transfer : eviction ratios stay the harness's while the host stays idle
// enough that wall-clock JCT is set by the model rather than by the
// host's spare cores. Network latency and the engine's internal timers
// (heartbeats, RPC backoff, breakers) keep their program values, so
// changes to them still show.
const (
	transient  = 8
	reserved   = 2
	slots      = 4
	cpuRate    = 200_000 // records/s per executor before dilation
	nodeBW     = 3 << 20 // bytes/s per transient or reserved node before dilation
	masterBW   = 6 << 20
	netLatency = 500 * time.Microsecond
	// paperMinute is the harness's default wall time per paper minute.
	paperMinute = 60 * time.Millisecond
	// deadlineMinutes bounds one job; a job that passes it counts as failed.
	deadlineMinutes = 90

	// deltaFrac is the share of MR input partitions mr-delta re-salts
	// before each rerun.
	deltaFrac = 0.02
	// mlrSize scales MLR's samples per partition.
	mlrSize = 0.5
	// mlrTolerance is the chaos suite's bound on model drift against
	// MLRReference.
	mlrTolerance = 1e-9
)

// clusterSeed is job k's cluster seed. It does not depend on the workload
// seed, so every run replays the same eviction draws and runs of the same
// code differ only by timing.
func clusterSeed(k int) int64 { return 1_000_003 + int64(k)*7919 }

// job is one prepared run: a compiled plan, the input records its
// transient tasks must process (the roofline's compute volume), and the
// reference check of its output.
type job struct {
	plan    *core.Plan
	records int64
	check   func(*runtime.Result) error
}

// tasks counts the plan's tasks: every fragment task plus each reserved
// root task.
func (j job) tasks() int {
	n := 0
	for _, s := range j.plan.Stages {
		for _, f := range s.Fragments {
			n += f.Parallelism
		}
		if s.RootReserved {
			n += s.RootParallelism
		}
	}
	return n
}

// cell is one workload's set-up state: the generated inputs behind a
// job factory, and the commit store on mr-delta.
type cell struct {
	rate     trace.Rate
	dilation int64
	store    *storage.CommitStore
	// next prepares job k (k = 0 is the warm-up) outside the JCT clock,
	// under span parent.
	next func(k, parent int) (job, error)
	sp   *spans
}

// newCell generates one workload's inputs from seed, compiles its plan
// and, on mr-delta, primes a commit store with a full run. Each
// workload's dilation is the smallest power of two at which a busy loop
// on one of a 2-core host's cores moves its JCT median by about 1% or
// less (NOTES.md).
func newCell(name string, seed int64, sp *spans, parent int) (*cell, error) {
	c := &cell{sp: sp}
	switch name {
	case "mr":
		c.rate, c.dilation = trace.RateNone, 4
		in := genMR(seed, sp, parent)
		j, err := c.mrJob(in, in.cfg, parent)
		if err != nil {
			return nil, err
		}
		c.next = func(int, int) (job, error) { return j, nil }
	case "mr-evict":
		c.rate, c.dilation = trace.RateHigh, 4
		in := genMR(seed, sp, parent)
		j, err := c.mrJob(in, in.cfg, parent)
		if err != nil {
			return nil, err
		}
		c.next = func(int, int) (job, error) { return j, nil }
	case "mlr-evict":
		// Not in BENCHMARK.json: about one job in 200 hangs to its
		// deadline on a stage with no inputs (NOTES.md, defect 4). It
		// stays runnable to reproduce that defect and to check a fix.
		c.rate, c.dilation = trace.RateHigh, 1
		j, err := c.mlrJob(seed, parent)
		if err != nil {
			return nil, err
		}
		c.next = func(int, int) (job, error) { return j, nil }
	case "mr-delta":
		c.rate, c.dilation = trace.RateNone, 2
		in := genMR(seed, sp, parent)
		id := sp.begin("storage.NewCommitStore", parent)
		c.store = storage.NewCommitStore()
		sp.end(id)
		base, err := c.mrJob(in, in.cfg, parent)
		if err != nil {
			return nil, err
		}
		id = sp.begin("prime", parent)
		o := c.run(base, clusterSeed(-1), nil, id)
		sp.end(id)
		if o.err != nil {
			return nil, fmt.Errorf("priming run: %w", o.err)
		}
		c.next = func(k, parent int) (job, error) {
			cfg := in.cfg
			cfg.DeltaFrac = deltaFrac
			cfg.DeltaSalt = int64(k) + 1
			return c.mrJob(in, cfg, parent)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want mr, mr-evict, mr-delta or mlr-evict)", name)
	}
	return c, nil
}

func (c *cell) scale() vtime.Scale { return vtime.NewScale(time.Duration(c.dilation) * paperMinute) }

func (c *cell) clusterConfig(seed int64) cluster.Config {
	return cluster.Config{
		Transient:        transient,
		Reserved:         reserved,
		Slots:            slots,
		CPURecordsPerSec: cpuRate / c.dilation,
		TransientBW:      nodeBW / c.dilation,
		ReservedBW:       nodeBW / c.dilation,
		MasterBW:         masterBW / c.dilation,
		Latency:          netLatency,
		Lifetimes:        trace.Lifetimes(c.rate),
		Scale:            c.scale(),
		MinLifetime:      c.scale().Wall(0.5),
		Seed:             seed,
	}
}

// bounds is the job's roofline: its input records over the transient
// executors' CPU rate, and the bytes the reserved nodes received over
// their ingress bandwidth.
func (c *cell) bounds(j job, o outcome) (cpu, net time.Duration) {
	cpu = time.Duration(float64(j.records) / float64(transient*cpuRate/c.dilation) * 1e9)
	net = time.Duration(float64(o.ingress) / float64(reserved*nodeBW/c.dilation) * 1e9)
	return cpu, net
}

// mrInputs holds MR's clean input partitions, generated once.
type mrInputs struct {
	cfg   workloads.MRConfig
	parts [][]data.Record
	fps   []string
}

func genMR(seed int64, sp *spans, parent int) *mrInputs {
	id := sp.begin("inputs", parent)
	defer sp.end(id)
	cfg := workloads.DefaultMRConfig()
	cfg.Seed = seed
	gen := workloads.MRSource(cfg).(*dataflow.FuncSource)
	in := &mrInputs{cfg: cfg, parts: make([][]data.Record, cfg.Partitions), fps: make([]string, cfg.Partitions)}
	for p := range in.parts {
		in.parts[p] = gen.Gen(p)
		in.fps[p] = gen.Fingerprint(p)
	}
	return in
}

// mrJob compiles MR over cfg's input, served from the pre-generated
// partitions except those whose MRSource fingerprint differs from the
// clean input's (mr-delta's re-salted ones), which are generated here.
// Against a commit store only those changed partitions need computing.
func (c *cell) mrJob(in *mrInputs, cfg workloads.MRConfig, parent int) (job, error) {
	id := c.sp.begin("prepare", parent)
	defer c.sp.end(id)
	gen := workloads.MRSource(cfg).(*dataflow.FuncSource)
	parts := append([][]data.Record(nil), in.parts...)
	var records int64
	for p := range parts {
		if gen.Fingerprint(p) != in.fps[p] {
			parts[p] = gen.Gen(p)
			records += int64(len(parts[p]))
		}
	}
	if c.store == nil {
		records = int64(cfg.Partitions * cfg.LinesPerPart)
	}
	src := &dataflow.FuncSource{
		Partitions:  cfg.Partitions,
		Gen:         func(p int) []data.Record { return parts[p] },
		Fingerprint: gen.Fingerprint,
	}
	plan, err := c.compile(workloads.MR(cfg), src, id)
	if err != nil {
		return job{}, err
	}
	rid := c.sp.begin("reference", id)
	want := workloads.MRReference(cfg)
	c.sp.end(rid)
	return job{plan: plan, records: records, check: func(res *runtime.Result) error {
		return checkMR(res, want)
	}}, nil
}

func (c *cell) mlrJob(seed int64, parent int) (job, error) {
	cfg := workloads.DefaultMLRConfig()
	cfg.Seed = seed
	cfg.SamplesPerPart = int(float64(cfg.SamplesPerPart) * mlrSize)
	// Pado runs the Figure 3(b) program: transient-side partial
	// aggregation plays the role of MLlib's tree level.
	cfg.TreeWidth = 0
	id := c.sp.begin("inputs", parent)
	gen := workloads.MLRSource(cfg).(*dataflow.FuncSource)
	parts := make([][]data.Record, cfg.Partitions)
	for p := range parts {
		parts[p] = gen.Gen(p)
	}
	c.sp.end(id)
	src := &dataflow.FuncSource{Partitions: cfg.Partitions, Gen: func(p int) []data.Record { return parts[p] }}
	id = c.sp.begin("reference", parent)
	want := workloads.MLRReference(cfg)
	c.sp.end(id)
	plan, err := c.compile(workloads.MLR(cfg), src, parent)
	if err != nil {
		return job{}, err
	}
	// Every iteration's gradient tasks pass over the whole input.
	records := int64(cfg.Partitions * cfg.SamplesPerPart * cfg.Iterations)
	return job{plan: plan, records: records, check: func(res *runtime.Result) error {
		return checkMLR(res, want)
	}}, nil
}

// compile swaps the pipeline's read source for src and compiles it.
func (c *cell) compile(p *dataflow.Pipeline, src dataflow.Source, parent int) (*core.Plan, error) {
	g := p.Graph()
	swapped := 0
	for _, v := range g.Vertices() {
		if op, ok := v.Op.(*dataflow.ReadOp); ok {
			op.Source = src
			swapped++
		}
	}
	if swapped != 1 {
		return nil, fmt.Errorf("pipeline has %d read operators, want 1", swapped)
	}
	id := c.sp.begin("core.Compile", parent)
	plan, err := core.Compile(g, c.planConfig())
	c.sp.end(id)
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	return plan, nil
}

func (c *cell) planConfig() core.PlanConfig {
	return core.PlanConfig{
		// Pado concentrates reduce tasks on the reserved containers.
		ReduceParallelism: 2 * reserved,
		Env:               c.clusterConfig(0).PlacementEnv(),
	}
}

func (c *cell) runtimeConfig(tracer *obs.Tracer) runtime.Config {
	return runtime.Config{
		Plan:        c.planConfig(),
		Tracer:      tracer,
		AggMaxDelay: c.scale().Wall(0.1),
		Commits:     c.store,
		// Partially aggregated frames are not content-stable, so a
		// commit store needs raw boundaries.
		DisablePartialAggregation: c.store != nil,
	}
}

// outcome is one job's measurements. err is nil only when the job
// finished within its deadline with the reference output.
type outcome struct {
	jct     time.Duration
	cpu     time.Duration
	alloc   uint64
	gcs     uint32
	ingress int64 // bytes received by the reserved nodes
	snap    metrics.Snapshot
	err     error
	// wrong marks an err that is an output differing from the reference.
	wrong bool
}

// run executes j on a fresh cluster, timing runtime.RunPlan, and checks
// its output.
func (c *cell) run(j job, seed int64, tracer *obs.Tracer, parent int) outcome {
	id := c.sp.begin("cluster.New", parent)
	cl, err := cluster.New(c.clusterConfig(seed))
	c.sp.end(id)
	if err != nil {
		return outcome{err: fmt.Errorf("cluster: %w", err)}
	}
	cfg := c.runtimeConfig(tracer)
	var resv []*simnet.Node
	cfg.OnManager = func(*runtime.JobManager) {
		for _, ct := range cl.Containers(cluster.Reserved) {
			resv = append(resv, ct.Node)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.scale().Wall(deadlineMinutes))
	defer cancel()

	var ms0, ms1 goruntime.MemStats
	goruntime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	id = c.sp.begin("runtime.RunPlan", parent)
	t0 := time.Now()
	res, err := runtime.RunPlan(ctx, cl, j.plan, cfg)
	o := outcome{jct: time.Since(t0)}
	c.sp.end(id)
	o.cpu = cpuTime() - cpu0
	goruntime.ReadMemStats(&ms1)
	o.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	o.gcs = ms1.NumGC - ms0.NumGC
	for _, n := range resv {
		o.ingress += n.BytesRecv()
	}
	switch {
	case err != nil:
		o.err = err
	case res.Metrics.TimedOut:
		o.snap = res.Metrics
		o.err = fmt.Errorf("timed out after %v", c.scale().Wall(deadlineMinutes))
	default:
		o.snap = res.Metrics
		id = c.sp.begin("check", parent)
		if err := j.check(res); err != nil {
			o.err = fmt.Errorf("wrong output: %w", err)
			o.wrong = true
		}
		c.sp.end(id)
	}
	return o
}

func checkMR(res *runtime.Result, want map[string]int64) error {
	seen := 0
	for _, recs := range res.Outputs {
		for _, r := range recs {
			doc, ok1 := r.Key.(string)
			n, ok2 := r.Value.(int64)
			if !ok1 || !ok2 {
				return fmt.Errorf("output record %v has the wrong types", r)
			}
			w, ok := want[doc]
			if !ok || w != n {
				return fmt.Errorf("output %s=%d, reference %d (present %v)", doc, n, w, ok)
			}
			seen++
		}
	}
	if seen != len(want) {
		return fmt.Errorf("output has %d documents, reference %d", seen, len(want))
	}
	return nil
}

func checkMLR(res *runtime.Result, want []float64) error {
	var model []float64
	n := 0
	for _, recs := range res.Outputs {
		for _, r := range recs {
			n++
			model, _ = r.Value.([]float64)
		}
	}
	if n != 1 || len(model) != len(want) {
		return fmt.Errorf("output has %d records, model length %d; want 1 record of length %d", n, len(model), len(want))
	}
	for i := range want {
		if d := math.Abs(model[i] - want[i]); !(d <= mlrTolerance) {
			return fmt.Errorf("model[%d]=%g, reference %g", i, model[i], want[i])
		}
	}
	return nil
}
