package sparklike

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"pado/internal/dag"
	"pado/internal/data"
	"pado/internal/dataflow"
	"pado/internal/exec"
	"pado/internal/metrics"
	"pado/internal/obs"
	"pado/internal/recache"
	"pado/internal/simnet"
	"pado/internal/storage"
)

// Block fetch wire protocol (the engine's only data-plane RPC; shuffles
// are pull-based).
const (
	frameFetch = 'F'
	respOK     = 'K'
	respNo     = 'N'
)

var errBlockNotFound = errors.New("sparklike: block not found")

// storageLoc is the location sentinel for checkpointed blocks; the task
// spec carries each such block's content address.
const storageLoc = "@storage"

// driverLoc is the location of driver-resident stage outputs.
const driverLoc = "master"

func wholeID(stage, part int) string { return fmt.Sprintf("sw/%d/%d", stage, part) }
func bucketID(stage, part int, consumer dag.VertexID, bucket int) string {
	return fmt.Sprintf("sb/%d/%d/%d/%d", stage, part, consumer, bucket)
}

// inputBlockID names the block task `task` reads from partition part of
// its input si: a shuffle bucket, or the whole partition.
func inputBlockID(si SInput, part, task int) string {
	if si.Dep == dag.ManyToMany {
		return bucketID(si.FromStage, part, si.ToOp, task)
	}
	return wholeID(si.FromStage, part)
}

// serveStore answers block-fetch requests from a local store until stop.
func serveStore(l *simnet.Listener, store *storage.LocalStore, stop <-chan struct{}) {
	for {
		conn, err := l.Accept(stop)
		if err != nil {
			return
		}
		go func(conn *simnet.Conn) {
			defer conn.Close()
			d := data.NewDecoder(conn)
			e := data.NewEncoder(conn)
			for {
				op, err := d.Byte()
				if err != nil || op != frameFetch {
					return
				}
				id, err := d.String()
				if err != nil {
					return
				}
				payload, ok := store.Get(id)
				if !ok {
					if e.Byte(respNo) != nil || e.Flush() != nil {
						return
					}
					continue
				}
				if e.Byte(respOK) != nil || e.Bytes(payload) != nil || e.Flush() != nil {
					return
				}
			}
		}(conn)
	}
}

// fetchFrom pulls a block from a peer's local store.
func fetchFrom(net *simnet.Network, from, owner, id string) ([]byte, error) {
	conn, err := net.Dial(from, owner)
	if err != nil {
		return nil, fmt.Errorf("fetch %q from %s: %w", id, owner, err)
	}
	defer conn.Close()
	e := data.NewEncoder(conn)
	if err := e.Byte(frameFetch); err != nil {
		return nil, err
	}
	if err := e.String(id); err != nil {
		return nil, err
	}
	if err := e.Flush(); err != nil {
		return nil, err
	}
	d := data.NewDecoder(conn)
	resp, err := d.Byte()
	if err != nil {
		return nil, fmt.Errorf("fetch %q from %s: %w", id, owner, err)
	}
	if resp != respOK {
		return nil, fmt.Errorf("fetch %q from %s: %w", id, owner, errBlockNotFound)
	}
	return d.Bytes(0)
}

// sTaskSpec describes one task attempt handed to an executor (or run on
// the driver for parallelism-1 stages).
type sTaskSpec struct {
	Stage   int
	Index   int
	Attempt int
	// InputLocs maps parent stage id to the executor holding each
	// partition ("@storage" in checkpoint mode, "master" for driver
	// stage outputs).
	InputLocs map[int][]string
	// Chunks maps each input block read from "@storage" to its content
	// address in the commit store.
	Chunks map[string]string
}

type taskRef struct {
	Stage, Index, Attempt int
}

func (s sTaskSpec) ref() taskRef { return taskRef{Stage: s.Stage, Index: s.Index, Attempt: s.Attempt} }

// executor runs stage tasks: it fetches inputs (shuffle pulls,
// broadcasts, aligned partitions), interprets the fused operator chain,
// and materializes the output blocks in its local store — where they
// remain until pulled, and die with the container on eviction.
type executor struct {
	id     string
	node   *simnet.Node
	net    *simnet.Network
	plan   *SPlan
	cfg    Config
	met    *metrics.Job
	tr     *obs.Buf // per-executor trace buffer (nil = tracing off)
	events chan<- event
	store  *storage.LocalStore
	cache  *recache.Cache
	flight *recache.Flight
	cpu    *simnet.Limiter       // nil = unlimited compute capacity
	ck     *storage.CommitClient // non-nil in checkpoint mode

	stop     chan struct{}
	stopOnce sync.Once
}

func newExecutor(id string, node *simnet.Node, net *simnet.Network, plan *SPlan, cfg Config,
	met *metrics.Job, events chan<- event, ck *storage.CommitClient, cpu *simnet.Limiter) (*executor, error) {

	ex := &executor{
		id: id, node: node, net: net, plan: plan, cfg: cfg, met: met,
		tr:     cfg.Tracer.Buf(),
		events: events,
		store:  storage.NewLocalStore(),
		cache:  recache.New(cfg.cacheCapacity()),
		flight: recache.NewFlight(),
		cpu:    cpu,
		ck:     ck,
		stop:   make(chan struct{}),
	}
	l, err := node.Listen()
	if err != nil {
		return nil, err
	}
	go serveStore(l, ex.store, ex.stop)
	go func() {
		<-node.Down()
		ex.shutdown()
	}()
	return ex, nil
}

func (ex *executor) shutdown() {
	ex.stopOnce.Do(func() { close(ex.stop) })
}

func (ex *executor) stopped() bool {
	select {
	case <-ex.stop:
		return true
	default:
		return false
	}
}

func (ex *executor) send(ev event) {
	select {
	case ex.events <- ev:
	case <-ex.stop:
	}
}

// Launch runs a task attempt on its own goroutine.
func (ex *executor) Launch(spec sTaskSpec) {
	go func() {
		if err := runTask(taskEnv{
			execID: ex.id, net: ex.net, plan: ex.plan, cfg: ex.cfg, met: ex.met, tr: ex.tr,
			store: ex.store, cache: ex.cache, flight: ex.flight, cpu: ex.cpu, ck: ex.ck,
			stop: ex.stop, send: ex.send, stopped: ex.stopped, cacheable: true,
		}, spec); err != nil && !ex.stopped() {
			reportTaskError(ex.send, spec, ex.id, err)
		}
	}()
}

// taskEnv abstracts where a task runs: a regular executor or the driver.
type taskEnv struct {
	execID    string
	net       *simnet.Network
	plan      *SPlan
	cfg       Config
	met       *metrics.Job
	tr        *obs.Buf
	store     *storage.LocalStore
	cache     *recache.Cache
	flight    *recache.Flight
	cpu       *simnet.Limiter
	ck        *storage.CommitClient
	stop      <-chan struct{}
	send      func(event)
	stopped   func() bool
	cacheable bool
}

// fetchFailure marks a failed pull so the master can resubmit the lost
// parent partition (the lineage/cascade path). Owner names the executor
// the stale location pointed at, so the master can unregister everything
// it held, like Spark's MapOutputTracker does on a FetchFailed.
type fetchFailure struct {
	FromStage int
	Part      int
	Owner     string
	Err       error
}

func (f *fetchFailure) Error() string {
	return fmt.Sprintf("input stage %d partition %d unavailable: %v", f.FromStage, f.Part, f.Err)
}

func reportTaskError(send func(event), spec sTaskSpec, exec string, err error) {
	var ff *fetchFailure
	if errors.As(err, &ff) {
		send(evFetchFailed{ref: spec.ref(), Exec: exec, FromStage: ff.FromStage, Part: ff.Part, Owner: ff.Owner})
		return
	}
	send(evTaskFailed{ref: spec.ref(), Exec: exec, Err: err, Fatal: isFatal(err)})
}

func isFatal(err error) bool {
	for _, t := range []error{simnet.ErrNodeDown, simnet.ErrNoSuchNode, simnet.ErrConnClosed,
		simnet.ErrNotListening, simnet.ErrLimiterClosed, simnet.ErrInjected, errBlockNotFound} {
		if errors.Is(err, t) {
			return false
		}
	}
	return true
}

// runTask executes one stage task end to end.
func runTask(env taskEnv, spec sTaskSpec) error {
	st := env.plan.Stages[spec.Stage]
	g := env.plan.Graph

	in := exec.Inputs{
		Ext:   make(map[dag.VertexID]map[string][]data.Record),
		Sides: make(map[dag.VertexID]map[string][]data.Record),
		Read:  make(map[dag.VertexID]func() (dataflow.Iterator, error)),
	}
	for _, opID := range st.Ops {
		if rd, ok := g.Vertex(opID).Op.(*dataflow.ReadOp); ok {
			opID, rd := opID, rd
			in.Read[opID] = func() (dataflow.Iterator, error) { return env.openRead(st.ID, opID, rd, spec.Index) }
		}
		for _, si := range st.InputsTo(opID) {
			if err := env.fetchInput(st, si, spec, in); err != nil {
				return err
			}
		}
	}

	if env.cpu != nil {
		in.Throttle = func(records int) error { return env.cpu.Acquire(records, env.stop) }
	}
	outs, err := exec.RunFragment(g, st.Ops, in)
	if err != nil {
		return err
	}

	// Materialize output blocks.
	root := outs[st.Root]
	coder, err := dataflow.OutputCoder(g.Vertex(st.Root))
	if err != nil {
		return err
	}
	var ckBlocks []string
	if st.OutWhole {
		payload, err := data.EncodeAll(coder, root)
		if err != nil {
			return err
		}
		id := wholeID(st.ID, spec.Index)
		env.store.Put(id, payload)
		ckBlocks = append(ckBlocks, id)
	}
	for _, bs := range st.OutBuckets {
		groups := make([][]data.Record, bs.N)
		for _, r := range root {
			p := data.Partition(r.Key, bs.N)
			groups[p] = append(groups[p], r)
		}
		for b := range groups {
			payload, err := data.EncodeAll(coder, groups[b])
			if err != nil {
				return err
			}
			id := bucketID(st.ID, spec.Index, bs.Consumer, b)
			env.store.Put(id, payload)
			ckBlocks = append(ckBlocks, id)
		}
	}

	env.send(evTaskDone{ref: spec.ref(), Exec: env.execID})

	// Checkpoint mode: asynchronously copy the blocks to stable storage
	// (§5.1.2, task-level asynchronous checkpointing at shuffle
	// boundaries), one chunk put per block. The commit event fires only
	// when all copies landed, carrying each block's content address.
	if env.ck != nil && !st.Driver {
		go func() {
			env.tr.Emit(obs.Event{Kind: obs.PushStarted, Stage: spec.Stage, Task: spec.Index,
				Attempt: spec.Attempt, Exec: env.execID, Note: "checkpoint"})
			chunks := make(map[string]string, len(ckBlocks))
			for _, id := range ckBlocks {
				payload, ok := env.store.Get(id)
				if !ok {
					return // evicted mid-checkpoint
				}
				hash, err := env.ck.PutChunk(payload)
				if err != nil {
					return
				}
				chunks[id] = hash
				env.met.BytesCheckpointed.Add(int64(len(payload)))
			}
			env.send(evCheckpointed{ref: spec.ref(), chunks: chunks})
		}()
	}
	return nil
}

func (env taskEnv) openRead(stage int, opID dag.VertexID, rd *dataflow.ReadOp, part int) (dataflow.Iterator, error) {
	useCache := rd.Cached && !env.cfg.DisableCache && env.cacheable
	key := recache.Key{Vertex: opID, Partition: part}
	if useCache {
		if recs, ok := env.cache.Get(key); ok {
			env.met.CacheHits.Add(1)
			env.tr.Emit(obs.Event{Kind: obs.CacheHit, Stage: stage, Task: part,
				Exec: env.execID, Note: "read"})
			return (&dataflow.SliceSource{Parts: [][]data.Record{recs}}).Open(0)
		}
		env.met.CacheMisses.Add(1)
		env.tr.Emit(obs.Event{Kind: obs.CacheMiss, Stage: stage, Task: part,
			Exec: env.execID, Note: "read"})
	}
	it, err := rd.Source.Open(part)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	var recs []data.Record
	for {
		r, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		recs = append(recs, r)
	}
	// External reads cost real capacity, paid on actual reads only.
	if env.cpu != nil {
		cost := 1
		if rd.Cost > 0 {
			cost = rd.Cost
		}
		if err := env.cpu.Acquire(len(recs)*cost, env.stop); err != nil {
			return nil, err
		}
	}
	if useCache {
		env.cache.Put(key, recs)
		env.send(evCached{Exec: env.execID, Key: key})
	}
	return (&dataflow.SliceSource{Parts: [][]data.Record{recs}}).Open(0)
}

// fetchInput resolves one cross-stage input of a task.
func (env taskEnv) fetchInput(st *SStage, si SInput, spec sTaskSpec, in exec.Inputs) error {
	locs, ok := spec.InputLocs[si.FromStage]
	if !ok {
		return fmt.Errorf("sparklike: missing locations for stage %d", si.FromStage)
	}
	coder, err := dataflow.OutputCoder(env.plan.Graph.Vertex(si.FromVertex))
	if err != nil {
		return err
	}

	fetchOne := func(part int, id string) ([]data.Record, error) {
		// Spark-style fetch retries: the location may be stale (the
		// executor was evicted); the failure is only reported after
		// the configured retries, each preceded by a wait.
		env.tr.Emit(obs.Event{Kind: obs.FetchStarted, Stage: si.FromStage, Frag: part,
			Task: part, Exec: env.execID})
		var payload []byte
		var err error
		for attempt := 0; ; attempt++ {
			payload, err = env.fetchBlock(spec, locs[part], id)
			if err == nil {
				break
			}
			if attempt >= env.cfg.FetchRetries || env.stopped() {
				return nil, &fetchFailure{FromStage: si.FromStage, Part: part, Owner: locs[part], Err: err}
			}
			select {
			case <-time.After(env.cfg.FetchRetryWait):
			case <-env.stop:
				return nil, &fetchFailure{FromStage: si.FromStage, Part: part, Owner: locs[part], Err: err}
			}
		}
		env.met.BytesFetched.Add(int64(len(payload)))
		env.tr.Emit(obs.Event{Kind: obs.FetchDone, Stage: si.FromStage, Frag: part,
			Task: part, Exec: env.execID, Bytes: int64(len(payload))})
		return data.DecodeAll(coder, payload)
	}

	fetchAll := func() ([]data.Record, error) {
		return fetchParallel(len(locs), func(p int) ([]data.Record, error) {
			return fetchOne(p, inputBlockID(si, p, spec.Index))
		})
	}

	var recs []data.Record
	switch si.Dep {
	case dag.OneToOne:
		recs, err = fetchOne(spec.Index, inputBlockID(si, spec.Index, spec.Index))
	case dag.OneToMany:
		// Broadcasts are cached per executor, like Spark's broadcast
		// variables: concurrent slots share one fetch.
		if env.cacheable && !env.cfg.DisableCache && env.flight != nil {
			key := recache.Key{Vertex: si.FromVertex, Partition: -1}
			if cached, ok := env.cache.Get(key); ok {
				env.met.CacheHits.Add(1)
				env.tr.Emit(obs.Event{Kind: obs.CacheHit, Stage: si.FromStage, Frag: -1,
					Task: -1, Exec: env.execID, Note: "broadcast"})
				recs = cached
				break
			}
			env.met.CacheMisses.Add(1)
			env.tr.Emit(obs.Event{Kind: obs.CacheMiss, Stage: si.FromStage, Frag: -1,
				Task: -1, Exec: env.execID, Note: "broadcast"})
			recs, _, err = env.flight.Do(key, func() ([]data.Record, error) {
				out, e := fetchAll()
				if e != nil {
					return nil, e
				}
				env.cache.Put(key, out)
				return out, nil
			})
			break
		}
		recs, err = fetchAll()
	case dag.ManyToOne, dag.ManyToMany:
		// Shuffle reads pull buckets from every map location with
		// bounded parallelism, like Spark's shuffle fetcher.
		recs, err = fetchAll()
	}
	if err != nil {
		return err
	}
	if si.Dep == dag.OneToMany {
		if m := in.Sides[si.ToOp]; m == nil {
			in.Sides[si.ToOp] = map[string][]data.Record{si.Tag: recs}
		} else {
			m[si.Tag] = append(m[si.Tag], recs...)
		}
		return nil
	}
	if m := in.Ext[si.ToOp]; m == nil {
		in.Ext[si.ToOp] = map[string][]data.Record{si.Tag: recs}
	} else {
		m[si.Tag] = append(m[si.Tag], recs...)
	}
	return nil
}

func (env taskEnv) fetchBlock(spec sTaskSpec, owner, id string) ([]byte, error) {
	if owner == storageLoc {
		return env.ck.GetChunk(spec.Chunks[id])
	}
	return fetchFrom(env.net, env.execID, owner, id)
}

// fetchParallel pulls n partitions with bounded concurrency, preserving
// partition order in the concatenated result.
func fetchParallel(n int, fetch func(p int) ([]data.Record, error)) ([]data.Record, error) {
	const maxInFlight = 8
	type res struct {
		p    int
		recs []data.Record
	}
	sem := make(chan struct{}, maxInFlight)
	results := make(chan res, n)
	errs := make(chan error, n)
	for p := 0; p < n; p++ {
		sem <- struct{}{}
		go func(p int) {
			defer func() { <-sem }()
			recs, err := fetch(p)
			if err != nil {
				errs <- err
				return
			}
			results <- res{p: p, recs: recs}
		}(p)
	}
	parts := make([]res, 0, n)
	for i := 0; i < n; i++ {
		select {
		case err := <-errs:
			return nil, err
		case r := <-results:
			parts = append(parts, r)
		}
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i].p < parts[j].p })
	var out []data.Record
	for _, r := range parts {
		out = append(out, r.recs...)
	}
	return out, nil
}
