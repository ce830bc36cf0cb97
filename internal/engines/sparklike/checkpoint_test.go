package sparklike

import (
	"maps"
	"sync"
	"testing"

	"pado/internal/core"
	"pado/internal/data"
	"pado/internal/metrics"
	"pado/internal/simnet"
	"pado/internal/storage"
)

// countingTransport counts the request/response rounds it carries, by
// operation label.
type countingTransport struct {
	storage.Transport
	mu  sync.Mutex
	ops map[string]int
}

func (c *countingTransport) Do(op, to string, fn func(e *data.Encoder, d *data.Decoder) error) error {
	c.mu.Lock()
	c.ops[op]++
	c.mu.Unlock()
	return c.Transport.Do(op, to, fn)
}

func (c *countingTransport) take() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	ops := c.ops
	c.ops = make(map[string]int)
	return ops
}

// TestCheckpointOneRoundTripPerBlock drives a word count's map and reduce
// tasks and the driver's output collection through a counting transport:
// a checkpointed block is one chunk put, and reading a block back from
// storage — by a task or by the driver — is one chunk get, addressed by
// the hash the put returned. No manifest round trip rides along.
func TestCheckpointOneRoundTripPerBlock(t *testing.T) {
	p, expect := buildWordCount(8, 500)
	plan, err := BuildPlan(p.Graph(), core.PlanConfig{ReduceParallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Stages) != 2 || plan.Stages[0].Driver || plan.Stages[1].Driver {
		t.Fatalf("want a map and a reduce stage off the driver, got %d stages", len(plan.Stages))
	}

	net := simnet.New(simnet.Config{})
	var nodes []*simnet.Node
	for _, id := range []string{"exec", "master", "s0", "s1"} {
		n, err := net.AddNode(id)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	svc := storage.NewCommitService(storage.NewCommitStore(), nodes[2:], 0)
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ct := &countingTransport{Transport: storage.NewDialTransport(net, "exec"), ops: make(map[string]int)}
	ck := storage.NewCommitClient(ct, svc.NodeIDs())

	cfg := Config{Checkpoint: true}
	m := &master{cfg: cfg, plan: plan, met: &metrics.Job{}, events: make(chan event, 64)}
	for _, ps := range plan.Stages {
		s := &sStageRun{ps: ps, tasks: make([]*sTask, ps.Parallelism)}
		for i := range s.tasks {
			s.tasks[i] = &sTask{state: tWaiting}
		}
		m.stages = append(m.stages, s)
	}

	// runStage runs every task of a stage to a landed checkpoint, as the
	// master's event loop would record it.
	runStage := func(sid int) (puts, gets int) {
		s := m.stages[sid]
		for i, task := range s.tasks {
			locs, chunks, ready := m.inputsReady(s, i)
			if !ready {
				t.Fatalf("stage %d task %d not ready", sid, i)
			}
			events := make(chan event, 4)
			env := taskEnv{
				execID: "exec", net: net, plan: plan, cfg: cfg, met: m.met,
				store: storage.NewLocalStore(), ck: ck,
				send:    func(ev event) { events <- ev },
				stopped: func() bool { return false },
			}
			spec := sTaskSpec{Stage: sid, Index: i, InputLocs: locs, Chunks: chunks}
			if err := runTask(env, spec); err != nil {
				t.Fatalf("stage %d task %d: %v", sid, i, err)
			}
			if _, ok := (<-events).(evTaskDone); !ok {
				t.Fatalf("stage %d task %d: no done event", sid, i)
			}
			ev, ok := (<-events).(evCheckpointed)
			if !ok {
				t.Fatalf("stage %d task %d: no checkpoint event", sid, i)
			}
			for id, hash := range ev.chunks {
				if payload, _ := env.store.Get(id); storage.HashChunk(payload) != hash {
					t.Fatalf("block %s checkpointed under %.12s, not its content address", id, hash)
				}
			}
			puts += len(ev.chunks)
			gets += len(chunks)
			task.state, task.exec, task.ck = tDone, "exec", ev.chunks
		}
		return puts, gets
	}

	for sid, ps := range plan.Stages {
		puts, gets := runStage(sid)
		blocks := 0
		if ps.OutWhole {
			blocks++
		}
		for _, bs := range ps.OutBuckets {
			blocks += bs.N
		}
		if puts != ps.Parallelism*blocks || (sid > 0 && gets == 0) {
			t.Fatalf("stage %d: %d blocks checkpointed, %d read from storage", sid, puts, gets)
		}
		want := map[string]int{}
		if puts > 0 {
			want["casput"] = puts
		}
		if gets > 0 {
			want["casget"] = gets
		}
		if got := ct.take(); !maps.Equal(got, want) {
			t.Errorf("stage %d: transport rounds %v, want one per block %v", sid, got, want)
		}
	}
	if n := m.met.BytesCheckpointed.Load(); n == 0 {
		t.Error("no checkpointed bytes counted")
	}

	// The driver collects the reduce outputs from storage: one chunk get
	// per terminal partition.
	m.driverCk = ck
	m.checkDone()
	ev := (<-m.events).(evCollected)
	if ev.err != nil || len(ev.failed) > 0 {
		t.Fatalf("collection: %v, %d failed", ev.err, len(ev.failed))
	}
	checkWordCount(t, &Result{Outputs: ev.outputs}, expect)
	if got, want := ct.take(), map[string]int{"casget": plan.Stages[1].Parallelism}; !maps.Equal(got, want) {
		t.Errorf("collection: transport rounds %v, want %v", got, want)
	}
}
