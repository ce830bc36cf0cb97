package runtime

import (
	"testing"
	"time"

	"pado/internal/cluster"
	"pado/internal/core"
	"pado/internal/data"
	"pado/internal/dataflow"
	"pado/internal/metrics"
	"pado/internal/simnet"
	"pado/internal/storage"
)

// TestStartReceiverReadyPrecedesRun: a receiver with no inputs and no
// senders (MLR's initial-model stage) finalizes as soon as it runs. Its
// ready event must reach the master first — the master drops a done
// event for a stage still starting its receivers, and the job then hangs
// to its deadline. The events channel is unbuffered and unread here, so
// a receiver started before its ready event was delivered would finalize
// (and store its output block) while StartReceiver is still blocked.
func TestStartReceiverReadyPrecedesRun(t *testing.T) {
	p := dataflow.NewPipeline()
	p.Create("create-model", []data.Record{{Value: int64(1)}}, data.KVCoder{K: data.NilCoder, V: data.Int64Coder})
	plan, err := core.Compile(p.Graph(), core.PlanConfig{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if len(plan.Stages) != 1 || len(plan.Stages[0].Inputs) != 0 {
		t.Fatalf("want one stage without inputs, got %d stages", len(plan.Stages))
	}

	events := make(chan event)
	h := &nodeHost{id: "r0", kind: cluster.Reserved, store: storage.NewLocalStore()}
	ex := newExecutor(1, h, simnet.New(simnet.Config{}), plan, Config{}, &metrics.Job{},
		events, "master", FailureConfig{DisableRPCPolicy: true}, nil)
	defer ex.shutdown()

	go ex.StartReceiver(recvSpec{Stage: 0})
	blockID := stageBlockID(1, 0, 0, 0)
	for deadline := time.Now().Add(100 * time.Millisecond); time.Now().Before(deadline); {
		if h.store.Has(blockID) {
			t.Fatal("receiver finalized before its ready event was delivered")
		}
		time.Sleep(time.Millisecond)
	}
	first := <-events
	if ev, ok := first.(evReceiverReady); !ok || ev.Job != 1 || ev.Stage != 0 {
		t.Fatalf("first event %#v, want evReceiverReady", first)
	}
	select {
	case ev := <-events:
		if _, ok := ev.(evReservedTaskDone); !ok {
			t.Fatalf("second event %#v, want evReservedTaskDone", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no-input receiver never finished")
	}
	if !h.store.Has(blockID) {
		t.Fatal("finished receiver stored no output block")
	}
}
