package metrics

import (
	"sort"
	"sync/atomic"
)

// Gauge is a single instantaneous int64 value, safe for concurrent
// update: current queue depth, running tasks, free slots. Unlike a
// Counter it goes up and down, and exposition layers (Prometheus text,
// padotop) render it without the `_total` suffix. The zero value is
// ready to use.
type Gauge struct{ v atomic.Int64 }

// Set overwrites the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the value by d (which may be negative).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Live-introspection gauge names minted by the multi-job master.
// Counters answer "how many ever happened"; these answer "what is true
// right now" — the quantities padotop and /metrics poll during a run.
const (
	GaugeJobsRunning       = "jobs_running"
	GaugeJobsQueued        = "jobs_queued"
	GaugeTasksRunning      = "tasks_running"
	GaugeReceiversActive   = "receivers_active"
	GaugeSlotsFreeTrans    = "slots_free_transient"
	GaugeSlotsFreeReserved = "slots_free_reserved"
	GaugeBudgetFree        = "reserved_budget_free"
	GaugeNodesAlive        = "nodes_alive"
	GaugeNodesSuspect      = "nodes_suspect"
	GaugeBreakersOpen      = "breakers_open"
)

// Commit-store gauge names: live size of the content-addressed commit
// store the manager serves (chunk and manifest counts, resident bytes).
// storage_used_bytes is also set by the sparklike engine from the commit
// store its checkpoints go to, so both engines surface under one name.
const (
	GaugeCASChunks        = "cas_chunks"
	GaugeCASManifests     = "cas_manifests"
	GaugeStorageUsedBytes = "storage_used_bytes"
)

// Gauge returns the gauge registered under name, minting it on first
// use. Gauges live in their own registry beside the named counters and
// histograms, sharing the Job's mutex.
func (j *Job) Gauge(name string) *Gauge {
	j.mu.Lock()
	defer j.mu.Unlock()
	g, ok := j.gauges[name]
	if !ok {
		if j.gauges == nil {
			j.gauges = make(map[string]*Gauge)
		}
		g = new(Gauge)
		j.gauges[name] = g
	}
	return g
}

// EachGauge calls fn for every registered gauge, sorted by name.
func (j *Job) EachGauge(fn func(name string, value int64)) {
	j.mu.Lock()
	names := make([]string, 0, len(j.gauges))
	for name := range j.gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	gauges := make([]*Gauge, 0, len(names))
	for _, name := range names {
		gauges = append(gauges, j.gauges[name])
	}
	j.mu.Unlock()
	for i, name := range names {
		fn(name, gauges[i].Load())
	}
}
