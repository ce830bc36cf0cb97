// Package sparklike implements the baseline data processing engine of the
// paper's evaluation (§5.1.2): a Spark-2.0-style runtime with
// shuffle-boundary stages, map outputs kept on executor-local storage,
// pull-based shuffles, and lineage-driven recomputation of lost
// partitions — the mechanism that produces cascading recomputations
// ("critical chains") under frequent evictions.
//
// Checkpoint mode reproduces the paper's Spark-checkpoint baseline, which
// encompasses Flint's ideas: every stage output is asynchronously copied
// to a commit store served from the reserved nodes, and child
// stages pull their inputs from that storage, trading cascades for
// checkpoint traffic funneled through a handful of storage nodes.
package sparklike

import (
	"fmt"
	"sort"

	"pado/internal/core"
	"pado/internal/dag"
)

// SInput is a cross-stage dependency of one operator in a stage.
type SInput struct {
	ToOp       dag.VertexID
	FromStage  int
	FromVertex dag.VertexID
	Dep        dag.DepType
	Tag        string
}

// BucketSpec asks a stage to write its output bucketed for a shuffle
// consumer.
type BucketSpec struct {
	Consumer dag.VertexID
	N        int // consumer parallelism
}

// SStage is a Spark-style stage: a fused chain of narrow (one-to-one)
// operators ending at a root whose output is materialized, expanded into
// Parallelism tasks.
type SStage struct {
	ID   int
	Root dag.VertexID
	// Ops in topological order, root last. Operators shared with other
	// stages (e.g. a Read feeding several iterations) are recomputed by
	// each stage, or served from the executor cache when marked cached.
	Ops         []dag.VertexID
	Parallelism int
	// Driver marks parallelism-1 stages that run on the master process,
	// like Spark's driver-side aggregations and broadcasts; the master
	// is never evicted (§5.2.2).
	Driver bool
	// Inputs are cross-stage dependencies of any operator in the stage.
	Inputs []SInput
	// OutWhole asks for whole output partitions (consumed by o-o, o-m,
	// m-o edges, or job collection).
	OutWhole bool
	// OutBuckets lists shuffle consumers needing bucketed output.
	OutBuckets []BucketSpec
	Parents    []int
	Children   []int
}

// Terminal reports whether the stage output is the job output.
func (s *SStage) Terminal() bool { return len(s.Children) == 0 }

// InputsTo returns the cross-stage inputs of op.
func (s *SStage) InputsTo(op dag.VertexID) []SInput {
	var out []SInput
	for _, in := range s.Inputs {
		if in.ToOp == op {
			out = append(out, in)
		}
	}
	return out
}

// SPlan is the engine's physical plan.
type SPlan struct {
	Graph  *dag.Graph
	Stages []*SStage
}

// TerminalStages lists sink stage ids.
func (p *SPlan) TerminalStages() []int {
	var out []int
	for _, s := range p.Stages {
		if s.Terminal() {
			out = append(out, s.ID)
		}
	}
	return out
}

// isRoot decides whether a vertex materializes a stage output: it
// consumes a shuffle/broadcast/aggregation, feeds one, or is a sink.
func isRoot(g *dag.Graph, id dag.VertexID) bool {
	for _, e := range g.InEdges(id) {
		if e.Dep != dag.OneToOne {
			return true
		}
	}
	for _, e := range g.OutEdges(id) {
		if e.Dep != dag.OneToOne {
			return true
		}
	}
	return len(g.OutEdges(id)) == 0
}

// BuildPlan partitions the logical DAG at shuffle boundaries and resolves
// stage inputs and output formats.
func BuildPlan(g *dag.Graph, cfg core.PlanConfig) (*SPlan, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := core.ResolveParallelism(g, cfg); err != nil {
		return nil, err
	}
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}

	plan := &SPlan{Graph: g}
	stageOf := make(map[dag.VertexID]*SStage)
	for _, id := range order {
		if !isRoot(g, id) {
			continue
		}
		st := &SStage{ID: len(plan.Stages), Root: id}
		plan.Stages = append(plan.Stages, st)
		stageOf[id] = st

		inStage := make(map[dag.VertexID]bool)
		parents := make(map[int]bool)
		var add func(op dag.VertexID)
		add = func(op dag.VertexID) {
			if inStage[op] {
				return
			}
			inStage[op] = true
			for _, e := range g.InEdges(op) {
				from := e.From
				if e.Dep == dag.OneToOne && !isRoot(g, from) {
					add(from)
					continue
				}
				// Cross-stage input from a root's materialized output.
				ps, ok := stageOf[from]
				if !ok {
					panic(fmt.Sprintf("sparklike: parent %q of %q has no stage",
						g.Vertex(from).Name, g.Vertex(op).Name))
				}
				st.Inputs = append(st.Inputs, SInput{
					ToOp: op, FromStage: ps.ID, FromVertex: from, Dep: e.Dep, Tag: e.Tag,
				})
				parents[ps.ID] = true
			}
			st.Ops = append(st.Ops, op)
		}
		add(id)
		st.Parallelism = g.Vertex(id).Parallelism
		st.Driver = st.Parallelism == 1
		for pid := range parents {
			st.Parents = append(st.Parents, pid)
		}
		sort.Ints(st.Parents)
		for _, pid := range st.Parents {
			plan.Stages[pid].Children = append(plan.Stages[pid].Children, st.ID)
		}
	}

	// Verify intra-stage parallelism and resolve output formats.
	for _, st := range plan.Stages {
		for _, op := range st.Ops {
			if p := g.Vertex(op).Parallelism; p != st.Parallelism {
				return nil, fmt.Errorf("sparklike: stage %d op %q parallelism %d != stage %d",
					st.ID, g.Vertex(op).Name, p, st.Parallelism)
			}
		}
		out := g.OutEdges(st.Root)
		if len(out) == 0 {
			st.OutWhole = true
		}
		seen := map[dag.VertexID]bool{}
		for _, e := range out {
			if e.Dep == dag.ManyToMany {
				if !seen[e.To] {
					seen[e.To] = true
					st.OutBuckets = append(st.OutBuckets, BucketSpec{
						Consumer: e.To, N: g.Vertex(e.To).Parallelism,
					})
				}
			} else {
				st.OutWhole = true
			}
		}
	}
	return plan, nil
}
