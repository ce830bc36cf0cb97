package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"time"
)

// span is one benchmark-side interval around a call into a layer. Parent
// is the enclosing span's id (0 for none); the spans of one job share
// its "job" span as their root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spans records spans in memory from the benchmark's single goroutine;
// they are written out only when the run ends.
type spans struct {
	t0   time.Time
	list []span
}

func newSpans() *spans { return &spans{t0: time.Now()} }

func (s *spans) begin(name string, parent int) int {
	s.list = append(s.list, span{ID: len(s.list) + 1, Parent: parent, Name: name,
		StartNS: int64(time.Since(s.t0))})
	return len(s.list)
}

func (s *spans) end(id int) { s.list[id-1].EndNS = int64(time.Since(s.t0)) }

// within sums the durations of the spans under id that carry one of
// names.
func (s *spans) within(id int, names ...string) time.Duration {
	var d int64
	for _, sp := range s.list[id:] {
		if !slices.Contains(names, sp.Name) {
			continue
		}
		for p := sp.Parent; p >= id; p = s.list[p-1].Parent {
			if p == id {
				d += sp.EndNS - sp.StartNS
				break
			}
		}
	}
	return time.Duration(d)
}

// seconds lists the durations of the spans named name, in seconds.
func (s *spans) seconds(name string) []float64 {
	var out []float64
	for _, sp := range s.list {
		if sp.Name == name {
			out = append(out, float64(sp.EndNS-sp.StartNS)/1e9)
		}
	}
	return out
}

// spanTotal is the time spent under one span name. Self time is a span's
// duration minus the part its children cover; children of one span run
// one after another, so their durations add.
type spanTotal struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

func (s *spans) totals() []spanTotal {
	child := make([]int64, len(s.list)+1)
	for _, sp := range s.list {
		child[sp.Parent] += sp.EndNS - sp.StartNS
	}
	by := map[string]int{}
	var out []spanTotal
	for _, sp := range s.list {
		i, ok := by[sp.Name]
		if !ok {
			i = len(out)
			by[sp.Name] = i
			out = append(out, spanTotal{Name: sp.Name})
		}
		t := &out[i]
		d := sp.EndNS - sp.StartNS
		t.Count++
		t.TotalS += float64(d) / 1e9
		t.SelfS += float64(d-child[sp.ID]) / 1e9
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TotalS > out[j].TotalS })
	return out
}

func (s *spans) save(path string) error {
	b, err := json.MarshalIndent(struct {
		Spans  []span      `json:"spans"`
		Totals []spanTotal `json:"totals"`
	}{s.list, s.totals()}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
