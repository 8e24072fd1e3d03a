// Package timeline records execution intervals produced by the simulator:
// which resource (GPU compute stream, network) was doing what, from when to
// when. It backs TrioSim's outputs beyond the total time: the per-layer and
// per-stage communication/computation breakdown and the HTML timeline
// viewer.
package timeline

import (
	"fmt"
	"sort"

	"triosim/internal/sim"
)

// Interval is one recorded activity.
type Interval struct {
	// Resource identifies the executing resource, e.g. "gpu0" or "net".
	Resource string
	// Label describes the activity, e.g. "conv2d" or "allreduce-step3".
	Label string
	// Phase groups activities for breakdowns: "compute", "comm", "hostload".
	Phase string
	Start sim.VTime
	End   sim.VTime
}

// Duration returns End-Start.
func (iv *Interval) Duration() sim.VTime { return iv.End - iv.Start }

// Timeline is an append-only interval log.
type Timeline struct {
	Intervals []Interval
}

// New returns an empty timeline.
func New() *Timeline { return &Timeline{} }

// Add records one interval.
func (tl *Timeline) Add(resource, label, phase string, start, end sim.VTime) {
	tl.Intervals = append(tl.Intervals, Interval{
		Resource: resource, Label: label, Phase: phase,
		Start: start, End: end,
	})
}

// Span returns the earliest start and latest end across all intervals.
func (tl *Timeline) Span() (start, end sim.VTime) {
	if len(tl.Intervals) == 0 {
		return 0, 0
	}
	start = sim.Infinity
	for i := range tl.Intervals {
		iv := &tl.Intervals[i]
		if iv.Start.Before(start) {
			start = iv.Start
		}
		if iv.End.After(end) {
			end = iv.End
		}
	}
	return start, end
}

// SumTime adds up interval durations matching the filter (overlaps counted
// multiply). Useful for per-resource serial streams.
func (tl *Timeline) SumTime(match func(*Interval) bool) sim.VTime {
	var total sim.VTime
	for i := range tl.Intervals {
		if match(&tl.Intervals[i]) {
			total += tl.Intervals[i].Duration()
		}
	}
	return total
}

// UnionTime computes the length of the union of intervals matching the
// filter: the time during which at least one matching activity was running.
// This is the paper's notion of "time at least one GPU is busy or at least
// one data movement task is taking place".
func (tl *Timeline) UnionTime(match func(*Interval) bool) sim.VTime {
	type edge struct {
		t     sim.VTime
		delta int
	}
	var edges []edge
	for i := range tl.Intervals {
		iv := &tl.Intervals[i]
		if !match(iv) || iv.End.AtOrBefore(iv.Start) {
			continue
		}
		edges = append(edges, edge{iv.Start, +1}, edge{iv.End, -1})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].t != edges[j].t {
			return edges[i].t.Before(edges[j].t)
		}
		return edges[i].delta > edges[j].delta
	})
	var total sim.VTime
	depth := 0
	var openAt sim.VTime
	for _, e := range edges {
		if depth == 0 && e.delta > 0 {
			openAt = e.t
		}
		depth += e.delta
		if depth == 0 && e.delta < 0 {
			total += e.t - openAt
		}
	}
	return total
}

// ByPhase returns the filter matching one phase.
func ByPhase(phase string) func(*Interval) bool {
	return func(iv *Interval) bool { return iv.Phase == phase }
}

// ByResource returns the filter matching one resource.
func ByResource(resource string) func(*Interval) bool {
	return func(iv *Interval) bool { return iv.Resource == resource }
}

// And composes filters.
func And(fs ...func(*Interval) bool) func(*Interval) bool {
	return func(iv *Interval) bool {
		for _, f := range fs {
			if !f(iv) {
				return false
			}
		}
		return true
	}
}

// Resources returns the distinct resource names, sorted.
func (tl *Timeline) Resources() []string {
	seen := map[string]bool{}
	for i := range tl.Intervals {
		seen[tl.Intervals[i].Resource] = true
	}
	out := make([]string, 0, len(seen))
	for r := range seen {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// Summary formats per-resource busy times for quick inspection.
func (tl *Timeline) Summary() string {
	out := ""
	for _, r := range tl.Resources() {
		busy := tl.UnionTime(ByResource(r))
		out += fmt.Sprintf("%-8s busy %v\n", r, busy)
	}
	return out
}
