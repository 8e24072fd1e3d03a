// Package timeline accumulates a run's per-phase activity — when a GPU
// computed, a transfer was in flight, or input was being staged — for the
// union times behind Result.ComputeTime, CommTime and HostLoadTime. It also
// holds the one interval algebra (Union, Subtract, Length) that the span
// log's breakdown and the telemetry collector share. Labelled per-task
// intervals live in internal/spantrace.
package timeline

import (
	"cmp"
	"slices"

	"triosim/internal/sim"
)

// Phase classifies an interval for the union times.
type Phase uint8

// Recorded phases.
const (
	Compute Phase = iota
	Comm
	HostLoad
)

var phaseNames = [...]string{"compute", "comm", "hostload"}

// String returns the phase name.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// Interval is one recorded activity. It holds no pointers, so the log is
// never scanned by the garbage collector.
type Interval struct {
	Phase      Phase
	Start, End sim.VTime
}

// Timeline is an append-only interval log.
type Timeline struct {
	Intervals []Interval
}

// New returns an empty timeline.
func New() *Timeline { return &Timeline{} }

// Add records one interval.
func (tl *Timeline) Add(phase Phase, start, end sim.VTime) {
	tl.Intervals = append(tl.Intervals,
		Interval{Phase: phase, Start: start, End: end})
}

// ByPhase returns the filter matching the named phase ("compute", "comm" or
// "hostload"); any other name matches nothing.
func ByPhase(name string) func(*Interval) bool {
	for p, n := range phaseNames {
		if n == name {
			phase := Phase(p)
			return func(iv *Interval) bool { return iv.Phase == phase }
		}
	}
	return func(*Interval) bool { return false }
}

// UnionTime computes the length of the union of non-empty intervals matching
// the filter: the time during which at least one matching activity was
// running. This is the paper's notion of "time at least one GPU is busy or
// at least one data movement task is taking place".
func (tl *Timeline) UnionTime(match func(*Interval) bool) sim.VTime {
	// Count first so segs is allocated once at its exact size: a run calls
	// this per phase over every interval it recorded.
	n := 0
	for i := range tl.Intervals {
		if match(&tl.Intervals[i]) {
			n++
		}
	}
	segs := make([]Seg, 0, n)
	for i := range tl.Intervals {
		iv := &tl.Intervals[i]
		if !match(iv) || iv.End.AtOrBefore(iv.Start) {
			continue
		}
		segs = append(segs, Seg{float64(iv.Start), float64(iv.End)})
	}
	return sim.VTime(Length(Union(segs)))
}

// Seg is a closed-open [S, E) interval in seconds. The algebra works on
// plain float64 so virtual-time comparison rules stay inside internal/sim.
type Seg struct{ S, E float64 }

// Union sorts in by start and merges overlapping or touching segments into
// a sorted disjoint set, reusing in's storage. A zero-length segment that
// touches no other one survives as a point: it adds nothing to Length, but
// it splits a segment it is subtracted from.
func Union(in []Seg) []Seg {
	if len(in) == 0 {
		return nil
	}
	slices.SortFunc(in, func(a, b Seg) int { return cmp.Compare(a.S, b.S) })
	out := in[:1]
	for _, sg := range in[1:] {
		last := &out[len(out)-1]
		if sg.S <= last.E {
			if sg.E > last.E {
				last.E = sg.E
			}
			continue
		}
		out = append(out, sg)
	}
	return out
}

// Subtract returns a minus b; both must be sorted disjoint sets (Union
// results).
func Subtract(a, b []Seg) []Seg {
	var out []Seg
	j := 0
	for _, cur := range a {
		for j < len(b) && b[j].E <= cur.S {
			j++
		}
		for k := j; k < len(b) && b[k].S < cur.E; k++ {
			if b[k].S > cur.S {
				out = append(out, Seg{cur.S, b[k].S})
			}
			cur.S = b[k].E
			if cur.S >= cur.E {
				break
			}
		}
		if cur.S < cur.E {
			out = append(out, cur)
		}
	}
	return out
}

// Length sums a disjoint set's segment lengths in order.
func Length(in []Seg) float64 {
	var total float64
	for _, sg := range in {
		total += sg.E - sg.S
	}
	return total
}
