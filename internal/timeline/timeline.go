// Package timeline is a run's phase record store — one record per finished
// compute, comm or host-staging task, with the GPU or endpoints it occupied
// — behind Result.ComputeTime, CommTime and HostLoadTime and the telemetry
// collector's per-GPU partition, plus the one interval algebra (Union,
// Subtract, Length). Labelled per-task intervals live in internal/spantrace.
package timeline

import (
	"cmp"
	"slices"

	"triosim/internal/sim"
)

// Phase classifies a record for the union times.
type Phase uint8

// Recorded phases.
const (
	Compute Phase = iota
	Comm
	HostLoad
	NumPhases // the number of phases, not a phase
)

var phaseNames = [NumPhases]string{"compute", "comm", "hostload"}

// Record is one finished task's occupancy and the resource it occupied. A
// compute record keeps its GPU index in A (B is -1); a comm or host-load
// record keeps its source and destination node IDs in A and B. It holds no
// pointers, so the store is never scanned by the garbage collector, and its
// two int32 lanes keep it at 24 bytes.
type Record struct {
	A, B       int32
	Start, End sim.VTime
}

// Interval is the phase-tagged view of one record that UnionTime's filters
// see.
type Interval struct {
	Phase      Phase
	Start, End sim.VTime
}

// Timeline is the append-only record store, one slice per phase.
type Timeline struct {
	phases [NumPhases][]Record
}

// New returns an empty timeline.
func New() *Timeline { return &Timeline{} }

// Add records one finished task of phase that occupied [start, end): a
// and b are the record's lanes (see Record).
func (tl *Timeline) Add(phase Phase, a, b int, start, end sim.VTime) {
	tl.phases[phase] = append(tl.phases[phase],
		Record{A: int32(a), B: int32(b), Start: start, End: end})
}

// Grow makes room for n[p] more records of each phase p.
func (tl *Timeline) Grow(n [NumPhases]int) {
	for p := range tl.phases {
		tl.phases[p] = slices.Grow(tl.phases[p], n[p])
	}
}

// Records returns the phase's records in the order they were added; a nil
// timeline has none. The slice is the store's own: read, don't modify.
func (tl *Timeline) Records(phase Phase) []Record {
	if tl == nil {
		return nil
	}
	return tl.phases[phase]
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

// UnionTime computes the length of the union of non-empty records matching
// the filter: the time during which at least one matching activity was
// running. This is the paper's notion of "time at least one GPU is busy or
// at least one data movement task is taking place".
func (tl *Timeline) UnionTime(match func(*Interval) bool) sim.VTime {
	// Visit twice — count, then fill — so segs is allocated once at its
	// exact size: a run calls this per phase over every record it stored.
	var iv Interval
	visit := func(f func(r *Record)) {
		for p := range tl.phases {
			iv.Phase = Phase(p)
			for i := range tl.phases[p] {
				r := &tl.phases[p][i]
				iv.Start, iv.End = r.Start, r.End
				if match(&iv) && !r.End.AtOrBefore(r.Start) {
					f(r)
				}
			}
		}
	}
	n := 0
	visit(func(*Record) { n++ })
	segs := make([]Seg, 0, n)
	visit(func(r *Record) {
		segs = append(segs, Seg{float64(r.Start), float64(r.End)})
	})
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
