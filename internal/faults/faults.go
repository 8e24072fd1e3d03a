// Package faults is TrioSim's fault-injection and resilience-modeling
// subsystem: deterministic schedules of hardware perturbations (degraded or
// dead links, straggler GPUs, GPU failures) applied to a running simulation
// at virtual-time boundaries, plus a checkpoint/restart recovery model that
// turns failure schedules into goodput numbers.
//
// Determinism contract: a Schedule is fully materialized before the engine
// runs — the seeded generator (Generate) draws every random number up front,
// and the Injector schedules only the events the schedule implies. An empty
// or all-no-op schedule schedules nothing, so its run is bit-identical
// (same EventDigest) to a run with no faults configured at all.
package faults

import (
	"fmt"
	"sort"

	"triosim/internal/sim"
	"triosim/internal/timeline"
)

// Kind names a fault event type.
type Kind string

// Fault event kinds.
const (
	// LinkDegrade divides one link's per-direction bandwidth by Factor for
	// the window [Start, Start+Duration).
	LinkDegrade Kind = "link-degrade"
	// LinkDown sets one link's bandwidth to zero for the window; flows
	// crossing it stall (rate 0) and resume when the window ends.
	LinkDown Kind = "link-down"
	// GPUSlowdown stretches compute-task durations on one GPU by Factor for
	// tasks that *start* inside the window (a straggler). The factor is
	// sampled once at task start and applies to the whole task.
	GPUSlowdown Kind = "gpu-slowdown"
	// GPUFail marks one GPU as failed at Start. The simulated schedule is
	// not perturbed — recovery is modeled by the checkpoint/restart overlay
	// (Evaluate), which charges lost work, restart cost, and replay.
	GPUFail Kind = "gpu-fail"
)

// Event is one vtime-anchored fault. Which fields apply depends on Kind:
// link kinds use Link, GPU kinds use GPU; LinkDegrade and GPUSlowdown use
// Factor (a slowdown multiplier ≥ 1); GPUFail is instantaneous (Duration 0).
type Event struct {
	Kind Kind
	// Link is the topology link ID (LinkDegrade, LinkDown).
	Link int
	// GPU is the GPU index (GPUSlowdown, GPUFail).
	GPU int
	// Factor is the slowdown multiplier: bandwidth becomes bandwidth/Factor
	// (LinkDegrade), compute durations become duration×Factor (GPUSlowdown).
	// Factor == 1 is a no-op the injector drops. Unused kinds require 0.
	Factor float64
	// Start anchors the event in virtual time (the failure instant for
	// GPUFail).
	Start sim.VTime
	// Duration is the window length for windowed kinds; the window is
	// half-open [Start, Start+Duration). Must be 0 for GPUFail.
	Duration sim.VTime
}

// windowed reports whether the kind occupies a time window.
func (k Kind) windowed() bool { return k != GPUFail }

// usesFactor reports whether the kind reads Event.Factor.
func (k Kind) usesFactor() bool { return k == LinkDegrade || k == GPUSlowdown }

// usesLink reports whether the kind targets a link.
func (k Kind) usesLink() bool { return k == LinkDegrade || k == LinkDown }

// Checkpoint is the periodic checkpoint/restart policy the resilience
// overlay evaluates against the schedule's GPUFail events.
type Checkpoint struct {
	// Interval is the useful work between checkpoints. Must be > 0.
	Interval sim.VTime
	// Cost is the time one checkpoint takes. Zero means "derive it from the
	// model's tensor footprint over the host staging path" (core does this).
	Cost sim.VTime
	// Restart is the fixed overhead paid after each failure before work
	// resumes from the last checkpoint.
	Restart sim.VTime
}

// Schedule is a full fault plan for one simulation.
type Schedule struct {
	Events     []Event
	Checkpoint *Checkpoint
}

// Check validates everything that does not need topology bounds: kinds,
// factor/duration/time sanity, per-resource window overlaps, and the
// checkpoint policy. It returns an error, never panics, on any malformed
// schedule (including fuzzer-produced ones).
func (s *Schedule) Check() error {
	for i, e := range s.Events {
		switch e.Kind {
		case LinkDegrade, LinkDown, GPUSlowdown, GPUFail:
		default:
			return fmt.Errorf("faults: event %d: unknown kind %q", i, e.Kind)
		}
		if e.Start.Before(0) {
			return fmt.Errorf("faults: event %d (%s): negative start %v",
				i, e.Kind, e.Start)
		}
		if e.Kind.windowed() {
			if !e.Duration.After(0) {
				return fmt.Errorf(
					"faults: event %d (%s): duration %v must be > 0",
					i, e.Kind, e.Duration)
			}
		} else if e.Duration != 0 {
			return fmt.Errorf("faults: event %d (%s): duration must be 0",
				i, e.Kind)
		}
		if e.Kind.usesFactor() {
			if !(e.Factor >= 1) { // rejects NaN too
				return fmt.Errorf(
					"faults: event %d (%s): factor %g must be >= 1",
					i, e.Kind, e.Factor)
			}
		} else if e.Factor != 0 {
			return fmt.Errorf("faults: event %d (%s): factor must be unset",
				i, e.Kind)
		}
		if e.Kind.usesLink() {
			if e.GPU != 0 {
				return fmt.Errorf("faults: event %d (%s): gpu must be unset",
					i, e.Kind)
			}
		} else if e.Link != 0 {
			return fmt.Errorf("faults: event %d (%s): link must be unset",
				i, e.Kind)
		}
	}
	if err := s.checkOverlaps(); err != nil {
		return err
	}
	if cp := s.Checkpoint; cp != nil {
		if !cp.Interval.After(0) {
			return fmt.Errorf("faults: checkpoint interval %v must be > 0",
				cp.Interval)
		}
		if cp.Cost.Before(0) || cp.Restart.Before(0) {
			return fmt.Errorf("faults: negative checkpoint cost or restart")
		}
	}
	return nil
}

// checkOverlaps rejects intersecting windows on the same resource (link
// windows share the link's namespace across LinkDegrade/LinkDown) and
// duplicate GPUFail instants.
func (s *Schedule) checkOverlaps() error {
	type span struct {
		start, end sim.VTime
		idx        int
	}
	byRes := map[string][]span{}
	var keys []string
	for i, e := range s.Events {
		var key string
		switch {
		case e.Kind.usesLink():
			key = fmt.Sprintf("link%d", e.Link)
		case e.Kind == GPUSlowdown:
			key = fmt.Sprintf("gpu%d", e.GPU)
		default: // GPUFail: duplicates only
			key = fmt.Sprintf("fail-gpu%d", e.GPU)
		}
		if _, seen := byRes[key]; !seen {
			keys = append(keys, key)
		}
		end := e.Start + e.Duration
		if e.Kind == GPUFail {
			end = e.Start
		}
		byRes[key] = append(byRes[key], span{e.Start, end, i})
	}
	sort.Strings(keys)
	for _, key := range keys {
		spans := byRes[key]
		sort.Slice(spans, func(i, j int) bool {
			if spans[i].start != spans[j].start {
				return spans[i].start.Before(spans[j].start)
			}
			return spans[i].idx < spans[j].idx
		})
		for i := 1; i < len(spans); i++ {
			prev, cur := spans[i-1], spans[i]
			overlap := cur.start.Before(prev.end) ||
				(prev.start == prev.end && cur.start == prev.start)
			if overlap {
				return fmt.Errorf(
					"faults: events %d and %d overlap on %s",
					prev.idx, cur.idx, key)
			}
		}
	}
	return nil
}

// Validate runs Check plus topology-bounds checks: every link and GPU index
// must exist in a topology with numLinks links and numGPUs GPUs.
func (s *Schedule) Validate(numGPUs, numLinks int) error {
	if err := s.Check(); err != nil {
		return err
	}
	for i, e := range s.Events {
		if e.Kind.usesLink() && (e.Link < 0 || e.Link >= numLinks) {
			return fmt.Errorf(
				"faults: event %d (%s): link %d out of range [0,%d)",
				i, e.Kind, e.Link, numLinks)
		}
		if !e.Kind.usesLink() && (e.GPU < 0 || e.GPU >= numGPUs) {
			return fmt.Errorf(
				"faults: event %d (%s): gpu %d out of range [0,%d)",
				i, e.Kind, e.GPU, numGPUs)
		}
	}
	return nil
}

// Window is one effective (schedule-perturbing) fault window. LinkDown
// windows carry Factor 0; LinkDegrade/GPUSlowdown carry their multiplier.
type Window struct {
	Kind     Kind
	Resource int // link ID for link kinds, GPU index for GPUSlowdown
	Factor   float64
	Start    sim.VTime
	End      sim.VTime
}

// ResourceName renders the perturbed resource ("link2", "gpu1").
func (w Window) ResourceName() string {
	if w.Kind.usesLink() {
		return fmt.Sprintf("link%d", w.Resource)
	}
	return fmt.Sprintf("gpu%d", w.Resource)
}

// Label renders a short human-readable description for timelines.
func (w Window) Label() string {
	switch w.Kind {
	case LinkDown:
		return fmt.Sprintf("%s down", w.ResourceName())
	case LinkDegrade:
		return fmt.Sprintf("%s bw ÷%g", w.ResourceName(), w.Factor)
	default:
		return fmt.Sprintf("%s ×%g slower", w.ResourceName(), w.Factor)
	}
}

// Windows returns the schedule's effective windows — Factor==1 no-ops are
// dropped, so an all-no-op schedule yields none — sorted by (Start, Kind,
// Resource) for deterministic arming order.
func (s *Schedule) Windows() []Window {
	var out []Window
	for _, e := range s.Events {
		if !e.Kind.windowed() {
			continue
		}
		if e.Kind.usesFactor() && e.Factor == 1 {
			continue // no-op: must not perturb the event schedule
		}
		res, factor := e.Link, e.Factor
		if e.Kind == GPUSlowdown {
			res = e.GPU
		}
		if e.Kind == LinkDown {
			factor = 0
		}
		out = append(out, Window{
			Kind:     e.Kind,
			Resource: res,
			Factor:   factor,
			Start:    e.Start,
			End:      e.Start + e.Duration,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start.Before(out[j].Start)
		}
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Resource < out[j].Resource
	})
	return out
}

// Failure is one GPUFail instant.
type Failure struct {
	GPU int
	At  sim.VTime
}

// Failures returns the schedule's GPUFail events sorted by (At, GPU).
func (s *Schedule) Failures() []Failure {
	var out []Failure
	for _, e := range s.Events {
		if e.Kind == GPUFail {
			out = append(out, Failure{GPU: e.GPU, At: e.Start})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At.Before(out[j].At)
		}
		return out[i].GPU < out[j].GPU
	})
	return out
}

// DegradedSeconds returns the union length of the windows, clamped to
// [0, clamp] (the run's makespan) — the "some hardware was degraded" time
// telemetry reports. Overlapping windows on different resources count once.
func DegradedSeconds(ws []Window, clamp sim.VTime) float64 {
	segs := make([]timeline.Seg, 0, len(ws))
	for _, w := range ws {
		if start, end := w.Start, w.End.Min(clamp); start.Before(end) {
			segs = append(segs,
				timeline.Seg{S: float64(start), E: float64(end)})
		}
	}
	return timeline.Length(timeline.Union(segs))
}
