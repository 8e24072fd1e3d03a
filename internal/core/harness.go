package core

import (
	"context"
	"fmt"
	"time"

	"triosim/internal/faults"
	"triosim/internal/network"
	"triosim/internal/sim"
	"triosim/internal/spantrace"
	"triosim/internal/task"
	"triosim/internal/telemetry"
)

// runOpts are the observability and control settings training (Config) and
// serving (ServeConfig) runs share; see Config for their meaning.
type runOpts struct {
	clock     func() time.Time
	telemetry bool
	metrics   *telemetry.Registry
	spanTrace bool
	hooks     []sim.Hook
	ctx       context.Context
	faults    *faults.Schedule
}

// workload is the part of a run the harness does not own — the training
// executor or the serving cluster — seen through the points the harness
// attaches to.
type workload struct {
	// graph is the task graph spans are recorded against (nil for serving).
	graph *task.Graph
	// collectives feeds the collector's per-collective accounting (nil for
	// serving).
	collectives *telemetry.CollectiveLog
	// observe registers a task observer with the workload.
	observe func(task.Observer)
	// stretch is the workload's compute-stretch hook, set to the fault
	// injector's slowdown factor.
	stretch *func(gpu int, at sim.VTime) float64
}

// harness is the one run stack behind both training and serving: a serial
// engine with the replay digest hook, the flow network, and around them the
// optional span recorder, fault injector, telemetry collector, user hooks
// and context poll. Engine hooks are registered in a fixed order — digest,
// recorder, collector, user hooks, context poll — that every pinned replay
// digest relies on.
type harness struct {
	opts   runOpts
	start  time.Time
	eng    *sim.SerialEngine
	digest *sim.DigestHook
	net    *network.FlowNetwork
	rec    *spantrace.Recorder
	inj    *faults.Injector
	coll   *telemetry.Collector
}

// newHarness builds the engine, digest hook and flow network. The workload
// is built on h.eng and h.net next, then wired in with attach.
func newHarness(opts runOpts, topo *network.Topology,
	rampBytes float64) *harness {

	h := &harness{opts: opts}
	if opts.clock != nil {
		h.start = opts.clock()
	}
	h.eng = sim.NewSerialEngine()
	h.digest = sim.NewDigestHook()
	h.eng.RegisterHook(h.digest)
	h.net = network.NewFlowNetwork(h.eng, topo)
	h.net.RampBytes = rampBytes
	// Self-profiling: time the max-min solver on the injected clock (the sim
	// core never reads the host clock itself). Wall time feeds counter
	// tracks and gauges only — virtual time is unaffected.
	h.net.SolveClock = opts.clock
	return h
}

// attach wires the optional observers, the fault injector, the user hooks
// and the context poll around the workload. It fails if the fault schedule
// does not fit the topology or the context is already done.
func (h *harness) attach(w workload) error {
	topo := h.net.Topology()
	if h.opts.spanTrace {
		h.rec = spantrace.NewRecorder(w.graph, topo)
		w.observe(h.rec)
		h.eng.RegisterHook(h.rec.EngineHook(h.eng.Pending))
	}
	if h.opts.faults != nil {
		inj, err := faults.NewInjector(h.eng, h.net, h.opts.faults)
		if err != nil {
			return fmt.Errorf("core: %w", err)
		}
		h.inj = inj
		// Straggler model: compute durations stretch by the enclosing
		// GPUSlowdown window's factor. Link windows become engine events
		// that rewrite bandwidth and re-solve the fair shares; an empty
		// schedule arms nothing and the run stays digest-identical.
		*w.stretch = inj.Factor
		inj.Arm()
		if h.rec != nil {
			for _, fw := range inj.Windows() {
				h.rec.AddFault(fw.Label(), fw.Start, fw.End)
			}
			for _, f := range inj.Failures() {
				h.rec.AddFault(faults.FailLabel(f), f.At, f.At)
			}
		}
	}
	if h.opts.telemetry || h.opts.metrics != nil {
		reg := h.opts.metrics
		if reg == nil {
			reg = telemetry.NewRegistry()
		}
		h.coll = telemetry.NewCollector(reg, topo, w.collectives)
		h.eng.RegisterHook(h.coll.EngineHook(h.eng.Pending))
		w.observe(h.coll)
	}
	switch {
	case h.coll != nil && h.rec != nil:
		h.net.Observer = network.MultiFlowObserver{h.coll, h.rec}
	case h.coll != nil:
		h.net.Observer = h.coll
	case h.rec != nil:
		h.net.Observer = h.rec
	}
	for _, hk := range h.opts.hooks {
		h.eng.RegisterHook(hk)
	}
	if ctx := h.opts.ctx; ctx != nil {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: simulation canceled: %w", err)
		}
		// Poll the context every 1024 dispatches: ctx.Err() is a mutex
		// acquisition, too expensive per event, and cancellation latency of
		// ~1k events is fine for sweep timeouts.
		var dispatched uint64
		h.eng.RegisterHook(sim.HookFunc(func(hc sim.HookCtx) {
			if hc.Pos != sim.HookPosAfterEvent {
				return
			}
			dispatched++
			if dispatched&1023 == 0 && ctx.Err() != nil {
				h.eng.Terminate()
			}
		}))
	}
	return nil
}

// run drives the workload to completion. When the context poll terminated
// the engine, the workload's symptom (a stalled graph, unfinished requests)
// is replaced by the context error, its cause.
func (h *harness) run(drive func() error) error {
	err := drive()
	if err != nil && h.opts.ctx != nil && h.opts.ctx.Err() != nil {
		return fmt.Errorf("core: simulation canceled: %w", h.opts.ctx.Err())
	}
	return err
}

// outcome is what finish hands back to the training or serving caller.
type outcome struct {
	events      uint64
	eventDigest uint64
	wallClock   time.Duration
	spans       *spantrace.Log
	// resilience is the checkpoint/restart overlay (nil without faults).
	resilience *faults.ResilienceResult
	report     *telemetry.RunReport
}

// finish closes a completed run whose workload ended at end. ckptCost is
// the resolved per-checkpoint pause for the resilience overlay. info
// carries the workload's RunInfo fields; finish adds the engine and
// network ones.
func (h *harness) finish(end, ckptCost sim.VTime,
	info telemetry.RunInfo) (*outcome, error) {

	o := &outcome{events: h.eng.EventCount(), eventDigest: h.digest.Sum64()}
	if h.opts.clock != nil {
		o.wallClock = h.opts.clock().Sub(h.start)
	}
	if h.rec != nil {
		// End-of-run self-profiling totals on the counter tracks. The solver
		// wall-time sample exists only when a clock was injected, so traces
		// from clockless runs stay fully deterministic.
		now := h.eng.CurrentTime()
		h.rec.Sample(spantrace.CounterQueueHighWatr, now,
			float64(h.eng.QueueHighWater()))
		if h.opts.clock != nil {
			h.rec.Sample(spantrace.CounterSolveWallMs, now,
				h.net.SolveWall.Seconds()*1e3)
		}
		o.spans = h.rec.Finalize()
	}
	if h.inj != nil {
		rc := faults.ResilienceConfig{Work: end}
		if cp := h.opts.faults.Checkpoint; cp != nil {
			rc.Interval = cp.Interval
			rc.CheckpointCost = ckptCost
			rc.RestartCost = cp.Restart
		}
		for _, f := range h.inj.Failures() {
			rc.Failures = append(rc.Failures, f.At)
		}
		rres, err := faults.Evaluate(rc)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		o.resilience = rres
	}
	if h.coll != nil {
		info.Events = o.events
		info.QueueHighWater = h.eng.QueueHighWater()
		info.NetTotalBytes = h.net.TotalBytes
		info.NetTransfers = h.net.TotalTransfers
		info.NetSolvedFlows = h.net.SolvedFlows
		info.NetSolvedLinks = h.net.SolvedLinks
		info.NetSolveSeconds = h.net.SolveWall.Seconds()
		o.report = h.coll.Finalize(info)
		o.report.Engine.EventDigest = fmt.Sprintf("%#x", o.eventDigest)
		if o.wallClock > 0 {
			o.report.Engine.WallSeconds = o.wallClock.Seconds()
			o.report.Engine.EventsPerSecond =
				float64(o.events) / o.report.Engine.WallSeconds
		}
		if h.inj != nil {
			o.report.Faults = faultReport(h.inj, o.resilience, end)
		}
	}
	return o, nil
}

// faultReport converts the injector's windows and the resilience overlay's
// accounting into the telemetry RunReport section.
func faultReport(inj *faults.Injector, rr *faults.ResilienceResult,
	makespan sim.VTime) *telemetry.FaultReport {

	ws := inj.Windows()
	fr := &telemetry.FaultReport{
		DegradedSec:   faults.DegradedSeconds(ws, makespan),
		Failures:      rr.Failures,
		Checkpoints:   rr.Checkpoints,
		CheckpointSec: rr.CheckpointTime.Seconds(),
		ReplaySec:     rr.ReplayTime.Seconds(),
		RestartSec:    rr.RestartTime.Seconds(),
		UsefulSec:     rr.UsefulTime.Seconds(),
		ExtendedSec:   rr.TotalTime.Seconds(),
		Goodput:       rr.Goodput,
	}
	for _, w := range ws {
		fr.Windows = append(fr.Windows, telemetry.FaultWindow{
			Kind:     string(w.Kind),
			Resource: w.ResourceName(),
			Factor:   w.Factor,
			StartSec: w.Start.Seconds(),
			EndSec:   w.End.Seconds(),
		})
	}
	for _, f := range inj.Failures() {
		fr.Windows = append(fr.Windows, telemetry.FaultWindow{
			Kind:     string(faults.GPUFail),
			Resource: fmt.Sprintf("gpu%d", f.GPU),
			StartSec: f.At.Seconds(),
			EndSec:   f.At.Seconds(),
		})
	}
	return fr
}
