package core

import (
	"context"
	"fmt"
	"time"

	"triosim/internal/faults"
	"triosim/internal/gpu"
	"triosim/internal/network"
	"triosim/internal/serving"
	"triosim/internal/sim"
	"triosim/internal/spantrace"
	"triosim/internal/telemetry"
)

// ServeConfig describes one request-level inference-serving simulation: a
// serving workload (internal/serving) executed on a platform's GPUs and
// interconnect with the same observability and determinism plumbing as a
// training run.
type ServeConfig struct {
	// Serving is the workload: model, scheduler, batching, and arrivals.
	Serving serving.Config
	// Platform is the simulated multi-GPU system.
	Platform *gpu.Platform
	// Topology optionally overrides the platform's default topology.
	Topology *network.Topology
	// Clock supplies wall-clock readings for ServeResult.WallClock; nil
	// leaves it zero (see Config.Clock).
	Clock func() time.Time
	// Telemetry / Metrics enable the RunReport exactly as in Config.
	Telemetry bool
	Metrics   *telemetry.Registry
	// SpanTrace enables the span recorder: per-step spans on GPU tracks and
	// one lifetime span per request on "requests.gpuN" tracks.
	SpanTrace bool
	// Hooks are extra engine hooks; they must not schedule events.
	Hooks []sim.Hook
	// Context optionally bounds the run (see Config.Context).
	Context context.Context
	// Faults optionally injects link-degrade/down windows and GPU slowdown
	// stretch. GPUFail events and checkpoint policies are rejected: the
	// serving layer has no checkpoint/restart model — a failed replica
	// would need request re-routing, which this PR does not simulate.
	Faults *faults.Schedule
}

// ServeResult is a serving simulation's output.
type ServeResult struct {
	// Metrics is the request-level outcome: latency tails, throughput, and
	// batching efficiency.
	Metrics *serving.Metrics
	// TotalTime is the full simulated duration (virtual time zero to the
	// last delivered response).
	TotalTime sim.VTime
	// Events / EventDigest mirror Result: the digest pins the dispatched
	// schedule for triosimvet -replay.
	Events      uint64
	EventDigest uint64
	// WallClock is the host time the simulation took (zero without Clock).
	WallClock time.Duration
	// Report is the RunReport with its Serving section populated (nil
	// unless Telemetry/Metrics).
	Report *telemetry.RunReport
	// Spans is the span log (nil unless SpanTrace). Serving runs carry no
	// critical-path analysis: request lifetimes overlap by design, so a
	// single makespan-setting chain through them is not meaningful.
	Spans *spantrace.Log
}

// Serve runs one request-level serving simulation.
func Serve(cfg ServeConfig) (*ServeResult, error) {
	if cfg.Platform == nil {
		return nil, fmt.Errorf("core: no platform")
	}
	if f := cfg.Faults; f != nil {
		if f.Checkpoint != nil {
			return nil, fmt.Errorf(
				"core: serving has no checkpoint/restart model")
		}
		if n := len(f.Failures()); n > 0 {
			return nil, fmt.Errorf(
				"core: serving does not support gpufail events (%d in schedule): "+
					"a failed replica would need request re-routing", n)
		}
	}
	topo := cfg.Topology
	if topo == nil {
		topo = BuildTopology(cfg.Platform)
	}

	h := newHarness(runOpts{
		clock:     cfg.Clock,
		telemetry: cfg.Telemetry,
		metrics:   cfg.Metrics,
		spanTrace: cfg.SpanTrace,
		hooks:     cfg.Hooks,
		ctx:       cfg.Context,
		faults:    cfg.Faults,
	}, topo, cfg.Platform.CommRampBytes)
	spec := cfg.Platform.GPU
	cl, err := serving.New(h.eng, h.net, topo, &spec, cfg.Serving)
	if err != nil {
		return nil, err
	}
	if err := h.attach(workload{
		observe: cl.Observe,
		stretch: &cl.Stretch,
	}); err != nil {
		return nil, err
	}
	cl.Spans = h.rec
	var m *serving.Metrics
	if err := h.run(func() (err error) {
		cl.Start()
		if err = h.eng.Run(); err != nil {
			return err
		}
		m, err = cl.Metrics()
		return err
	}); err != nil {
		return nil, err
	}

	// Serving has no checkpoint/restart overlay: the resilience walk over
	// the whole run yields goodput 1 and useful == extended == total.
	total := h.eng.CurrentTime()
	o, err := h.finish(total, 0, telemetry.RunInfo{
		Model:           cfg.Serving.Model,
		Platform:        cfg.Platform.Name,
		Parallelism:     "serving-" + m.Scheduler,
		NumGPUs:         m.Replicas,
		Iterations:      1,
		TotalSec:        total.Seconds(),
		PerIterationSec: total.Seconds(),
		Parallel: telemetry.ParallelStat{
			Strategy: "serving-" + m.Scheduler,
			Replicas: m.Replicas,
		},
	})
	if err != nil {
		return nil, err
	}
	if o.report != nil {
		o.report.Serving = servingStat(m)
	}
	return &ServeResult{
		Metrics:     m,
		TotalTime:   total,
		Events:      o.events,
		EventDigest: o.eventDigest,
		WallClock:   o.wallClock,
		Report:      o.report,
		Spans:       o.spans,
	}, nil
}

// servingStat converts serving metrics into the RunReport section.
func servingStat(m *serving.Metrics) *telemetry.ServingStat {
	return &telemetry.ServingStat{
		Scheduler:          m.Scheduler,
		Replicas:           m.Replicas,
		MaxBatch:           m.MaxBatch,
		Requests:           m.Requests,
		Completed:          m.Completed,
		OfferedRPS:         m.OfferedRPS,
		MakespanSec:        m.MakespanSec,
		ThroughputRPS:      m.ThroughputRPS,
		TokensPerSec:       m.TokensPerSec,
		Latency:            quantiles(m.Latency),
		TTFT:               quantiles(m.TTFT),
		Steps:              m.Steps,
		MeanBatch:          m.MeanBatch,
		BatchingEfficiency: m.BatchingEfficiency,
		GeneratedTokens:    m.GeneratedTokens,
		KVPeakBytes:        m.KVPeakBytes,
	}
}

func quantiles(ls serving.LatencyStats) telemetry.LatencyQuantiles {
	return telemetry.LatencyQuantiles{
		MeanSec: ls.MeanSec,
		P50Sec:  ls.P50Sec,
		P90Sec:  ls.P90Sec,
		P99Sec:  ls.P99Sec,
		P999Sec: ls.P999Sec,
		MaxSec:  ls.MaxSec,
	}
}
