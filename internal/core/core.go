// Package core is TrioSim proper: it wires the tracer substitute, the
// multi-GPU trace extrapolator, the linear-regression operator performance
// model, and the lightweight network model into a single simulator with the
// paper's inputs (a single-GPU trace, a network topology, GPU parameters,
// and a parallelism scheme) and outputs (predicted execution time, per-phase
// communication/computation breakdown, and a timeline).
package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"time"

	"triosim/internal/extrapolator"
	"triosim/internal/faults"
	"triosim/internal/gpu"
	"triosim/internal/hwsim"
	"triosim/internal/memory"
	"triosim/internal/models"
	"triosim/internal/network"
	"triosim/internal/perfmodel"
	"triosim/internal/sim"
	"triosim/internal/spantrace"
	"triosim/internal/task"
	"triosim/internal/telemetry"
	"triosim/internal/timeline"
	"triosim/internal/trace"
	"triosim/internal/tracecache"
)

// Parallelism selects the training strategy to simulate.
type Parallelism string

// Supported parallelism strategies.
const (
	Single Parallelism = "single"
	DP     Parallelism = "dp"  // standard DataParallel
	DDP    Parallelism = "ddp" // DistributedDataParallel (overlapped)
	TP     Parallelism = "tp"  // tensor parallelism
	PP     Parallelism = "pp"  // pipeline parallelism (GPipe)
	// Hybrid strategies: DPGroups data-parallel replicas of pipeline or
	// tensor parallel groups (an extension beyond the paper's DP/TP/PP).
	DPPP Parallelism = "dp+pp"
	DPTP Parallelism = "dp+tp"
	// DPTPPP is full 3D parallelism (Megatron-style DP×TP×PP) for
	// cluster-scale runs: TPRanks×PPStages GPUs per replica, the rest of
	// NumGPUs split into data-parallel replicas.
	DPTPPP Parallelism = "dp+tp+pp"
	// ZeRO1 is ZeRO stage-1 data parallelism: gradients reduce-scattered,
	// optimizer state sharded, parameters all-gathered.
	ZeRO1 Parallelism = "zero1"
)

// Config describes one simulation. Zero fields take the defaults Resolve
// fills in.
type Config struct {
	// Model is the workload name from the model zoo (used when Trace is
	// nil).
	Model string
	// Trace optionally supplies a pre-collected single-GPU trace.
	Trace *trace.Trace
	// TraceBatch is the batch size to collect the trace at (default: the
	// platform-appropriate 128).
	TraceBatch int
	// TraceGPU names the GPU the trace is collected on (default: the
	// platform's GPU). A different GPU exercises Li's Model's cross-GPU
	// rescaling (Fig 11 case 1).
	TraceGPU string

	// Platform is the simulated multi-GPU system.
	Platform *gpu.Platform
	// Topology optionally overrides the platform's default topology.
	Topology *network.Topology

	Parallelism Parallelism
	// NumGPUs defaults to the platform's GPU count (always 1 for Single).
	NumGPUs int
	// GlobalBatch is the simulated total mini-batch (default: the supplied
	// Trace's batch, else TraceBatch).
	GlobalBatch int
	// MicroBatches is the GPipe chunk count for PP (default 1).
	MicroBatches int
	// BucketBytes is the DDP gradient bucket size (default 25 MB).
	BucketBytes float64
	// Iterations to simulate (default 1).
	Iterations int
	// DPGroups is the number of data-parallel replicas for the hybrid
	// strategies (default 2).
	DPGroups int
	// Collective selects the gradient AllReduce algorithm: "auto"
	// (default: hierarchical on tiered topologies, ring otherwise),
	// "ring", "tree", or "hier".
	Collective string
	// TPRanks and PPStages size the tensor and pipeline dimensions of the
	// "dp+tp+pp" strategy (default 1 each); the data-parallel dimension is
	// NumGPUs / (TPRanks·PPStages).
	TPRanks  int
	PPStages int
	// FuseCompute collapses sequential op chains into single compute tasks
	// (see extrapolator.Config.FuseCompute). Needed for cluster-scale runs.
	FuseCompute bool
	// InferenceOnly simulates forward-only execution (no backward pass, no
	// gradient synchronization, no optimizer).
	InferenceOnly bool
	// ComputeModel selects the operator performance model: "li" (default,
	// the paper's Li's Model regression), "roofline" (NeuSight-style pooled
	// device roofline), or "hybrid" (Li where the per-type fit is size-
	// diverse, roofline otherwise — §8.2's alternative-model integration).
	ComputeModel string
	// Clock supplies wall-clock readings for Result.WallClock (the paper's
	// Fig 14 simulator-runtime metric). The sim core never reads the host
	// clock itself — triosimvet's no-wallclock analyzer enforces that — so
	// callers that want the metric pass time.Now here. Nil leaves WallClock
	// zero.
	Clock func() time.Time
	// Telemetry enables the unified telemetry layer: a Collector observes
	// task completions, network flows, and engine dispatch, and Result.Report
	// carries the structured RunReport. Observation is side-effect-free, so
	// Result.EventDigest is identical with or without it.
	Telemetry bool
	// Metrics optionally supplies the registry the Collector populates
	// (implies Telemetry). Share one registry with a monitor.RTM to serve a
	// live Prometheus /metrics surface.
	Metrics *telemetry.Registry
	// SpanTrace enables the span recorder: Result.Spans carries the
	// virtual-time span log (one span per task and fault window plus counter
	// series) and Result.CriticalPath its critical-path analysis. Like
	// Telemetry, observation is side-effect-free: Result.EventDigest is
	// identical with or without it (pinned by a regression test).
	SpanTrace bool
	// Hooks are extra engine hooks registered before the run (e.g. a
	// monitor.RTM progress hook). Hooks must not schedule events.
	Hooks []sim.Hook
	// Context optionally bounds the simulation: the engine polls ctx.Err()
	// periodically during dispatch and terminates early, and the run returns
	// the context's error. internal/sweep uses this for per-scenario timeouts
	// and sweep-wide cancellation. Nil means no cancellation.
	Context context.Context
	// Cache optionally shares collected traces and fitted operator timers
	// across simulations: scenarios with the same (model, trace batch, GPU
	// spec, noise amplitude) reuse one immutable trace instead of rebuilding
	// it. internal/sweep and cmd/experiments set this by default; a supplied
	// Trace bypasses the cache. Cached values are shared read-only — see
	// docs/PERFORMANCE.md for the keying rules and copy-on-write contract.
	Cache *tracecache.Store
	// Faults optionally injects a deterministic fault schedule: degraded or
	// dead links re-solve the flow network's fair shares mid-run, GPU
	// slowdown windows stretch compute tasks (stragglers), and GPUFail
	// events drive the checkpoint/restart resilience overlay
	// (Result.Resilience, Result.Goodput). An empty or all-no-op schedule
	// leaves the run bit-identical to Faults being nil. See docs/RESILIENCE.md.
	Faults *faults.Schedule
}

// telemetryOn reports whether a Collector should run.
func (c *Config) telemetryOn() bool { return c.Telemetry || c.Metrics != nil }

// Resolve returns c with every default filled in, or an error naming the
// first field no simulation can run with. It is the one place a Config is
// defaulted and checked, and it collects no trace: Simulate, GroundTruth,
// MemoryFootprint and Advise start with it, and cmd/triosim and triosimd
// call it to reject a bad spec before any work starts. A resolved Config
// resolves to itself.
func (c Config) Resolve() (Config, error) {
	if c.Platform == nil {
		return c, fmt.Errorf("core: no Platform")
	}
	c.Parallelism = cmp.Or(c.Parallelism, Single)
	switch c.Parallelism {
	case Single, DP, DDP, TP, PP, DPPP, DPTP, DPTPPP, ZeRO1:
	default:
		return c, fmt.Errorf("core: unknown Parallelism %q", c.Parallelism)
	}
	// Zero selects each count's default; a negative one would silently mean
	// the same or fail deep in graph construction, so it is rejected here.
	for _, f := range []struct {
		name string
		v    int
	}{
		{"NumGPUs", c.NumGPUs}, {"TraceBatch", c.TraceBatch},
		{"Iterations", c.Iterations}, {"GlobalBatch", c.GlobalBatch},
		{"MicroBatches", c.MicroBatches}, {"DPGroups", c.DPGroups},
		{"TPRanks", c.TPRanks}, {"PPStages", c.PPStages},
	} {
		if f.v < 0 {
			return c, fmt.Errorf("core: %s must be >= 0, got %d", f.name, f.v)
		}
	}
	if c.BucketBytes < 0 || math.IsNaN(c.BucketBytes) {
		return c, fmt.Errorf("core: BucketBytes must be >= 0, got %g",
			c.BucketBytes)
	}

	if c.Parallelism == Single {
		c.NumGPUs = 1
	}
	c.NumGPUs = cmp.Or(c.NumGPUs, c.Platform.NumGPUs)
	c.TraceBatch = cmp.Or(c.TraceBatch, 128)
	c.TraceGPU = cmp.Or(c.TraceGPU, c.Platform.GPU.Name)
	if c.Trace != nil {
		c.GlobalBatch = cmp.Or(c.GlobalBatch, c.Trace.BatchSize)
	}
	c.GlobalBatch = cmp.Or(c.GlobalBatch, c.TraceBatch)
	c.MicroBatches = cmp.Or(c.MicroBatches, 1)
	c.BucketBytes = cmp.Or(c.BucketBytes, 25<<20)
	c.Iterations = cmp.Or(c.Iterations, 1)
	if c.Parallelism == DPPP || c.Parallelism == DPTP {
		c.DPGroups = cmp.Or(c.DPGroups, 2)
	}
	c.TPRanks = cmp.Or(c.TPRanks, 1)
	c.PPStages = cmp.Or(c.PPStages, 1)
	c.Collective = cmp.Or(c.Collective, "auto")
	c.ComputeModel = cmp.Or(c.ComputeModel, "li")

	switch c.Collective {
	case "auto", "ring", "tree", "hier":
	default:
		return c, fmt.Errorf("core: unknown Collective %q", c.Collective)
	}
	switch c.ComputeModel {
	case "li", "roofline", "hybrid":
	default:
		return c, fmt.Errorf("core: unknown ComputeModel %q", c.ComputeModel)
	}
	// The trace's GPU must be known to collect on it, or, for a supplied
	// trace from another GPU, for Li's Model to rescale it; the pooled
	// models have no cross-GPU rescaling.
	dev, field := c.TraceGPU, "TraceGPU"
	if c.Trace != nil {
		dev, field = c.Trace.Device, "Trace.Device"
	}
	crossGPU := dev != c.Platform.GPU.Name
	if c.Trace == nil || crossGPU {
		if _, err := gpu.SpecByName(dev); err != nil {
			return c, fmt.Errorf("core: %s: %w", field, err)
		}
	}
	if crossGPU && c.ComputeModel != "li" {
		return c, fmt.Errorf("core: ComputeModel %q has no cross-GPU "+
			"rescaling (trace from %s, platform %s)", c.ComputeModel, dev,
			c.Platform.GPU.Name)
	}

	// Cross-field checks that would otherwise surface only after the trace
	// is collected: as an extrapolator error, or not at all (each GPU or
	// replica would run a fractional batch share).
	gpus := c.Platform.NumGPUs
	if c.Topology != nil {
		gpus = len(c.Topology.GPUs())
	}
	if c.NumGPUs > gpus {
		return c, fmt.Errorf("core: NumGPUs %d exceeds the topology's %d GPUs",
			c.NumGPUs, gpus)
	}
	switch c.Parallelism {
	case DP, DDP, ZeRO1:
		if c.GlobalBatch < c.NumGPUs {
			return c, fmt.Errorf("core: GlobalBatch %d is smaller than "+
				"the %d data-parallel GPUs", c.GlobalBatch, c.NumGPUs)
		}
	case DPPP, DPTP:
		if c.DPGroups < 2 {
			return c, fmt.Errorf("core: DPGroups %d: a hybrid needs at "+
				"least 2 data-parallel groups", c.DPGroups)
		}
		if c.NumGPUs%c.DPGroups != 0 {
			return c, fmt.Errorf("core: NumGPUs %d not divisible into "+
				"DPGroups %d", c.NumGPUs, c.DPGroups)
		}
		if c.GlobalBatch%c.DPGroups != 0 {
			return c, fmt.Errorf("core: GlobalBatch %d not divisible by "+
				"DPGroups %d", c.GlobalBatch, c.DPGroups)
		}
	case DPTPPP:
		// Each factor is bounded by NumGPUs first, so the product cannot
		// overflow.
		if c.TPRanks > c.NumGPUs || c.PPStages > c.NumGPUs ||
			c.NumGPUs%(c.TPRanks*c.PPStages) != 0 {
			return c, fmt.Errorf("core: NumGPUs %d not divisible by "+
				"TPRanks×PPStages = %d×%d", c.NumGPUs, c.TPRanks, c.PPStages)
		}
		if dp := c.NumGPUs / (c.TPRanks * c.PPStages); c.GlobalBatch%dp != 0 {
			return c, fmt.Errorf("core: GlobalBatch %d not divisible by the "+
				"%d data-parallel replicas", c.GlobalBatch, dp)
		}
	}
	// Last, so every check above runs (and is tested) without a zoo model.
	if c.Trace == nil && !models.Known(c.Model) {
		return c, fmt.Errorf("core: Model %q is not in the model zoo and no "+
			"Trace is given", c.Model)
	}
	return c, nil
}

// Result is the simulator's output.
type Result struct {
	// TotalTime is the simulated end-to-end time for all iterations.
	TotalTime sim.VTime
	// PerIteration is TotalTime / iterations.
	PerIteration sim.VTime
	// ComputeTime is the union time during which at least one GPU computed.
	ComputeTime sim.VTime
	// CommTime is the union time during which at least one inter-GPU
	// transfer was in flight.
	CommTime sim.VTime
	// HostLoadTime is the union time of host→GPU input staging.
	HostLoadTime sim.VTime
	// Tasks is the extrapolated graph size.
	Tasks int
	// Events is the number of engine events dispatched.
	Events uint64
	// WallClock is how long the simulation itself took to run (the paper's
	// Fig 14 metric). Zero unless Config.Clock was set.
	WallClock time.Duration
	// EventDigest is the FNV-1a digest of the dispatched event schedule
	// (time, handler, sequence). Identical configurations must produce
	// identical digests; triosimvet -replay uses this as its runtime
	// determinism gate.
	EventDigest uint64
	// Report is the structured telemetry RunReport (nil unless
	// Config.Telemetry or Config.Metrics enabled collection).
	Report *telemetry.RunReport
	// Spans is the virtual-time span log (nil unless Config.SpanTrace).
	// Export with Spans.WriteChromeTrace for Perfetto / chrome://tracing,
	// or Spans.WriteHTML for the HTML timeline viewer.
	Spans *spantrace.Log
	// CriticalPath is the makespan-setting chain extracted from Spans with
	// per-category attribution and a near-critical slack table (nil unless
	// Config.SpanTrace).
	CriticalPath *spantrace.Report
	// Resilience is the checkpoint/restart overlay's accounting (nil unless
	// Config.Faults was set): the makespan extended with checkpoint pauses,
	// failure restarts, and replayed work.
	Resilience *faults.ResilienceResult
	// Goodput is useful vtime / total vtime under the fault schedule (1
	// when no failure fired and no checkpoint policy was set). Zero unless
	// Config.Faults was set.
	Goodput float64
}

// BuildTopology constructs the platform's default interconnect.
func BuildTopology(p *gpu.Platform) *network.Topology {
	cfg := network.Config{
		NumGPUs:       p.NumGPUs,
		LinkBandwidth: p.LinkBandwidth,
		LinkLatency:   p.LinkLatency,
		HostBandwidth: p.HostBandwidth,
		HostLatency:   p.HostLatency,
	}
	switch p.Topology {
	case gpu.TopoPCIeTree:
		return network.PCIeTree(cfg)
	case gpu.TopoRing:
		return network.Ring(cfg)
	case gpu.TopoMesh:
		// Square-ish mesh.
		rows := 1
		for rows*rows < p.NumGPUs {
			rows++
		}
		cols := (p.NumGPUs + rows - 1) / rows
		return network.Mesh(rows, cols, cfg)
	default:
		return network.Switch(cfg)
	}
}

// collectTrace returns the configured trace, collecting one from the model
// zoo + hardware emulator — or the shared trace cache — when none was
// supplied. Traces returned through the cache are shared read-only.
func collectTrace(cfg Config) (*trace.Trace, error) {
	if cfg.Trace != nil {
		return cfg.Trace, nil
	}
	spec, err := gpu.SpecByName(cfg.TraceGPU)
	if err != nil {
		return nil, err
	}
	return zooTrace(cfg.Cache, cfg.Model, cfg.TraceBatch, spec)
}

// zooTrace collects a model-zoo trace on the hardware emulator, through the
// trace cache when one is configured.
func zooTrace(cache *tracecache.Store, model string, batch int,
	spec *gpu.Spec) (*trace.Trace, error) {

	collect := func() (*trace.Trace, error) {
		return hwsim.CollectTrace(model, batch, spec)
	}
	if cache == nil {
		return collect()
	}
	return cache.GetTrace(traceKey(model, batch, spec), collect)
}

// traceKey content-addresses a zoo trace: everything that influences the
// collected bytes (model, batch, the full GPU spec by value, and the
// stamping timer's noise amplitude) is part of the key.
func traceKey(model string, batch int, spec *gpu.Spec) tracecache.Key {
	return tracecache.Key{
		Model:    model,
		Batch:    batch,
		Spec:     *spec,
		NoiseAmp: hwsim.DefaultNoiseAmp,
	}
}

// extrapolate builds the task graph for the configured parallelism.
func extrapolate(cfg Config, tr *trace.Trace, topo *network.Topology,
	timer extrapolator.OpTimer, effects hwsim.Effects,
	collLog *telemetry.CollectiveLog) (*extrapolator.Result, error) {

	ecfg := extrapolator.Config{
		Trace:        tr,
		Topo:         topo,
		NumGPUs:      cfg.NumGPUs,
		Timer:        timer,
		Effects:      effects,
		GlobalBatch:  cfg.GlobalBatch,
		MicroBatches: cfg.MicroBatches,
		BucketBytes:  cfg.BucketBytes,
		Iterations:   cfg.Iterations,
		Collective:   cfg.Collective,
		FuseCompute:  cfg.FuseCompute,
		ForwardOnly:  cfg.InferenceOnly,
		Collectives:  collLog,
	}
	switch cfg.Parallelism {
	case Single:
		return extrapolator.SingleGPU(ecfg)
	case DP:
		return extrapolator.DataParallel(ecfg, false)
	case DDP:
		return extrapolator.DataParallel(ecfg, true)
	case TP:
		return extrapolator.TensorParallel(ecfg)
	case PP:
		return extrapolator.PipelineParallel(ecfg)
	case DPPP:
		return extrapolator.HybridDPPP(ecfg, cfg.DPGroups)
	case DPTP:
		return extrapolator.HybridDPTP(ecfg, cfg.DPGroups)
	case DPTPPP:
		tp, pp := cfg.TPRanks, cfg.PPStages
		return extrapolator.Hybrid3D(ecfg, cfg.NumGPUs/(tp*pp), tp, pp)
	case ZeRO1:
		return extrapolator.DataParallelZeRO(ecfg)
	}
	return nil, fmt.Errorf("core: unknown parallelism %q", cfg.Parallelism)
}

// runOpts extracts the settings the run harness owns.
func (c *Config) runOpts() runOpts {
	return runOpts{
		clock:     c.Clock,
		telemetry: c.Telemetry,
		metrics:   c.Metrics,
		spanTrace: c.SpanTrace,
		hooks:     c.Hooks,
		ctx:       c.Context,
		faults:    c.Faults,
	}
}

// execute is the common tail of Simulate and GroundTruth: extrapolate the
// trace to the resolved configuration's parallelism with the given operator
// timer and platform effects, run the task graph over the platform network,
// and package the results.
func execute(cfg Config, tr *trace.Trace, timer extrapolator.OpTimer,
	effects hwsim.Effects) (*Result, error) {

	topo := cfg.Topology
	if topo == nil {
		topo = BuildTopology(cfg.Platform)
	}
	var collLog *telemetry.CollectiveLog
	if cfg.telemetryOn() {
		collLog = telemetry.NewCollectiveLog()
	}
	res, err := extrapolate(cfg, tr, topo, timer, effects, collLog)
	if err != nil {
		return nil, err
	}

	h := newHarness(cfg.runOpts(), topo, effects.CommRampBytes)
	tl := timeline.New()
	x := task.NewExecutor(h.eng, h.net, res.Graph, tl)
	if err := h.attach(workload{
		graph:       res.Graph,
		collectives: collLog,
		observe:     x.Observe,
		stretch:     &x.Stretch,
	}); err != nil {
		return nil, err
	}
	var makespan sim.VTime
	if err := h.run(func() (err error) {
		makespan, err = x.Run()
		return err
	}); err != nil {
		return nil, err
	}
	out := &Result{
		TotalTime:    makespan,
		PerIteration: makespan / sim.VTime(cfg.Iterations),
		ComputeTime:  tl.UnionTime(timeline.ByPhase("compute")),
		CommTime:     tl.UnionTime(timeline.ByPhase("comm")),
		HostLoadTime: tl.UnionTime(timeline.ByPhase("hostload")),
		Tasks:        res.Graph.Len(),
	}
	o, err := h.finish(makespan, checkpointCost(cfg, tr), telemetry.RunInfo{
		Model:           cfg.Model,
		Platform:        cfg.Platform.Name,
		Parallelism:     string(cfg.Parallelism),
		NumGPUs:         cfg.NumGPUs,
		Iterations:      cfg.Iterations,
		TotalSec:        makespan.Seconds(),
		PerIterationSec: out.PerIteration.Seconds(),
		Parallel:        res.Meta,
		Phases:          tl,
	})
	if err != nil {
		return nil, err
	}
	out.Events, out.EventDigest, out.WallClock = o.events, o.eventDigest, o.wallClock
	out.Report, out.Spans, out.Resilience = o.report, o.spans, o.resilience
	if out.Spans != nil {
		out.CriticalPath = out.Spans.CriticalPath(0)
	}
	if out.Resilience != nil {
		out.Goodput = out.Resilience.Goodput
	}
	if out.Report != nil {
		out.Report.CriticalPath = out.CriticalPath
	}
	attachCacheStats(cfg, out)
	return out, nil
}

// Simulate is TrioSim's prediction path: fit Li's Model on the single-GPU
// trace (rescaling it when the trace came from a different GPU than the
// simulated platform), extrapolate to the multi-GPU configuration with no
// hardware protocol overheads, and execute over the lightweight network
// model.
func Simulate(cfg Config) (*Result, error) {
	cfg, err := cfg.Resolve()
	if err != nil {
		return nil, err
	}
	tr, err := collectTrace(cfg)
	if err != nil {
		return nil, err
	}
	timer, err := fitTimerCached(cfg, tr)
	if err != nil {
		return nil, err
	}
	return execute(cfg, tr, timer, hwsim.NoEffects)
}

// fitTimer fits the resolved configuration's operator performance model on
// the trace, rescaling Li's Model when the trace came from a different GPU
// than the simulated platform (Resolve admits no other cross-GPU model).
func fitTimer(cfg Config, tr *trace.Trace) (extrapolator.OpTimer, error) {
	switch cfg.ComputeModel {
	case "roofline":
		return perfmodel.FitRoofline(tr)
	case "hybrid":
		return perfmodel.FitHybrid(tr)
	}
	model, err := perfmodel.Fit(tr)
	if err != nil || tr.Device == cfg.Platform.GPU.Name {
		return model, err
	}
	from, err := gpu.SpecByName(tr.Device)
	if err != nil {
		return nil, err
	}
	return model.Rescale(from, &cfg.Platform.GPU), nil
}

// fitTimerCached memoizes fitTimer through the trace cache when the trace is
// itself cache-addressable (a zoo trace, not a caller-supplied one). Fitting
// is pure and fitted models are read-only at prediction time, so sharing one
// model across scenarios is safe.
func fitTimerCached(cfg Config, tr *trace.Trace) (extrapolator.OpTimer, error) {
	if cfg.Cache == nil || cfg.Trace != nil {
		return fitTimer(cfg, tr)
	}
	spec, err := gpu.SpecByName(cfg.TraceGPU)
	if err != nil {
		return nil, err
	}
	tk := tracecache.TimerKey{
		Trace:        traceKey(cfg.Model, cfg.TraceBatch, spec),
		ComputeModel: cfg.ComputeModel,
		Target:       cfg.Platform.GPU,
	}
	return cfg.Cache.GetTimer(tk, func() (tracecache.OpTimer, error) {
		return fitTimer(cfg, tr)
	})
}

// attachCacheStats copies the shared store's counters into the run's
// telemetry report. The counters are store-wide — they accumulate across
// every simulation sharing the cache — so this section is explicitly outside
// the RunReport byte-identity guarantee and is omitted when no cache is
// configured.
func attachCacheStats(cfg Config, res *Result) {
	if cfg.Cache == nil {
		return
	}
	st := cfg.Cache.Stats()
	if res.Report != nil {
		res.Report.TraceCache = &telemetry.TraceCacheStat{
			TraceHits:   st.TraceHits,
			TraceMisses: st.TraceMisses,
			TimerHits:   st.TimerHits,
			TimerMisses: st.TimerMisses,
			Traces:      st.Traces,
			Timers:      st.Timers,
			Bytes:       st.Bytes,
		}
	}
	if cfg.Metrics != nil {
		cfg.Metrics.Gauge("triosim_tracecache_trace_hits", "", "",
			"trace cache trace hits (store-wide)").Set(float64(st.TraceHits))
		cfg.Metrics.Gauge("triosim_tracecache_trace_misses", "", "",
			"trace cache trace misses (store-wide)").Set(float64(st.TraceMisses))
		cfg.Metrics.Gauge("triosim_tracecache_timer_hits", "", "",
			"trace cache timer hits (store-wide)").Set(float64(st.TimerHits))
		cfg.Metrics.Gauge("triosim_tracecache_timer_misses", "", "",
			"trace cache timer misses (store-wide)").Set(float64(st.TimerMisses))
		cfg.Metrics.Gauge("triosim_tracecache_bytes", "", "",
			"trace cache resident bytes (store-wide)").Set(float64(st.Bytes))
	}
	if res.Spans != nil {
		// Store-wide totals on the trace's counter tracks, stamped at the end
		// of the run.
		at := res.TotalTime
		res.Spans.Sample(spantrace.CounterCacheTrHits, at, float64(st.TraceHits))
		res.Spans.Sample(spantrace.CounterCacheTrMiss, at, float64(st.TraceMisses))
		res.Spans.Sample(spantrace.CounterCacheTmHits, at, float64(st.TimerHits))
		res.Spans.Sample(spantrace.CounterCacheTmMiss, at, float64(st.TimerMisses))
		res.Spans.Sample(spantrace.CounterCacheBytes, at, float64(st.Bytes))
	}
}

// checkpointCost resolves the per-checkpoint pause for the resilience
// overlay. An explicit Checkpoint.Cost wins; zero derives it from the
// checkpointed state's size — weights plus optimizer state, the tensors a
// training checkpoint must persist — moved over the host staging path.
func checkpointCost(cfg Config, tr *trace.Trace) sim.VTime {
	if cfg.Faults == nil || cfg.Faults.Checkpoint == nil {
		return 0
	}
	if cp := cfg.Faults.Checkpoint; cp.Cost.After(0) {
		return cp.Cost
	}
	// Optimizer state mirrors memory.Estimate's default: 4 bytes/param
	// (SGD with momentum), the same size as the fp32 weights.
	bytes := 2 * float64(tr.WeightBytes())
	if cfg.Platform.HostBandwidth <= 0 {
		return 0
	}
	return cfg.Platform.HostLatency + sim.VTime(bytes/cfg.Platform.HostBandwidth)
}

// GroundTruth is the reference-hardware path standing in for the paper's
// physical platforms: the workload is "executed" natively at the simulated
// sizes with hwsim's nonlinear operator timer and the platform's protocol
// overheads. TrioSim's predictions are validated against this.
func GroundTruth(cfg Config) (*Result, error) {
	cfg, err := cfg.Resolve()
	if err != nil {
		return nil, err
	}
	if cfg.Model == "" {
		return nil, fmt.Errorf("core: ground truth requires a zoo model name")
	}
	// Native trace on the platform's own GPU at the simulated global batch:
	// real hardware does not extrapolate across batch sizes or devices.
	tr, err := zooTrace(cfg.Cache, cfg.Model, cfg.GlobalBatch,
		&cfg.Platform.GPU)
	if err != nil {
		return nil, err
	}
	return execute(cfg, tr, hwsim.NewTimer(&cfg.Platform.GPU),
		hwsim.PlatformEffects(cfg.Platform))
}

// Comparison holds a predicted-vs-hardware pair, the paper's validation
// unit.
type Comparison struct {
	Model     string
	Predicted sim.VTime
	Actual    sim.VTime
	// Error is |Predicted-Actual| / Actual.
	Error float64
	// Normalized is Predicted / Actual (the paper's normalized-time bars).
	Normalized float64
}

// Validate runs both paths and compares per-iteration times.
func Validate(cfg Config) (*Comparison, error) {
	cmp, _, _, err := ValidatePair(cfg)
	return cmp, err
}

// ValidatePair is Validate returning the two underlying results as well, so
// callers can export the prediction's telemetry or span trace alongside the
// comparison (cmd/experiments does).
func ValidatePair(cfg Config) (*Comparison, *Result, *Result, error) {
	pred, err := Simulate(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	actual, err := GroundTruth(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	p := float64(pred.PerIteration)
	a := float64(actual.PerIteration)
	diff := p - a
	if diff < 0 {
		diff = -diff
	}
	return &Comparison{
		Model:      cfg.Model,
		Predicted:  pred.PerIteration,
		Actual:     actual.PerIteration,
		Error:      diff / a,
		Normalized: p / a,
	}, pred, actual, nil
}

// MemoryReport is the per-GPU peak-memory estimate for a configuration.
type MemoryReport struct {
	PerGPU []memory.Footprint
	// Fits is false when some GPU exceeds its memory capacity.
	Fits bool
	// WorstUtilization is the highest footprint/capacity fraction.
	WorstUtilization float64
}

// MemoryFootprint estimates whether the configured training run fits in GPU
// memory — the constraint that forces the paper to trace Llama at batch 16
// and to exclude batch-256 transformers. Hybrid strategies are estimated as
// their inner strategy over the per-replica batch share.
func MemoryFootprint(cfg Config) (*MemoryReport, error) {
	cfg, err := cfg.Resolve()
	if err != nil {
		return nil, err
	}
	tr, err := collectTrace(cfg)
	if err != nil {
		return nil, err
	}
	batch := cfg.GlobalBatch
	mcfg := memory.Config{Trace: tr, GlobalBatch: batch}
	switch cfg.Parallelism {
	case Single:
		mcfg.Strategy, mcfg.NumGPUs = memory.Single, 1
	case DP, DDP:
		mcfg.Strategy, mcfg.NumGPUs = memory.DP, cfg.NumGPUs
	case ZeRO1:
		mcfg.Strategy, mcfg.NumGPUs = memory.ZeRO1, cfg.NumGPUs
	case TP:
		mcfg.Strategy, mcfg.NumGPUs = memory.TP, cfg.NumGPUs
	case PP:
		mcfg.Strategy, mcfg.NumGPUs = memory.PP, cfg.NumGPUs
		mcfg.StageOf = extrapolator.StageAssignment(tr, cfg.NumGPUs)
	case DPPP:
		mcfg.Strategy = memory.PP
		mcfg.NumGPUs = cfg.NumGPUs / cfg.DPGroups
		mcfg.GlobalBatch = batch / cfg.DPGroups
		mcfg.StageOf = extrapolator.StageAssignment(tr, mcfg.NumGPUs)
	case DPTP:
		mcfg.Strategy = memory.TP
		mcfg.NumGPUs = cfg.NumGPUs / cfg.DPGroups
		mcfg.GlobalBatch = batch / cfg.DPGroups
	case DPTPPP:
		// Conservative per-GPU bound: price the pipeline dimension only
		// (each stage further TP-shards its weights, so the true footprint
		// is lower).
		tp, pp := cfg.TPRanks, cfg.PPStages
		mcfg.Strategy = memory.PP
		mcfg.NumGPUs = pp
		mcfg.GlobalBatch = batch * tp * pp / cfg.NumGPUs
		mcfg.StageOf = extrapolator.StageAssignment(tr, pp)
	}
	fp, err := memory.Estimate(mcfg)
	if err != nil {
		return nil, err
	}
	fits, worst := memory.Fits(fp, cfg.Platform.GPU.MemCapacity)
	return &MemoryReport{PerGPU: fp, Fits: fits, WorstUtilization: worst}, nil
}
