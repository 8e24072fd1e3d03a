package main

import (
	"fmt"
	"runtime"
	"time"

	"triosim/internal/core"
	"triosim/internal/extrapolator"
	"triosim/internal/gpu"
	"triosim/internal/hwsim"
	"triosim/internal/network"
	"triosim/internal/perfmodel"
	"triosim/internal/serving"
	"triosim/internal/sim"
	"triosim/internal/task"
	"triosim/internal/timeline"
	"triosim/internal/trace"
	"triosim/internal/tracecache"
)

// layers accumulates per-layer host time, allocation and work counts over a
// traced pass. The replay below drives each layer through its public
// functions one stage at a time and measures every call from outside; no
// code inside the simulator is instrumented except the flow network's
// injected SolveClock, which exists for exactly this purpose.
//
// The set-up stages (collect, predTrace, predTimer, topology, topoStage)
// also take a nil *layers and then run untimed, so set-up code shares them
// between the untraced and the traced run; the replays need a real one.
type layers struct {
	topoS, collectS, fitS, buildS, execS, solveS, unionS float64
	buildAlloc, execAlloc, unionAlloc                    uint64

	collects, fits, tasks                   int
	solves, solvedFlows, solvedLinks, xfers int
	events                                  uint64
	queueHigh                               int
}

// timed runs fn, adding its host seconds to *secs and, when alloc is non-nil,
// the bytes it allocated to *alloc. MemStats is read outside the timed span.
func (l *layers) timed(secs *float64, alloc *uint64, fn func() error) error {
	var before runtime.MemStats
	if alloc != nil {
		runtime.ReadMemStats(&before)
	}
	t0 := time.Now()
	err := fn()
	*secs += time.Since(t0).Seconds()
	if alloc != nil {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		*alloc += after.TotalAlloc - before.TotalAlloc
	}
	return err
}

// outcome is what the replay must reproduce from the untraced run.
type outcome struct {
	total, perIter sim.VTime
	digest         uint64
}

func (o outcome) String() string {
	return fmt.Sprintf("makespan %v digest %#x", o.total, o.digest)
}

// sameOutcome is the replay-equality check: the stage-by-stage replay must
// reproduce the untraced run's makespan and event digest exactly.
func sameOutcome(what string, replay, untraced outcome) error {
	if replay.total != untraced.total || replay.digest != untraced.digest {
		return fmt.Errorf("%s: replay does not match the untraced run: "+
			"replay %v, untraced %v", what, replay, untraced)
	}
	return nil
}

// hitRatio is the share of trace and timer lookups served from the cache.
func hitRatio(st tracecache.Stats) float64 {
	hits := st.TraceHits + st.TimerHits
	all := hits + st.TraceMisses + st.TimerMisses
	if all == 0 {
		return 0
	}
	return float64(hits) / float64(all)
}

// withDefaults mirrors core.Config's defaulting.
func withDefaults(cfg core.Config) (core.Config, error) {
	if cfg.Platform == nil {
		return cfg, fmt.Errorf("replay: no platform")
	}
	if cfg.NumGPUs == 0 {
		cfg.NumGPUs = cfg.Platform.NumGPUs
	}
	if cfg.TraceBatch == 0 {
		cfg.TraceBatch = 128
	}
	if cfg.TraceGPU == "" {
		cfg.TraceGPU = cfg.Platform.GPU.Name
	}
	if cfg.Parallelism == "" {
		cfg.Parallelism = core.Single
	}
	if cfg.Iterations == 0 {
		cfg.Iterations = 1
	}
	return cfg, nil
}

func traceKey(model string, batch int, spec *gpu.Spec) tracecache.Key {
	return tracecache.Key{Model: model, Batch: batch, Spec: *spec,
		NoiseAmp: hwsim.DefaultNoiseAmp}
}

// collect is the hwsim stage: a zoo trace, through cache when set.
func (l *layers) collect(cache *tracecache.Store, model string, batch int,
	spec *gpu.Spec) (*trace.Trace, error) {
	build := func() (*trace.Trace, error) {
		if l == nil {
			return hwsim.CollectTrace(model, batch, spec)
		}
		l.collects++
		var tr *trace.Trace
		err := l.timed(&l.collectS, nil, func() error {
			var err error
			tr, err = hwsim.CollectTrace(model, batch, spec)
			return err
		})
		return tr, err
	}
	if cache == nil {
		return build()
	}
	return cache.GetTrace(traceKey(model, batch, spec), build)
}

// predTrace and predTimer are the prediction path's trace and perf-model
// stages (core.Simulate). Only Li's Model is replayed; the benchmark's
// workloads use nothing else.
func (l *layers) predTrace(cfg core.Config) (*trace.Trace, error) {
	spec, err := gpu.SpecByName(cfg.TraceGPU)
	if err != nil {
		return nil, err
	}
	return l.collect(cfg.Cache, cfg.Model, cfg.TraceBatch, spec)
}

func (l *layers) predTimer(cfg core.Config, tr *trace.Trace) (
	extrapolator.OpTimer, error) {
	if cfg.ComputeModel != "" && cfg.ComputeModel != "li" {
		return nil, fmt.Errorf("replay: compute model %q not replayed",
			cfg.ComputeModel)
	}
	fit := func() (tracecache.OpTimer, error) {
		if l == nil {
			return fitLi(cfg, tr)
		}
		l.fits++
		var m tracecache.OpTimer
		err := l.timed(&l.fitS, nil, func() error {
			var err error
			m, err = fitLi(cfg, tr)
			return err
		})
		return m, err
	}
	if cfg.Cache == nil {
		return fit()
	}
	spec, err := gpu.SpecByName(cfg.TraceGPU)
	if err != nil {
		return nil, err
	}
	return cfg.Cache.GetTimer(tracecache.TimerKey{
		Trace:        traceKey(cfg.Model, cfg.TraceBatch, spec),
		ComputeModel: "li",
		Target:       cfg.Platform.GPU,
	}, fit)
}

// fitLi fits Li's Model on tr, rescaled when the trace came from another GPU
// than the simulated platform's.
func fitLi(cfg core.Config, tr *trace.Trace) (*perfmodel.Model, error) {
	m, err := perfmodel.Fit(tr)
	if err != nil || tr.Device == cfg.Platform.GPU.Name {
		return m, err
	}
	from, err := gpu.SpecByName(tr.Device)
	if err != nil {
		return nil, err
	}
	return m.Rescale(from, &cfg.Platform.GPU), nil
}

// topology is the network stage's construction: the configured topology or
// the platform default.
func (l *layers) topology(topo *network.Topology,
	p *gpu.Platform) *network.Topology {
	if topo == nil {
		l.topoStage(func() { topo = core.BuildTopology(p) })
	}
	return topo
}

// topoStage runs a topology build, timed as network.topo when l is non-nil.
func (l *layers) topoStage(build func()) {
	if l == nil {
		build()
		return
	}
	_ = l.timed(&l.topoS, nil, func() error {
		build()
		return nil
	})
}

// replayTraining reproduces core.Simulate (truth false) or core.GroundTruth
// (truth true) one stage at a time. Fault schedules, telemetry and span
// tracing are not replayed: the workloads set none of them, and telemetry
// and spans are digest-neutral by contract.
func (l *layers) replayTraining(cfg core.Config, truth bool) (outcome, error) {
	cfg, err := withDefaults(cfg)
	if err != nil {
		return outcome{}, err
	}
	if cfg.Faults != nil {
		return outcome{}, fmt.Errorf("replay: fault schedules not replayed")
	}
	var (
		tr      *trace.Trace
		timer   extrapolator.OpTimer
		effects = hwsim.NoEffects
	)
	if truth {
		if cfg.GlobalBatch == 0 {
			cfg.GlobalBatch = cfg.TraceBatch
		}
		tr, err = l.collect(cfg.Cache, cfg.Model, cfg.GlobalBatch,
			&cfg.Platform.GPU)
		if err != nil {
			return outcome{}, err
		}
		timer = hwsim.NewTimer(&cfg.Platform.GPU)
		effects = hwsim.PlatformEffects(cfg.Platform)
	} else {
		if tr, err = l.predTrace(cfg); err != nil {
			return outcome{}, err
		}
		if timer, err = l.predTimer(cfg, tr); err != nil {
			return outcome{}, err
		}
	}
	topo := l.topology(cfg.Topology, cfg.Platform)

	var g *extrapolator.Result
	err = l.timed(&l.buildS, &l.buildAlloc, func() error {
		var err error
		g, err = extrapolate(cfg, extrapolator.Config{
			Trace: tr, Topo: topo, NumGPUs: cfg.NumGPUs, Timer: timer,
			Effects: effects, GlobalBatch: cfg.GlobalBatch,
			MicroBatches: cfg.MicroBatches, BucketBytes: cfg.BucketBytes,
			Iterations: cfg.Iterations, Collective: cfg.Collective,
			FuseCompute: cfg.FuseCompute, ForwardOnly: cfg.InferenceOnly,
		})
		return err
	})
	if err != nil {
		return outcome{}, err
	}

	eng := sim.NewSerialEngine()
	dg := sim.NewDigestHook()
	eng.RegisterHook(dg)
	net := network.NewFlowNetwork(eng, topo)
	net.RampBytes = effects.CommRampBytes
	net.SolveClock = time.Now
	tl := timeline.New()
	x := task.NewExecutor(eng, net, g.Graph, tl)

	var makespan sim.VTime
	err = l.timed(&l.execS, &l.execAlloc, func() error {
		var err error
		makespan, err = x.Run()
		return err
	})
	if err != nil {
		return outcome{}, err
	}
	err = l.timed(&l.unionS, &l.unionAlloc, func() error {
		for _, phase := range []string{"compute", "comm", "hostload"} {
			tl.UnionTime(timeline.ByPhase(phase))
		}
		return nil
	})
	if err != nil {
		return outcome{}, err
	}
	l.network(net, eng)
	l.tasks += g.Graph.Len()
	return outcome{total: makespan,
		perIter: makespan / sim.VTime(cfg.Iterations),
		digest:  dg.Sum64()}, nil
}

// network folds one run's flow-network and engine counters into l.
func (l *layers) network(net *network.FlowNetwork, eng *sim.SerialEngine) {
	l.solveS += net.SolveWall.Seconds()
	l.solves += net.Solves
	l.solvedFlows += net.SolvedFlows
	l.solvedLinks += net.SolvedLinks
	l.xfers += net.TotalTransfers
	l.events += eng.EventCount()
	if hw := eng.QueueHighWater(); hw > l.queueHigh {
		l.queueHigh = hw
	}
}

// extrapolate mirrors core's parallelism dispatch onto the extrapolator.
func extrapolate(cfg core.Config, ecfg extrapolator.Config) (
	*extrapolator.Result, error) {
	groups := cfg.DPGroups
	if groups <= 0 {
		groups = 2
	}
	switch cfg.Parallelism {
	case core.Single:
		ecfg.NumGPUs = 1
		return extrapolator.SingleGPU(ecfg)
	case core.DP:
		return extrapolator.DataParallel(ecfg, false)
	case core.DDP:
		return extrapolator.DataParallel(ecfg, true)
	case core.TP:
		return extrapolator.TensorParallel(ecfg)
	case core.PP:
		return extrapolator.PipelineParallel(ecfg)
	case core.DPPP:
		return extrapolator.HybridDPPP(ecfg, groups)
	case core.DPTP:
		return extrapolator.HybridDPTP(ecfg, groups)
	case core.DPTPPP:
		tp, pp := max(cfg.TPRanks, 1), max(cfg.PPStages, 1)
		if cfg.NumGPUs%(tp*pp) != 0 {
			return nil, fmt.Errorf("replay: %d GPUs not divisible by tp·pp",
				cfg.NumGPUs)
		}
		return extrapolator.Hybrid3D(ecfg, cfg.NumGPUs/(tp*pp), tp, pp)
	case core.ZeRO1:
		return extrapolator.DataParallelZeRO(ecfg)
	}
	return nil, fmt.Errorf("replay: unknown parallelism %q", cfg.Parallelism)
}

// replayServe reproduces core.Serve stage by stage. The serving cluster
// drives the engine directly, so its whole engine run counts as task.exec.
func (l *layers) replayServe(cfg core.ServeConfig) (outcome, error) {
	if cfg.Platform == nil {
		return outcome{}, fmt.Errorf("replay: no platform")
	}
	if cfg.Faults != nil {
		return outcome{}, fmt.Errorf("replay: fault schedules not replayed")
	}
	topo := l.topology(cfg.Topology, cfg.Platform)
	eng := sim.NewSerialEngine()
	dg := sim.NewDigestHook()
	eng.RegisterHook(dg)
	net := network.NewFlowNetwork(eng, topo)
	net.RampBytes = cfg.Platform.CommRampBytes
	net.SolveClock = time.Now
	spec := cfg.Platform.GPU
	cl, err := serving.New(eng, net, topo, &spec, cfg.Serving)
	if err != nil {
		return outcome{}, err
	}
	cl.Start()
	if err := l.timed(&l.execS, &l.execAlloc, eng.Run); err != nil {
		return outcome{}, err
	}
	if _, err := cl.Metrics(); err != nil {
		return outcome{}, err
	}
	l.network(net, eng)
	return outcome{total: eng.CurrentTime(), perIter: eng.CurrentTime(),
		digest: dg.Sum64()}, nil
}

// record turns the accumulated layers into per-layer metrics. ops is the
// number of workload operations the pass covered; times and allocations are
// reported per operation, ratios over the whole pass.
func (l *layers) record(m metrics, ops int, hitRatio float64) {
	per := 1 / float64(ops)
	mb := func(b uint64) float64 { return float64(b) / (1 << 20) * per }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m.set("network.solve_s", "s", l.solveS*per)
	m.set("network.solves", "count", float64(l.solves)*per)
	m.set("network.flows_per_solve", "count",
		ratio(float64(l.solvedFlows), float64(l.solves)))
	m.set("network.links_per_solve", "count",
		ratio(float64(l.solvedLinks), float64(l.solves)))
	m.set("network.transfers", "count", float64(l.xfers)*per)
	m.set("network.topo_s", "s", l.topoS*per)
	m.set("task.exec_s", "s", l.execS*per)
	m.set("task.nonsolve_s", "s", (l.execS-l.solveS)*per)
	m.set("task.exec_alloc_mb", "MB", mb(l.execAlloc))
	m.set("sim.events", "count", float64(l.events)*per)
	m.set("sim.events_per_task", "count",
		ratio(float64(l.events), float64(l.tasks)))
	m.set("sim.queue_high_water", "count", float64(l.queueHigh))
	m.set("extrapolator.build_s", "s", l.buildS*per)
	m.set("extrapolator.alloc_mb", "MB", mb(l.buildAlloc))
	m.set("extrapolator.tasks", "count", float64(l.tasks)*per)
	m.set("timeline.union_s", "s", l.unionS*per)
	m.set("timeline.alloc_mb", "MB", mb(l.unionAlloc))
	m.set("hwsim.collect_s", "s", l.collectS*per)
	m.set("hwsim.collects", "count", float64(l.collects)*per)
	m.set("perfmodel.fit_s", "s", l.fitS*per)
	m.set("perfmodel.fits", "count", float64(l.fits)*per)
	m.set("tracecache.hit_ratio", "ratio", hitRatio)
}
