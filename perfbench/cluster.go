package main

import (
	"fmt"
	"math"
	"time"

	"triosim/internal/core"
	"triosim/internal/gpu"
	"triosim/internal/network"
	"triosim/internal/sim"
	"triosim/internal/tracecache"
)

// The cluster-step workload: one Llama-3.2-1B training step on a 4,096-GPU
// rail-optimized fat tree (512 machines × 8 GPUs, the BenchmarkClusterStep
// link parameters) under DP×TP×PP = 64×8×8 with 4 micro-batches, fused
// compute and the default exact flow solver. It is the network-bound case:
// ~176k tasks and ~3M events per step. 10k GPUs is left out because one
// exact step takes over 20 s, too long to repeat.
const (
	clusterMachines   = 512
	clusterDP         = 64
	clusterTP         = 8
	clusterPP         = 8
	clusterTraceBatch = 16
	clusterChunks     = 4
)

// clusterSetup builds the topology and warms a trace cache with the step's
// trace and fitted timer: everything the step needs before it starts. With
// a non-nil l the stages are timed as layers.
func clusterSetup(l *layers) (core.Config, error) {
	var topo *network.Topology
	l.topoStage(func() {
		topo = network.RailFatTree(network.ClusterConfig{
			Machines: clusterMachines, GPUsPerMachine: 8,
			NVLinkBandwidth: 300e9, NVLinkLatency: sim.USec,
			NICBandwidth: 50e9, NICLatency: 2 * sim.USec,
			FabricBandwidth: 100e9, FabricLatency: 2 * sim.USec,
			HostBandwidth: 20e9, HostLatency: 5 * sim.USec,
		}, 8, 2)
	})
	p3 := gpu.P3
	cfg, err := withDefaults(core.Config{
		Model: "llama32-1b", Platform: &p3, Topology: topo,
		Parallelism: core.DPTPPP, NumGPUs: clusterMachines * 8,
		TPRanks: clusterTP, PPStages: clusterPP,
		TraceBatch:   clusterTraceBatch,
		GlobalBatch:  clusterDP * clusterChunks * clusterTraceBatch,
		MicroBatches: clusterChunks, FuseCompute: true,
		Cache: tracecache.New(),
	})
	if err != nil {
		return cfg, err
	}
	tr, err := l.predTrace(cfg)
	if err != nil {
		return cfg, err
	}
	_, err = l.predTimer(cfg, tr)
	return cfg, err
}

func clusterStep(r *run) error {
	if r.trace {
		return clusterTraced(r)
	}
	var cfg core.Config
	setup, err := setupMedian(func() (time.Duration, error) {
		return timeCall(func() error {
			var err error
			cfg, err = clusterSetup(nil)
			return err
		})
	})
	if err != nil {
		return err
	}
	r.m.set("setup_s", "s", setup)

	lp := startLoop()
	var (
		lat, ok []float64
		first   *core.Result
	)
	for r.attempted == 0 || time.Since(lp.start) < r.seconds {
		r.attempted++
		t0 := time.Now()
		res, err := core.Simulate(cfg)
		d := time.Since(t0).Seconds()
		if err != nil {
			r.failed++
			r.note("step %d failed: %v", r.attempted, err)
			lat = append(lat, math.Inf(1))
			continue
		}
		lat = append(lat, d)
		ok = append(ok, d)
		r.positive("predicted step time", res.PerIteration.Seconds())
		if first == nil {
			first = res
		} else if res.TotalTime != first.TotalTime ||
			res.EventDigest != first.EventDigest {
			r.fail("step %d is not deterministic: makespan %v digest %#x, "+
				"first step %v %#x", r.attempted, res.TotalTime,
				res.EventDigest, first.TotalTime, first.EventDigest)
		}
	}
	lp.done(r, len(ok))
	if first == nil {
		return fmt.Errorf("every step failed")
	}
	r.m.set("step_s", "s", median(ok))
	// The grid of this workload is its one step.
	r.m.set("grid_s", "s", median(ok))
	r.latencies("step", lat)

	// Fidelity: the same step on the emulated-hardware reference path,
	// outside the measured loop.
	truth, err := core.GroundTruth(cfg)
	if err != nil {
		return fmt.Errorf("ground truth: %w", err)
	}
	r.m.set("mean_err_pct", "%", r.errPct("cluster step",
		first.PerIteration.Seconds(), truth.PerIteration.Seconds()))
	return nil
}

// clusterTraced alternates an untraced reference pass (set-up plus
// core.Simulate) with a traced replay of the same pass until the run time
// is spent, and reports per-layer medians across passes.
func clusterTraced(r *run) error {
	start := time.Now()
	var passes []metrics
	var overhead []float64
	for len(passes) == 0 || time.Since(start) < r.seconds {
		r.attempted++
		t0 := time.Now()
		cfg, err := clusterSetup(nil)
		if err != nil {
			return err
		}
		res, err := core.Simulate(cfg)
		if err != nil {
			return err
		}
		untraced := time.Since(t0).Seconds()

		l := &layers{}
		t1 := time.Now()
		if cfg, err = clusterSetup(l); err != nil {
			return err
		}
		out, err := l.replayTraining(cfg, false)
		if err != nil {
			return err
		}
		traced := time.Since(t1).Seconds()
		if err := sameOutcome("cluster step", out,
			outcome{res.TotalTime, res.PerIteration, res.EventDigest}); err != nil {
			return err
		}
		m := metrics{}
		l.record(m, 1, hitRatio(cfg.Cache.Stats()))
		passes = append(passes, m)
		overhead = append(overhead, traced-untraced)
	}
	r.m = medianMetrics(passes)
	r.m.set("trace.overhead_s", "s", median(overhead))
	noServer(r.m)
	r.note("per-layer figures are per step (set-up included), medians of %d "+
		"traced passes", len(passes))
	return nil
}
