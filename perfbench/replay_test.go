package main

import (
	"testing"

	"triosim/internal/core"
	"triosim/internal/experiments"
	"triosim/internal/gpu"
	"triosim/internal/network"
	"triosim/internal/sim"
	"triosim/internal/tracecache"
)

// TestReplayMatchesClusterStep is the replay-equality check on a 64-GPU
// cluster step (8 machines, DP×TP×PP = 8×8×1): the stage-by-stage replay
// must reproduce core.Simulate's makespan and event digest exactly, and its
// layer accounting must see the work.
func TestReplayMatchesClusterStep(t *testing.T) {
	topo := network.RailFatTree(network.ClusterConfig{
		Machines: 8, GPUsPerMachine: 8,
		NVLinkBandwidth: 300e9, NVLinkLatency: sim.USec,
		NICBandwidth: 50e9, NICLatency: 2 * sim.USec,
		FabricBandwidth: 100e9, FabricLatency: 2 * sim.USec,
		HostBandwidth: 20e9, HostLatency: 5 * sim.USec,
	}, 8, 2)
	p3 := gpu.P3
	cfg := core.Config{
		Model: "llama32-1b", Platform: &p3, Topology: topo,
		Parallelism: core.DPTPPP, NumGPUs: 64, TPRanks: 8, PPStages: 1,
		TraceBatch: 16, GlobalBatch: 8 * 4 * 16, MicroBatches: 4,
		FuseCompute: true, Cache: tracecache.New(),
	}
	res, err := core.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := &layers{}
	out, err := l.replayTraining(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	want := outcome{res.TotalTime, res.PerIteration, res.EventDigest}
	if err := sameOutcome("64-GPU step", out, want); err != nil {
		t.Fatal(err)
	}
	if l.tasks != res.Tasks || l.events != res.Events {
		t.Errorf("replay saw %d tasks / %d events, core %d / %d", l.tasks,
			l.events, res.Tasks, res.Events)
	}
	if l.solves == 0 || l.execS <= 0 || l.buildS <= 0 || l.execAlloc == 0 {
		t.Errorf("layer accounting is empty: %+v", *l)
	}
	// The shared cache served the replay's trace and timer.
	if l.collects != 0 || l.fits != 0 {
		t.Errorf("replay collected %d traces and fitted %d timers through a "+
			"warm cache", l.collects, l.fits)
	}

	// A changed input must show: the check is not vacuous.
	cfg.MicroBatches = 2
	other, err := l.replayTraining(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if sameOutcome("changed step", other, want) == nil {
		t.Error("replay of a different configuration matched")
	}
}

// TestReplayMatchesGroundTruthAndServe covers the emulated-hardware path
// and the serving path.
func TestReplayMatchesGroundTruthAndServe(t *testing.T) {
	p2 := gpu.P2
	cfg := core.Config{Model: "resnet18", Platform: &p2,
		Parallelism: core.PP, MicroBatches: 2}
	res, err := core.GroundTruth(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := (&layers{}).replayTraining(cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameOutcome("ground truth", out,
		outcome{res.TotalTime, res.PerIteration, res.EventDigest}); err != nil {
		t.Fatal(err)
	}

	pool, err := jobPool(7)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range pool {
		if j.serve == nil {
			continue
		}
		direct, err := runDirect(j, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		replay, err := runDirect(j, nil, &layers{})
		if err != nil {
			t.Fatal(err)
		}
		if err := sameOutcome("serve job", replay, direct); err != nil {
			t.Errorf("job %d: %v", i, err)
		}
	}
}

// TestPaperGridMirrorsFigures pins the benchmark's grid to the figure
// generators: 380 cells, and Fig 7's cells reproduce its rows exactly.
func TestPaperGridMirrorsFigures(t *testing.T) {
	grid, err := paperGrid()
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != 380 {
		t.Fatalf("grid has %d cells, want 380", len(grid))
	}
	fig, err := experiments.Fig7Opts(false, experiments.Serial)
	if err != nil {
		t.Fatal(err)
	}
	r := &run{}
	res := r.gridPass(grid, nil, nil)
	if r.failed > 0 {
		t.Fatalf("grid pass: %d cells failed: %v", r.failed, r.notes)
	}
	row := 0
	for i, c := range grid {
		if c.fig != "fig7" {
			continue
		}
		want := fig.Rows[row]
		row++
		if c.model != want.Model || c.label != want.Config {
			t.Fatalf("cell %d is %s/%s, figure row %s/%s", i, c.model,
				c.label, want.Model, want.Config)
		}
		if got := float64(res[i].pred.perIter); got != want.Get("predicted_s") {
			t.Errorf("%s: predicted %v, figure %v", c.model, got,
				want.Get("predicted_s"))
		}
		if got := float64(res[i].truth.perIter); got != want.Get("hardware_s") {
			t.Errorf("%s: emulated %v, figure %v", c.model, got,
				want.Get("hardware_s"))
		}
	}
	if row != len(fig.Rows) {
		t.Errorf("grid has %d fig7 cells, figure %d rows", row, len(fig.Rows))
	}
}
