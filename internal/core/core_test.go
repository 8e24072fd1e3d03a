package core

import (
	"strings"
	"testing"

	"triosim/internal/gpu"
	"triosim/internal/hwsim"
	"triosim/internal/network"
	"triosim/internal/sim"
)

func p1() *gpu.Platform { p := gpu.P1; return &p }
func p2() *gpu.Platform { p := gpu.P2; return &p }

func TestSimulateSingleGPU(t *testing.T) {
	res, err := Simulate(Config{
		Model: "resnet18", Platform: p1(), Parallelism: Single,
		TraceBatch: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTime <= 0 || res.ComputeTime <= 0 {
		t.Fatalf("empty result: %+v", res)
	}
	if res.CommTime != 0 {
		t.Fatalf("single GPU should have no inter-GPU comm, got %v",
			res.CommTime)
	}
	if res.HostLoadTime <= 0 {
		t.Fatal("input staging missing")
	}
	if res.Tasks == 0 || res.Events == 0 {
		t.Fatal("no tasks or events recorded")
	}
}

func TestSimulateAllParallelisms(t *testing.T) {
	for _, par := range []Parallelism{DP, DDP, TP, PP} {
		res, err := Simulate(Config{
			Model: "resnet18", Platform: p2(), Parallelism: par,
			TraceBatch: 32, MicroBatches: 2,
		})
		if err != nil {
			t.Fatalf("%s: %v", par, err)
		}
		if res.TotalTime <= 0 {
			t.Fatalf("%s: zero time", par)
		}
		if res.CommTime <= 0 {
			t.Fatalf("%s: no communication", par)
		}
	}
}

func TestValidateErrorBands(t *testing.T) {
	// The paper's headline claims, at reduced scale: DDP error a few
	// percent, TP somewhat larger, PP larger still — all well under 25%.
	ddp, err := Validate(Config{Model: "resnet50", Platform: p1(),
		Parallelism: DDP, TraceBatch: 64})
	if err != nil {
		t.Fatal(err)
	}
	if ddp.Error > 0.10 {
		t.Fatalf("DDP error %.1f%% out of band", ddp.Error*100)
	}
	tp, err := Validate(Config{Model: "resnet50", Platform: p1(),
		Parallelism: TP, TraceBatch: 64})
	if err != nil {
		t.Fatal(err)
	}
	if tp.Error > 0.20 {
		t.Fatalf("TP error %.1f%% out of band", tp.Error*100)
	}
	if ddp.Normalized <= 0 || tp.Normalized <= 0 {
		t.Fatal("normalized times missing")
	}
}

func TestGroundTruthSlowerThanPrediction(t *testing.T) {
	// hw pays overheads TrioSim skips, so ground truth ≥ prediction for
	// matched configurations (the residual is the validation error).
	pred, err := Simulate(Config{Model: "vgg11", Platform: p1(),
		Parallelism: DDP, TraceBatch: 64})
	if err != nil {
		t.Fatal(err)
	}
	actual, err := GroundTruth(Config{Model: "vgg11", Platform: p1(),
		Parallelism: DDP, TraceBatch: 64})
	if err != nil {
		t.Fatal(err)
	}
	if actual.PerIteration < pred.PerIteration {
		t.Fatalf("ground truth %v faster than prediction %v",
			actual.PerIteration, pred.PerIteration)
	}
}

func TestCrossGPUPrediction(t *testing.T) {
	// Fig 11 case 1: trace on A40, predict on an H100 platform. Error stays
	// bounded and the predicted time reflects the faster GPU.
	p3 := gpu.P3
	p3.NumGPUs = 2
	cross, err := Validate(Config{Model: "resnet50", Platform: &p3,
		Parallelism: DDP, TraceBatch: 64, TraceGPU: "A40"})
	if err != nil {
		t.Fatal(err)
	}
	if cross.Error > 0.35 {
		t.Fatalf("cross-GPU error %.1f%% out of band", cross.Error*100)
	}
	same, err := Validate(Config{Model: "resnet50", Platform: &p3,
		Parallelism: DDP, TraceBatch: 64})
	if err != nil {
		t.Fatal(err)
	}
	if same.Error > cross.Error+0.02 {
		t.Fatalf("same-GPU error %.1f%% should not exceed cross-GPU %.1f%%",
			same.Error*100, cross.Error*100)
	}
}

func TestBatchSizeWhatIf(t *testing.T) {
	// The single-trace capability: change the simulated batch without a new
	// trace (Fig 6 setting: trace at 128 predicting 256 — here scaled down).
	res64, err := Simulate(Config{Model: "resnet18", Platform: p1(),
		Parallelism: Single, TraceBatch: 64, GlobalBatch: 64})
	if err != nil {
		t.Fatal(err)
	}
	res128, err := Simulate(Config{Model: "resnet18", Platform: p1(),
		Parallelism: Single, TraceBatch: 64, GlobalBatch: 128})
	if err != nil {
		t.Fatal(err)
	}
	r := float64(res128.PerIteration) / float64(res64.PerIteration)
	if r < 1.5 || r > 2.2 {
		t.Fatalf("batch doubling ratio %.3f", r)
	}
}

func TestTPCommRatioExceedsDDP(t *testing.T) {
	// Fig 13's shape: tensor parallelism has a higher communication share
	// than distributed data parallelism on P1.
	tp, err := Simulate(Config{Model: "resnet50", Platform: p1(),
		Parallelism: TP, TraceBatch: 64})
	if err != nil {
		t.Fatal(err)
	}
	ddp, err := Simulate(Config{Model: "resnet50", Platform: p1(),
		Parallelism: DDP, TraceBatch: 64})
	if err != nil {
		t.Fatal(err)
	}
	tpRatio := float64(tp.CommTime) / float64(tp.TotalTime)
	ddpRatio := float64(ddp.CommTime) / float64(ddp.TotalTime)
	if tpRatio <= ddpRatio {
		t.Fatalf("TP comm ratio %.2f not above DDP %.2f", tpRatio, ddpRatio)
	}
}

func TestDPFastestAtFixedTotalBatch(t *testing.T) {
	// Fig 12's headline: with the total workload constant, data parallelism
	// is the most efficient option for CNNs.
	times := map[Parallelism]sim.VTime{}
	for _, par := range []Parallelism{DDP, TP, PP} {
		res, err := Simulate(Config{Model: "resnet50", Platform: p2(),
			Parallelism: par, TraceBatch: 128, GlobalBatch: 128,
			MicroBatches: 2})
		if err != nil {
			t.Fatal(err)
		}
		times[par] = res.PerIteration
	}
	if times[DDP] >= times[TP] || times[DDP] >= times[PP] {
		t.Fatalf("DP not fastest: %v", times)
	}
}

func TestCustomTopologyOverride(t *testing.T) {
	topo := network.Ring(network.Config{
		NumGPUs:       4,
		LinkBandwidth: 50e9,
		LinkLatency:   1 * sim.USec,
		HostBandwidth: 20e9,
		HostLatency:   5 * sim.USec,
	})
	res, err := Simulate(Config{Model: "resnet18", Platform: p2(),
		Topology: topo, Parallelism: DDP, TraceBatch: 32})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTime <= 0 {
		t.Fatal("custom topology run failed")
	}
}

func TestConfigErrors(t *testing.T) {
	if _, err := Simulate(Config{Model: "resnet18"}); err == nil {
		t.Fatal("missing platform accepted")
	}
	if _, err := Simulate(Config{Platform: p1()}); err == nil {
		t.Fatal("missing model accepted")
	}
	if _, err := Simulate(Config{Model: "nope", Platform: p1()}); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := Simulate(Config{Model: "resnet18", Platform: p1(),
		Parallelism: "quantum"}); err == nil {
		t.Fatal("unknown parallelism accepted")
	}
	if _, err := Simulate(Config{Model: "resnet18", Platform: p1(),
		TraceGPU: "TPU"}); err == nil {
		t.Fatal("unknown trace GPU accepted")
	}
	if _, err := GroundTruth(Config{Platform: p1()}); err == nil {
		t.Fatal("ground truth without model accepted")
	}
	if _, err := Simulate(Config{Model: "resnet18", Platform: p1(),
		Iterations: -3}); err == nil ||
		!strings.Contains(err.Error(), "Iterations") {
		t.Fatalf("negative iterations: %v, want an error naming Iterations",
			err)
	}
	for _, c := range []struct {
		field string
		cfg   Config
	}{
		{"GlobalBatch", Config{GlobalBatch: -5}},
		{"MicroBatches", Config{Parallelism: PP, MicroBatches: -2}},
		{"DPGroups", Config{Parallelism: DPPP, DPGroups: -2}},
		{"TPRanks", Config{Parallelism: DPTPPP, TPRanks: -1}},
		{"PPStages", Config{Parallelism: DPTPPP, PPStages: -1}},
	} {
		c.cfg.Model, c.cfg.Platform = "resnet18", p1()
		if _, err := Simulate(c.cfg); err == nil ||
			!strings.Contains(err.Error(), c.field) {
			t.Fatalf("negative %s: %v, want an error naming it", c.field, err)
		}
	}
	if _, err := Simulate(Config{Model: "resnet18", Platform: p1(),
		BucketBytes: -1}); err == nil ||
		!strings.Contains(err.Error(), "BucketBytes") {
		t.Fatalf("negative bucket size: %v, want an error naming BucketBytes",
			err)
	}
}

func TestBuildTopologyKinds(t *testing.T) {
	kinds := []gpu.TopologyKind{gpu.TopoPCIeTree, gpu.TopoNVSwitch,
		gpu.TopoRing, gpu.TopoMesh}
	for _, k := range kinds {
		p := gpu.P2
		p.Topology = k
		topo := BuildTopology(&p)
		if len(topo.GPUs()) != p.NumGPUs {
			t.Fatalf("%s: %d GPUs", k, len(topo.GPUs()))
		}
		if topo.Host() < 0 && k != gpu.TopoPCIeTree {
			t.Fatalf("%s: no host", k)
		}
		// All GPU pairs routable.
		gs := topo.GPUs()
		if _, err := topo.Route(gs[0], gs[len(gs)-1]); err != nil {
			t.Fatalf("%s: %v", k, err)
		}
	}
}

func TestEffectsOnlyInGroundTruth(t *testing.T) {
	// TrioSim's own graph has no Delay tasks; the hardware graph does (PP
	// CPU overheads, collective step latencies).
	cfgBase := Config{Model: "resnet18", Platform: p2(), Parallelism: PP,
		TraceBatch: 32, MicroBatches: 4}
	pred, err := Simulate(cfgBase)
	if err != nil {
		t.Fatal(err)
	}
	gt, err := GroundTruth(cfgBase)
	if err != nil {
		t.Fatal(err)
	}
	if gt.PerIteration <= pred.PerIteration {
		t.Fatalf("PP ground truth %v not above prediction %v (effects lost)",
			gt.PerIteration, pred.PerIteration)
	}
	_ = hwsim.NoEffects
}
