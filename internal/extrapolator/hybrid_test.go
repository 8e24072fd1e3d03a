package extrapolator

import (
	"testing"

	"triosim/internal/sim"
	"triosim/internal/task"
)

func TestHybridDPPPStructure(t *testing.T) {
	tr, m, topo := testSetup(t, "resnet18", 64, 4)
	cfg := Config{Trace: tr, Topo: topo, NumGPUs: 4, Timer: m,
		MicroBatches: 2, GlobalBatch: 64}
	res, err := HybridDPPP(cfg, 2) // 2 replicas × 2 stages
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	makespan, spans, net := runCfg(t, cfg.defaults(), res)
	if makespan <= 0 {
		t.Fatal("zero makespan")
	}
	// All 4 GPUs work.
	for i := 0; i < 4; i++ {
		if computeTime(spans, "gpu"+string(rune('0'+i))) <= 0 {
			t.Fatalf("gpu%d idle", i)
		}
	}
	// Both pipeline activations and hybrid AllReduce traffic exist.
	var actSends, hpSends int
	for _, tk := range res.Graph.Tasks {
		if tk.Kind != task.Comm {
			continue
		}
		if len(tk.Label) >= 4 && tk.Label[:4] == "act-" {
			actSends++
		}
		if len(tk.Label) >= 12 && tk.Label[:12] == "hp-allreduce" {
			hpSends++
		}
	}
	if actSends == 0 || hpSends == 0 {
		t.Fatalf("missing traffic: %d act sends, %d hp sends",
			actSends, hpSends)
	}
	_ = net
}

func TestHybridDPPPBeatsDeeperPipeline(t *testing.T) {
	// With a comm-light workload and balanced batch, 2×2 hybrid should beat
	// a 4-deep pipeline at 2 chunks (fewer bubbles).
	tr, m, topo := testSetup(t, "vgg16", 128, 4)
	cfg := Config{Trace: tr, Topo: topo, NumGPUs: 4, Timer: m,
		MicroBatches: 2, GlobalBatch: 128}
	hyb, err := HybridDPPP(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := PipelineParallel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tHyb, _, _ := runCfg(t, cfg.defaults(), hyb)
	tPP, _, _ := runCfg(t, cfg.defaults(), pp)
	if tHyb >= tPP {
		t.Fatalf("hybrid %v not faster than pure PP %v", tHyb, tPP)
	}
}

func TestHybridDPTPStructure(t *testing.T) {
	tr, m, topo := testSetup(t, "resnet18", 64, 4)
	cfg := Config{Trace: tr, Topo: topo, NumGPUs: 4, Timer: m,
		GlobalBatch: 64}
	res, err := HybridDPTP(cfg, 2) // 2 replicas × 2 TP ranks
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	makespan, spans, _ := runCfg(t, cfg.defaults(), res)
	if makespan <= 0 {
		t.Fatal("zero makespan")
	}
	for i := 0; i < 4; i++ {
		if computeTime(spans, "gpu"+string(rune('0'+i))) <= 0 {
			t.Fatalf("gpu%d idle", i)
		}
	}
}

func TestHybridValidation(t *testing.T) {
	tr, m, topo := testSetup(t, "resnet18", 64, 4)
	base := Config{Trace: tr, Topo: topo, NumGPUs: 4, Timer: m,
		GlobalBatch: 64}
	if _, err := HybridDPPP(base, 1); err == nil {
		t.Fatal("1 group accepted")
	}
	if _, err := HybridDPPP(base, 3); err == nil {
		t.Fatal("non-divisible groups accepted")
	}
	odd := base
	odd.GlobalBatch = 63
	if _, err := HybridDPPP(odd, 2); err == nil {
		t.Fatal("non-divisible batch accepted")
	}
	if _, err := HybridDPTP(base, 1); err == nil {
		t.Fatal("DPTP with 1 group accepted")
	}
	if _, err := HybridDPTP(base, 3); err == nil {
		t.Fatal("DPTP non-divisible groups accepted")
	}
}

func TestHybridIterationsChain(t *testing.T) {
	tr, m, topo := testSetup(t, "resnet18", 32, 4)
	c1 := Config{Trace: tr, Topo: topo, NumGPUs: 4, Timer: m,
		GlobalBatch: 32, Iterations: 1}
	c2 := c1
	c2.Iterations = 2
	r1, err := HybridDPPP(c1, 2)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := HybridDPPP(c2, 2)
	if err != nil {
		t.Fatal(err)
	}
	t1, _, _ := runCfg(t, c1.defaults(), r1)
	t2, _, _ := runCfg(t, c2.defaults(), r2)
	ratio := float64(t2) / float64(t1)
	if ratio < 1.99 || ratio > 2.01 {
		t.Fatalf("2-iteration ratio %.4f", ratio)
	}
}

func TestHybridGradTrafficMatchesShards(t *testing.T) {
	// DPTP: each rank AllReduces 1/ranks of the gradients across 2 groups;
	// total hp traffic = ranks × 2(groups−1) × shardBytes/groups... verify
	// the per-collective volume is the shard size.
	tr, m, topo := testSetup(t, "resnet18", 32, 4)
	cfg := Config{Trace: tr, Topo: topo, NumGPUs: 4, Timer: m,
		GlobalBatch: 32}
	res, err := HybridDPTP(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	shard := float64(tr.GradientBytes()) / 2 // 2 TP ranks per replica
	var hpBytes float64
	for _, tk := range res.Graph.Tasks {
		if tk.Kind == task.Comm && len(tk.Label) >= 12 &&
			tk.Label[:12] == "hp-allreduce" {
			hpBytes += tk.Bytes
		}
	}
	// 2 ranks × ring-of-2 AllReduce: 2(N−1)·B with N=2 → 2·shard each.
	want := 2 * 2 * shard
	rel := hpBytes/want - 1
	if rel > 1e-9 || rel < -1e-9 {
		t.Fatalf("hp traffic %g, want %g", hpBytes, want)
	}
	_ = sim.VTime(0)
}
