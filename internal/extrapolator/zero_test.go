package extrapolator

import (
	"testing"

	"triosim/internal/task"
)

func TestZeROStructure(t *testing.T) {
	tr, m, topo := testSetup(t, "resnet18", 64, 4)
	cfg := Config{Trace: tr, Topo: topo, NumGPUs: 4, Timer: m}
	res, err := DataParallelZeRO(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	makespan, _, net := runCfg(t, cfg.defaults(), res)
	if makespan <= 0 {
		t.Fatal("zero makespan")
	}
	// Reduce-scatter of gradients + all-gather of weights: total traffic
	// (N−1)/N·(G+W)·N = (N−1)(G+W), excluding host staging.
	wantComm := 3 * float64(tr.GradientBytes()+tr.WeightBytes())
	staging := float64(tr.InputBytes()) // split across ranks, totals 1×
	got := net.TotalBytes - staging
	if rel := got/wantComm - 1; rel > 1e-9 || rel < -1e-9 {
		t.Fatalf("ZeRO traffic %g, want %g", got, wantComm)
	}
}

func TestZeROShardsOptimizer(t *testing.T) {
	tr, m, topo := testSetup(t, "resnet18", 64, 4)
	cfg := Config{Trace: tr, Topo: topo, NumGPUs: 4, Timer: m}
	zero, err := DataParallelZeRO(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ddp, err := DataParallel(cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	// The sgd_step compute per GPU shrinks substantially (the FLOPs/bytes
	// quarter, while the fitted per-kernel overhead does not shard).
	sumSGD := func(g *task.Graph) (total float64) {
		for _, tk := range g.Tasks {
			if tk.Kind == task.Compute && len(tk.Label) >= 8 &&
				tk.Label[:8] == "sgd_step" {
				total += float64(tk.Duration)
			}
		}
		return
	}
	zsgd, dsgd := sumSGD(zero.Graph), sumSGD(ddp.Graph)
	if zsgd <= 0 || dsgd <= 0 {
		t.Fatal("optimizer tasks missing")
	}
	ratio := dsgd / zsgd
	if ratio < 1.3 || ratio > 4.5 {
		t.Fatalf("DDP/ZeRO optimizer work ratio %.2f, want in (1.3, 4.5)",
			ratio)
	}
}

func TestZeROForwardOnly(t *testing.T) {
	tr, m, topo := testSetup(t, "resnet18", 32, 2)
	cfg := Config{Trace: tr, Topo: topo, NumGPUs: 2, Timer: m,
		ForwardOnly: true}
	res, err := DataParallelZeRO(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range res.Graph.Tasks {
		if tk.Kind == task.Comm {
			t.Fatalf("inference ZeRO emitted comm task %q", tk.Label)
		}
	}
	ms, _, _ := runCfg(t, cfg.defaults(), res)
	if ms <= 0 {
		t.Fatal("no time")
	}
}
