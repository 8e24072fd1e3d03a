package extrapolator

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"triosim/internal/gpu"
	"triosim/internal/hwsim"
	"triosim/internal/network"
	"triosim/internal/perfmodel"
	"triosim/internal/sim"
	"triosim/internal/spantrace"
	"triosim/internal/task"
	"triosim/internal/timeline"
	"triosim/internal/trace"
)

// testSetup returns a stamped trace, a fitted model, and a topology.
func testSetup(t *testing.T, model string, batch, nGPUs int) (*trace.Trace,
	*perfmodel.Model, *network.Topology) {
	t.Helper()
	tr, err := hwsim.CollectTrace(model, batch, &gpu.A100)
	if err != nil {
		t.Fatal(err)
	}
	m, err := perfmodel.Fit(tr)
	if err != nil {
		t.Fatal(err)
	}
	topo := network.Switch(network.Config{
		NumGPUs:       nGPUs,
		LinkBandwidth: 235e9,
		LinkLatency:   1 * sim.USec,
		HostBandwidth: 20e9,
		HostLatency:   5 * sim.USec,
	})
	return tr, m, topo
}

// runCfg executes the result graph and returns the makespan, the span log
// and the flow network.
func runCfg(t *testing.T, cfg Config, res *Result) (sim.VTime,
	*spantrace.Log, *network.FlowNetwork) {
	t.Helper()
	eng := sim.NewSerialEngine()
	net := network.NewFlowNetwork(eng, cfg.Topo)
	x := task.NewExecutor(eng, net, res.Graph, timeline.New())
	rec := spantrace.NewRecorder(res.Graph, cfg.Topo)
	x.Observe(rec)
	makespan, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	return makespan, rec.Finalize(), net
}

// computeTime sums the durations of the compute spans on the named GPU
// track, or on every GPU when gpu is "".
func computeTime(l *spantrace.Log, gpu string) sim.VTime {
	var total sim.VTime
	for i := range l.Spans {
		sp := &l.Spans[i]
		if sp.Cat == spantrace.Compute && (gpu == "" || l.Name(sp.Track) == gpu) {
			total += sp.Duration()
		}
	}
	return total
}

func TestSingleGPUReplayMatchesTrace(t *testing.T) {
	tr, m, topo := testSetup(t, "resnet18", 32, 1)
	cfg := Config{Trace: tr, Topo: topo, NumGPUs: 1, Timer: m}
	res, err := SingleGPU(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	makespan, spans, _ := runCfg(t, cfg.defaults(), res)
	// Replay (scale=1, passthrough) compute time equals the trace total.
	compute := computeTime(spans, "")
	if math.Abs(float64(compute-tr.TotalTime()))/float64(tr.TotalTime()) > 1e-9 {
		t.Fatalf("replayed compute %v != trace total %v",
			compute, tr.TotalTime())
	}
	// Makespan additionally includes the input staging.
	if makespan <= tr.TotalTime() {
		t.Fatalf("makespan %v should exceed compute-only %v",
			makespan, tr.TotalTime())
	}
}

func TestSingleGPUBatchScaling(t *testing.T) {
	tr, m, topo := testSetup(t, "resnet18", 64, 1)
	base, err := SingleGPU(Config{Trace: tr, Topo: topo, NumGPUs: 1, Timer: m})
	if err != nil {
		t.Fatal(err)
	}
	big, err := SingleGPU(Config{Trace: tr, Topo: topo, NumGPUs: 1, Timer: m,
		GlobalBatch: 128})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Trace: tr, Topo: topo, NumGPUs: 1, Timer: m}
	t0, _, _ := runCfg(t, cfg.defaults(), base)
	t1, _, _ := runCfg(t, cfg.defaults(), big)
	r := float64(t1) / float64(t0)
	if r < 1.5 || r > 2.2 {
		t.Fatalf("batch 64→128 time ratio %.3f, want ≈2", r)
	}
}

func TestDataParallelStructure(t *testing.T) {
	tr, m, topo := testSetup(t, "resnet18", 64, 4)
	cfg := Config{Trace: tr, Topo: topo, NumGPUs: 4, Timer: m}
	res, err := DataParallel(cfg, false)
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
	// All 4 GPUs computed.
	for i := 0; i < 4; i++ {
		if computeTime(spans, "gpu"+string(rune('0'+i))) <= 0 {
			t.Fatalf("gpu%d idle", i)
		}
	}
	// AllReduce traffic: 2(N−1)/N·B per rank × N ranks = 2(N−1)·B total.
	wantComm := 2 * 3 * float64(tr.GradientBytes())
	commBytes := net.TotalBytes - 4*float64(tr.InputBytes())/4*4 // minus staging? just lower-bound:
	_ = commBytes
	if net.TotalBytes < wantComm {
		t.Fatalf("traffic %g below allreduce volume %g",
			net.TotalBytes, wantComm)
	}
}

func TestDPFasterThanSingleGPU(t *testing.T) {
	// Same global batch on 4 GPUs vs 1 GPU: DP should win handily on an
	// NVSwitch platform.
	tr, m, topo := testSetup(t, "resnet50", 128, 4)
	single, err := SingleGPU(Config{Trace: tr, Topo: topo, NumGPUs: 1, Timer: m})
	if err != nil {
		t.Fatal(err)
	}
	dp, err := DataParallel(Config{Trace: tr, Topo: topo, NumGPUs: 4,
		Timer: m}, true)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Trace: tr, Topo: topo, NumGPUs: 4, Timer: m}
	t1, _, _ := runCfg(t, cfg.defaults(), single)
	t4, _, _ := runCfg(t, cfg.defaults(), dp)
	speedup := float64(t1) / float64(t4)
	if speedup < 2 || speedup > 4.2 {
		t.Fatalf("4-GPU DDP speedup %.2f implausible", speedup)
	}
}

func TestDDPNotSlowerThanStdDP(t *testing.T) {
	tr, m, topo := testSetup(t, "vgg11", 128, 4)
	cfg := Config{Trace: tr, Topo: topo, NumGPUs: 4, Timer: m}
	std, err := DataParallel(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	ddp, err := DataParallel(cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	tStd, _, _ := runCfg(t, cfg.defaults(), std)
	tDdp, _, _ := runCfg(t, cfg.defaults(), ddp)
	// Overlapping comm with backward can only help (same volumes).
	if tDdp > tStd*sim.VTime(1.001) {
		t.Fatalf("DDP %v slower than std DP %v", tDdp, tStd)
	}
	// For a comm-heavy model like VGG, overlap should visibly help.
	if tDdp > tStd*sim.VTime(0.995) {
		t.Logf("warning: DDP %v barely beats std DP %v", tDdp, tStd)
	}
}

func TestDDPBucketCount(t *testing.T) {
	tr, m, topo := testSetup(t, "resnet18", 32, 2)
	cfg := Config{Trace: tr, Topo: topo, NumGPUs: 2, Timer: m,
		BucketBytes: 5 << 20}
	res, err := DataParallel(cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	// Count distinct allreduce buckets via comm task labels.
	buckets := map[string]bool{}
	for _, tk := range res.Graph.Tasks {
		if tk.Kind == task.Comm && len(tk.Label) > 11 &&
			tk.Label[:11] == "allreduce-b" {
			// label: allreduce-b<k>-it0-step...
			end := 11
			for end < len(tk.Label) && tk.Label[end] != '-' {
				end++
			}
			buckets[tk.Label[:end]] = true
		}
	}
	// ResNet-18 has ~46.7 MB of gradients; with 5 MB buckets (and single
	// >5 MB gradients overflowing a bucket alone) several buckets form.
	if len(buckets) < 5 {
		t.Fatalf("only %d buckets for 5 MB bucket size", len(buckets))
	}
	// And a 1 GB bucket collapses everything into a single AllReduce.
	cfgBig := Config{Trace: tr, Topo: topo, NumGPUs: 2, Timer: m,
		BucketBytes: 1 << 30}
	resBig, err := DataParallel(cfgBig, true)
	if err != nil {
		t.Fatal(err)
	}
	bigBuckets := map[string]bool{}
	for _, tk := range resBig.Graph.Tasks {
		if tk.Kind == task.Comm && len(tk.Label) > 11 &&
			tk.Label[:11] == "allreduce-b" {
			end := 11
			for end < len(tk.Label) && tk.Label[end] != '-' {
				end++
			}
			bigBuckets[tk.Label[:end]] = true
		}
	}
	if len(bigBuckets) != 1 {
		t.Fatalf("%d buckets with 1 GB bucket size, want 1", len(bigBuckets))
	}
}

func TestTensorParallelStructure(t *testing.T) {
	tr, m, topo := testSetup(t, "resnet18", 64, 4)
	cfg := Config{Trace: tr, Topo: topo, NumGPUs: 4, Timer: m}
	res, err := TensorParallel(cfg)
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
	if net.TotalTransfers == 0 {
		t.Fatal("tensor parallelism generated no communication")
	}
	// Per-GPU compute must shrink vs the single-GPU replay (shards).
	single, _ := SingleGPU(Config{Trace: tr, Topo: topo, NumGPUs: 1, Timer: m})
	_, spansS, _ := runCfg(t, cfg.defaults(), single)
	tpGPU0 := computeTime(spans, "gpu0")
	soloGPU0 := computeTime(spansS, "gpu0")
	if tpGPU0 >= soloGPU0 {
		t.Fatalf("TP gpu0 compute %v not below single-GPU %v",
			tpGPU0, soloGPU0)
	}
}

func TestPipelineParallelStructure(t *testing.T) {
	tr, m, topo := testSetup(t, "resnet18", 128, 2)
	for _, chunks := range []int{1, 2, 4} {
		cfg := Config{Trace: tr, Topo: topo, NumGPUs: 2, Timer: m,
			MicroBatches: chunks}
		res, err := PipelineParallel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Graph.Validate(); err != nil {
			t.Fatalf("chunks=%d: %v", chunks, err)
		}
		makespan, _, net := runCfg(t, cfg.defaults(), res)
		if makespan <= 0 {
			t.Fatalf("chunks=%d: zero makespan", chunks)
		}
		// Boundary traffic: m micro-batches × (act fwd + grad bwd).
		wantTransfers := chunks * 2
		gotComm := 0
		for _, tk := range res.Graph.Tasks {
			if tk.Kind == task.Comm {
				gotComm++
			}
		}
		if gotComm != wantTransfers {
			t.Fatalf("chunks=%d: %d comm tasks, want %d",
				chunks, gotComm, wantTransfers)
		}
		_ = net
	}
}

func TestPipelineMoreChunksHelpWithoutOverheads(t *testing.T) {
	// With zero CPU overheads (TrioSim's own view), more micro-batches can
	// only shrink or hold the bubble, so time must not increase materially.
	tr, m, topo := testSetup(t, "vgg16", 128, 4)
	var prev sim.VTime
	for i, chunks := range []int{1, 2, 4} {
		cfg := Config{Trace: tr, Topo: topo, NumGPUs: 4, Timer: m,
			MicroBatches: chunks}
		res, err := PipelineParallel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		makespan, _, _ := runCfg(t, cfg.defaults(), res)
		if i > 0 && makespan > prev*sim.VTime(1.10) {
			t.Fatalf("chunks=%d (%v) much slower than previous (%v)",
				chunks, makespan, prev)
		}
		prev = makespan
	}
}

func TestPipelineCPUOverheadAnomaly(t *testing.T) {
	// With hardware CPU scheduling overheads and a small fast model, more
	// chunks can *increase* end-to-end time — the paper's orange-triangle
	// anomaly (Fig 10).
	tr, err := hwsim.CollectTrace("resnet18", 32, &gpu.A100)
	if err != nil {
		t.Fatal(err)
	}
	topo := network.Switch(network.Config{
		NumGPUs: 4, LinkBandwidth: 235e9, HostBandwidth: 20e9,
	})
	hwTimer := hwsim.NewTimer(&gpu.A100)
	eff := hwsim.Effects{CPUSchedPerMicroBatch: 2 * sim.MSec}
	times := map[int]sim.VTime{}
	for _, chunks := range []int{1, 4} {
		cfg := Config{Trace: tr, Topo: topo, NumGPUs: 4, Timer: hwTimer,
			MicroBatches: chunks, Effects: eff}
		res, err := PipelineParallel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		makespan, _, _ := runCfg(t, cfg.defaults(), res)
		times[chunks] = makespan
	}
	if times[4] <= times[1] {
		t.Fatalf("CPU overhead anomaly absent: 4 chunks %v <= 1 chunk %v",
			times[4], times[1])
	}
}

func TestIterationsChain(t *testing.T) {
	tr, m, topo := testSetup(t, "resnet18", 32, 2)
	cfg1 := Config{Trace: tr, Topo: topo, NumGPUs: 2, Timer: m, Iterations: 1}
	cfg3 := Config{Trace: tr, Topo: topo, NumGPUs: 2, Timer: m, Iterations: 3}
	r1, err := DataParallel(cfg1, true)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := DataParallel(cfg3, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(r3.IterationEnds) != 3 {
		t.Fatalf("iteration ends = %d", len(r3.IterationEnds))
	}
	t1, _, _ := runCfg(t, cfg1.defaults(), r1)
	t3, _, _ := runCfg(t, cfg3.defaults(), r3)
	r := float64(t3) / float64(t1)
	if r < 2.99 || r > 3.01 {
		t.Fatalf("3 iterations / 1 iteration = %.4f, want 3", r)
	}
}

func TestDeterminism(t *testing.T) {
	tr, m, topo := testSetup(t, "densenet121", 32, 4)
	cfg := Config{Trace: tr, Topo: topo, NumGPUs: 4, Timer: m}
	var times []sim.VTime
	for i := 0; i < 2; i++ {
		res, err := DataParallel(cfg, true)
		if err != nil {
			t.Fatal(err)
		}
		ms, _, _ := runCfg(t, cfg.defaults(), res)
		times = append(times, ms)
	}
	if times[0] != times[1] {
		t.Fatalf("nondeterministic: %v vs %v", times[0], times[1])
	}
}

func TestConfigValidation(t *testing.T) {
	tr, m, topo := testSetup(t, "resnet18", 32, 2)
	if _, err := SingleGPU(Config{Topo: topo, NumGPUs: 1, Timer: m}); err == nil {
		t.Fatal("nil trace accepted")
	}
	if _, err := SingleGPU(Config{Trace: tr, NumGPUs: 1, Timer: m}); err == nil {
		t.Fatal("nil topo accepted")
	}
	if _, err := SingleGPU(Config{Trace: tr, Topo: topo, NumGPUs: 1}); err == nil {
		t.Fatal("nil timer accepted")
	}
	if _, err := DataParallel(Config{Trace: tr, Topo: topo, NumGPUs: 0,
		Timer: m}, true); err == nil {
		t.Fatal("0 GPUs accepted")
	}
	if _, err := DataParallel(Config{Trace: tr, Topo: topo, NumGPUs: 99,
		Timer: m}, true); err == nil {
		t.Fatal("too many GPUs accepted")
	}
}

func TestPartitionStagesProperties(t *testing.T) {
	f := func(raw []uint8, stagesRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		weights := make([]float64, len(raw))
		var total float64
		for i, r := range raw {
			weights[i] = float64(r) + 1
			total += weights[i]
		}
		stages := int(stagesRaw%8) + 1
		assign := partitionStages(weights, stages)
		if len(assign) != len(weights) {
			return false
		}
		// Monotone non-decreasing, starting at 0, contiguous.
		if assign[0] != 0 {
			return false
		}
		maxStage := 0
		sums := map[int]float64{}
		for i, s := range assign {
			if i > 0 && (s < assign[i-1] || s > assign[i-1]+1) {
				return false
			}
			if s > maxStage {
				maxStage = s
			}
			sums[s] += weights[i]
		}
		if maxStage >= stages && stages <= len(weights) {
			return false
		}
		// Balance: max stage sum ≤ total (trivially) and ≥ total/stages.
		var maxSum float64
		for _, v := range sums {
			if v > maxSum {
				maxSum = v
			}
		}
		used := float64(len(sums))
		return maxSum >= total/used-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionStagesOptimal(t *testing.T) {
	// Known instance: [1,2,3,4,5] into 2 stages → best max sum is 9
	// ([1,2,3,4 | 5] gives 10; [1,2,3 | 4,5] gives 9).
	assign := partitionStages([]float64{1, 2, 3, 4, 5}, 2)
	sums := map[int]float64{}
	for i, s := range assign {
		sums[s] += []float64{1, 2, 3, 4, 5}[i]
	}
	var maxSum float64
	for _, v := range sums {
		if v > maxSum {
			maxSum = v
		}
	}
	if maxSum != 9 {
		t.Fatalf("partition max sum %v, want 9 (assign %v)", maxSum, assign)
	}
}

func TestStageAssignmentBalance(t *testing.T) {
	tr, _, _ := testSetup(t, "resnet50", 32, 4)
	assign := StageAssignment(tr, 4)
	if len(assign) != tr.NumLayers() {
		t.Fatalf("assignment covers %d layers of %d",
			len(assign), tr.NumLayers())
	}
	// Per-stage fwd time within 2× of the mean: balanced enough.
	stageTime := map[int]float64{}
	layerTime := make([]float64, tr.NumLayers())
	var total float64
	for i := range tr.Ops {
		op := &tr.Ops[i]
		if op.Phase == trace.Forward {
			layerTime[op.Layer] += float64(op.Time)
			total += float64(op.Time)
		}
	}
	for l, s := range assign {
		stageTime[s] += layerTime[l]
	}
	mean := total / 4
	for s, v := range stageTime {
		if v > 2*mean {
			t.Fatalf("stage %d has %.3gs of %.3gs total (unbalanced)",
				s, v, total)
		}
	}
}
