package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"triosim/internal/hwsim"
	"triosim/internal/tracecache"
)

// TestResolveBoundaryGrid pins the config boundary as exact: over every
// strategy and a grid of GPU counts, group splits and batches, Resolve
// accepts a config exactly when Simulate and MemoryFootprint both succeed on
// it, so no rejection is left for after the trace is collected.
func TestResolveBoundaryGrid(t *testing.T) {
	start := time.Now()
	cache := tracecache.New()
	zero := []int{0}
	var cells, accepted int
	for _, par := range []Parallelism{Single, DP, DDP, TP, PP, DPPP, DPTP,
		DPTPPP, ZeRO1} {
		groups, ranks := zero, zero
		switch par {
		case DPPP, DPTP:
			groups = []int{0, 1, 2, 3, 4}
		case DPTPPP:
			ranks = []int{0, 1, 2, 3}
		}
		for n := 1; n <= 8; n++ {
			for _, g := range groups {
				for _, tp := range ranks {
					for _, pp := range ranks {
						for _, gb := range []int{0, 3, 6, 8, 12} {
							cfg := Config{Model: "resnet18", Platform: p3(),
								Parallelism: par, NumGPUs: n, DPGroups: g,
								TPRanks: tp, PPStages: pp, GlobalBatch: gb,
								Cache: cache}
							_, rerr := cfg.Resolve()
							_, serr := Simulate(cfg)
							_, merr := MemoryFootprint(cfg)
							if (rerr == nil) != (serr == nil) ||
								(rerr == nil) != (merr == nil) {
								t.Errorf("%s n=%d groups=%d tp=%d pp=%d "+
									"batch=%d: Resolve %v, Simulate %v, "+
									"MemoryFootprint %v", par, n, g, tp, pp,
									gb, rerr, serr, merr)
							}
							cells++
							if rerr == nil {
								accepted++
							}
						}
					}
				}
			}
		}
	}
	if accepted == 0 || accepted == cells {
		t.Fatalf("%d of %d cells accepted: the grid must cover both sides",
			accepted, cells)
	}
	t.Logf("%d cells, %d accepted, %v", cells, accepted, time.Since(start))
}

// TestResolveDefaults pins the resolved defaults and that a resolved config
// resolves to itself.
func TestResolveDefaults(t *testing.T) {
	for _, c := range []struct {
		in   Config
		want string
	}{
		{Config{}, "single 1 128 128 1 0 1 1 auto li"},
		{Config{Parallelism: DDP}, "ddp 4 128 128 1 0 1 1 auto li"},
		{Config{Parallelism: DPPP, TraceBatch: 32},
			"dp+pp 4 32 32 1 2 1 1 auto li"},
		{Config{Parallelism: DPTPPP, GlobalBatch: 64, TPRanks: 2},
			"dp+tp+pp 4 128 64 1 0 2 1 auto li"},
		{Config{Parallelism: TP, NumGPUs: 2, Collective: "tree",
			ComputeModel: "roofline"}, "tp 2 128 128 1 0 1 1 tree roofline"},
	} {
		c.in.Model, c.in.Platform = "resnet18", p2()
		r, err := c.in.Resolve()
		if err != nil {
			t.Fatalf("%+v: %v", c.in, err)
		}
		got := fmt.Sprintf("%s %d %d %d %d %d %d %d %s %s", r.Parallelism,
			r.NumGPUs, r.TraceBatch, r.GlobalBatch, r.MicroBatches,
			r.DPGroups, r.TPRanks, r.PPStages, r.Collective, r.ComputeModel)
		if got != c.want {
			t.Errorf("%+v resolved to %q, want %q", c.in, got, c.want)
		}
		if r.TraceGPU != "A100" || r.Iterations != 1 ||
			r.BucketBytes != 25<<20 {
			t.Errorf("%+v: TraceGPU %q, Iterations %d, BucketBytes %g",
				c.in, r.TraceGPU, r.Iterations, r.BucketBytes)
		}
		if again, err := r.Resolve(); err != nil ||
			fmt.Sprintf("%+v", again) != fmt.Sprintf("%+v", r) {
			t.Errorf("%+v is not a fixed point: %+v, %v", r, again, err)
		}
	}
}

// TestMemoryFootprintRejectsUnrunnable: a config Simulate rejects gets no
// memory estimate either (it used to price a 1-GPU split instead).
func TestMemoryFootprintRejectsUnrunnable(t *testing.T) {
	for _, cfg := range []Config{
		{Parallelism: DPPP, NumGPUs: 3},
		{Parallelism: DPTP, NumGPUs: 3},
		{Parallelism: DPTPPP, NumGPUs: 4, TPRanks: 3},
	} {
		cfg.Model, cfg.Platform, cfg.TraceBatch = "resnet18", p2(), 32
		if _, err := MemoryFootprint(cfg); err == nil ||
			!strings.Contains(err.Error(), "NumGPUs") &&
				!strings.Contains(err.Error(), "TPRanks") {
			t.Errorf("%s on %d GPUs: %v, want an error naming NumGPUs or "+
				"TPRanks", cfg.Parallelism, cfg.NumGPUs, err)
		}
	}
}

// TestAdviseSuppliedOddBatchTrace: Advise takes the batch from a supplied
// trace, so a batch no hybrid can split skips the hybrids instead of failing.
func TestAdviseSuppliedOddBatchTrace(t *testing.T) {
	tr, err := hwsim.CollectTrace("resnet18", 127, &p2().GPU)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := Advise(Config{Model: "resnet18", Trace: tr, Platform: p2()})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 6 {
		t.Fatalf("%d candidates, want the 6 non-hybrid ones: %+v",
			len(cands), cands)
	}
	for _, c := range cands {
		if c.DPGroups > 1 {
			t.Fatalf("batch 127 produced hybrid candidate %+v", c)
		}
	}
}

// TestValidatePairSuppliedTraceBatch: with a supplied trace, the global batch
// defaults to the trace's batch on both the prediction and the ground-truth
// side, so leaving it unset compares like with like.
func TestValidatePairSuppliedTraceBatch(t *testing.T) {
	tr, err := hwsim.CollectTrace("resnet18", 32, &p2().GPU)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Model: "resnet18", Trace: tr, Platform: p2(),
		Parallelism: DDP}
	implicit, err := Validate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.GlobalBatch = 32
	explicit, err := Validate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *implicit != *explicit {
		t.Fatalf("GlobalBatch 0: %+v, GlobalBatch 32: %+v", *implicit,
			*explicit)
	}
}
