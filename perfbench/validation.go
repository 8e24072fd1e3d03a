package main

import (
	"fmt"
	"math"
	"time"

	"triosim/internal/core"
	"triosim/internal/gpu"
	"triosim/internal/models"
	"triosim/internal/tracecache"
)

// The paper-validation workload: the full grids of Table 1 and Figs 6–11 —
// 380 predicted-vs-emulated cells, each a core.ValidatePair's two
// simulations — run serially with one fresh shared trace cache per figure,
// as the figure generators do. It is the front-end and small-graph case:
// trace collection, graph build, dispatch and timeline unions dominate, and
// the network is a small share.

// cell is one prediction-vs-emulation cell of a figure.
type cell struct {
	fig, model, label string
	// cfg builds the cell's configuration; like the figure generators,
	// per-cell state (the Table 1 topology) is built when the cell runs.
	cfg func() core.Config
}

// paperGrid enumerates the cells of Table 1 and Figs 6–11 in figure order,
// mirroring internal/experiments' full (non-quick) grids.
func paperGrid() ([]cell, error) {
	cnns := models.CNNs()
	mixed := append(append([]string(nil), cnns...), models.Transformers()...)
	traceBatch := func(m string) int {
		if m == "llama32-1b" {
			return 16
		}
		return 128
	}
	var grid []cell

	for _, variant := range []string{"symmetric", "asymmetric"} {
		for _, m := range append(append([]string(nil), cnns...), "gpt2", "bert") {
			variant, m := variant, m
			grid = append(grid, cell{"table1", m, variant, func() core.Config {
				p2 := gpu.P2
				topo := core.BuildTopology(&p2)
				if variant == "asymmetric" {
					topo.SetLinkBandwidth(0, p2.LinkBandwidth/4)
				}
				return core.Config{Model: m, Platform: &p2, Topology: topo,
					Parallelism: core.DDP, TraceBatch: traceBatch(m)}
			}})
		}
	}
	for _, name := range []string{"A40", "A100"} {
		spec, err := gpu.SpecByName(name)
		if err != nil {
			return nil, err
		}
		for _, m := range cnns {
			name, spec, m := name, spec, m
			grid = append(grid, cell{"fig6", m, name, func() core.Config {
				plat := gpu.Platform{Name: "single-" + name, GPU: *spec,
					NumGPUs: 1, Topology: gpu.TopoNVSwitch, LinkBandwidth: 1,
					HostBandwidth: gpu.P2.HostBandwidth,
					HostLatency:   gpu.P2.HostLatency}
				return core.Config{Model: m, Platform: &plat,
					Parallelism: core.Single, TraceBatch: 128, GlobalBatch: 256}
			}})
		}
	}
	platformCells := func(fig string, plats []string, par core.Parallelism,
		parName string) {
		for _, pn := range plats {
			for _, m := range mixed {
				pn, m := pn, m
				grid = append(grid, cell{fig, m, pn + "-" + parName,
					func() core.Config {
						plat, _ := gpu.PlatformByName(pn)
						return core.Config{Model: m, Platform: plat,
							Parallelism: par, TraceBatch: traceBatch(m)}
					}})
			}
		}
	}
	platformCells("fig7", []string{"P1"}, core.DP, "DP")
	platformCells("fig8", []string{"P1", "P2"}, core.DDP, "DDP")
	platformCells("fig9", []string{"P1", "P2"}, core.TP, "TP")
	for _, n := range []int{2, 4} {
		for _, chunks := range []int{1, 2, 4} {
			for _, m := range cnns {
				n, chunks, m := n, chunks, m
				grid = append(grid, cell{"fig10", m,
					fmt.Sprintf("%dxA100-%dchunk", n, chunks),
					func() core.Config {
						plat := gpu.P2.WithGPUs(n)
						return core.Config{Model: m, Platform: &plat,
							Parallelism: core.PP, TraceBatch: 128,
							MicroBatches: chunks}
					}})
			}
		}
	}
	type variant struct {
		label, gpu string
		batch      int
	}
	type par struct {
		par    core.Parallelism
		chunks int
		name   string
	}
	for _, v := range []variant{{"case1-A40trace", "A40", 128},
		{"case1-A100trace", "A100", 128}, {"case2-H100trace", "H100", 256}} {
		for _, pc := range []par{{core.DDP, 0, "ddp"}, {core.TP, 0, "tp"},
			{core.PP, 1, "pp1"}, {core.PP, 2, "pp2"}} {
			for _, m := range cnns {
				v, pc, m := v, pc, m
				grid = append(grid, cell{"fig11", m, v.label + "-" + pc.name,
					func() core.Config {
						p3 := gpu.P3
						return core.Config{Model: m, Platform: &p3,
							Parallelism: pc.par, TraceBatch: v.batch,
							TraceGPU: v.gpu, GlobalBatch: 256,
							MicroBatches: pc.chunks}
					}})
			}
		}
	}
	return grid, nil
}

// config builds the cell's configuration on its figure's trace cache for
// the current pass, creating the cache on the figure's first cell.
func (c cell) config(stores map[string]*tracecache.Store) core.Config {
	if stores[c.fig] == nil {
		stores[c.fig] = tracecache.New()
	}
	cfg := c.cfg()
	cfg.Cache = stores[c.fig]
	return cfg
}

// cellResult is one cell's untraced outcome.
type cellResult struct {
	pred, truth outcome
}

// gridPass runs every cell once through core.Simulate then core.GroundTruth
// (core.ValidatePair's order) with one fresh trace cache per figure. It
// records each cell's latency and each simulation's host time, and checks
// every output.
func (r *run) gridPass(grid []cell, cellLat, simLat *[]float64) []cellResult {
	stores := map[string]*tracecache.Store{}
	out := make([]cellResult, len(grid))
	for i, c := range grid {
		cfg := c.config(stores)
		r.attempted++
		t0 := time.Now()
		pred, err := core.Simulate(cfg)
		t1 := time.Now()
		var truth *core.Result
		if err == nil {
			truth, err = core.GroundTruth(cfg)
		}
		t2 := time.Now()
		if err != nil {
			r.failed++
			r.note("%s/%s/%s failed: %v", c.fig, c.model, c.label, err)
			if cellLat != nil {
				*cellLat = append(*cellLat, math.Inf(1))
			}
			continue
		}
		if cellLat != nil {
			*cellLat = append(*cellLat, t2.Sub(t0).Seconds())
			*simLat = append(*simLat, t1.Sub(t0).Seconds(),
				t2.Sub(t1).Seconds())
		}
		out[i] = cellResult{
			outcome{pred.TotalTime, pred.PerIteration, pred.EventDigest},
			outcome{truth.TotalTime, truth.PerIteration, truth.EventDigest}}
	}
	return out
}

func paperValidation(r *run) error {
	if r.trace {
		return validationTraced(r)
	}
	var grid []cell
	setup, err := setupMedian(func() (time.Duration, error) {
		return timeCall(func() error {
			var err error
			grid, err = paperGrid()
			return err
		})
	})
	if err != nil {
		return err
	}
	r.m.set("setup_s", "s", setup)

	lp := startLoop()
	var (
		cellLat, simLat, passes []float64
		first                   []cellResult
	)
	for len(passes) == 0 || time.Since(lp.start) < r.seconds {
		t0 := time.Now()
		res := r.gridPass(grid, &cellLat, &simLat)
		passes = append(passes, time.Since(t0).Seconds())
		if first == nil {
			first = res
			continue
		}
		for i := range res {
			if res[i] != first[i] {
				r.fail("%s/%s/%s is not deterministic across passes",
					grid[i].fig, grid[i].model, grid[i].label)
			}
		}
	}
	lp.done(r, r.attempted-r.failed)
	r.m.set("step_s", "s", median(simLat))
	r.m.set("grid_s", "s", median(passes))
	r.latencies("cell", cellLat)

	var sum float64
	for i, c := range first {
		sum += r.errPct(grid[i].fig+"/"+grid[i].model+"/"+grid[i].label,
			c.pred.perIter.Seconds(), c.truth.perIter.Seconds())
	}
	r.m.set("mean_err_pct", "%", sum/float64(len(first)))
	r.note("%d cells per pass, %d passes", len(grid), len(passes))
	return nil
}

// validationTraced alternates an untraced grid pass with a traced replay of
// every cell, checks each replayed simulation against its untraced twin,
// and reports per-layer medians across passes (per grid pass).
func validationTraced(r *run) error {
	grid, err := paperGrid()
	if err != nil {
		return err
	}
	start := time.Now()
	var passes []metrics
	var overhead []float64
	for len(passes) == 0 || time.Since(start) < r.seconds {
		t0 := time.Now()
		ref := r.gridPass(grid, nil, nil)
		untraced := time.Since(t0).Seconds()
		if r.failed > 0 {
			return fmt.Errorf("%d cells failed untraced", r.failed)
		}

		l := &layers{}
		stores := map[string]*tracecache.Store{}
		t1 := time.Now()
		for i, c := range grid {
			cfg := c.config(stores)
			pred, err := l.replayTraining(cfg, false)
			if err != nil {
				return err
			}
			truth, err := l.replayTraining(cfg, true)
			if err != nil {
				return err
			}
			what := c.fig + "/" + c.model + "/" + c.label
			if err := sameOutcome(what+" prediction", pred, ref[i].pred); err != nil {
				return err
			}
			if err := sameOutcome(what+" ground truth", truth, ref[i].truth); err != nil {
				return err
			}
		}
		traced := time.Since(t1).Seconds()
		var st tracecache.Stats
		for _, s := range stores {
			x := s.Stats()
			st.TraceHits += x.TraceHits
			st.TraceMisses += x.TraceMisses
			st.TimerHits += x.TimerHits
			st.TimerMisses += x.TimerMisses
		}
		m := metrics{}
		l.record(m, 1, hitRatio(st))
		passes = append(passes, m)
		overhead = append(overhead, traced-untraced)
	}
	r.m = medianMetrics(passes)
	r.m.set("trace.overhead_s", "s", median(overhead))
	noServer(r.m)
	r.note("per-layer figures are per grid pass of %d cells, medians of %d "+
		"traced passes", len(grid), len(passes))
	return nil
}
