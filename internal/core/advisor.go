package core

import (
	"sort"

	"triosim/internal/sim"
)

// Candidate is one evaluated deployment strategy.
type Candidate struct {
	Parallelism  Parallelism
	MicroBatches int
	DPGroups     int
	// PerIteration is the predicted training-step time.
	PerIteration sim.VTime
	// CommShare is communication time / total time.
	CommShare float64
	// Feasible reports whether every GPU's peak memory fits.
	Feasible bool
	// WorstMemUtil is the highest footprint/capacity fraction.
	WorstMemUtil float64
}

// Advise runs the paper's §8.3 workflow end-to-end: given a workload, a
// platform, and a total batch size, simulate every applicable parallelism
// strategy (and pipeline chunkings, and hybrid splits), check memory
// feasibility, and return the candidates sorted fastest-feasible-first.
// All of it costs milliseconds, from one single-GPU trace — the design-space
// exploration the single-trace capability exists for.
func Advise(cfg Config) ([]Candidate, error) {
	// Advise picks the strategy fields itself. Resolve the rest once under
	// TP, the one strategy with no batch rule, so a bad field fails the call
	// rather than every variant.
	cfg.Parallelism = TP
	cfg, err := cfg.Resolve()
	if err != nil {
		return nil, err
	}

	type variant struct {
		par    Parallelism
		chunks int
		groups int
	}
	variants := []variant{
		{DDP, 0, 0},
		{ZeRO1, 0, 0},
		{TP, 0, 0},
		{PP, 1, 0},
		{PP, 2, 0},
		{PP, 4, 0},
	}
	if cfg.NumGPUs >= 4 {
		variants = append(variants, variant{DPPP, 2, 2}, variant{DPTP, 0, 2})
	}

	var out []Candidate
	for _, v := range variants {
		c := cfg
		c.Parallelism = v.par
		c.MicroBatches = v.chunks
		c.DPGroups = v.groups
		// Skip variants the workload cannot run, e.g. a batch a hybrid
		// cannot split.
		if _, err := c.Resolve(); err != nil {
			continue
		}
		res, err := Simulate(c)
		if err != nil {
			return nil, err
		}
		mem, err := MemoryFootprint(c)
		if err != nil {
			return nil, err
		}
		out = append(out, Candidate{
			Parallelism:  v.par,
			MicroBatches: v.chunks,
			DPGroups:     v.groups,
			PerIteration: res.PerIteration,
			CommShare:    float64(res.CommTime) / float64(res.TotalTime),
			Feasible:     mem.Fits,
			WorstMemUtil: mem.WorstUtilization,
		})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Feasible != out[j].Feasible {
			return out[i].Feasible
		}
		return out[i].PerIteration.Before(out[j].PerIteration)
	})
	return out, nil
}
