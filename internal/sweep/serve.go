package sweep

import (
	"context"

	"triosim/internal/core"
	"triosim/internal/spantrace"
)

// ServeScenario is one named serving configuration in a sweep.
type ServeScenario struct {
	Name string
	// Build returns the scenario's ServeConfig; like Scenario.Build it runs
	// on the worker goroutine, so topologies must be constructed inside it.
	Build func() core.ServeConfig
}

// ServeResult is one serving scenario's outcome.
type ServeResult = Named[*core.ServeResult]

// Serve runs serving scenarios through core.Serve on the pool, mirroring
// Simulate: results in scenario order, failures confined to their own
// Result, the sweep context threaded into each config, and TraceDir writing
// one Chrome trace per scenario. Serving runs collect no traces, so there
// is no shared cache to install.
func Serve(opts Options, scenarios []ServeScenario) []Result[ServeResult] {
	jobs := make([]Job[ServeResult], len(scenarios))
	for i := range scenarios {
		sc := scenarios[i]
		jobs[i] = scenarioJob(opts, sc.Name,
			func(ctx context.Context, spanTrace bool) (*core.ServeResult, error) {
				cfg := sc.Build()
				if cfg.Context == nil {
					cfg.Context = ctx
				}
				cfg.SpanTrace = cfg.SpanTrace || spanTrace
				return core.Serve(cfg)
			},
			func(r *core.ServeResult) *spantrace.Log { return r.Spans })
	}
	return Run(opts, jobs)
}
