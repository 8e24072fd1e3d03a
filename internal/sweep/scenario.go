package sweep

import (
	"context"
	"fmt"
	"path/filepath"

	"triosim/internal/core"
	"triosim/internal/spantrace"
	"triosim/internal/tracecache"
)

// SanitizeName maps a scenario name onto a safe filename stem: every byte
// outside [a-zA-Z0-9._-] becomes '-'.
func SanitizeName(name string) string {
	out := []byte(name)
	for i, c := range out {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c >= '0' && c <= '9', c == '.', c == '_', c == '-':
		default:
			out[i] = '-'
		}
	}
	return string(out)
}

// Scenario is one named simulation configuration in a sweep.
type Scenario struct {
	// Name labels the scenario in results and reports.
	Name string
	// Build returns the scenario's Config. It runs on the worker goroutine,
	// so anything with unsynchronized internal state — notably
	// *network.Topology and its route cache — must be constructed here, not
	// captured from outside.
	Build func() core.Config
}

// Named is one scenario's outcome: its name and its run's result (the zero
// value when the scenario failed).
type Named[R any] struct {
	Name string
	Res  R
}

// SimResult is one scenario's simulation outcome.
type SimResult = Named[*core.Result]

// Simulate runs the scenarios through core.Simulate on the pool. Results are
// in scenario order; a scenario's failure is confined to its own Result. The
// sweep context (and per-job timeout) is threaded into each Config.Context,
// so cancellation terminates in-flight engines. When telemetry is enabled on
// a scenario's Config, its Result carries that scenario's own RunReport —
// each run builds a private registry, so reports never mix across workers.
//
// Unless Options.NoTraceCache is set, the sweep shares one trace cache:
// scenarios over the same (model, trace batch, GPU) collect the trace and
// fit the performance model once, and every other scenario reuses them
// read-only. A Config that already carries a Cache (or a pre-built Trace)
// keeps it.
func Simulate(opts Options, scenarios []Scenario) []Result[SimResult] {
	var cache *tracecache.Store
	if !opts.NoTraceCache {
		cache = tracecache.New()
	}
	jobs := make([]Job[SimResult], len(scenarios))
	for i := range scenarios {
		sc := scenarios[i]
		jobs[i] = scenarioJob(opts, sc.Name,
			func(ctx context.Context, spanTrace bool) (*core.Result, error) {
				cfg := sc.Build()
				if cfg.Context == nil {
					cfg.Context = ctx
				}
				if cfg.Cache == nil {
					cfg.Cache = cache
				}
				cfg.SpanTrace = cfg.SpanTrace || spanTrace
				return core.Simulate(cfg)
			},
			func(r *core.Result) *spantrace.Log { return r.Spans })
	}
	return Run(opts, jobs)
}

// scenarioJob wraps one named scenario's run in the per-job plumbing that
// Simulate and Serve share. run receives the job context, to thread into a
// config that carries none, and whether Options.TraceDir forces span
// tracing on; spans extracts the run's span log. A failure is wrapped with
// the scenario's name, and with TraceDir set the span log is written to
// <TraceDir>/<sanitized name>.trace.json.
func scenarioJob[R any](opts Options, name string,
	run func(ctx context.Context, spanTrace bool) (R, error),
	spans func(R) *spantrace.Log) Job[Named[R]] {

	return func(ctx context.Context) (Named[R], error) {
		out := Named[R]{Name: name}
		res, err := run(ctx, opts.TraceDir != "")
		if err != nil {
			// Name the scenario: a per-scenario timeout surfaces from core
			// as a bare context error, useless in a 50-scenario sweep
			// without saying *which* scenario it killed.
			return out, fmt.Errorf("sweep: scenario %q: %w", name, err)
		}
		if log := spans(res); opts.TraceDir != "" && log != nil {
			path := filepath.Join(opts.TraceDir,
				SanitizeName(name)+".trace.json")
			if err := log.WriteChromeTraceFile(path); err != nil {
				return out, fmt.Errorf("sweep: scenario %q: write trace: %w",
					name, err)
			}
		}
		out.Res = res
		return out, nil
	}
}
