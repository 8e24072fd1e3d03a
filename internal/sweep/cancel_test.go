package sweep

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"triosim/internal/config"
	"triosim/internal/core"
	"triosim/internal/gpu"
	"triosim/internal/serving"
)

func simScenario(t *testing.T, name, model string) Scenario {
	t.Helper()
	return Scenario{Name: name, Build: func() core.Config {
		cfg, err := (&config.RunSpec{Model: model, Platform: "P1",
			Parallelism: "ddp", TraceBatch: 32, GlobalBatch: 64}).ToCore()
		if err != nil {
			t.Errorf("build %s: %v", name, err)
		}
		return cfg
	}}
}

func TestSimulateCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	scenarios := []Scenario{
		simScenario(t, "a", "resnet18"),
		simScenario(t, "b", "resnet18"),
		simScenario(t, "c", "resnet18"),
	}
	results := Simulate(Options{Workers: 2, Context: ctx}, scenarios)
	if len(results) != len(scenarios) {
		t.Fatalf("%d results for %d scenarios", len(results), len(scenarios))
	}
	for i, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("scenario %d: %v, want context.Canceled", i, r.Err)
		}
		if !strings.Contains(r.Err.Error(), "not started") {
			t.Errorf("scenario %d error %q does not say not-started", i, r.Err)
		}
	}
}

// Canceling the sweep context while scenario 0 is mid-build must fail
// scenario 0 with the cancellation and fail-fast every queued scenario
// behind it without running them.
func TestSimulateCancelMidQueue(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	canceled := make(chan struct{})
	go func() {
		<-started
		cancel()
		close(canceled)
	}()

	var ran sync.Map
	mark := func(s Scenario) Scenario {
		build := s.Build
		s.Build = func() core.Config {
			ran.Store(s.Name, true)
			return build()
		}
		return s
	}
	first := simScenario(t, "first", "resnet18")
	firstBuild := first.Build
	first.Build = func() core.Config {
		close(started)
		<-canceled // hold the worker until the sweep ctx is canceled
		return firstBuild()
	}
	scenarios := []Scenario{
		first,
		mark(simScenario(t, "second", "resnet18")),
		mark(simScenario(t, "third", "resnet18")),
	}

	// Workers:1 serializes the queue, so scenarios 1 and 2 cannot have
	// started before scenario 0 observes the cancellation.
	results := Simulate(Options{Workers: 1, Context: ctx}, scenarios)
	if !errors.Is(results[0].Err, context.Canceled) ||
		!strings.Contains(results[0].Err.Error(), "simulation canceled") {
		t.Errorf("running scenario: %v, want simulation-canceled", results[0].Err)
	}
	for _, r := range results[1:] {
		if !errors.Is(r.Err, context.Canceled) ||
			!strings.Contains(r.Err.Error(), "not started") {
			t.Errorf("queued scenario %d: %v, want not-started cancellation",
				r.Index, r.Err)
		}
		if _, ok := ran.Load(scenarios[r.Index].Name); ok {
			t.Errorf("queued scenario %d ran after cancellation", r.Index)
		}
	}
}

// trippingCtx reports no error on its first two Err() calls (the sweep's
// not-started gate and core's pre-run gate) and a cancellation on every later
// one, deterministically forcing the engine's mid-dispatch poll — not a
// pre-run check — to terminate the run.
type trippingCtx struct {
	context.Context
	mu    sync.Mutex
	calls int
}

func (c *trippingCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if c.calls > 2 {
		return context.Canceled
	}
	return nil
}

// The context poll is shared by training and serving runs, so it must stop
// either engine mid-run and surface the cancellation, not the workload's
// symptom (a stalled graph, unfinished requests).
func TestSimulateEngineTerminatesMidRun(t *testing.T) {
	cases := []struct {
		name string
		run  func(ctx context.Context) error
	}{
		// densenet121 dispatches >1024 events, so the engine's 1024-dispatch
		// cancellation poll is guaranteed to fire at least once.
		{"training", func(ctx context.Context) error {
			return Simulate(Options{Workers: 1, Context: ctx},
				[]Scenario{simScenario(t, "mid-run", "densenet121")})[0].Err
		}},
		// 64 requests dispatch ~1,600 events.
		{"serving", func(ctx context.Context) error {
			sc := serveScenario(t, "mid-run")
			build := sc.Build
			sc.Build = func() core.ServeConfig {
				cfg := build()
				cfg.Serving.Arrivals.Requests = 64
				return cfg
			}
			return Serve(Options{Workers: 1, Context: ctx},
				[]ServeScenario{sc})[0].Err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := &trippingCtx{Context: context.Background()}
			err := tc.run(ctx)
			if !errors.Is(err, context.Canceled) ||
				!strings.Contains(err.Error(), "simulation canceled") {
				t.Fatalf("mid-run cancel: %v, want simulation canceled", err)
			}
			if !strings.Contains(err.Error(), `"mid-run"`) {
				t.Fatalf("error %q does not name the scenario", err)
			}
			ctx.mu.Lock()
			polls := ctx.calls
			ctx.mu.Unlock()
			if polls < 3 {
				t.Fatalf("engine never reached the dispatch poll (calls=%d)",
					polls)
			}
		})
	}
}

func TestSimulatePerJobTimeout(t *testing.T) {
	results := Simulate(Options{Workers: 1, Timeout: time.Nanosecond},
		[]Scenario{simScenario(t, "tiny-budget", "resnet18")})
	err := results[0].Err
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timeout: %v, want context.DeadlineExceeded", err)
	}
}

// A canceled sweep context wins over the per-job timeout: jobs are not even
// started, and the error says so.
func TestSimulateCancelBeatsTimeout(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results := Simulate(Options{Workers: 1, Timeout: time.Hour, Context: ctx},
		[]Scenario{simScenario(t, "moot", "resnet18")})
	err := results[0].Err
	if !errors.Is(err, context.Canceled) ||
		!strings.Contains(err.Error(), "not started") {
		t.Fatalf("cancel vs timeout: %v", err)
	}
}

func serveScenario(t *testing.T, name string) ServeScenario {
	t.Helper()
	return ServeScenario{Name: name, Build: func() core.ServeConfig {
		plat, err := gpu.PlatformByName("P1")
		if err != nil {
			t.Errorf("build %s: %v", name, err)
		}
		return core.ServeConfig{
			Platform: plat,
			Serving: serving.Config{
				Model: "gpt2",
				Arrivals: serving.ArrivalConfig{
					Requests: 8, Rate: 200, Seed: 7,
				},
			},
		}
	}}
}

func TestServeCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results := Serve(Options{Workers: 2, Context: ctx},
		[]ServeScenario{serveScenario(t, "a"), serveScenario(t, "b")})
	for i, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("serve scenario %d: %v, want context.Canceled", i, r.Err)
		}
	}
}

func TestServeCancelMidQueue(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	canceled := make(chan struct{})
	go func() {
		<-started
		cancel()
		close(canceled)
	}()
	first := serveScenario(t, "first")
	firstBuild := first.Build
	first.Build = func() core.ServeConfig {
		close(started)
		<-canceled
		return firstBuild()
	}
	results := Serve(Options{Workers: 1, Context: ctx},
		[]ServeScenario{first, serveScenario(t, "second")})
	if !errors.Is(results[0].Err, context.Canceled) ||
		!strings.Contains(results[0].Err.Error(), "simulation canceled") {
		t.Errorf("running serve scenario: %v", results[0].Err)
	}
	if !errors.Is(results[1].Err, context.Canceled) ||
		!strings.Contains(results[1].Err.Error(), "not started") {
		t.Errorf("queued serve scenario: %v", results[1].Err)
	}
}
