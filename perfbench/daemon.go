package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"triosim/internal/config"
	"triosim/internal/core"
	"triosim/internal/gpu"
	"triosim/internal/server"
	"triosim/internal/serving"
	"triosim/internal/telemetry"
	"triosim/internal/tracecache"
)

// The daemon-mix workload: an in-process triosimd server with 2 workers
// driven by a closed loop of 2 clients over loopback HTTP. It is the only
// workload that exercises admission, queueing, coalescing, report encoding
// and core.Serve, and its flow-network traffic is a few small host↔GPU
// transfers per run.
const (
	daemonWorkers = 2
	daemonClients = 2
)

// job is one distinct submission of the pool.
type job struct {
	body []byte
	// run is the training spec (nil for serving jobs).
	run   *config.RunSpec
	serve *server.ServeSpec
	hot   bool
}

// jobPool generates the seeded pool of distinct jobs: training specs over
// P1–P3 (DDP/TP/PP, CNNs and GPT-2) and GPT-2 serving under each scheduler.
// The seed varies the serving arrival processes; the training specs, and
// which jobs are popular, are fixed so that every seed offers the same mix
// of work.
func jobPool(seed int64) ([]job, error) {
	// Iteration counts size every training job at roughly 15–35 ms of
	// host time, so lifecycle stamps (whole milliseconds) resolve run
	// times while the server's own per-job work stays a visible share.
	type tr struct {
		plat, par, model string
		chunks, iters    int
		hot              bool
	}
	var pool []job
	for _, t := range []tr{
		{"P1", "ddp", "resnet50", 0, 8, true},
		{"P1", "tp", "gpt2", 0, 12, false},
		{"P1", "pp", "vgg16", 2, 64, false},
		{"P1", "dp", "resnet18", 0, 64, false},
		{"P2", "ddp", "densenet121", 0, 4, true},
		{"P2", "tp", "gpt2", 0, 6, false},
		{"P2", "pp", "resnet34", 4, 16, false},
		{"P2", "ddp", "gpt2", 0, 8, false},
		{"P3", "ddp", "resnet18", 0, 8, true},
		{"P3", "tp", "gpt2", 0, 2, false},
		{"P3", "pp", "vgg11", 2, 64, false},
		{"P3", "ddp", "vgg19", 0, 8, false},
	} {
		spec := &config.RunSpec{Model: t.model, Platform: t.plat,
			Parallelism: t.par, Chunks: t.chunks, Iterations: t.iters}
		body, err := json.Marshal(server.Request{Run: spec})
		if err != nil {
			return nil, err
		}
		pool = append(pool, job{body: body, run: spec, hot: t.hot})
	}
	rng := rand.New(rand.NewSource(seed))
	for i, s := range []struct{ plat, sched string }{
		{"P1", "fifo"}, {"P2", "priority"}, {"P3", "sjf"}} {
		spec := &server.ServeSpec{Platform: s.plat, Serving: serving.Config{
			Model: "gpt2", Scheduler: s.sched,
			Arrivals: serving.ArrivalConfig{Seed: 1 + rng.Int63n(1<<30),
				Requests: 1024, PriorityLevels: 3}}}
		body, err := json.Marshal(server.Request{Serve: spec})
		if err != nil {
			return nil, err
		}
		pool = append(pool, job{body: body, serve: spec, hot: i == 0})
	}
	return pool, nil
}

// passOrder is one pass's submission list: every job once, and each popular
// job twice more — once right behind its first copy, so the two clients
// usually hold it in flight together and the second coalesces, and once at
// a random place, after its coalescing window has closed. The seed shuffles
// the order.
func passOrder(pool []job, rng *rand.Rand) []int {
	var units [][]int
	for i, j := range pool {
		if j.hot {
			units = append(units, []int{i, i}, []int{i})
		} else {
			units = append(units, []int{i})
		}
	}
	rng.Shuffle(len(units), func(a, b int) { units[a], units[b] = units[b], units[a] })
	var out []int
	for _, u := range units {
		out = append(out, u...)
	}
	return out
}

// daemon is a running in-process server behind a loopback HTTP listener.
type daemon struct {
	srv  *server.Server
	hs   *http.Server
	base string
	done chan struct{} // closed when the HTTP server has stopped serving
}

// startDaemon warms a trace cache with the pool's training traces and fitted
// timers, starts a server on it and waits until /readyz answers.
func startDaemon(pool []job, client *http.Client) (*daemon, error) {
	cache := tracecache.New()
	for _, j := range pool {
		if j.run == nil {
			continue
		}
		cfg, err := j.run.ToCore()
		if err != nil {
			return nil, err
		}
		if cfg, err = withDefaults(cfg); err != nil {
			return nil, err
		}
		cfg.Cache = cache
		var l *layers
		tr, err := l.predTrace(cfg)
		if err != nil {
			return nil, err
		}
		if _, err := l.predTimer(cfg, tr); err != nil {
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		srv:  server.New(server.Options{Workers: daemonWorkers, Cache: cache}),
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	d.hs = &http.Server{Handler: d.srv.Handler()}
	go func() {
		defer close(d.done)
		_ = d.hs.Serve(ln) // returns ErrServerClosed after stop
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := client.Get(d.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
			err = fmt.Errorf("HTTP %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("daemon not ready: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the HTTP front end and the server down and waits for both.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = d.hs.Shutdown(ctx) // idle connections only; a timeout leaves Close below
	_ = d.hs.Close()
	<-d.done
	d.srv.Close()
}

// jobResult is one submission's client-side record.
type jobResult struct {
	ok              bool
	err             string
	latency         float64 // submit → report received, seconds
	submit, fetch   float64 // POST and report GET latencies, seconds
	id, digest      string
	coalesced       bool
	queued, running int64 // lifecycle wall_ms stamps
	finished        int64
	report          []byte
	pool            int // index into the pool
}

// submit drives one job through the public API: POST it, follow its NDJSON
// lifecycle stream to the terminal event, then fetch the report.
func submit(client *http.Client, base string, body []byte) (res jobResult) {
	t0 := time.Now()
	defer func() { res.latency = time.Since(t0).Seconds() }()
	resp, err := client.Post(base+"/v1/jobs", "application/json",
		bytes.NewReader(body))
	res.submit = time.Since(t0).Seconds()
	if err != nil {
		res.err = err.Error()
		return res
	}
	var ack server.Ack
	err = json.NewDecoder(resp.Body).Decode(&ack)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		res.err = fmt.Sprintf("submit: HTTP %d", resp.StatusCode)
		return res
	}
	if err != nil {
		res.err = fmt.Sprintf("submit: decode ack: %v", err)
		return res
	}
	res.id, res.digest, res.coalesced = ack.ID, ack.Digest, ack.Coalesced

	resp, err = client.Get(base + "/v1/jobs/" + ack.ID + "/events")
	if err != nil {
		res.err = err.Error()
		return res
	}
	var last server.Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev server.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			res.err = fmt.Sprintf("events: %v", err)
			break
		}
		switch {
		case ev.State == server.StateQueued && res.queued == 0:
			res.queued = ev.WallMS
		case ev.State == server.StateRunning && res.running == 0:
			res.running = ev.WallMS
		}
		last = ev
	}
	if err := sc.Err(); err != nil && res.err == "" {
		res.err = fmt.Sprintf("events: %v", err)
	}
	resp.Body.Close()
	if res.err != "" {
		return res
	}
	if last.State != server.StateDone {
		res.err = fmt.Sprintf("job ended %s: %s", last.State, last.Msg)
		return res
	}
	res.finished = last.WallMS

	t1 := time.Now()
	resp, err = client.Get(base + "/v1/jobs/" + ack.ID + "/report")
	if err != nil {
		res.err = err.Error()
		return res
	}
	res.report, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	res.fetch = time.Since(t1).Seconds()
	if err != nil || resp.StatusCode != http.StatusOK {
		res.err = fmt.Sprintf("report: HTTP %d %v", resp.StatusCode, err)
		return res
	}
	res.ok = true
	return res
}

// loopStats is what one closed loop measured.
type loopStats struct {
	results []jobResult
	passes  []float64 // wall seconds per pass
	// digests maps each pool index to its request digest, as acknowledged.
	digests map[int]string
}

// closedLoop runs passes of the pool until the run time is spent: in each
// pass the clients take the next submission from the pass list as soon as
// their previous one has completed.
func closedLoop(r *run, d *daemon, client *http.Client, pool []job,
	rng *rand.Rand) loopStats {
	st := loopStats{digests: map[int]string{}}
	start := time.Now()
	for len(st.passes) == 0 || time.Since(start) < r.seconds {
		order := passOrder(pool, rng)
		out := make([]jobResult, len(order))
		var next atomic.Int64
		var wg sync.WaitGroup
		t0 := time.Now()
		for c := 0; c < daemonClients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= len(order) {
						return
					}
					out[i] = submit(client, d.base, pool[order[i]].body)
					out[i].pool = order[i]
				}
			}()
		}
		wg.Wait()
		st.passes = append(st.passes, time.Since(t0).Seconds())
		st.results = append(st.results, out...)
		for _, j := range out {
			if j.digest != "" {
				st.digests[j.pool] = j.digest
			}
		}
	}
	return st
}

// newClient is the clients' HTTP client: one connection per client.
func newClient() *http.Client {
	return &http.Client{Timeout: 2 * time.Minute, Transport: &http.Transport{
		MaxConnsPerHost: daemonClients, MaxIdleConnsPerHost: daemonClients}}
}

// checkReports verifies every completed job's report — it decodes, passes
// RunReport.Validate, and is byte-identical to every other report of the
// same digest — and returns one decoded report per digest.
func (r *run) checkReports(st loopStats) map[string]*telemetry.RunReport {
	raw := map[string][]byte{}
	decoded := map[string]*telemetry.RunReport{}
	for _, j := range st.results {
		if !j.ok {
			continue
		}
		if prev, seen := raw[j.digest]; seen {
			if !bytes.Equal(prev, j.report) {
				r.fail("job %s: report differs from an earlier report of "+
					"digest %s", j.id, j.digest)
			}
			continue
		}
		raw[j.digest] = j.report
		var rep telemetry.RunReport
		if err := json.Unmarshal(j.report, &rep); err != nil {
			r.fail("job %s: report does not decode: %v", j.id, err)
			continue
		}
		if err := rep.Validate(); err != nil {
			r.fail("job %s: report fails Validate: %v", j.id, err)
			continue
		}
		r.positive("job "+j.id+" simulated time", rep.TotalSec)
		decoded[j.digest] = &rep
	}
	return decoded
}

// account counts attempted and failed submissions; a failed one counts as a
// missed latency.
func (r *run) account(st loopStats) (lat []float64, completed int) {
	for _, j := range st.results {
		r.attempted++
		if !j.ok {
			r.failed++
			r.note("submission failed: %s", j.err)
			lat = append(lat, math.Inf(1))
			continue
		}
		completed++
		lat = append(lat, j.latency)
	}
	return lat, completed
}

// runSpans returns each distinct run's queue and run time in seconds from
// the lifecycle stamps.
func runSpans(st loopStats) (queue, exec []float64) {
	seen := map[string]bool{}
	for _, j := range st.results {
		if !j.ok || seen[j.id] {
			continue
		}
		seen[j.id] = true
		queue = append(queue, float64(j.running-j.queued)/1e3)
		exec = append(exec, float64(j.finished-j.running)/1e3)
	}
	return queue, exec
}

func daemonMix(r *run) error {
	pool, err := jobPool(r.seed)
	if err != nil {
		return err
	}
	client := newClient()
	defer client.CloseIdleConnections()
	// Every set-up starts a fresh server; the last one serves the run.
	var d *daemon
	setup, err := setupMedian(func() (time.Duration, error) {
		if d != nil {
			d.stop()
		}
		return timeCall(func() error {
			var err error
			d, err = startDaemon(pool, client)
			return err
		})
	})
	if err != nil {
		return err
	}
	defer d.stop()
	rng := rand.New(rand.NewSource(r.seed))

	if r.trace {
		return daemonTraced(r, d, client, pool, rng)
	}
	r.m.set("setup_s", "s", setup)
	lp := startLoop()
	st := closedLoop(r, d, client, pool, rng)
	lat, completed := r.account(st)
	lp.done(r, completed)
	reports := r.checkReports(st)
	_, exec := runSpans(st)
	r.m.set("step_s", "s", groupedMedian(exec, 1e-3))
	r.m.set("grid_s", "s", median(st.passes))
	r.latencies("job", lat)
	r.note("%d passes of %d submissions over %d distinct jobs, %d runs",
		len(st.passes), len(st.results)/len(st.passes), len(pool), len(exec))

	// Fidelity: each training job's daemon-served prediction against the
	// emulated-hardware reference, outside the measured loop.
	var sum float64
	var n int
	for i, j := range pool {
		if j.run == nil {
			continue
		}
		rep := reports[st.digests[i]]
		if rep == nil {
			r.fail("training job %d never completed", i)
			continue
		}
		cfg, err := j.run.ToCore()
		if err != nil {
			return err
		}
		truth, err := core.GroundTruth(cfg)
		if err != nil {
			return fmt.Errorf("ground truth: %w", err)
		}
		sum += r.errPct(fmt.Sprintf("training job %d", i),
			rep.PerIterationSec, truth.PerIteration.Seconds())
		n++
	}
	r.m.set("mean_err_pct", "%", sum/float64(max(n, 1)))
	return nil
}

// daemonTraced runs the same closed loop, takes the server layer's figures
// from the public API (request latencies and lifecycle stamps), then replays
// every distinct job of the pool stage by stage in-process. Each replay must
// reproduce both a direct untraced core run and the daemon's report exactly.
func daemonTraced(r *run, d *daemon, client *http.Client, pool []job,
	rng *rand.Rand) error {
	before := d.srv.Stats()
	st := closedLoop(r, d, client, pool, rng)
	after := d.srv.Stats()
	r.account(st)
	reports := r.checkReports(st)

	var submitLat, fetchLat []float64
	var accepted, coalesced int
	for _, j := range st.results {
		if j.id != "" {
			accepted++
			submitLat = append(submitLat, j.submit)
			if j.coalesced {
				coalesced++
			}
		}
		if j.ok {
			fetchLat = append(fetchLat, j.fetch)
		}
	}
	queue, exec := runSpans(st)
	m := metrics{}
	m.set("server.submit_ms", "ms", median(submitLat)*1e3)
	m.set("server.queue_ms", "ms", groupedMedian(queue, 1e-3)*1e3)
	m.set("server.run_ms", "ms", groupedMedian(exec, 1e-3)*1e3)
	m.set("server.report_ms", "ms", median(fetchLat)*1e3)
	m.set("server.coalesce_ratio", "ratio",
		float64(coalesced)/float64(max(accepted, 1)))
	m.set("server.rejected", "count", float64(after.Rejected-before.Rejected))
	tc := after.TraceCache
	tc.TraceHits -= before.TraceCache.TraceHits
	tc.TraceMisses -= before.TraceCache.TraceMisses
	tc.TimerHits -= before.TraceCache.TimerHits
	tc.TimerMisses -= before.TraceCache.TimerMisses

	direct := make([]outcome, len(pool))
	t0 := time.Now()
	directCache := tracecache.New()
	for i, j := range pool {
		var err error
		if direct[i], err = runDirect(j, directCache, nil); err != nil {
			return fmt.Errorf("job %d: %w", i, err)
		}
	}
	untraced := time.Since(t0).Seconds()
	l := &layers{}
	t1 := time.Now()
	replayCache := tracecache.New()
	for i, j := range pool {
		out, err := runDirect(j, replayCache, l)
		if err != nil {
			return fmt.Errorf("job %d replay: %w", i, err)
		}
		what := fmt.Sprintf("daemon job %d", i)
		if err := sameOutcome(what, out, direct[i]); err != nil {
			return err
		}
		rep := reports[st.digests[i]]
		if rep == nil {
			return fmt.Errorf("%s never completed", what)
		}
		if rep.Engine.EventDigest != fmt.Sprintf("%#x", out.digest) ||
			rep.TotalSec != out.total.Seconds() {
			return fmt.Errorf("%s: replay %v does not match the daemon's "+
				"report (makespan %vs digest %s)", what, out, rep.TotalSec,
				rep.Engine.EventDigest)
		}
	}
	traced := time.Since(t1).Seconds()
	l.record(m, len(pool), hitRatio(tc))
	m.set("trace.overhead_s", "s", (traced-untraced)/float64(len(pool)))
	r.m = m
	r.note("server figures are medians over %d submissions; other layers "+
		"are per distinct job, from one replay of the %d-job pool",
		len(st.results), len(pool))
	return nil
}

// runDirect runs one pool job in-process: through core when l is nil,
// through the stage-by-stage replay otherwise.
func runDirect(j job, cache *tracecache.Store, l *layers) (outcome, error) {
	if j.run != nil {
		cfg, err := j.run.ToCore()
		if err != nil {
			return outcome{}, err
		}
		cfg.Cache = cache
		if l != nil {
			return l.replayTraining(cfg, false)
		}
		res, err := core.Simulate(cfg)
		if err != nil {
			return outcome{}, err
		}
		return outcome{res.TotalTime, res.PerIteration, res.EventDigest}, nil
	}
	plat, err := gpu.PlatformByName(j.serve.Platform)
	if err != nil {
		return outcome{}, err
	}
	cfg := core.ServeConfig{Serving: j.serve.Serving, Platform: plat}
	if l != nil {
		return l.replayServe(cfg)
	}
	res, err := core.Serve(cfg)
	if err != nil {
		return outcome{}, err
	}
	return outcome{res.TotalTime, res.TotalTime, res.EventDigest}, nil
}
