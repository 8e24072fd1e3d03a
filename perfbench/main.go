// Command perfbench is the repository's benchmark. It runs one workload —
// cluster-step, paper-validation or daemon-mix — for a fixed time against
// the module's own packages and prints every metric by name and unit,
// followed by one JSON result line:
//
//	perfbench --workload cluster-step --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the run measures the end-to-end metrics with nothing
// traced. With --trace 1 it replays the same pipeline one stage at a time,
// checks that the replay reproduces the untraced makespans and event
// digests exactly, and reports per-layer metrics. See README.md for every
// metric's definition.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// run is one benchmark execution's shared state and output.
type run struct {
	seed    int64
	seconds time.Duration
	trace   bool

	attempted, failed int
	// problems are failed output checks; any makes the result incorrect.
	problems []string
	m        metrics
	// notes are human-readable lines printed before the result.
	notes []string
}

// fail records a failed output check.
func (r *run) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// positive reports whether v is a finite positive number, recording a
// failed check otherwise.
func (r *run) positive(what string, v float64) bool {
	if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
		r.fail("%s is %v, want finite and positive", what, v)
		return false
	}
	return true
}

// latencies reports the median and sample-count-limited p99 of the
// operation latencies (seconds) as job_p50_ms and job_p99_ms.
func (r *run) latencies(what string, secs []float64) {
	p99, used := tail(secs, 0.99)
	r.m.set("job_p50_ms", "ms", median(secs)*1e3)
	r.m.set("job_p99_ms", "ms", p99*1e3)
	r.note("%s latency: n=%d, job_p99_ms is the nearest-rank p%.4g "+
		"(>=%d samples beyond it)", what, len(secs), used*100, minBeyond)
}

// errPct is the prediction error against the reference in percent; the
// predicted and reference seconds must be finite and positive, and the
// error finite.
func (r *run) errPct(what string, pred, actual float64) float64 {
	if !r.positive(what+" predicted time", pred) ||
		!r.positive(what+" emulated time", actual) {
		return math.NaN()
	}
	e := math.Abs(pred-actual) / actual * 100
	if math.IsNaN(e) || math.IsInf(e, 0) {
		r.fail("%s error is %v", what, e)
	}
	return e
}

// medianMetrics combines per-pass metric sets into per-name medians.
func medianMetrics(passes []metrics) metrics {
	out := metrics{}
	for name, v := range passes[0] {
		xs := make([]float64, len(passes))
		for i, p := range passes {
			xs[i] = p[name].Value
		}
		out.set(name, v.Unit, median(xs))
	}
	return out
}

// noServer reports the daemon layer as idle on workloads that do not run it.
func noServer(m metrics) {
	for _, n := range []string{"server.submit_ms", "server.queue_ms",
		"server.run_ms", "server.report_ms"} {
		m.set(n, "ms", 0)
	}
	m.set("server.coalesce_ratio", "ratio", 0)
	m.set("server.rejected", "count", 0)
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*run) error{
	"cluster-step":     clusterStep,
	"paper-validation": paperValidation,
	"daemon-mix":       daemonMix,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 30, "measurement time in seconds")
		traceArg = flag.Int("trace", 0, "1 replays stage by stage and reports per-layer metrics")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceArg != 0 && *traceArg != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {%s} --seed N "+
			"--seconds N --trace {0|1}\n", strings.Join(names, ","))
		os.Exit(2)
	}
	r := &run{seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *traceArg == 1, m: metrics{}}
	if err := fn(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if err := r.m.check(); err != nil {
		r.fail("%v", err)
	}
	os.Exit(r.print(os.Stdout))
}

// print writes the human-readable lines and the JSON result, returning the
// exit code: non-zero when any output check failed.
func (r *run) print(f *os.File) int {
	w := bufio.NewWriter(f)
	defer w.Flush()
	names := make([]string, 0, len(r.m))
	for n := range r.m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-26s %16.6g %s\n", n, r.m[n].Value, r.m[n].Unit)
	}
	ratio := 0.0
	if r.attempted > 0 {
		ratio = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "fail_ratio %g (%d failed / %d attempted)\n", ratio,
		r.failed, r.attempted)
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", p)
	}
	out, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{len(r.problems) == 0, max(r.attempted, 1), r.failed, r.m})
	if err != nil {
		fmt.Fprintf(w, "CHECK FAILED: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", out)
	if len(r.problems) > 0 {
		return 1
	}
	return 0
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(
				strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// loop measures the end-to-end throughput, allocation and memory of an
// untraced measured loop.
type loop struct {
	start   time.Time
	allocMB float64
}

func startLoop() loop { return loop{time.Now(), allocMB()} }

// done records jobs_per_s, alloc_mb (per operation) and peak_rss_mb for ops
// completed operations and returns the loop's wall seconds.
func (l loop) done(r *run, ops int) float64 {
	wall := time.Since(l.start).Seconds()
	r.m.set("jobs_per_s", "1/s", float64(ops)/wall)
	r.m.set("alloc_mb", "MB", (allocMB()-l.allocMB)/float64(max(ops, 1)))
	r.m.set("peak_rss_mb", "MB", peakRSSMB())
	return wall
}

// allocMB is the process's cumulative allocation in MB. Untraced runs read
// it only before and after the measured loop.
func allocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// setupMedian returns the median of repeated set-up times: at least 5
// set-ups, then more until 1 s has been spent on them or 10,001 are done.
// Spreading them over a second keeps a burst of load from another process
// from setting the median, and gives even a sub-millisecond set-up a stable
// one. Each call of fn performs and times one set-up.
func setupMedian(fn func() (time.Duration, error)) (float64, error) {
	var secs []float64
	var spent time.Duration
	for len(secs) < 5 || spent < time.Second && len(secs) < 10001 {
		d, err := fn()
		if err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		spent += d
		secs = append(secs, d.Seconds())
	}
	return median(secs), nil
}

// timeCall times one call of fn.
func timeCall(fn func() error) (time.Duration, error) {
	t0 := time.Now()
	err := fn()
	return time.Since(t0), err
}
