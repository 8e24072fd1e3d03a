// Command benchdiff records and gates benchmark results, seeding the
// repo's performance trajectory: scripts/bench.sh pipes `go test -bench`
// output through `-out` to snapshot name → ns/op, allocs/op into a
// BENCH_<date>.json, and `-old`/`-new` compares two snapshots with a
// tolerance gate. When a benchmark appears several times (`-count N`), the
// snapshot keeps the median of each metric, which one slow run on a noisy
// box cannot drag the way it drags a mean, plus the ns/op range.
//
// The allocation gate is strict (allocs/op is deterministic at any
// -benchtime, so a pooling or hot-path regression shows up exactly); the
// ns/op and bytes/op gates are off by default because the fixed
// `-benchtime 1x` runs in CI are too noisy for wall-clock comparisons and
// pooled-buffer sizing wobbles B/op — enable them with -max-ns-ratio /
// -max-bytes-ratio for dedicated perf runs at longer benchtimes. Compare
// mode always ends with the largest per-metric regressions sorted by
// relative delta (-top), so the worst movers are visible even when every
// gate passes.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem -benchtime 1x . > bench.txt
//	benchdiff -out BENCH_2026-08-05.json bench.txt
//	benchdiff -old BENCH_2026-07-01.json -new BENCH_2026-08-05.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
)

// entry is one benchmark's recorded result: the median over its runs, and
// the fastest and slowest run's ns/op.
type entry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	NsPerOpMin  float64 `json:"ns_per_op_min"`
	NsPerOpMax  float64 `json:"ns_per_op_max"`
}

// snapshot is the BENCH_<date>.json schema.
type snapshot struct {
	Benchmarks map[string]entry `json:"benchmarks"`
}

// benchLine matches `go test -bench` result lines:
//
//	BenchmarkName-8   12  3456 ns/op  789 B/op  10 allocs/op
//
// The trailing -N is the GOMAXPROCS suffix the testing package appends; it
// is stripped so snapshots compare across machines with different core
// counts.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

func parseBench(r io.Reader) (map[string]entry, error) {
	runs := map[string][]entry{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		name, rest := m[1], m[3]
		fields := splitFields(rest)
		var e entry
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad value %q", name, fields[i])
			}
			switch fields[i+1] {
			case "ns/op":
				e.NsPerOp = v
			case "B/op":
				e.BytesPerOp = v
			case "allocs/op":
				e.AllocsPerOp = v
			}
		}
		runs[name] = append(runs[name], e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := map[string]entry{}
	for name, es := range runs {
		ns := metric(es, func(e entry) float64 { return e.NsPerOp })
		out[name] = entry{
			NsPerOp:     median(ns),
			BytesPerOp:  median(metric(es, func(e entry) float64 { return e.BytesPerOp })),
			AllocsPerOp: median(metric(es, func(e entry) float64 { return e.AllocsPerOp })),
			NsPerOpMin:  ns[0],
			NsPerOpMax:  ns[len(ns)-1],
		}
	}
	return out, nil
}

// metric returns one field of every run, sorted ascending.
func metric(es []entry, field func(entry) float64) []float64 {
	vs := make([]float64, len(es))
	for i, e := range es {
		vs[i] = field(e)
	}
	sort.Float64s(vs)
	return vs
}

// median of sorted vs; an even count averages the two middle values.
func median(vs []float64) float64 {
	m := len(vs) / 2
	if len(vs)%2 == 0 {
		return (vs[m-1] + vs[m]) / 2
	}
	return vs[m]
}

func splitFields(s string) []string {
	var out []string
	start := -1
	for i := 0; i <= len(s); i++ {
		if i < len(s) && s[i] != ' ' && s[i] != '\t' {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			out = append(out, s[start:i])
			start = -1
		}
	}
	return out
}

func readSnapshot(path string) (*snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func emit(path string, benches map[string]entry) error {
	out, err := json.MarshalIndent(&snapshot{Benchmarks: benches}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// gates bundles the compare-mode thresholds and report options.
type gates struct {
	allocRatio, allocSlack float64 // allocs/op: baseline*ratio + slack
	bytesRatio, bytesSlack float64 // B/op gate; ratio 0 disables
	nsRatio                float64 // ns/op gate; ratio 0 disables
	top                    int     // regressions to list; 0 disables
}

// regression is one metric's relative growth between snapshots.
type regression struct {
	name, metric string
	old, new     float64
	delta        float64 // new/old - 1
}

// compare gates new against old. Returns the number of failures.
func compare(w io.Writer, old, cand *snapshot, g gates) int {
	names := make([]string, 0, len(old.Benchmarks))
	for name := range old.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	failures := 0
	added := 0
	for name := range cand.Benchmarks {
		if _, ok := old.Benchmarks[name]; !ok {
			added++
		}
	}
	var regs []regression
	for _, name := range names {
		o := old.Benchmarks[name]
		n, ok := cand.Benchmarks[name]
		if !ok {
			fmt.Fprintf(w, "FAIL %s: missing from new run (regenerate the "+
				"baseline if the benchmark was intentionally removed)\n", name)
			failures++
			continue
		}
		if limit := o.AllocsPerOp*g.allocRatio + g.allocSlack; n.AllocsPerOp > limit {
			fmt.Fprintf(w, "FAIL %s: allocs/op %.0f exceeds %.0f "+
				"(baseline %.0f, ratio %.2f + slack %.0f)\n",
				name, n.AllocsPerOp, limit, o.AllocsPerOp, g.allocRatio,
				g.allocSlack)
			failures++
		}
		if g.bytesRatio > 0 {
			if limit := o.BytesPerOp*g.bytesRatio + g.bytesSlack; n.BytesPerOp > limit {
				fmt.Fprintf(w, "FAIL %s: bytes/op %.0f exceeds %.0f "+
					"(baseline %.0f, ratio %.2f + slack %.0f)\n",
					name, n.BytesPerOp, limit, o.BytesPerOp, g.bytesRatio,
					g.bytesSlack)
				failures++
			}
		}
		if g.nsRatio > 0 && o.NsPerOp > 0 && n.NsPerOp > o.NsPerOp*g.nsRatio {
			fmt.Fprintf(w, "FAIL %s: ns/op %.0f exceeds %.0f "+
				"(baseline %.0f, ratio %.2f)\n",
				name, n.NsPerOp, o.NsPerOp*g.nsRatio, o.NsPerOp, g.nsRatio)
			failures++
		}
		for _, m := range []struct {
			metric   string
			old, new float64
		}{
			{"ns/op", o.NsPerOp, n.NsPerOp},
			{"bytes/op", o.BytesPerOp, n.BytesPerOp},
			{"allocs/op", o.AllocsPerOp, n.AllocsPerOp},
		} {
			if m.old > 0 && m.new > m.old {
				regs = append(regs, regression{name: name, metric: m.metric,
					old: m.old, new: m.new, delta: m.new/m.old - 1})
			}
		}
	}
	printTopRegressions(w, regs, g.top)
	fmt.Fprintf(w, "benchdiff: %d compared, %d new, %d failed\n",
		len(names), added, failures)
	return failures
}

// printTopRegressions lists the n largest metric regressions by relative
// delta, so a cache or queue change's worst movers are visible in one table
// even when every gate passes.
func printTopRegressions(w io.Writer, regs []regression, n int) {
	if n <= 0 || len(regs) == 0 {
		return
	}
	sort.Slice(regs, func(i, j int) bool {
		if regs[i].delta != regs[j].delta {
			return regs[i].delta > regs[j].delta
		}
		if regs[i].name != regs[j].name {
			return regs[i].name < regs[j].name
		}
		return regs[i].metric < regs[j].metric
	})
	if len(regs) > n {
		regs = regs[:n]
	}
	fmt.Fprintf(w, "top regressions by relative delta:\n")
	for _, r := range regs {
		fmt.Fprintf(w, "  +%5.1f%%  %-9s %s: %.6g -> %.6g\n",
			100*r.delta, r.metric, r.name, r.old, r.new)
	}
}

func main() {
	out := flag.String("out", "",
		"parse `go test -bench` output (args or stdin) into this JSON snapshot")
	oldPath := flag.String("old", "", "baseline snapshot for compare mode")
	newPath := flag.String("new", "", "candidate snapshot for compare mode")
	allocRatio := flag.Float64("max-alloc-ratio", 1.25,
		"fail when allocs/op exceeds baseline*ratio+slack")
	allocSlack := flag.Float64("alloc-slack", 128,
		"absolute allocs/op headroom added to the ratio gate")
	bytesRatio := flag.Float64("max-bytes-ratio", 0,
		"fail when bytes/op exceeds baseline*ratio+slack (0 disables; pooled "+
			"buffers make B/op less stable than allocs/op)")
	bytesSlack := flag.Float64("bytes-slack", 16384,
		"absolute bytes/op headroom added to the bytes gate")
	nsRatio := flag.Float64("max-ns-ratio", 0,
		"fail when ns/op exceeds baseline*ratio (0 disables; -benchtime 1x "+
			"runs are too noisy for this gate)")
	top := flag.Int("top", 5,
		"list the N largest metric regressions by relative delta (0 disables)")
	flag.Parse()

	switch {
	case *out != "":
		var in io.Reader = os.Stdin
		if flag.NArg() > 0 {
			f, err := os.Open(flag.Arg(0))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			defer f.Close()
			in = f
		}
		benches, err := parseBench(in)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if len(benches) == 0 {
			fmt.Fprintln(os.Stderr, "benchdiff: no benchmark lines in input")
			os.Exit(2)
		}
		if err := emit(*out, benches); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Printf("benchdiff: wrote %d benchmarks to %s\n", len(benches), *out)
	case *oldPath != "" && *newPath != "":
		old, err := readSnapshot(*oldPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cand, err := readSnapshot(*newPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if compare(os.Stdout, old, cand, gates{
			allocRatio: *allocRatio, allocSlack: *allocSlack,
			bytesRatio: *bytesRatio, bytesSlack: *bytesSlack,
			nsRatio: *nsRatio, top: *top,
		}) > 0 {
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr,
			"usage: benchdiff -out SNAP.json [bench.txt] |"+
				" benchdiff -old OLD.json -new NEW.json")
		os.Exit(2)
	}
}
