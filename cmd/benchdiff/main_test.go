package main

import (
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: triosim
BenchmarkEventEngine-8             	     100	    120000 ns/op	    4096 B/op	      12 allocs/op
BenchmarkAblationFairShare/maxmin-8	      50	    240000 ns/op	    8192 B/op	      24 allocs/op
BenchmarkAblationBucketSize/25MB-8 	      10	   1000000 ns/op	         12.5 simulated-ms/iter	   16384 B/op	     100 allocs/op
BenchmarkEventEngine-8             	     100	    140000 ns/op	    4096 B/op	      14 allocs/op
PASS
ok  	triosim	1.234s
`

func TestParseBench(t *testing.T) {
	benches, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 3 {
		t.Fatalf("got %d benchmarks, want 3: %v", len(benches), benches)
	}
	// The GOMAXPROCS suffix is stripped; duplicate runs give their median,
	// which for two runs is their mean.
	e, ok := benches["BenchmarkEventEngine"]
	if !ok {
		t.Fatalf("missing BenchmarkEventEngine (suffix not stripped?): %v",
			benches)
	}
	if e.NsPerOp != 130000 || e.AllocsPerOp != 13 {
		t.Fatalf("duplicate runs not averaged: %+v", e)
	}
	// Sub-benchmark names keep their path; custom metrics are ignored.
	e, ok = benches["BenchmarkAblationBucketSize/25MB"]
	if !ok || e.AllocsPerOp != 100 || e.BytesPerOp != 16384 {
		t.Fatalf("sub-benchmark with custom metric misparsed: %+v (ok=%v)",
			e, ok)
	}
}

func TestCompareGates(t *testing.T) {
	old := &snapshot{Benchmarks: map[string]entry{
		"BenchmarkA":    {NsPerOp: 1000, AllocsPerOp: 1000, BytesPerOp: 1 << 20},
		"BenchmarkB":    {NsPerOp: 1000, AllocsPerOp: 10, BytesPerOp: 1024},
		"BenchmarkGone": {NsPerOp: 1, AllocsPerOp: 1},
	}}
	cand := &snapshot{Benchmarks: map[string]entry{
		// 2000 > 1000*1.25+128: alloc regression. Bytes tripled too.
		"BenchmarkA": {NsPerOp: 1000, AllocsPerOp: 2000, BytesPerOp: 3 << 20},
		// 20 <= 10*1.25+128: inside the absolute slack, fine. The 10x ns/op
		// jump must NOT fail while the ns gate is disabled.
		"BenchmarkB": {NsPerOp: 10000, AllocsPerOp: 20, BytesPerOp: 1024},
		// New benchmarks are allowed.
		"BenchmarkNew": {NsPerOp: 5, AllocsPerOp: 5},
	}}
	def := gates{allocRatio: 1.25, allocSlack: 128}
	var buf strings.Builder
	got := compare(&buf, old, cand, def)
	// BenchmarkA alloc regression + BenchmarkGone missing = 2 failures; the
	// 3x bytes growth stays informational while the bytes gate is disabled.
	if got != 2 {
		t.Fatalf("got %d failures, want 2:\n%s", got, buf.String())
	}
	if !strings.Contains(buf.String(), "BenchmarkA: allocs/op") {
		t.Errorf("missing alloc failure:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "BenchmarkGone: missing") {
		t.Errorf("missing removed-benchmark failure:\n%s", buf.String())
	}

	// Enabling the ns gate catches BenchmarkB's 10x jump.
	buf.Reset()
	g := def
	g.nsRatio = 2
	if got := compare(&buf, old, cand, g); got != 3 {
		t.Fatalf("with ns gate: got %d failures, want 3:\n%s",
			got, buf.String())
	}

	// Enabling the bytes gate catches BenchmarkA's 3x growth.
	buf.Reset()
	g = def
	g.bytesRatio = 1.5
	g.bytesSlack = 16384
	if got := compare(&buf, old, cand, g); got != 3 {
		t.Fatalf("with bytes gate: got %d failures, want 3:\n%s",
			got, buf.String())
	}
	if !strings.Contains(buf.String(), "BenchmarkA: bytes/op") {
		t.Errorf("missing bytes failure:\n%s", buf.String())
	}
}

// The regression table lists the largest relative deltas first — B's 10x
// ns/op jump outranks A's 3x bytes and 2x allocs growth — and truncates to
// the requested count.
func TestCompareTopRegressions(t *testing.T) {
	old := &snapshot{Benchmarks: map[string]entry{
		"BenchmarkA": {NsPerOp: 1000, AllocsPerOp: 1000, BytesPerOp: 1 << 20},
		"BenchmarkB": {NsPerOp: 1000, AllocsPerOp: 10, BytesPerOp: 1024},
	}}
	cand := &snapshot{Benchmarks: map[string]entry{
		"BenchmarkA": {NsPerOp: 900, AllocsPerOp: 2000, BytesPerOp: 3 << 20},
		"BenchmarkB": {NsPerOp: 10000, AllocsPerOp: 10, BytesPerOp: 1024},
	}}
	var buf strings.Builder
	compare(&buf, old, cand, gates{allocRatio: 100, top: 2})
	out := buf.String()
	if !strings.Contains(out, "top regressions") {
		t.Fatalf("no regression table:\n%s", out)
	}
	first := strings.Index(out, "ns/op     BenchmarkB")
	second := strings.Index(out, "bytes/op  BenchmarkA")
	if first < 0 || second < 0 || first > second {
		t.Fatalf("regressions not sorted by relative delta:\n%s", out)
	}
	// top=2 drops A's allocs/op growth (the smallest delta); A's ns/op
	// *improved*, so it never appears.
	if strings.Contains(out, "allocs/op BenchmarkA") {
		t.Fatalf("table not truncated to top 2:\n%s", out)
	}
	if strings.Contains(out, "ns/op     BenchmarkA") {
		t.Fatalf("improvement listed as regression:\n%s", out)
	}

	// top=0 disables the table entirely.
	buf.Reset()
	compare(&buf, old, cand, gates{allocRatio: 100})
	if strings.Contains(buf.String(), "top regressions") {
		t.Fatalf("table printed with top=0:\n%s", buf.String())
	}
}

// Repeated -count runs record the median of each metric, not the mean, so
// one slow run does not move the snapshot, plus the ns/op range.
func TestParseBenchMedianAndSpread(t *testing.T) {
	const runs = `BenchmarkClusterStep/64gpus-2   1   100 ns/op   10 B/op   5 allocs/op
BenchmarkClusterStep/64gpus-2   1   900 ns/op   30 B/op   7 allocs/op
BenchmarkClusterStep/64gpus-2   1   200 ns/op   20 B/op   5 allocs/op
BenchmarkOnce-2   1   50 ns/op   8 B/op   1 allocs/op
`
	benches, err := parseBench(strings.NewReader(runs))
	if err != nil {
		t.Fatal(err)
	}
	want := entry{NsPerOp: 200, BytesPerOp: 20, AllocsPerOp: 5,
		NsPerOpMin: 100, NsPerOpMax: 900}
	if got := benches["BenchmarkClusterStep/64gpus"]; got != want {
		t.Fatalf("three runs recorded as %+v, want median %+v", got, want)
	}
	want = entry{NsPerOp: 50, BytesPerOp: 8, AllocsPerOp: 1,
		NsPerOpMin: 50, NsPerOpMax: 50}
	if got := benches["BenchmarkOnce"]; got != want {
		t.Fatalf("single run recorded as %+v, want %+v", got, want)
	}
	if len(benches) != 2 {
		t.Fatalf("got %d benchmarks, want 2: %v", len(benches), benches)
	}
}
