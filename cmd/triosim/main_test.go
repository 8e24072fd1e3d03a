package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"triosim"
)

// TestTimelineHTMLOutlinesCriticalSteps: the -timeline-html viewer outlines
// exactly the drawn critical-path steps (compute, comm and host staging;
// barriers and delays have no bar), even where many spans share a step's
// label and times, as ring-collective steps on different GPUs do.
func TestTimelineHTMLOutlinesCriticalSteps(t *testing.T) {
	for _, par := range []triosim.Parallelism{triosim.DDP, triosim.TP} {
		res, err := triosim.Simulate(triosim.Config{
			Model: "resnet18", Platform: triosim.P2(), Parallelism: par,
			TraceBatch: 128, SpanTrace: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "tl.html")
		if err := writeTimelineHTML(path, string(par), res); err != nil {
			t.Fatal(err)
		}
		out, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, st := range res.CriticalPath.Steps {
			switch st.Category {
			case "compute", "comm", "hostload":
				want++
			}
		}
		if want == 0 {
			t.Fatalf("%s: no drawable critical steps", par)
		}
		if got := strings.Count(string(out), `stroke="#222"`); got != want {
			t.Fatalf("%s: %d outlined rects, want %d drawable critical steps",
				par, got, want)
		}
	}
}

// Pinned SHA-256s of deterministic RunReports (no wall-clock fields): the
// per-GPU partition, link, collective and engine sections must not move
// when the interval bookkeeping behind them is restructured.
const (
	// faultedReportSHA256 pins `triosim -model resnet18 -platform P2
	// -parallelism ddp -trace-batch 32 -fault-seed 7 -deterministic
	// -metrics-out`.
	faultedReportSHA256 = "c7742e1d893530633d019656c55b9242cf3fae584ecc1ff660e7c177141cf301"
	// servingReportSHA256 pins the serving smoke spec of scripts/check.sh
	// (`-serve-sim -model gpt2 -platform P1 -serve-requests 24 -serve-rate
	// 200 -serve-seed 7 -metrics-out`) run without a clock.
	servingReportSHA256 = "545ca236eb62a9b699a9eb834a4324520116c9d7f4f8095c0302da25393d705f"
)

func TestFaultedRunReportPinned(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	runAndReport(triosim.Config{
		Model: "resnet18", Platform: triosim.P2(), Parallelism: triosim.DDP,
		TraceBatch: 32,
	}, false, false, true, "", "", path, "", "", 7)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != faultedReportSHA256 {
		t.Fatalf("faulted RunReport sha256 = %s, want %s", got,
			faultedReportSHA256)
	}
}

func TestServingRunReportPinned(t *testing.T) {
	res, err := triosim.Serve(triosim.ServeConfig{
		Platform: triosim.P1(), Telemetry: true,
		Serving: triosim.ServingConfig{
			Model: "gpt2", Scheduler: "fifo",
			Arrivals: triosim.ServingArrivalConfig{
				Seed: 7, Rate: 200, Requests: 24,
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Report.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != servingReportSHA256 {
		t.Fatalf("serving RunReport sha256 = %s, want %s", got,
			servingReportSHA256)
	}
}
