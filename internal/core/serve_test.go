package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"triosim/internal/faults"
	"triosim/internal/serving"
	"triosim/internal/telemetry"
)

// Pinned serving digests: the replay gate for the serving subsystem. These
// change only when the serving event schedule itself changes — cost model,
// admission order, routing, arrival generation, or the flow network's
// delivery-event rescheduling. Update deliberately.
const (
	goldenServeDigest       = uint64(0x769ad5f18c026c4a)
	goldenServeFaultsDigest = uint64(0x4852470d8f99b601)
)

func serveConfig() ServeConfig {
	return ServeConfig{
		Platform: p1(),
		Serving: serving.Config{
			Model:     "gpt2",
			Scheduler: "fifo",
			MaxBatch:  4,
			Arrivals: serving.ArrivalConfig{
				Seed: 7, Rate: 300, Requests: 48,
				PromptMin: 8, PromptMax: 64,
				OutputMin: 4, OutputMax: 24,
				PriorityLevels: 3,
			},
		},
		Telemetry: true,
		SpanTrace: true,
	}
}

func TestServeReplayDigestPinned(t *testing.T) {
	first, err := Serve(serveConfig())
	if err != nil {
		t.Fatal(err)
	}
	again, err := Serve(serveConfig())
	if err != nil {
		t.Fatal(err)
	}
	if first.EventDigest != again.EventDigest || first.Events != again.Events {
		t.Fatalf("serving run not replayable: %#x/%d vs %#x/%d",
			first.EventDigest, first.Events, again.EventDigest, again.Events)
	}
	if first.EventDigest != goldenServeDigest {
		t.Fatalf("serving digest = %#x, want pinned %#x "+
			"(serving schedule changed?)", first.EventDigest,
			goldenServeDigest)
	}

	// The RunReport — including the latency quantiles — must be
	// byte-identical across replays.
	j1, err := json.Marshal(first.Report)
	if err != nil {
		t.Fatal(err)
	}
	j2, _ := json.Marshal(again.Report)
	if !bytes.Equal(j1, j2) {
		t.Fatalf("serving reports differ across replays:\n%s\n%s", j1, j2)
	}
	if err := first.Report.Validate(); err != nil {
		t.Fatal(err)
	}
	if first.Report.Serving == nil ||
		first.Report.Serving.Completed != first.Metrics.Requests {
		t.Fatalf("serving section missing or incomplete: %+v",
			first.Report.Serving)
	}
}

func TestServeSeedMovesDigest(t *testing.T) {
	cfg := serveConfig()
	base, err := Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Serving.Arrivals.Seed = 8
	other, err := Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.EventDigest == other.EventDigest {
		t.Fatalf("arrival seed did not reach the schedule: %#x",
			base.EventDigest)
	}
}

func TestServeObservationOffDigestIdentity(t *testing.T) {
	full, err := Serve(serveConfig())
	if err != nil {
		t.Fatal(err)
	}
	bare := serveConfig()
	bare.Telemetry = false
	bare.SpanTrace = false
	plain, err := Serve(bare)
	if err != nil {
		t.Fatal(err)
	}
	if full.EventDigest != plain.EventDigest {
		t.Fatalf("observation changed the serving digest: %#x vs %#x",
			full.EventDigest, plain.EventDigest)
	}
}

// serveFaultsConfig adds a seeded link-degrade + GPU-slowdown schedule on
// top of the serving run (satellite: mixed serving+faults pinned digest).
func serveFaultsConfig(t *testing.T) ServeConfig {
	t.Helper()
	cfg := serveConfig()
	base, err := Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	topo := BuildTopology(cfg.Platform)
	sched, err := faults.Generate(11, faults.GenConfig{
		NumGPUs:      len(topo.GPUs()),
		NumLinks:     len(topo.Links),
		Horizon:      base.TotalTime,
		LinkDegrades: 1,
		GPUSlowdowns: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = sched
	return cfg
}

func TestServeWithFaultsDigestPinned(t *testing.T) {
	cfg := serveFaultsConfig(t)
	first, err := Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.EventDigest != again.EventDigest {
		t.Fatalf("serving+faults not replayable: %#x vs %#x",
			first.EventDigest, again.EventDigest)
	}
	if first.EventDigest != goldenServeFaultsDigest {
		t.Fatalf("serving+faults digest = %#x, want pinned %#x",
			first.EventDigest, goldenServeFaultsDigest)
	}
	if err := first.Report.Validate(); err != nil {
		t.Fatal(err)
	}
	// Serving has no checkpoint/restart overlay: the whole run is useful
	// work, nothing is replayed or restarted, and goodput is exactly 1.
	total := first.TotalTime.Seconds()
	want := &telemetry.FaultReport{
		DegradedSec: faults.DegradedSeconds(cfg.Faults.Windows(),
			first.TotalTime),
		UsefulSec:   total,
		ExtendedSec: total,
		Goodput:     1,
	}
	for _, w := range cfg.Faults.Windows() {
		want.Windows = append(want.Windows, telemetry.FaultWindow{
			Kind:     string(w.Kind),
			Resource: w.ResourceName(),
			Factor:   w.Factor,
			StartSec: w.Start.Seconds(),
			EndSec:   w.End.Seconds(),
		})
	}
	fr := first.Report.Faults
	if want.DegradedSec <= 0 || len(want.Windows) == 0 {
		t.Fatalf("fault schedule injects nothing: %+v", want)
	}
	if !reflect.DeepEqual(fr, want) {
		t.Fatalf("serving fault section:\n got %+v\nwant %+v", fr, want)
	}
}

func TestServeRejectsGPUFail(t *testing.T) {
	cfg := serveConfig()
	base, err := Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	topo := BuildTopology(cfg.Platform)
	sched, err := faults.Generate(3, faults.GenConfig{
		NumGPUs:  len(topo.GPUs()),
		NumLinks: len(topo.Links),
		Horizon:  base.TotalTime,
		GPUFails: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = sched
	if _, err := Serve(cfg); err == nil {
		t.Fatal("gpufail schedule accepted by serving")
	}
}

func TestServeRequestSpans(t *testing.T) {
	res, err := Serve(serveConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Spans == nil {
		t.Fatal("no span log")
	}
	var reqSpans int
	for i := range res.Spans.Spans {
		if res.Spans.Spans[i].Cat.String() == "request" {
			reqSpans++
		}
	}
	if reqSpans != res.Metrics.Requests {
		t.Fatalf("%d request spans, want %d",
			reqSpans, res.Metrics.Requests)
	}
}
