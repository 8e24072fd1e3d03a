package main

import (
	"fmt"
	"log"
	"time"

	"triosim"
)

// serveFlags carries the -serve-* flag values into runServing.
type serveFlags struct {
	model    string
	platform string
	sched    string
	requests int
	rate     float64
	seed     int64
	batch    int
	replicas int
	workload string
}

// runServing executes one request-level serving simulation and prints the
// summary block (the -serve-sim path of the CLI).
func runServing(sf serveFlags, metricsOut, traceOut, faultsPath string) {
	if sf.model == "" {
		log.Fatal("-serve-sim needs -model (a zoo transformer; see docs/SERVING.md)")
	}
	plat, err := triosim.PlatformByName(sf.platform)
	if err != nil {
		log.Fatal(err)
	}
	cfg := triosim.ServeConfig{
		Platform: plat,
		Clock:    time.Now,
		Serving: triosim.ServingConfig{
			Model:     sf.model,
			Scheduler: sf.sched,
			MaxBatch:  sf.batch,
			Replicas:  sf.replicas,
			Arrivals: triosim.ServingArrivalConfig{
				Seed:     sf.seed,
				Rate:     sf.rate,
				Requests: sf.requests,
			},
		},
	}
	if sf.workload != "" {
		reqs, err := triosim.LoadServingWorkload(sf.workload)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Serving.Workload = reqs
	}
	if metricsOut != "" {
		cfg.Telemetry = true
	}
	if traceOut != "" {
		cfg.SpanTrace = true
	}
	if faultsPath != "" {
		sched, err := triosim.LoadFaultSchedule(faultsPath)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Faults = sched
	}

	res, err := triosim.Serve(cfg)
	if err != nil {
		log.Fatal(err)
	}
	m := res.Metrics
	fmt.Printf("serving:         %s on %s (%d replicas, %s scheduler, batch ≤ %d)\n",
		cfg.Serving.Model, plat.Name, m.Replicas, m.Scheduler, m.MaxBatch)
	fmt.Printf("requests:        %d completed of %d (offered %.1f req/s)\n",
		m.Completed, m.Requests, m.OfferedRPS)
	fmt.Printf("throughput:      %.1f req/s, %.0f tokens/s over %.6gs\n",
		m.ThroughputRPS, m.TokensPerSec, m.MakespanSec)
	fmt.Printf("latency:         p50 %.3fms  p99 %.3fms  p999 %.3fms  max %.3fms\n",
		m.Latency.P50Sec*1e3, m.Latency.P99Sec*1e3,
		m.Latency.P999Sec*1e3, m.Latency.MaxSec*1e3)
	fmt.Printf("ttft:            p50 %.3fms  p99 %.3fms\n",
		m.TTFT.P50Sec*1e3, m.TTFT.P99Sec*1e3)
	fmt.Printf("batching:        %.2f mean batch (%.0f%% of cap), %d steps\n",
		m.MeanBatch, m.BatchingEfficiency*100, m.Steps)
	fmt.Printf("kv cache:        %.2f GB peak\n", m.KVPeakBytes/(1<<30))
	fmt.Printf("simulator:       %d events, %v wall clock, digest %#x\n",
		res.Events, res.WallClock, res.EventDigest)

	if metricsOut != "" && res.Report != nil {
		writeReport(metricsOut, res.Report)
	}
	if traceOut != "" {
		writeSpans(traceOut, res.Spans)
	}
}
