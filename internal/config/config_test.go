package config

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"triosim/internal/core"
)

func writeSpec(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadAndRun(t *testing.T) {
	path := writeSpec(t, `{
		"model": "resnet18",
		"platform": "P2",
		"parallelism": "ddp",
		"trace_batch": 32
	}`)
	spec, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := spec.ToCore()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PerIteration <= 0 {
		t.Fatal("no time")
	}
}

func TestCustomTopologyWithOverride(t *testing.T) {
	path := writeSpec(t, `{
		"model": "resnet18",
		"platform": "P2",
		"parallelism": "ddp",
		"trace_batch": 32,
		"topology": {
			"kind": "switch",
			"num_gpus": 4,
			"link_bandwidth_gbps": 235,
			"link_latency_us": 1.2,
			"host_bandwidth_gbps": 20,
			"host_latency_us": 5,
			"overrides": [{"link": 0, "bandwidth_gbps": 30}]
		}
	}`)
	spec, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := spec.ToCore()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Topology == nil {
		t.Fatal("topology not built")
	}
	if cfg.Topology.Links[0].Bandwidth != 30e9 {
		t.Fatalf("override not applied: %g", cfg.Topology.Links[0].Bandwidth)
	}
	slow, err := core.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The same run with the symmetric fabric must be faster.
	cfg.Topology.SetLinkBandwidth(0, 235e9)
	fast, err := core.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if slow.PerIteration <= fast.PerIteration {
		t.Fatalf("degraded link did not slow the run: %v vs %v",
			slow.PerIteration, fast.PerIteration)
	}
}

func TestTopologyKinds(t *testing.T) {
	for _, kind := range []string{"ring", "switch", "pcie-tree",
		"double-ring", "chord-ring"} {
		spec := TopologySpec{
			Kind: kind, NumGPUs: 4,
			LinkBandwidthGBps: 100, HostBandwidthGBps: 20,
		}
		topo, err := spec.Build()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(topo.GPUs()) != 4 {
			t.Fatalf("%s: %d GPUs", kind, len(topo.GPUs()))
		}
	}
	mesh := TopologySpec{Kind: "mesh", Rows: 2, Cols: 3,
		LinkBandwidthGBps: 100, HostBandwidthGBps: 20}
	topo, err := mesh.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.GPUs()) != 6 {
		t.Fatalf("mesh GPUs = %d", len(topo.GPUs()))
	}
}

func TestExtraLinks(t *testing.T) {
	spec := TopologySpec{
		Kind: "ring", NumGPUs: 6,
		LinkBandwidthGBps: 100, HostBandwidthGBps: 20,
		ExtraLinks: []LinkSpec{{A: 0, B: 3, BandwidthGBps: 50}},
	}
	topo, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	gpus := topo.GPUs()
	route, err := topo.Route(gpus[0], gpus[3])
	if err != nil || len(route) != 1 {
		t.Fatalf("chord not used: %v, %v", route, err)
	}
}

// Load decodes strictly: an unknown or removed field — at the top level or
// inside the topology — and trailing data fail with the file named, and
// with the field named when there is one, instead of being ignored.
func TestLoadRejectsUnknownFields(t *testing.T) {
	for name, tc := range map[string]struct {
		body, want string
	}{
		"removed solver tolerance": {
			`{"model": "resnet18", "platform": "P2", "net_approx_tol": 0.01}`,
			`unknown field "net_approx_tol"`},
		"misspelled field": {
			`{"model": "resnet18", "platfrom": "P2"}`,
			`unknown field "platfrom"`},
		"unknown topology field": {
			`{"model": "resnet18", "topology": {"kind": "ring", "gbps": 1}}`,
			`unknown field "gbps"`},
		"trailing data": {
			`{"model": "resnet18"} {"model": "vgg16"}`,
			"data after the run spec"},
		"trailing brace": {
			`{"model": "resnet18"}}`,
			"data after the run spec"},
	} {
		path := writeSpec(t, tc.body)
		_, err := Load(path)
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, path) ||
			!strings.Contains(msg, tc.want) {
			t.Errorf("%s: error %q does not name %s and %q", name, msg, path,
				tc.want)
		}
	}
}

func TestRejections(t *testing.T) {
	if _, err := Load("/nonexistent/run.json"); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := writeSpec(t, `{not json`)
	if _, err := Load(bad); err == nil {
		t.Fatal("garbage accepted")
	}
	spec := &RunSpec{Platform: "P9", Parallelism: "ddp"}
	if _, err := spec.ToCore(); err == nil {
		t.Fatal("unknown platform accepted")
	}
	ts := TopologySpec{Kind: "warp", NumGPUs: 2, LinkBandwidthGBps: 1,
		HostBandwidthGBps: 1}
	if _, err := ts.Build(); err == nil {
		t.Fatal("unknown kind accepted")
	}
	ts = TopologySpec{Kind: "ring", NumGPUs: 2}
	if _, err := ts.Build(); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
	ts = TopologySpec{Kind: "mesh", LinkBandwidthGBps: 1,
		HostBandwidthGBps: 1}
	if _, err := ts.Build(); err == nil {
		t.Fatal("mesh without dims accepted")
	}
	ts = TopologySpec{Kind: "ring", NumGPUs: 2, LinkBandwidthGBps: 1,
		HostBandwidthGBps: 1,
		ExtraLinks:        []LinkSpec{{A: 0, B: 9, BandwidthGBps: 1}}}
	if _, err := ts.Build(); err == nil {
		t.Fatal("out-of-range extra link accepted")
	}
	ts = TopologySpec{Kind: "ring", NumGPUs: 2, LinkBandwidthGBps: 1,
		HostBandwidthGBps: 1, Overrides: []Override{{Link: 99}}}
	if _, err := ts.Build(); err == nil {
		t.Fatal("out-of-range override accepted")
	}
	// A negative bucket_mb must fail the run with an error naming the
	// bucket size, not fall back to the default bucket silently.
	spec, err := Load(writeSpec(t, `{"model": "resnet18", "platform": "P2",
		"parallelism": "ddp", "trace_batch": 32, "bucket_mb": -1}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := spec.ToCore()
	if err == nil {
		_, err = core.Simulate(cfg)
	}
	if err == nil || !strings.Contains(err.Error(), "BucketBytes") {
		t.Fatalf("bucket_mb -1: %v, want an error naming BucketBytes", err)
	}
	// Likewise a negative global_batch names GlobalBatch instead of failing
	// deep in the graph with "negative bytes".
	spec, err = Load(writeSpec(t, `{"model": "resnet18", "platform": "P2",
		"parallelism": "ddp", "trace_batch": 32, "global_batch": -5}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err = spec.ToCore()
	if err == nil {
		_, err = core.Simulate(cfg)
	}
	if err == nil || !strings.Contains(err.Error(), "GlobalBatch") {
		t.Fatalf("global_batch -5: %v, want an error naming GlobalBatch", err)
	}
	// A global batch narrower than the data-parallel width, and more GPUs
	// than the platform has, are rejected naming the field instead of
	// running on fractional batch shares or failing in the extrapolator.
	for body, field := range map[string]string{
		`"global_batch": 3`: "GlobalBatch",
		`"num_gpus": 64`:    "NumGPUs",
	} {
		spec, err := Load(writeSpec(t, `{"model": "resnet18",
			"platform": "P2", "parallelism": "ddp", "trace_batch": 32, `+
			body+`}`))
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := spec.ToCore()
		if err == nil {
			_, err = core.Simulate(cfg)
		}
		if err == nil || !strings.Contains(err.Error(), field) {
			t.Fatalf("%s: %v, want an error naming %s", body, err, field)
		}
	}
}
