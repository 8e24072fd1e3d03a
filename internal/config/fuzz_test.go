package config

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"triosim/internal/core"
)

// FuzzResolve drives the config boundary from untrusted JSON, the way the
// CLI's -config and triosimd's POST /v1/jobs receive it: a strictly decoded
// RunSpec goes through ToCore and core.Config.Resolve. Resolve must never
// panic, every config it accepts must resolve to itself, and every
// rejection must name a Config field.
func FuzzResolve(f *testing.F) {
	for _, seed := range []string{
		`{"model":"resnet18","platform":"P2","parallelism":"ddp"}`,
		`{"model":"resnet18","platform":"P1","parallelism":"single","num_gpus":9}`,
		`{"model":"gpt2","platform":"P3","parallelism":"dp+tp+pp","tp_ranks":2,"pp_stages":2,"chunks":4,"global_batch":64}`,
		`{"model":"resnet18","platform":"P2","parallelism":"dp+pp","dp_groups":2,"collective":"tree","trace_batch":32}`,
		`{"model":"bert","platform":"P2","parallelism":"zero1","bucket_mb":1e308}`,
		`{"model":"resnet18","platform":"P2","parallelism":"bogus"}`,
		`{"model":"resnet18","platform":"P2","parallelism":"ddp","num_gpus":-1}`,
		`{"model":"nosuchmodel","platform":"P2","parallelism":"ddp"}`,
		`{"platform":"P2","parallelism":"tp"}`,
		`{"model":"resnet18","platform":"P2","parallelism":"dp+pp","num_gpus":3}`,
		`{"model":"resnet18","platform":"P2","parallelism":"ddp","global_batch":3}`,
		`{"model":"resnet18","platform":"P2","parallelism":"ddp","collective":"mesh"}`,
		`{"model":"resnet18","platform":"P2","parallelism":"ddp","trace_gpu":"TPU"}`,
		`{"model":"resnet18","platform":"P2","parallelism":"dp+tp","dp_groups":1}`,
		`{"model":"resnet18","platform":"P2","parallelism":"dp+tp+pp","tp_ranks":4611686018427387904,"pp_stages":4611686018427387904}`,
		`{"model":"resnet18","platform":"P2","parallelism":"dp+tp+pp","tp_ranks":3}`,
		`{"model":"resnet18","platform":"P2","parallelism":"pp","chunks":-2,"iterations":-1}`,
		`{"model":"resnet18","platform":"P1","parallelism":"ddp","topology":{"kind":"ring","num_gpus":6,"link_bandwidth_gbps":50,"host_bandwidth_gbps":16},"num_gpus":6}`,
		`{"model":"llama32-1b","platform":"P3","parallelism":"dp+tp+pp","trace_batch":16,"global_batch":64,"num_gpus":16,"tp_ranks":2,"pp_stages":2,"topology":{"kind":"rail-fat-tree","machines":4,"gpus_per_machine":4,"link_bandwidth_gbps":50,"host_bandwidth_gbps":20}}`,
	} {
		f.Add(seed)
	}
	var fields []string
	for _, sf := range reflect.VisibleFields(reflect.TypeOf(core.Config{})) {
		fields = append(fields, sf.Name)
	}
	f.Fuzz(func(t *testing.T, data string) {
		var spec RunSpec
		dec := json.NewDecoder(strings.NewReader(data))
		dec.DisallowUnknownFields()
		if dec.Decode(&spec) != nil {
			return
		}
		// Building a topology costs memory in its size; the boundary under
		// test does not depend on it.
		if tp := spec.Topology; tp != nil && max(tp.NumGPUs, tp.Rows, tp.Cols,
			tp.Machines, tp.GPUsPerMachine, tp.X, tp.Y, tp.Z) > 16 {
			return
		}
		cfg, err := spec.ToCore()
		if err != nil {
			return
		}
		r, err := cfg.Resolve()
		if err != nil {
			for _, name := range fields {
				if strings.Contains(err.Error(), name) {
					return
				}
			}
			t.Fatalf("%s: rejection %q names no Config field", data, err)
		}
		again, err := r.Resolve()
		if err != nil || !reflect.DeepEqual(again, r) {
			t.Fatalf("%s: resolved config %+v resolves to %+v, %v", data, r,
				again, err)
		}
	})
}
