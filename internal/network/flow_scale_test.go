package network

import (
	"math/rand"
	"testing"

	"triosim/internal/sim"
)

// The partitioned dirty-set solve must stay bit-identical to the
// from-scratch reference on a tiered topology, where flows split into many
// independent link-sharing components (intra-machine NVLink islands vs.
// inter-machine rail traffic) and mid-run bandwidth changes force the
// all-dirty fallback.
func TestPartitionedSolveMatchesReferenceOnTieredTopo(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		eng := sim.NewSerialEngine()
		topo := RailFatTree(clusterCfg(4, 2), 2, 2)
		gpus := topo.GPUs()
		net := NewFlowNetwork(eng, topo)

		n := 8 + rng.Intn(24)
		for i := 0; i < n; i++ {
			at := sim.VTime(rng.Float64()) * sim.Sec
			bytes := float64(1+rng.Intn(50)) * 1e9
			src := gpus[rng.Intn(len(gpus))]
			var dst NodeID
			if rng.Intn(2) == 0 {
				// Bias half the traffic intra-machine so NVLink islands
				// form partitions disjoint from the rail fabric.
				m := int(src) / 2 * 2
				dst = gpus[m+(int(src)+1)%2]
			} else {
				dst = gpus[rng.Intn(len(gpus))]
			}
			if dst == src {
				continue
			}
			eng.Schedule(sim.NewFuncEvent(at, func(sim.VTime) error {
				net.Send(src, dst, bytes, func(sim.VTime) {})
				return nil
			}))
		}
		// A mid-run capacity change invalidates every cached closure via
		// the capacity generation and must fall back to a full solve.
		if trial%3 == 0 {
			lk := rng.Intn(len(topo.Links))
			at := sim.VTime(rng.Float64()) * sim.Sec
			eng.Schedule(sim.NewFuncEvent(at, func(sim.VTime) error {
				topo.SetLinkBandwidth(lk, topo.Links[lk].Bandwidth/2)
				net.RefreshRates()
				return nil
			}))
		}
		stopAt := sim.VTime(rng.Float64()) * sim.Sec
		eng.Schedule(sim.NewFuncEvent(stopAt, func(sim.VTime) error {
			eng.Terminate()
			return nil
		}))
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}

		want := referenceRates(net)
		net.computeRates()
		if len(want) != len(net.flows) {
			t.Fatalf("trial %d: reference solved %d flows, have %d",
				trial, len(want), len(net.flows))
		}
		for _, f := range net.ordered {
			if f.rate != want[f.id] {
				t.Fatalf("trial %d: flow %d rate %g != reference %g",
					trial, f.id, f.rate, want[f.id])
			}
		}
	}
}

// A flow arriving inside one machine's NVLink island must not re-solve
// flows confined to another machine: the dirty-set gathers only the
// touched partition.
func TestDirtySetPartitionIsolation(t *testing.T) {
	eng := sim.NewSerialEngine()
	topo := RailFatTree(clusterCfg(2, 2), 2, 1)
	gpus := topo.GPUs() // machine 0: gpus[0..1], machine 1: gpus[2..3]
	net := NewFlowNetwork(eng, topo)

	// Long-running intra-machine flows on both machines.
	net.Send(gpus[0], gpus[1], 500e9, func(sim.VTime) {})
	net.Send(gpus[2], gpus[3], 500e9, func(sim.VTime) {})

	var before, after int
	eng.Schedule(sim.NewFuncEvent(100*sim.MSec, func(sim.VTime) error {
		before = net.SolvedFlows
		net.Send(gpus[0], gpus[1], 1e9, func(sim.VTime) {})
		return nil
	}))
	eng.Schedule(sim.NewFuncEvent(101*sim.MSec, func(sim.VTime) error {
		after = net.SolvedFlows
		eng.Terminate()
		return nil
	}))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// The arrival's solve touches machine 0's partition only: the two
	// machine-0 flows, never machine 1's.
	if got := after - before; got != 2 {
		t.Fatalf("arrival re-solved %d flows, want 2 (machine-0 partition)",
			got)
	}
}

// RatesInto fills a caller-owned map (clearing stale entries) and must
// agree with the allocating Rates().
func TestRatesInto(t *testing.T) {
	eng := sim.NewSerialEngine()
	topo, n := lineTopo()
	net := NewFlowNetwork(eng, topo)
	net.Send(n[0], n[2], 100e9, func(sim.VTime) {})
	net.Send(n[0], n[1], 100e9, func(sim.VTime) {})
	eng.Schedule(sim.NewFuncEvent(10*sim.MSec, func(sim.VTime) error {
		eng.Terminate()
		return nil
	}))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	want := net.Rates()
	if len(want) != 2 {
		t.Fatalf("expected 2 in-flight flows, got %d", len(want))
	}
	got := map[int]float64{999: 1} // stale entry must be cleared
	net.RatesInto(got)
	if len(got) != len(want) {
		t.Fatalf("RatesInto kept %d entries, want %d", len(got), len(want))
	}
	for id, r := range want {
		if got[id] != r {
			t.Fatalf("flow %d: RatesInto %g != Rates %g", id, got[id], r)
		}
	}
}
