package network

import (
	"fmt"
	"math/rand"
	"testing"

	"triosim/internal/sim"
)

// rateOracle is a test FlowObserver that checks, after every solve, that
// every in-flight flow's rate equals the from-scratch reference solve.
type rateOracle struct {
	net *FlowNetwork
	err error
}

func (o *rateOracle) FlowFinished([]DirLink, float64, sim.VTime, sim.VTime) {}

func (o *rateOracle) RatesRecomputed(_ int, now sim.VTime) {
	if o.err != nil {
		return
	}
	want := referenceRates(o.net)
	for _, f := range o.net.ordered {
		if f.rate != want[f.id] {
			o.err = fmt.Errorf("at %v: flow %d rate %g != reference %g",
				now, f.id, f.rate, want[f.id])
			return
		}
	}
}

// The closure solve must stay bit-identical to the from-scratch reference
// after every solve on a tiered topology, where flows split into many
// independent link-sharing components (intra-machine NVLink islands vs.
// inter-machine rail traffic), short cross-machine flows keep bridging and
// releasing those components, and mid-run bandwidth changes force the
// full re-solve.
func TestPartitionedSolveMatchesReferenceOnTieredTopo(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		eng := sim.NewSerialEngine()
		topo := RailFatTree(clusterCfg(4, 2), 2, 2)
		gpus := topo.GPUs()
		net := NewFlowNetwork(eng, topo)
		oracle := &rateOracle{net: net}
		net.Observer = oracle

		// A quarter-second arrival window keeps tens of flows in flight.
		const window = 250 * sim.MSec
		n := 16 + rng.Intn(32)
		for i := 0; i < n; i++ {
			at := sim.VTime(rng.Float64()) * window
			src := gpus[rng.Intn(len(gpus))]
			var dst NodeID
			var bytes float64
			if rng.Intn(2) == 0 {
				// Long intra-machine flows: NVLink islands that form
				// components disjoint from the rail fabric.
				m := int(src) / 2 * 2
				dst = gpus[m+(int(src)+1)%2]
				bytes = float64(20+rng.Intn(30)) * 1e9
			} else {
				// Short inter-machine flows bridge components and finish,
				// splitting them again.
				dst = gpus[rng.Intn(len(gpus))]
				bytes = float64(1+rng.Intn(20)) * 1e8
			}
			if dst == src {
				continue
			}
			eng.Schedule(sim.NewFuncEvent(at, func(sim.VTime) error {
				net.Send(src, dst, bytes, func(sim.VTime) {})
				return nil
			}))
		}
		// A mid-run capacity change moves the capacity generation and must
		// fall back to a full re-solve.
		if trial%3 == 0 {
			lk := rng.Intn(len(topo.Links))
			at := sim.VTime(rng.Float64()) * window
			eng.Schedule(sim.NewFuncEvent(at, func(sim.VTime) error {
				topo.SetLinkBandwidth(lk, topo.Links[lk].Bandwidth/2)
				net.RefreshRates()
				return nil
			}))
		}
		stopAt := sim.VTime(rng.Float64()) * window
		eng.Schedule(sim.NewFuncEvent(stopAt, func(sim.VTime) error {
			eng.Terminate()
			return nil
		}))
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if oracle.err != nil {
			t.Fatalf("trial %d: %v", trial, oracle.err)
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
// flows confined to another machine: the solve gathers only the
// link-sharing closure of the links the arrival touched.
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
	// The arrival's solve covers machine 0's component only: the two
	// machine-0 flows, never machine 1's.
	if got := after - before; got != 2 {
		t.Fatalf("arrival re-solved %d flows, want 2 (machine-0 component)",
			got)
	}
}

// Link-sharing components split again when the flow bridging them
// completes: a later arrival re-solves only its own current component, not
// everything the bridge once joined.
func TestClosureSplitsAfterBridgeCompletes(t *testing.T) {
	eng := sim.NewSerialEngine()
	topo := Switch(Config{
		NumGPUs: 4, LinkBandwidth: 100e9, HostBandwidth: 10e9,
	})
	g := topo.GPUs()
	net := NewFlowNetwork(eng, topo)

	// Two long flows in disjoint components, and a 1 MB bridge that shares
	// g0's uplink with the first and g3's downlink with the second.
	net.Send(g[0], g[1], 500e9, func(sim.VTime) {})
	net.Send(g[2], g[3], 500e9, func(sim.VTime) {})
	bridgeDone := false
	net.Send(g[0], g[3], 1e6, func(sim.VTime) { bridgeDone = true })

	var before, after int
	eng.Schedule(sim.NewFuncEvent(100*sim.MSec, func(sim.VTime) error {
		if !bridgeDone {
			return fmt.Errorf("bridge still in flight")
		}
		before = net.SolvedFlows
		net.Send(g[0], g[1], 1e9, func(sim.VTime) {})
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
	// The arrival joins g0→g1 only; g2→g3 left that component when the
	// bridge completed.
	if got := after - before; got != 2 {
		t.Fatalf("re-solved %d flows, want 2", got)
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
