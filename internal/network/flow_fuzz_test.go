package network

import (
	"math/rand"
	"testing"

	"triosim/internal/sim"
)

// checkMaxMinInvariants asserts the three allocator invariants over the
// network's current flow set:
//
//  1. no directed link's capacity is exceeded;
//  2. every in-flight flow gets a positive rate (no starvation);
//  3. every flow is bottlenecked on some saturated link where its rate is
//     at least every other flow's (the max-min condition).
func checkMaxMinInvariants(t *testing.T, net *FlowNetwork) {
	t.Helper()
	usage := map[DirLink]float64{}
	flowsOn := map[DirLink][]*flow{}
	for _, f := range net.live {
		if f.rate <= 0 {
			t.Fatalf("flow %d starved", f.id)
		}
		for _, dl := range f.route {
			usage[dl] += f.rate
			flowsOn[dl] = append(flowsOn[dl], f)
		}
	}
	for dl, u := range usage {
		cap := net.topo.Links[dl.Link].Bandwidth
		if u > cap*(1+1e-9) {
			t.Fatalf("link %v overcommitted: %g > %g", dl, u, cap)
		}
	}
	for _, f := range net.live {
		bottlenecked := false
		for _, dl := range f.route {
			cap := net.topo.Links[dl.Link].Bandwidth
			if usage[dl] < cap*(1-1e-9) {
				continue
			}
			maxOther := 0.0
			for _, g := range flowsOn[dl] {
				if g.rate > maxOther {
					maxOther = g.rate
				}
			}
			if f.rate >= maxOther*(1-1e-9) {
				bottlenecked = true
				break
			}
		}
		if !bottlenecked {
			t.Fatalf("flow %d rate %g not max-min bottlenecked", f.id, f.rate)
		}
	}
}

// FuzzComputeRates drives the incremental allocator with fuzz-chosen
// topology shape, traffic pattern, and sizes, asserting it never panics,
// never overcommits a link, and always produces a max-min allocation. The
// seed corpus covers the collective-communication shapes the simulator
// actually generates: ring AllReduce neighbor steps and tree
// reduce/broadcast halving pairs.
func FuzzComputeRates(f *testing.F) {
	// pattern 0 = ring neighbor sends, 1 = tree halving pairs, 2 = random
	// pairs; topoKind 0 = ring, 1 = PCIe tree, 2 = mesh, 3 = switch.
	f.Add(int64(1), uint8(8), uint8(0), uint8(0), uint8(30))  // ring/ring
	f.Add(int64(2), uint8(8), uint8(1), uint8(1), uint8(100)) // tree/tree
	f.Add(int64(3), uint8(4), uint8(0), uint8(1), uint8(50))  // ring on tree
	f.Add(int64(4), uint8(16), uint8(1), uint8(3), uint8(10)) // tree on switch
	f.Add(int64(5), uint8(9), uint8(2), uint8(2), uint8(80))  // random on mesh

	f.Fuzz(func(t *testing.T, seed int64, nGPU, pattern, topoKind,
		bwGBs uint8) {

		numGPUs := int(nGPU)%15 + 2
		bw := (float64(bwGBs) + 1) * 1e9
		cfg := Config{NumGPUs: numGPUs, LinkBandwidth: bw,
			HostBandwidth: bw / 4}
		var topo *Topology
		switch topoKind % 4 {
		case 0:
			topo = Ring(cfg)
		case 1:
			topo = PCIeTree(cfg)
		case 2:
			rows := 1
			for rows*rows < numGPUs {
				rows++
			}
			topo = Mesh(rows, (numGPUs+rows-1)/rows, cfg)
		default:
			topo = Switch(cfg)
		}
		gpus := topo.GPUs()
		eng := sim.NewSerialEngine()
		net := NewFlowNetwork(eng, topo)

		rng := rand.New(rand.NewSource(seed))
		send := func(src, dst NodeID) {
			if src == dst {
				return
			}
			net.Send(src, dst, float64(1+rng.Intn(1000))*1e7,
				func(sim.VTime) {})
		}
		switch pattern % 3 {
		case 0: // ring collective step: everyone sends to the right neighbor
			for i := range gpus {
				send(gpus[i], gpus[(i+1)%len(gpus)])
			}
		case 1: // tree reduce step: upper half sends to lower half
			for i := len(gpus) / 2; i < len(gpus); i++ {
				send(gpus[i], gpus[i-len(gpus)/2])
			}
		default: // random pairs
			for i := 0; i < 1+rng.Intn(2*len(gpus)); i++ {
				send(gpus[rng.Intn(len(gpus))], gpus[rng.Intn(len(gpus))])
			}
		}

		// Run just past t=0 so the coalesced reallocation event fires, then
		// check the invariants over the in-flight flows.
		eng.Schedule(sim.NewFuncEvent(1e-12, func(sim.VTime) error {
			eng.Terminate()
			return nil
		}))
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		checkMaxMinInvariants(t, net)

		// The incremental state must also agree with a from-scratch solve.
		want := referenceRates(net)
		net.computeRates()
		for _, fl := range net.live {
			if fl.rate != want[fl.id] {
				t.Fatalf("flow %d rate %g != reference %g",
					fl.id, fl.rate, want[fl.id])
			}
		}
	})
}
