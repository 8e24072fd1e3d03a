package network

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"triosim/internal/sim"
)

// maxMinFromScratch is a from-scratch max-min solve (the pre-incremental
// algorithm): build every per-link flow list from routes — given in
// ascending flow-id order — then run progressive filling with a sorted
// O(links) bottleneck scan. It returns the raw rate of each route.
func maxMinFromScratch(topo *Topology, routes [][]DirLink) []float64 {
	type ls struct {
		cap    float64
		active int
		flows  []int
	}
	links := map[DirLink]*ls{}
	for i, route := range routes {
		for _, dl := range route {
			st := links[dl]
			if st == nil {
				st = &ls{}
				links[dl] = st
			}
			st.flows = append(st.flows, i)
		}
	}
	var keys []DirLink
	for k := range links {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Link != keys[j].Link {
			return keys[i].Link < keys[j].Link
		}
		return keys[i].Forward && !keys[j].Forward
	})
	for _, k := range keys {
		st := links[k]
		st.cap = topo.Links[k.Link].Bandwidth
		st.active = len(st.flows)
	}
	rates := make([]float64, len(routes))
	done := make([]bool, len(routes))
	for assigned := 0; assigned < len(routes); {
		var bn *ls
		best := math.Inf(1)
		for _, k := range keys {
			st := links[k]
			if st.active == 0 {
				continue
			}
			fair := st.cap / float64(st.active)
			if fair < best {
				best = fair
				bn = st
			}
		}
		if bn == nil {
			break
		}
		for _, i := range bn.flows {
			if done[i] {
				continue
			}
			done[i] = true
			assigned++
			rates[i] = best
			for _, dl := range routes[i] {
				st := links[dl]
				st.cap -= best
				if st.cap < 0 {
					st.cap = 0
				}
				st.active--
			}
		}
	}
	return rates
}

// referenceRates solves the network's in-flight flows from scratch, keyed by
// flow id. The incremental allocator must match it bit-for-bit — same
// capacity resets, same freeze order, same charge order — so comparisons
// against it use ==, not a tolerance.
func referenceRates(net *FlowNetwork) map[int]float64 {
	routes := make([][]DirLink, len(net.ordered))
	for i, f := range net.ordered { // ascending flow id
		routes[i] = f.route
	}
	rates := map[int]float64{}
	for i, r := range maxMinFromScratch(net.topo, routes) {
		rates[net.ordered[i].id] = r
	}
	return rates
}

// eagerNetwork is the reference flow network: the eager solver FlowNetwork
// replaced. After every coalesced change it advances every in-flight flow's
// remaining bytes to the current time, re-solves all rates from scratch,
// and reschedules every flow's delivery event. It is slow but has no
// closure, keep rule or lazy integration to get wrong.
type eagerNetwork struct {
	eng        sim.Engine
	topo       *Topology
	rampBytes  float64
	flows      []*eagerFlow // ascending id
	nextID     int
	lastUpdate sim.VTime
	pending    bool
}

type eagerFlow struct {
	id        int
	route     []DirLink
	remaining float64
	rate      float64
	eff       float64
	latency   sim.VTime
	gen       int
	onDone    func(now sim.VTime)
}

var _ Network = (*eagerNetwork)(nil)

func (n *eagerNetwork) Send(src, dst NodeID, bytes float64,
	onDone func(now sim.VTime)) {
	now := n.eng.CurrentTime()
	if src == dst || bytes <= 0 {
		sim.ScheduleFunc(n.eng, now, func(t sim.VTime) error {
			onDone(t)
			return nil
		})
		return
	}
	route, err := n.topo.Route(src, dst)
	if err != nil {
		panic(err)
	}
	n.advance(now)
	n.nextID++
	n.flows = append(n.flows, &eagerFlow{
		id: n.nextID, route: route, remaining: bytes,
		eff:     bytes / (bytes + n.rampBytes),
		latency: n.topo.RouteLatency(route), onDone: onDone,
	})
	n.scheduleReallocate(now)
}

func (n *eagerNetwork) RefreshRates() {
	n.scheduleReallocate(n.eng.CurrentTime())
}

func (n *eagerNetwork) advance(now sim.VTime) {
	if dt := float64(now - n.lastUpdate); dt > 0 {
		for _, f := range n.flows {
			f.remaining -= f.rate * dt
			if f.remaining < 0 {
				f.remaining = 0
			}
		}
	}
	n.lastUpdate = now
}

func (n *eagerNetwork) scheduleReallocate(now sim.VTime) {
	if n.pending {
		return
	}
	n.pending = true
	sim.ScheduleSecondaryFunc(n.eng, now, func(t sim.VTime) error {
		n.pending = false
		n.advance(t)
		routes := make([][]DirLink, len(n.flows))
		for i, f := range n.flows {
			routes[i] = f.route
		}
		for i, r := range maxMinFromScratch(n.topo, routes) {
			f := n.flows[i]
			f.rate = r * f.eff
			f.gen++
			if f.rate <= 0 {
				continue
			}
			fl, gen := f, f.gen
			sim.ScheduleFunc(n.eng, t+sim.VTime(f.remaining/f.rate),
				func(t sim.VTime) error {
					n.complete(fl, gen, t)
					return nil
				})
		}
		return nil
	})
}

func (n *eagerNetwork) complete(f *eagerFlow, gen int, now sim.VTime) {
	if f.gen != gen {
		return // superseded
	}
	n.advance(now)
	for i, g := range n.flows {
		if g == f {
			n.flows = append(n.flows[:i], n.flows[i+1:]...)
			break
		}
	}
	n.scheduleReallocate(now)
	sim.ScheduleFunc(n.eng, now+f.latency, func(t sim.VTime) error {
		f.onDone(t)
		return nil
	})
}

// equivalenceWorkload is one seeded random scenario for the equivalence
// test: sends (some of which chain a follow-up send on delivery), mid-run
// bandwidth changes, link outages and a tiny fabric-wide nudge, all on a
// rail fat-tree.
type equivalenceWorkload struct {
	seed      int64
	rampBytes float64
}

// run replays the workload on a fresh engine and topology, building the
// network under test with mk, and returns each send's delivery time
// (-1 = never delivered).
func (w equivalenceWorkload) run(t *testing.T, mk func(sim.Engine,
	*Topology) (Network, func())) []sim.VTime {
	t.Helper()
	rng := rand.New(rand.NewSource(w.seed))
	eng := sim.NewSerialEngine()
	topo := RailFatTree(clusterCfg(4+rng.Intn(5), 2), 2+rng.Intn(3), 2)
	gpus := topo.GPUs()
	net, refresh := mk(eng, topo)

	// Every random draw happens up front, so both networks see the same
	// workload whatever order their deliveries come in.
	type xfer struct {
		src, dst NodeID
		bytes    float64
		next     int // index of the send chained on delivery, or -1
	}
	var xfers []xfer
	pick := func(next int) int {
		x := xfer{src: gpus[rng.Intn(len(gpus))], next: next,
			bytes: float64(1+rng.Intn(80)) * 1e8}
		x.dst = gpus[rng.Intn(len(gpus))]
		for x.dst == x.src {
			x.dst = gpus[rng.Intn(len(gpus))]
		}
		xfers = append(xfers, x)
		return len(xfers) - 1
	}
	var done []sim.VTime
	var send func(k int)
	send = func(k int) {
		x := xfers[k]
		net.Send(x.src, x.dst, x.bytes, func(now sim.VTime) {
			done[k] = now
			if x.next >= 0 {
				send(x.next)
			}
		})
	}
	for i, sends := 0, 40+rng.Intn(80); i < sends; i++ {
		head := -1
		for hops := rng.Intn(3); hops >= 0; hops-- {
			head = pick(head)
		}
		at := sim.VTime(rng.Float64()) * sim.Sec / 4
		eng.Schedule(sim.NewFuncEvent(at, func(sim.VTime) error {
			send(head)
			return nil
		}))
	}
	done = make([]sim.VTime, len(xfers))
	for k := range done {
		done[k] = -1
	}

	// Mid-run capacity changes: degradations, and outages that starve every
	// flow crossing the link until it is restored.
	setBW := func(at sim.VTime, lk int, bw float64) {
		eng.Schedule(sim.NewFuncEvent(at, func(sim.VTime) error {
			topo.SetLinkBandwidth(lk, bw)
			refresh()
			return nil
		}))
	}
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		lk := rng.Intn(len(topo.Links))
		setBW(sim.VTime(rng.Float64())*sim.Sec/4, lk,
			topo.Links[lk].Bandwidth*(0.1+0.8*rng.Float64()))
	}
	for i, n := 0, 1+rng.Intn(2); i < n; i++ {
		lk := rng.Intn(len(topo.Links))
		down := sim.VTime(rng.Float64()) * sim.Sec / 4
		setBW(down, lk, 0)
		setBW(down+sim.VTime(rng.Float64())*sim.Sec/8, lk,
			topo.Links[lk].Bandwidth)
	}
	// A fabric-wide nudge far below any plausible tolerance: every flow's
	// rate moves by ~1e-9 relative, and each must still be rescheduled.
	eng.Schedule(sim.NewFuncEvent(sim.VTime(rng.Float64())*sim.Sec/4,
		func(sim.VTime) error {
			for lk := range topo.Links {
				topo.SetLinkBandwidth(lk, topo.Links[lk].Bandwidth*(1-1e-9))
			}
			refresh()
			return nil
		}))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return done
}

// The lazy-rescheduling FlowNetwork must deliver every transfer at the same
// virtual time as the eager reference, to within float rounding: the two
// integrate remaining bytes in different orders (once per rate change vs.
// once per solve), so times may differ in the last bits but no further.
func TestLazyReschedulingMatchesEagerReference(t *testing.T) {
	const tol = 1e-12
	worst, flows := 0.0, 0
	for seed := int64(1); seed <= 60; seed++ {
		w := equivalenceWorkload{seed: seed}
		if seed%2 == 0 {
			w.rampBytes = float64(seed) * 1e6
		}
		got := w.run(t, func(eng sim.Engine, topo *Topology) (Network, func()) {
			net := NewFlowNetwork(eng, topo)
			net.RampBytes = w.rampBytes
			return net, net.RefreshRates
		})
		want := w.run(t, func(eng sim.Engine, topo *Topology) (Network, func()) {
			net := &eagerNetwork{eng: eng, topo: topo, rampBytes: w.rampBytes}
			return net, net.RefreshRates
		})
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d sends, reference %d", seed, len(got),
				len(want))
		}
		for k := range got {
			if got[k] < 0 || want[k] < 0 {
				t.Fatalf("seed %d: send %d undelivered (lazy %v, eager %v)",
					seed, k, got[k], want[k])
			}
			rel := math.Abs(float64(got[k]-want[k])) / float64(want[k])
			if rel > tol {
				t.Fatalf("seed %d: send %d delivered at %v, eager reference "+
					"%v (relative %.3g > %g)", seed, k, got[k], want[k], rel, tol)
			}
			worst = math.Max(worst, rel)
		}
		flows += len(got)
	}
	t.Logf("%d flows, worst relative delivery-time difference %.3g", flows,
		worst)
}

// A link outage stalls a flow and restoring the link resumes it where it
// stopped, on both the lazy network and the eager reference.
func TestStallAndResumeMatchesHandComputed(t *testing.T) {
	for _, name := range []string{"lazy", "eager"} {
		t.Run(name, func(t *testing.T) {
			eng := sim.NewSerialEngine()
			topo, n := lineTopo()
			var net Network
			var refresh func()
			if name == "lazy" {
				fn := NewFlowNetwork(eng, topo)
				net, refresh = fn, fn.RefreshRates
			} else {
				en := &eagerNetwork{eng: eng, topo: topo}
				net, refresh = en, en.RefreshRates
			}
			var done sim.VTime
			// 100 GB at 100 GB/s, stalled from 0.25 s to 0.75 s: 1.5 s of
			// transfer plus two 1 µs hops of latency.
			net.Send(n[0], n[2], 100e9, func(now sim.VTime) { done = now })
			for _, c := range []struct {
				at sim.VTime
				bw float64
			}{{sim.Sec / 4, 0}, {3 * sim.Sec / 4, 100e9}} {
				eng.Schedule(sim.NewFuncEvent(c.at, func(sim.VTime) error {
					topo.SetLinkBandwidth(0, c.bw)
					refresh()
					return nil
				}))
			}
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			approx(t, done, 3*sim.Sec/2+2*sim.USec, 1e-12,
				fmt.Sprintf("%s stalled delivery", name))
		})
	}
}
