package network

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"triosim/internal/sim"
)

// Network is the interface TrioSim requires of any interconnect model: a
// Send that starts a transfer and later invokes onDone (the Deliver step) at
// the virtual time the destination receives the data.
type Network interface {
	Send(src, dst NodeID, bytes float64, onDone func(now sim.VTime))
}

// FlowObserver is notified of flow-network activity. Observers may record
// but must never schedule events — the event schedule (and the replay
// digest) is identical with or without them.
type FlowObserver interface {
	// FlowFinished fires when a flow's last byte leaves the network, before
	// the delivery latency. start is when Send admitted the flow.
	FlowFinished(route []DirLink, bytes float64, start, end sim.VTime)
	// RatesRecomputed fires after each max-min fair-share recomputation.
	RatesRecomputed(flows int, now sim.VTime)
}

// MultiFlowObserver fans every notification out to each member in order,
// letting several observers (telemetry collector, span recorder) share the
// network's single Observer slot.
type MultiFlowObserver []FlowObserver

var _ FlowObserver = MultiFlowObserver(nil)

// FlowFinished implements FlowObserver.
func (m MultiFlowObserver) FlowFinished(route []DirLink, bytes float64,
	start, end sim.VTime) {
	for _, o := range m {
		o.FlowFinished(route, bytes, start, end)
	}
}

// RatesRecomputed implements FlowObserver.
func (m MultiFlowObserver) RatesRecomputed(flows int, now sim.VTime) {
	for _, o := range m {
		o.RatesRecomputed(flows, now)
	}
}

// flow is one in-flight message in the flow network. It drains at schedRate
// from lastAdv with one live delivery event; remaining is brought up to date
// only when a solve changes its rate, never on every solve. Completed flows
// are recycled through FlowNetwork.freeFlows (releaseFlow/acquireFlow); after
// releaseFlow, only the monotonic gen field distinguishes a stale delivery
// event's reference from the object's next life.
//
//triosim:pooled
type flow struct {
	id        int
	pos       int // index in FlowNetwork.live; -1 when not in flight
	route     []DirLink
	remaining float64
	bytes     float64 // original transfer size
	rate      float64 // bytes/s achieved; overwritten by each closure solve
	eff       float64 // achieved fraction of the allocated share
	latency   sim.VTime
	start     sim.VTime
	onDone    func(now sim.VTime)
	// gen invalidates superseded delivery events. It is NEVER reset when the
	// flow object is recycled through the free list: stale delivery events
	// from a previous life still hold this object, and only the monotonic
	// generation distinguishes them from the current life's events.
	gen int
	// mark is the computeRates solve generation that froze this flow's rate
	// (scratch state replacing a per-solve "unassigned" set).
	mark int
	// seen is the solve generation that collected this flow into the
	// re-solved closure (dedup stamp; monotonic like mark, survives
	// recycling).
	seen int
	// schedRate is the achieved rate the live delivery event was scheduled
	// with (0 = starved / no event). It carries the drain rate across a
	// solve, which overwrites rate.
	schedRate float64
	// lastAdv is the virtual time remaining was last materialized at:
	// remaining is integrated lazily, at schedRate from lastAdv, only when
	// the flow's rate changes.
	lastAdv sim.VTime
}

// linkState is the per-directed-link allocator state. flows is maintained
// incrementally across Send/complete instead of being rebuilt on every
// max-min solve; it is also the only link-sharing structure a solve needs:
// walking link → flows → their route links from the links a change touched
// enumerates exactly the current link-sharing component(s) to re-solve.
// cap, active, heapKey and seenGen are scratch fields valid only inside one
// computeRates call.
type linkState struct {
	cap    float64 // scratch: remaining capacity during a solve
	active int     // scratch: unassigned crossing flows during a solve
	flows  []*flow // in-flight flows crossing this link, ascending id

	key DirLink
	// sortKey reproduces the historical sorted-scan tie-break order
	// (ascending link ID, forward before reverse) for the solve heap.
	sortKey uint64
	// heapKey is the fair share of this link's most recent live heap entry;
	// entries popped with a mismatching key are superseded and discarded.
	heapKey float64
	// seenGen stamps the solve generation that initialized the scratch
	// fields, so a solve touches each closure link's state exactly once.
	seenGen int
}

// FlowNetwork is the flow-based packet-switching model: shortest-path
// routing, max-min fair bandwidth sharing per directed link, and
// reschedule-on-change delivery events. After each solve only the flows of
// the re-solved closure whose achieved rate changed are integrated and
// rescheduled; every other flow keeps its delivery event, which is still
// exact because its rate is bit-identical.
type FlowNetwork struct {
	eng  sim.Engine
	topo *Topology

	// RampBytes models the message-size-dependent achieved bandwidth of
	// real transport stacks: a transfer of B bytes achieves the fraction
	// B/(B+RampBytes) of its allocated share (protocol setup, chunking and
	// pipelining warm-up). Zero — TrioSim's lightweight assumption — gives
	// every transfer its full share regardless of size; the reference
	// hardware emulator sets it, making small messages one of the
	// controlled error sources (paper §8.2, "varying data transfer unit
	// sizes").
	RampBytes float64

	// live is the in-flight set, in no order: each flow records its index,
	// so completion swap-removes it in O(1). Same-time events tie-break on
	// sequence, so anything scheduling events per flow sorts by id first.
	live   []*flow
	nextID int
	// recomputePending coalesces same-timestamp flow arrivals/departures
	// into one max-min reallocation (a secondary event), so an 84-rank ring
	// step triggers one recompute instead of 84. Virtual-time semantics are
	// unchanged: no time passes between the individual changes.
	recomputePending bool

	// Incremental allocator state: the per-link crossing-flow sets persist
	// across solves. links indexes them densely by 2·linkID+direction (the
	// sortKey encoding) — a slice, not a map keyed by DirLink, because the
	// solver pays one lookup per route hop per filling round and the hash
	// alone dominated 10k-GPU solves. nil entries are directed links no route
	// has crossed yet.
	links    []*linkState
	solveGen int

	// touched lists every route link a flow attached to or detached from
	// since the last solve (duplicates allowed; every solve clears it). The
	// next solve re-solves exactly the link-sharing closure of the touched
	// links that still carry flows.
	touched []*linkState
	// allDirty forces a full re-solve: set when the topology's capacity
	// generation moved (SetLinkBandwidth without an explicit refresh mark),
	// preserving the historical "capacities are re-read every solve"
	// semantics.
	allDirty   bool
	lastCapGen int

	// Per-solve scratch, reused across solves: the closure's flows and links
	// in walk order, and the bottleneck min-heap keyed by (fair share,
	// sortKey). Neither order reaches the schedule: the heap order is total
	// and reallocate sorts what it reschedules.
	scratchFlows []*flow
	solveLinks   []*linkState
	heap         []solveEntry
	// moved collects the closure flows reallocate reschedules, reused
	// across solves.
	moved []*flow

	// freeFlows recycles completed flow objects (see flow.gen for why the
	// generation survives recycling).
	freeFlows []*flow

	// Stats.
	TotalBytes     float64
	TotalTransfers int

	// Observer optionally receives flow-completion and rate-recompute
	// notifications (telemetry). Set before the first Send.
	Observer FlowObserver

	// SolveClock, when set, times each max-min solve on the host clock for
	// self-profiling (ROADMAP: profile the solver at scale). It is an
	// injected clock — never time.Now directly — so the wall-clock read
	// stays out of the deterministic simulation core and the no-wallclock
	// analyzer holds. The measured wall time feeds SolveWall and never
	// influences virtual time.
	SolveClock func() time.Time
	// SolveWall accumulates host time spent inside computeRates.
	SolveWall time.Duration
	// Solves counts max-min recomputations.
	Solves int
	// SolvedFlows/SolvedLinks count the flows and directed links actually
	// re-solved across all solves — the closure win shows up as these
	// staying far below Solves × InFlight on partitioned topologies.
	SolvedFlows int
	SolvedLinks int
}

// solveEntry is one bottleneck-heap entry: a candidate most-constrained
// link at the fair share it had when pushed. Entries are superseded (not
// removed) when a charge changes the link's fair share; heapKey arbitrates.
type solveEntry struct {
	fair    float64
	sortKey uint64
	st      *linkState
}

// NewFlowNetwork builds a flow network over topo driven by eng.
func NewFlowNetwork(eng sim.Engine, topo *Topology) *FlowNetwork {
	return &FlowNetwork{
		eng:   eng,
		topo:  topo,
		links: make([]*linkState, 2*len(topo.Links)),
	}
}

var _ Network = (*FlowNetwork)(nil)

// Topology returns the underlying topology.
func (n *FlowNetwork) Topology() *Topology { return n.topo }

// InFlight returns the number of active flows.
func (n *FlowNetwork) InFlight() int { return len(n.live) }

// Send starts a transfer of bytes from src to dst. onDone fires at delivery.
// Local transfers (src == dst) complete immediately.
func (n *FlowNetwork) Send(src, dst NodeID, bytes float64,
	onDone func(now sim.VTime)) {

	now := n.eng.CurrentTime()
	n.TotalTransfers++
	n.TotalBytes += bytes
	if src == dst || bytes <= 0 {
		sim.ScheduleFunc(n.eng, now, func(t sim.VTime) error {
			onDone(t)
			return nil
		})
		return
	}

	route, err := n.topo.Route(src, dst)
	if err != nil {
		panic(fmt.Sprintf("network: Send: %v", err))
	}
	n.nextID++
	eff := 1.0
	if n.RampBytes > 0 {
		eff = bytes / (bytes + n.RampBytes)
	}
	f := n.acquireFlow()
	f.id = n.nextID
	f.route = route
	f.remaining = bytes
	f.bytes = bytes
	f.rate = 0
	f.eff = eff
	f.latency = n.topo.RouteLatency(route)
	f.start = now
	f.onDone = onDone
	f.schedRate = 0
	f.lastAdv = now
	f.pos = len(n.live)
	n.live = append(n.live, f)
	n.attachLinks(f)
	n.scheduleReallocate(now)
}

// acquireFlow pops the free list or allocates. gen is deliberately left at
// its previous-life value (see the flow.gen doc).
func (n *FlowNetwork) acquireFlow() *flow {
	if k := len(n.freeFlows); k > 0 {
		f := n.freeFlows[k-1]
		n.freeFlows[k-1] = nil
		n.freeFlows = n.freeFlows[:k-1]
		return f
	}
	return &flow{}
}

// releaseFlow drops the flow's external references and returns it to the
// free list.
func (n *FlowNetwork) releaseFlow(f *flow) {
	f.onDone = nil
	f.route = nil
	f.pos = -1
	n.freeFlows = append(n.freeFlows, f)
}

// attachLinks registers f on every directed link of its route. Flows are
// admitted in ascending id order and removal preserves relative order, so
// each linkState.flows slice stays sorted by id — the invariant the solve's
// freeze loop relies on for deterministic (and bit-identical) allocation.
// Every route link is recorded as touched for the next solve.
func (n *FlowNetwork) attachLinks(f *flow) {
	for _, dl := range f.route {
		st := n.linkFor(dl)
		if st == nil {
			st = n.newLinkState(dl)
		}
		st.flows = append(st.flows, f)
		n.touched = append(n.touched, st)
	}
}

// detachLinks removes f from its route's link sets, preserving their order,
// and from the in-flight set, and records the route links as touched.
func (n *FlowNetwork) detachLinks(f *flow) {
	for _, dl := range f.route {
		st := n.linkFor(dl)
		st.flows = removeFlow(st.flows, f)
		n.touched = append(n.touched, st)
	}
	last := len(n.live) - 1
	n.live[f.pos] = n.live[last]
	n.live[f.pos].pos = f.pos
	n.live[last] = nil
	n.live = n.live[:last]
}

// denseIndex maps a directed link to its slot in FlowNetwork.links: the
// sortKey encoding (ascending link ID, forward before reverse) as an int.
func denseIndex(dl DirLink) int {
	i := dl.Link << 1
	if !dl.Forward {
		i |= 1
	}
	return i
}

// linkFor returns the allocator state of dl, or nil if no route has crossed
// it yet.
func (n *FlowNetwork) linkFor(dl DirLink) *linkState {
	if i := denseIndex(dl); i < len(n.links) {
		return n.links[i]
	}
	return nil
}

// newLinkState creates the allocator state for a directed link the first
// time a route crosses it.
func (n *FlowNetwork) newLinkState(dl DirLink) *linkState {
	st := &linkState{key: dl}
	st.sortKey = uint64(dl.Link) << 1
	if !dl.Forward {
		st.sortKey |= 1
	}
	// Links added to the topology after construction (AddLink mid-setup)
	// land past the initial sizing; grow to cover them.
	di := denseIndex(dl)
	for di >= len(n.links) {
		n.links = append(n.links, nil)
	}
	n.links[di] = st
	return st
}

// removeFlow deletes f from s, keeping the remaining order.
func removeFlow(s []*flow, f *flow) []*flow {
	for i, g := range s {
		if g == f {
			copy(s[i:], s[i+1:])
			s[len(s)-1] = nil
			return s[:len(s)-1]
		}
	}
	return s
}

// scheduleReallocate defers the max-min recomputation to a secondary event
// at the current timestamp, coalescing bursts of changes.
func (n *FlowNetwork) scheduleReallocate(now sim.VTime) {
	if n.recomputePending {
		return
	}
	n.recomputePending = true
	sim.ScheduleSecondaryFunc(n.eng, now, func(t sim.VTime) error {
		n.recomputePending = false
		n.reallocate(t)
		if n.Observer != nil {
			n.Observer.RatesRecomputed(len(n.live), t)
		}
		return nil
	})
}

// RefreshRates re-solves the max-min fair shares at the current virtual
// time, picking up topology bandwidth changes made mid-run (fault
// injection, degradation experiments). The recompute is coalesced through
// the same secondary event as flow arrivals/departures, so several
// same-timestamp capacity changes trigger one solve.
func (n *FlowNetwork) RefreshRates() {
	n.scheduleReallocate(n.eng.CurrentTime())
}

// reallocate re-solves the max-min rates of the touched closure and
// reschedules the delivery events of exactly those closure flows whose
// achieved rate changed. A flow whose new rate is bit-equal to the rate its
// live event was scheduled with keeps that event: draining on at the same
// rate reaches the same completion time. Any other closure flow first
// materializes its remaining bytes at the old rate since lastAdv, then is
// rescheduled at the new one (or parked, if starved). Flows outside the
// closure are never touched.
func (n *FlowNetwork) reallocate(now sim.VTime) {
	n.Solves++
	if n.SolveClock != nil {
		t0 := n.SolveClock()
		n.computeRates()
		n.SolveWall += n.SolveClock().Sub(t0)
	} else {
		n.computeRates()
	}
	n.moved = n.moved[:0]
	for _, f := range n.scratchFlows {
		// Size-dependent achieved fraction: the unachieved share of a
		// flow's allocation is protocol dead time, not reusable by others.
		f.rate *= f.eff
		old, next := f.schedRate, f.rate
		if next == old {
			continue
		}
		if dt := float64(now - f.lastAdv); dt > 0 && old > 0 {
			f.remaining -= old * dt
			if f.remaining < 0 {
				f.remaining = 0
			}
		}
		f.lastAdv = now
		f.gen++
		f.schedRate = next
		if next > 0 { // a starved flow is rescheduled when capacity frees up
			n.moved = append(n.moved, f)
		}
	}
	// Deterministic event order regardless of closure-collection order:
	// ascending flow id. Only the rescheduled flows need sorting.
	slices.SortFunc(n.moved, func(a, b *flow) int {
		return cmp.Compare(a.id, b.id)
	})
	for _, f := range n.moved {
		doneAt := now + sim.VTime(f.remaining/f.schedRate)
		fl, gen := f, f.gen
		sim.ScheduleFunc(n.eng, doneAt, func(t sim.VTime) error {
			n.completeFlow(fl, gen, t)
			return nil
		})
	}
}

// completeFlow finalizes a flow when its delivery event fires, unless the
// event was superseded by a reallocation or predates the flow's recycling.
func (n *FlowNetwork) completeFlow(f *flow, gen int, now sim.VTime) {
	if f.gen != gen || f.pos < 0 {
		return // stale event
	}
	n.detachLinks(f)
	if n.Observer != nil {
		n.Observer.FlowFinished(f.route, f.bytes, f.start, now)
	}
	n.scheduleReallocate(now)
	// The receiver observes the data one route-latency later. onDone is
	// captured locally: the flow object goes back to the pool now, while
	// the delivery event fires later.
	onDone := f.onDone
	sim.ScheduleFunc(n.eng, now+f.latency, func(t sim.VTime) error {
		onDone(t)
		return nil
	})
	n.releaseFlow(f)
}

// computeRates assigns max-min fair rates: repeatedly find the most
// constrained directed link (lowest capacity per crossing flow), freeze its
// flows at that fair share, remove them, and continue (progressive filling).
//
// Two structural fast paths make this scale to 10k-GPU fabrics while
// producing bit-identical rates (TestMaxMinMatchesReferenceSolve and
// TestPartitionedSolveMatchesReferenceOnTieredTopo pin this):
//
//  1. Closure re-solves. Max-min decomposes exactly over the connected
//     components of the current link-sharing graph (flows in disjoint
//     components never exchange capacity, and the global freeze order
//     restricted to a component equals the component's own freeze order).
//     Only the components containing a link touched since the last solve —
//     or all of them, when a capacity changed — are re-solved, found by
//     walking link → flows → route links from the touched links. Any other
//     component has exactly the flows and links it had at the last solve,
//     so its flows keep the rates that solve froze, which is exactly what
//     the global solve would recompute for them.
//
//  2. Bottleneck heap. Within a component, the most constrained link is
//     popped from a min-heap keyed by (fair share, historical scan order)
//     instead of an O(links) scan per filling round. Heap entries are
//     superseded eagerly whenever a charge moves a link's fair share
//     (heapKey arbitrates), so the pop order — including float-equal
//     ties — replays the sorted scan's selection order exactly.
//
// The arithmetic — capacity reset, fair-share division, freeze order,
// capacity charging order — is exactly the from-scratch solve's, so the
// resulting rates are bit-identical.
//
//triosim:hotpath
func (n *FlowNetwork) computeRates() {
	n.solveGen++
	gen := n.solveGen
	if cg := n.topo.CapacityGen(); cg != n.lastCapGen {
		n.lastCapGen = cg
		n.allDirty = true
	}
	n.scratchFlows = n.scratchFlows[:0]
	n.solveLinks = n.solveLinks[:0]
	if n.allDirty {
		n.allDirty = false
		n.gatherAll(gen)
	} else {
		n.gatherDirty(gen)
	}
	n.SolvedFlows += len(n.scratchFlows)
	n.SolvedLinks += len(n.solveLinks)

	n.heap = n.heap[:0]
	for _, st := range n.solveLinks {
		if st.active == 0 {
			continue
		}
		fair := st.cap / float64(st.active)
		st.heapKey = fair
		n.heapPush(solveEntry{fair: fair, sortKey: st.sortKey, st: st})
	}
	for _, f := range n.scratchFlows {
		f.rate = 0
	}

	assigned := 0
	total := len(n.scratchFlows)
	for assigned < total && len(n.heap) > 0 {
		e := n.heapPop()
		bn := e.st
		if bn.active == 0 || e.fair != bn.heapKey {
			continue // superseded entry (link frozen or fair share moved)
		}
		best := e.fair
		// Freeze the bottleneck's unassigned flows at the fair share and
		// charge their rate against every link they cross, refreshing the
		// heap entry of every link whose fair share moves.
		for _, f := range bn.flows {
			if f.mark == gen {
				continue
			}
			f.rate = best
			f.mark = gen
			assigned++
			for _, dl := range f.route {
				st := n.links[denseIndex(dl)]
				st.cap -= best
				if st.cap < 0 {
					st.cap = 0
				}
				st.active--
				if st.active > 0 {
					fair := st.cap / float64(st.active)
					if fair != st.heapKey {
						st.heapKey = fair
						n.heapPush(solveEntry{
							fair: fair, sortKey: st.sortKey, st: st,
						})
					}
				}
			}
		}
	}
}

// gatherAll collects every in-flight flow and every link they cross into
// the solve scratch (the full re-solve the historical allocator always did).
// The in-flight set's order is harmless: the heap's (fair, sortKey) order is
// total and reallocate sorts what it reschedules.
func (n *FlowNetwork) gatherAll(gen int) {
	n.touched = n.touched[:0] // this solve covers every pending change
	for _, f := range n.live {
		f.seen = gen
		n.scratchFlows = append(n.scratchFlows, f) //triosim:nolint hotpath-alloc -- reused scratch buffer, grows to steady-state size once
		for _, dl := range f.route {
			if st := n.links[denseIndex(dl)]; st.seenGen != gen {
				n.visitLink(st, gen)
			}
		}
	}
}

// gatherDirty collects the exact link-sharing closure of the links touched
// since the last solve: a breadth-first walk link → its current flows →
// their route links, with solveLinks itself as the queue. Touched links
// that no longer carry flows start nothing; components no touched link
// reaches are left alone.
func (n *FlowNetwork) gatherDirty(gen int) {
	for _, st := range n.touched {
		if len(st.flows) > 0 && st.seenGen != gen {
			n.visitLink(st, gen)
		}
	}
	n.touched = n.touched[:0]
	for i := 0; i < len(n.solveLinks); i++ {
		for _, f := range n.solveLinks[i].flows {
			if f.seen == gen {
				continue
			}
			f.seen = gen
			n.scratchFlows = append(n.scratchFlows, f) //triosim:nolint hotpath-alloc -- reused scratch buffer, grows to steady-state size once
			for _, dl := range f.route {
				if st := n.links[denseIndex(dl)]; st.seenGen != gen {
					n.visitLink(st, gen)
				}
			}
		}
	}
}

// visitLink adds st to the solve's links, initializing its scratch fields
// once per solve. Capacity is re-read from the topology each solve so
// mid-run bandwidth changes keep taking effect.
func (n *FlowNetwork) visitLink(st *linkState, gen int) {
	st.seenGen = gen
	st.cap = n.topo.Links[st.key.Link].Bandwidth
	st.active = len(st.flows)
	n.solveLinks = append(n.solveLinks, st) //triosim:nolint hotpath-alloc -- reused scratch buffer, grows to steady-state size once
}

// heapPush adds e to the bottleneck min-heap ordered by (fair, sortKey).
// The heap is 4-ary, like the engine's event queue: supersession pushes far
// outnumber pops in big solves, and a 4-ary sift-up is half the depth of a
// binary one. (fair, sortKey) is a strict total order over live entries, so
// the pop sequence is identical at any arity.
func (n *FlowNetwork) heapPush(e solveEntry) {
	n.heap = append(n.heap, e)
	i := len(n.heap) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !solveEntryLess(n.heap[i], n.heap[p]) {
			break
		}
		n.heap[i], n.heap[p] = n.heap[p], n.heap[i]
		i = p
	}
}

// heapPop removes and returns the minimum entry.
func (n *FlowNetwork) heapPop() solveEntry {
	h := n.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = solveEntry{}
	n.heap = h[:last]
	h = n.heap
	i := 0
	for {
		first := 4*i + 1
		if first >= len(h) {
			break
		}
		small := first
		end := first + 4
		if end > len(h) {
			end = len(h)
		}
		for c := first + 1; c < end; c++ {
			if solveEntryLess(h[c], h[small]) {
				small = c
			}
		}
		if !solveEntryLess(h[small], h[i]) {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return top
}

// solveEntryLess orders heap entries by fair share, then by the historical
// sorted-scan position so float-equal ties freeze in the same order the
// O(links) scan froze them.
func solveEntryLess(a, b solveEntry) bool {
	if a.fair != b.fair {
		return a.fair < b.fair
	}
	return a.sortKey < b.sortKey
}

// Rates returns the current flow rates keyed by flow ID in a fresh map
// (convenience/test hook; steady-state callers use RatesInto).
func (n *FlowNetwork) Rates() map[int]float64 {
	out := map[int]float64{}
	n.RatesInto(out)
	return out
}

// RatesInto fills dst — cleared first — with the current flow rates keyed
// by flow ID, reusing the caller's map so periodic monitors don't allocate
// a fresh one per sample.
//
//triosim:hotpath
func (n *FlowNetwork) RatesInto(dst map[int]float64) {
	for id := range dst {
		delete(dst, id)
	}
	for _, f := range n.live {
		dst[f.id] = f.rate
	}
}

// IdealNetwork gives every transfer the full configured bandwidth with a
// fixed latency, with no sharing. It serves as the uncontended reference in
// tests and the equal-split ablation baseline.
type IdealNetwork struct {
	eng       sim.Engine
	Bandwidth float64
	Latency   sim.VTime
}

// NewIdealNetwork returns an IdealNetwork.
func NewIdealNetwork(eng sim.Engine, bandwidth float64,
	latency sim.VTime) *IdealNetwork {
	return &IdealNetwork{eng: eng, Bandwidth: bandwidth, Latency: latency}
}

var _ Network = (*IdealNetwork)(nil)

// Send delivers after latency + bytes/bandwidth.
func (n *IdealNetwork) Send(src, dst NodeID, bytes float64,
	onDone func(now sim.VTime)) {
	now := n.eng.CurrentTime()
	var dur sim.VTime
	if src != dst && bytes > 0 {
		dur = n.Latency + sim.VTime(bytes/n.Bandwidth)
	}
	sim.ScheduleFunc(n.eng, now+dur, func(t sim.VTime) error {
		onDone(t)
		return nil
	})
}
