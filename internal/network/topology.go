// Package network implements TrioSim's lightweight network models.
//
// The default model is flow-based packet switching (paper §4.5): a message
// is routed over the shortest path, bandwidth on every traversed link is
// shared max-min fairly among in-flight messages, and a delivery event is
// scheduled assuming the allocation stays constant; whenever a message
// starts or finishes, allocations are recomputed and the delivery events of
// all in-transit messages are rescheduled (Figure 5 semantics).
//
// The model is swappable: PhotonicNetwork implements the same Network
// interface with circuit-switching semantics (case study §7.1), and
// IdealNetwork provides an uncontended reference for tests and ablations.
package network

import (
	"fmt"
	"sort"

	"triosim/internal/sim"
)

// NodeID identifies a node (GPU, switch, or host) in a topology.
type NodeID int

// NodeKind classifies topology nodes.
type NodeKind int

// Node kinds.
const (
	GPUNode NodeKind = iota
	SwitchNode
	HostNode
)

// Node is a vertex in the interconnect graph.
type Node struct {
	ID   NodeID
	Name string
	Kind NodeKind
	// Machine is the physical machine (node enclosure) this vertex belongs
	// to, or -1 for fabric elements that belong to no machine (spine/leaf
	// switches, the host). Hierarchical collectives use it to split ranks
	// into intra-machine groups.
	Machine int
}

// Link tiers. A tier classifies a link by its position in the datacenter
// hierarchy; hierarchical collectives and per-tier telemetry key off it.
// Single-node topologies leave Tier empty ("untiered").
const (
	TierNVLink = "nvlink" // intra-machine GPU interconnect
	TierNIC    = "nic"    // GPU/machine to first-hop fabric switch
	TierFabric = "fabric" // switch-to-switch fabric
	TierHost   = "host"   // host staging links
)

// Link is a full-duplex edge: each direction has independent Bandwidth.
type Link struct {
	ID        int
	A, B      NodeID
	Bandwidth float64 // bytes/s per direction
	Latency   sim.VTime
	// Tier labels the link's hierarchy level (TierNVLink, TierNIC,
	// TierFabric, TierHost); empty on untiered (single-node) topologies.
	Tier string
}

// DirLink is one direction of a link, the unit of bandwidth accounting.
type DirLink struct {
	Link int
	// Forward is true for the A→B direction.
	Forward bool
}

// Topology is the interconnect graph.
type Topology struct {
	Nodes []Node
	Links []Link

	adj        map[NodeID][]int // node -> incident link IDs
	routeCache map[[2]NodeID][]DirLink

	// router, when set by a hierarchical generator, computes shortest
	// paths structurally (rail lookup, dimension-ordered routing) instead
	// of BFS — O(path) instead of O(V+E) per new pair, which matters at
	// 10k nodes. Results are cached like BFS routes.
	router func(src, dst NodeID) []DirLink

	tiered   bool // any link carries a non-empty Tier
	machines int  // max assigned Machine + 1
	// capGen increments on every SetLinkBandwidth so the flow solver can
	// detect capacity changes that arrive without a flow change and fall
	// back to a full re-solve (preserving the historical "capacities are
	// re-read every solve" semantics).
	capGen int
}

// NewTopology returns an empty topology.
func NewTopology() *Topology {
	return &Topology{
		adj:        map[NodeID][]int{},
		routeCache: map[[2]NodeID][]DirLink{},
	}
}

// AddNode appends a node and returns its ID. The node starts unassigned to
// any machine (Machine == -1); see SetMachine.
func (t *Topology) AddNode(name string, kind NodeKind) NodeID {
	id := NodeID(len(t.Nodes))
	t.Nodes = append(t.Nodes, Node{ID: id, Name: name, Kind: kind,
		Machine: -1})
	return id
}

// SetMachine assigns node n to machine m (0-based). Machine indices are
// expected to be dense; Machines() reports max+1.
func (t *Topology) SetMachine(n NodeID, m int) {
	t.Nodes[n].Machine = m
	if m+1 > t.machines {
		t.machines = m + 1
	}
}

// MachineOf returns the machine index of n, or -1 for fabric elements.
func (t *Topology) MachineOf(n NodeID) int { return t.Nodes[n].Machine }

// Machines returns the number of machines declared via SetMachine (0 for
// single-node topologies that never assign machines).
func (t *Topology) Machines() int { return t.machines }

// Tiered reports whether any link carries a tier label — the signal that
// this topology has an intra/inter-machine hierarchy worth exploiting.
func (t *Topology) Tiered() bool { return t.tiered }

// AddLink connects a and b full-duplex and returns the link ID.
func (t *Topology) AddLink(a, b NodeID, bandwidth float64,
	latency sim.VTime) int {
	id := len(t.Links)
	t.Links = append(t.Links, Link{
		ID: id, A: a, B: b, Bandwidth: bandwidth, Latency: latency,
	})
	t.adj[a] = append(t.adj[a], id)
	t.adj[b] = append(t.adj[b], id)
	t.routeCache = map[[2]NodeID][]DirLink{}
	return id
}

// AddLinkTiered is AddLink plus a hierarchy tier label on the new link.
func (t *Topology) AddLinkTiered(a, b NodeID, bandwidth float64,
	latency sim.VTime, tier string) int {
	id := t.AddLink(a, b, bandwidth, latency)
	t.Links[id].Tier = tier
	if tier != "" {
		t.tiered = true
	}
	return id
}

// SetRouter installs a structural routing function consulted by Route
// before falling back to BFS. The function must return a valid directed
// src→dst path (contiguous, correct endpoints) or nil to decline the pair;
// hierarchical generators install per-topology closed-form routers so a
// 10k-node cluster never pays O(V+E) BFS per pair.
func (t *Topology) SetRouter(r func(src, dst NodeID) []DirLink) {
	t.router = r
	t.routeCache = map[[2]NodeID][]DirLink{}
}

// SetLinkBandwidth changes a link's per-direction bandwidth (used by the Hop
// case study to inject heterogeneous slowdowns).
func (t *Topology) SetLinkBandwidth(linkID int, bandwidth float64) {
	t.Links[linkID].Bandwidth = bandwidth
	t.capGen++
}

// CapacityGen returns the bandwidth-change generation counter (see capGen).
func (t *Topology) CapacityGen() int { return t.capGen }

// LinksOf returns the IDs of links incident to n.
func (t *Topology) LinksOf(n NodeID) []int { return t.adj[n] }

// Neighbor returns the node on the other end of link l from n.
func (t *Topology) Neighbor(l int, n NodeID) NodeID {
	lk := t.Links[l]
	if lk.A == n {
		return lk.B
	}
	return lk.A
}

// Route returns the directed links of a shortest path (minimum hop count,
// deterministic tie-break by link ID) from src to dst, or an error if the
// nodes are disconnected. Routes are cached.
func (t *Topology) Route(src, dst NodeID) ([]DirLink, error) {
	if src == dst {
		return nil, nil
	}
	key := [2]NodeID{src, dst}
	if r, ok := t.routeCache[key]; ok {
		return r, nil
	}
	if t.router != nil {
		if r := t.router(src, dst); r != nil {
			t.routeCache[key] = r
			return r, nil
		}
	}

	// BFS with deterministic neighbor ordering.
	prev := map[NodeID]DirLink{}
	visited := map[NodeID]bool{src: true}
	queue := []NodeID{src}
	for len(queue) > 0 && !visited[dst] {
		n := queue[0]
		queue = queue[1:]
		// Hosts are endpoints, never transit: GPU↔GPU traffic must not
		// shortcut through the host's staging links.
		if t.Nodes[n].Kind == HostNode && n != src {
			continue
		}
		links := append([]int(nil), t.adj[n]...)
		sort.Ints(links)
		for _, l := range links {
			m := t.Neighbor(l, n)
			if visited[m] {
				continue
			}
			visited[m] = true
			prev[m] = DirLink{Link: l, Forward: t.Links[l].A == n}
			queue = append(queue, m)
		}
	}
	if !visited[dst] {
		return nil, fmt.Errorf("network: no route %d→%d", src, dst)
	}

	var rev []DirLink
	for n := dst; n != src; {
		dl := prev[n]
		rev = append(rev, dl)
		if dl.Forward {
			n = t.Links[dl.Link].A
		} else {
			n = t.Links[dl.Link].B
		}
	}
	route := make([]DirLink, len(rev))
	for i := range rev {
		route[i] = rev[len(rev)-1-i]
	}
	t.routeCache[key] = route
	return route, nil
}

// RouteLatency sums the latencies of the route's links.
func (t *Topology) RouteLatency(route []DirLink) sim.VTime {
	var total sim.VTime
	for _, dl := range route {
		total += t.Links[dl.Link].Latency
	}
	return total
}

// GPUs returns the IDs of GPU nodes in insertion order.
func (t *Topology) GPUs() []NodeID {
	var out []NodeID
	for _, n := range t.Nodes {
		if n.Kind == GPUNode {
			out = append(out, n.ID)
		}
	}
	return out
}

// Host returns the first host node's ID, or -1 if none.
func (t *Topology) Host() NodeID {
	for _, n := range t.Nodes {
		if n.Kind == HostNode {
			return n.ID
		}
	}
	return -1
}

// ---- Builders ----

// Config parameterizes the standard topology builders.
type Config struct {
	NumGPUs       int
	LinkBandwidth float64
	LinkLatency   sim.VTime
	HostBandwidth float64
	HostLatency   sim.VTime
}

func addGPUs(t *Topology, n int) []NodeID {
	ids := make([]NodeID, n)
	for i := 0; i < n; i++ {
		ids[i] = t.AddNode(fmt.Sprintf("gpu%d", i), GPUNode)
	}
	return ids
}

// addHostAll connects a host node directly to every GPU (staging path for
// input batches).
func addHostAll(t *Topology, gpus []NodeID, bw float64, lat sim.VTime) NodeID {
	host := t.AddNode("host", HostNode)
	for _, g := range gpus {
		t.AddLink(host, g, bw, lat)
	}
	return host
}

// Ring builds a ring of GPUs plus a host.
func Ring(cfg Config) *Topology {
	t := NewTopology()
	gpus := addGPUs(t, cfg.NumGPUs)
	for i := 0; i < cfg.NumGPUs; i++ {
		j := (i + 1) % cfg.NumGPUs
		if j == i || (cfg.NumGPUs == 2 && i == 1) {
			continue // no self-loop; a 2-ring is a single link
		}
		t.AddLink(gpus[i], gpus[j], cfg.LinkBandwidth, cfg.LinkLatency)
	}
	addHostAll(t, gpus, cfg.HostBandwidth, cfg.HostLatency)
	return t
}

// Switch builds an any-to-any switch (NVSwitch) with one link per GPU.
func Switch(cfg Config) *Topology {
	t := NewTopology()
	gpus := addGPUs(t, cfg.NumGPUs)
	sw := t.AddNode("nvswitch", SwitchNode)
	for _, g := range gpus {
		t.AddLink(g, sw, cfg.LinkBandwidth, cfg.LinkLatency)
	}
	addHostAll(t, gpus, cfg.HostBandwidth, cfg.HostLatency)
	return t
}

// PCIeTree builds GPUs under a PCIe switch with the host at the root; GPU↔GPU
// traffic traverses the switch (P1's arrangement).
func PCIeTree(cfg Config) *Topology {
	t := NewTopology()
	gpus := addGPUs(t, cfg.NumGPUs)
	sw := t.AddNode("pcie-switch", SwitchNode)
	for _, g := range gpus {
		t.AddLink(g, sw, cfg.LinkBandwidth, cfg.LinkLatency)
	}
	host := t.AddNode("host", HostNode)
	t.AddLink(host, sw, cfg.HostBandwidth, cfg.HostLatency)
	return t
}

// Mesh builds a rows×cols 2-D mesh of GPUs (wafer-scale case study) plus a
// host attached to every GPU.
func Mesh(rows, cols int, cfg Config) *Topology {
	t := NewTopology()
	gpus := addGPUs(t, rows*cols)
	at := func(r, c int) NodeID { return gpus[r*cols+c] }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				t.AddLink(at(r, c), at(r, c+1),
					cfg.LinkBandwidth, cfg.LinkLatency)
			}
			if r+1 < rows {
				t.AddLink(at(r, c), at(r+1, c),
					cfg.LinkBandwidth, cfg.LinkLatency)
			}
		}
	}
	addHostAll(t, gpus, cfg.HostBandwidth, cfg.HostLatency)
	return t
}

// RingWithChords builds the Hop case study's ring-based graph: a
// bidirectional ring plus a chord from each node to its most distant node.
func RingWithChords(cfg Config) *Topology {
	t := Ring(cfg)
	gpus := t.GPUs()
	n := len(gpus)
	for i := 0; i < n/2; i++ {
		t.AddLink(gpus[i], gpus[(i+n/2)%n],
			cfg.LinkBandwidth, cfg.LinkLatency)
	}
	return t
}

// DoubleRing builds the Hop case study's double-ring graph: two rings of
// n/2 GPUs each, interconnected node-to-node.
func DoubleRing(cfg Config) *Topology {
	t := NewTopology()
	gpus := addGPUs(t, cfg.NumGPUs)
	half := cfg.NumGPUs / 2
	ring := func(ids []NodeID) {
		for i := 0; i < len(ids); i++ {
			j := (i + 1) % len(ids)
			if j == i || (len(ids) == 2 && i == 1) {
				continue
			}
			t.AddLink(ids[i], ids[j], cfg.LinkBandwidth, cfg.LinkLatency)
		}
	}
	ring(gpus[:half])
	ring(gpus[half:])
	for i := 0; i < half; i++ {
		t.AddLink(gpus[i], gpus[half+i], cfg.LinkBandwidth, cfg.LinkLatency)
	}
	addHostAll(t, gpus, cfg.HostBandwidth, cfg.HostLatency)
	return t
}
