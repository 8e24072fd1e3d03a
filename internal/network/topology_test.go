package network

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"triosim/internal/sim"
)

func cfg(n int) Config {
	return Config{
		NumGPUs:       n,
		LinkBandwidth: 100e9,
		LinkLatency:   1 * sim.USec,
		HostBandwidth: 10e9,
		HostLatency:   5 * sim.USec,
	}
}

func TestRingTopology(t *testing.T) {
	topo := Ring(cfg(4))
	if got := len(topo.GPUs()); got != 4 {
		t.Fatalf("GPUs = %d", got)
	}
	if topo.Host() < 0 {
		t.Fatal("no host")
	}
	gpus := topo.GPUs()
	// Neighbors are 1 hop, opposite corner is 2 hops.
	r, err := topo.Route(gpus[0], gpus[1])
	if err != nil || len(r) != 1 {
		t.Fatalf("0→1 route %v, %v", r, err)
	}
	r, err = topo.Route(gpus[0], gpus[2])
	if err != nil || len(r) != 2 {
		t.Fatalf("0→2 route %v, %v", r, err)
	}
}

func TestRingOfTwoHasSingleLink(t *testing.T) {
	topo := Ring(cfg(2))
	gpuLinks := 0
	for _, l := range topo.Links {
		if topo.Nodes[l.A].Kind == GPUNode && topo.Nodes[l.B].Kind == GPUNode {
			gpuLinks++
		}
	}
	if gpuLinks != 1 {
		t.Fatalf("2-GPU ring has %d GPU-GPU links, want 1", gpuLinks)
	}
}

func TestSwitchTopology(t *testing.T) {
	topo := Switch(cfg(8))
	gpus := topo.GPUs()
	for i := 1; i < 8; i++ {
		r, err := topo.Route(gpus[0], gpus[i])
		if err != nil || len(r) != 2 {
			t.Fatalf("switch route 0→%d = %v, %v", i, r, err)
		}
	}
}

func TestPCIeTreeTopology(t *testing.T) {
	topo := PCIeTree(cfg(2))
	gpus := topo.GPUs()
	r, err := topo.Route(gpus[0], gpus[1])
	if err != nil || len(r) != 2 {
		t.Fatalf("pcie route = %v, %v", r, err)
	}
	// Host reaches GPUs through the switch.
	r, err = topo.Route(topo.Host(), gpus[0])
	if err != nil || len(r) != 2 {
		t.Fatalf("host route = %v, %v", r, err)
	}
}

func TestMeshTopology(t *testing.T) {
	topo := Mesh(3, 4, cfg(0))
	gpus := topo.GPUs()
	if len(gpus) != 12 {
		t.Fatalf("mesh GPUs = %d", len(gpus))
	}
	// Manhattan distance routing: corner to corner is (3-1)+(4-1)=5 hops.
	r, err := topo.Route(gpus[0], gpus[11])
	if err != nil || len(r) != 5 {
		t.Fatalf("mesh corner route = %d hops, %v", len(r), err)
	}
}

func TestRingWithChords(t *testing.T) {
	topo := RingWithChords(cfg(8))
	gpus := topo.GPUs()
	// Most distant node is now 1 hop via the chord.
	r, err := topo.Route(gpus[0], gpus[4])
	if err != nil || len(r) != 1 {
		t.Fatalf("chord route = %v, %v", r, err)
	}
}

func TestDoubleRing(t *testing.T) {
	topo := DoubleRing(cfg(8))
	gpus := topo.GPUs()
	if len(gpus) != 8 {
		t.Fatalf("GPUs = %d", len(gpus))
	}
	// Cross-ring peers are directly connected.
	r, err := topo.Route(gpus[0], gpus[4])
	if err != nil || len(r) != 1 {
		t.Fatalf("cross-ring route = %v, %v", r, err)
	}
	// Within each ring of 4, the opposite node is 2 hops.
	r, err = topo.Route(gpus[0], gpus[2])
	if err != nil || len(r) != 2 {
		t.Fatalf("in-ring route = %v, %v", r, err)
	}
}

func TestRouteCacheAndSymmetryProperty(t *testing.T) {
	topo := Mesh(4, 4, cfg(0))
	gpus := topo.GPUs()
	f := func(a, b uint8) bool {
		src := gpus[int(a)%len(gpus)]
		dst := gpus[int(b)%len(gpus)]
		r1, err1 := topo.Route(src, dst)
		r2, err2 := topo.Route(dst, src)
		if err1 != nil || err2 != nil {
			return false
		}
		if src == dst {
			return len(r1) == 0 && len(r2) == 0
		}
		// Shortest paths in both directions have equal hop count.
		return len(r1) == len(r2) && len(r1) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestRouteFollowsEdges(t *testing.T) {
	// Property: each route is a connected path from src to dst.
	topo := Mesh(3, 5, cfg(0))
	gpus := topo.GPUs()
	for _, src := range gpus {
		for _, dst := range gpus {
			route, err := topo.Route(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			at := src
			for _, dl := range route {
				lk := topo.Links[dl.Link]
				if dl.Forward {
					if lk.A != at {
						t.Fatalf("route %d→%d broken at %v", src, dst, dl)
					}
					at = lk.B
				} else {
					if lk.B != at {
						t.Fatalf("route %d→%d broken at %v", src, dst, dl)
					}
					at = lk.A
				}
			}
			if at != dst {
				t.Fatalf("route %d→%d ends at %d", src, dst, at)
			}
		}
	}
}

func TestDisconnectedRoute(t *testing.T) {
	topo := NewTopology()
	a := topo.AddNode("a", GPUNode)
	b := topo.AddNode("b", GPUNode)
	if _, err := topo.Route(a, b); err == nil {
		t.Fatal("disconnected route must error")
	}
}

func TestRouteLatency(t *testing.T) {
	topo := Ring(cfg(4))
	gpus := topo.GPUs()
	r, _ := topo.Route(gpus[0], gpus[2])
	if got := topo.RouteLatency(r); got != 2*sim.USec {
		t.Fatalf("RouteLatency = %v, want 2us", got)
	}
}

func TestSetLinkBandwidth(t *testing.T) {
	topo := Ring(cfg(4))
	topo.SetLinkBandwidth(0, 42)
	if topo.Links[0].Bandwidth != 42 {
		t.Fatal("SetLinkBandwidth did not apply")
	}
}

// mapBFSRoute is the map-based breadth-first search Topology.Route used
// before the slice-indexed one, kept as the reference: it rebuilds the
// map adjacency from the link list and copies and sorts each node's links
// before expanding it.
func mapBFSRoute(t *Topology, src, dst NodeID) ([]DirLink, error) {
	adj := map[NodeID][]int{}
	for _, lk := range t.Links {
		adj[lk.A] = append(adj[lk.A], lk.ID)
		adj[lk.B] = append(adj[lk.B], lk.ID)
	}
	prev := map[NodeID]DirLink{}
	visited := map[NodeID]bool{src: true}
	queue := []NodeID{src}
	for len(queue) > 0 && !visited[dst] {
		n := queue[0]
		queue = queue[1:]
		if t.Nodes[n].Kind == HostNode && n != src {
			continue
		}
		links := append([]int(nil), adj[n]...)
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
	return route, nil
}

// everyBuilder returns a small instance of every topology builder, plus a
// topology with an unreachable GPU.
func everyBuilder() map[string]*Topology {
	c := cfg(8)
	island := Switch(cfg(3))
	island.AddNode("gpu-island", GPUNode)
	return map[string]*Topology{
		"ring":        Ring(c),
		"switch":      Switch(c),
		"pcie":        PCIeTree(c),
		"mesh":        Mesh(3, 4, c),
		"chords":      RingWithChords(c),
		"double-ring": DoubleRing(c),
		"hypercube":   Hypercube(3, c),
		"torus":       Torus(3, 3, c),
		"railfattree": RailFatTree(clusterCfg(6, 4), 2, 2),
		"dragonfly":   Dragonfly(clusterCfg(8, 2), 4),
		"torus3d":     Torus3D(clusterCfg(0, 2), 2, 3, 2),
		"island":      island,
	}
}

// AddLink appends link IDs as it assigns them, so every adjacency list is
// ascending; the BFS relies on that for its link-ID tie-break.
func TestAdjacencyListsAscending(t *testing.T) {
	for name, topo := range everyBuilder() {
		for n := range topo.Nodes {
			if links := topo.LinksOf(NodeID(n)); !sort.IntsAreSorted(links) {
				t.Fatalf("%s: node %d links %v not ascending", name, n, links)
			}
		}
	}
}

// The slice-indexed BFS must return exactly the map-based BFS's route —
// same links, same directions, same tie-breaks — for every GPU↔GPU and
// host↔GPU pair on every builder, and fail on the same unreachable pairs.
func TestBFSMatchesMapReference(t *testing.T) {
	for name, topo := range everyBuilder() {
		var gpus, hosts []NodeID
		for _, n := range topo.Nodes {
			switch n.Kind {
			case GPUNode:
				gpus = append(gpus, n.ID)
			case HostNode:
				hosts = append(hosts, n.ID)
			}
		}
		check := func(a, b NodeID) {
			got, gotErr := topo.bfs(a, b)
			want, wantErr := mapBFSRoute(topo, a, b)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s %d→%d: error %v, reference error %v",
					name, a, b, gotErr, wantErr)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s %d→%d: route %v, reference %v",
					name, a, b, got, want)
			}
		}
		for _, a := range gpus {
			for _, b := range gpus {
				if a != b {
					check(a, b)
				}
			}
			for _, h := range hosts {
				check(h, a)
				check(a, h)
			}
		}
	}
}
