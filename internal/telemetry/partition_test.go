package telemetry

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"triosim/internal/network"
	"triosim/internal/sim"
	"triosim/internal/task"
	"triosim/internal/timeline"
)

// refPartition is the collector's per-GPU partition as it was before it
// read the run's phase records: TaskDone appended every finished task's
// interval to per-GPU maps, and the partition was cut from those copies.
type refPartition struct {
	gpuIndex     map[network.NodeID]int
	computeIvl   map[int][]timeline.Seg
	commIvl      map[int][]timeline.Seg
	hostIvl      map[int][]timeline.Seg
	computeTasks map[int]int
}

func newRefPartition(topo *network.Topology) *refPartition {
	r := &refPartition{
		gpuIndex:     map[network.NodeID]int{},
		computeIvl:   map[int][]timeline.Seg{},
		commIvl:      map[int][]timeline.Seg{},
		hostIvl:      map[int][]timeline.Seg{},
		computeTasks: map[int]int{},
	}
	for i, id := range topo.GPUs() {
		r.gpuIndex[id] = i
	}
	return r
}

func (r *refPartition) TaskDone(t *task.Task, start, end sim.VTime) {
	s, e := start.Seconds(), end.Seconds()
	switch t.Kind {
	case task.Compute:
		g := t.GPU
		r.computeIvl[g] = append(r.computeIvl[g], timeline.Seg{S: s, E: e})
		r.computeTasks[g]++
	case task.Comm:
		for _, nid := range []network.NodeID{t.Src, t.Dst} {
			if g, ok := r.gpuIndex[nid]; ok {
				r.commIvl[g] = append(r.commIvl[g], timeline.Seg{S: s, E: e})
			}
			if t.Src == t.Dst {
				break // local transfer: attribute once
			}
		}
	case task.HostLoad:
		if g, ok := r.gpuIndex[t.Dst]; ok {
			r.hostIvl[g] = append(r.hostIvl[g], timeline.Seg{S: s, E: e})
		}
	}
}

func (r *refPartition) stats(numGPUs int, total float64) []GPUStat {
	var out []GPUStat
	for g := 0; g < numGPUs; g++ {
		compute := timeline.Union(r.computeIvl[g])
		comm := timeline.Union(r.commIvl[g])
		host := timeline.Union(r.hostIvl[g])
		busy := timeline.Length(compute)
		exposedComm := timeline.Length(timeline.Subtract(comm, compute))
		notIdle := timeline.Union(
			append(append([]timeline.Seg{}, compute...), comm...))
		exposedHost := timeline.Length(timeline.Subtract(host, notIdle))
		out = append(out, GPUStat{
			GPU:            g,
			ComputeSec:     busy,
			ExposedCommSec: exposedComm,
			ExposedHostSec: exposedHost,
			IdleSec:        total - busy - exposedComm - exposedHost,
			ComputeTasks:   r.computeTasks[g],
		})
	}
	return out
}

// Property: the per-GPU partition Finalize derives from the phase records
// is bit-identical, field by field, to the map-based reference fed the
// same tasks in a shuffled order. The records cover local transfers
// (Src == Dst), non-GPU endpoints (host and switch), compute on GPUs past
// the reported count, and zero-length, touching and nested intervals. GPU
// node IDs differ from GPU indices, so a mix-up of the two shows.
func TestFinalizePartitionMatchesReference(t *testing.T) {
	topo := network.NewTopology()
	sw := topo.AddNode("sw", network.SwitchNode)
	host := topo.AddNode("host", network.HostNode)
	var gpus []network.NodeID
	for i := 0; i < 4; i++ {
		g := topo.AddNode(fmt.Sprintf("gpu%d", i), network.GPUNode)
		topo.AddLink(g, sw, 1e9, 0)
		gpus = append(gpus, g)
	}
	topo.AddLink(host, sw, 1e9, 0)
	nodes := append([]network.NodeID{sw, host}, gpus...)

	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 300; trial++ {
		tl := timeline.New()
		var tasks []task.Task
		var starts, ends []sim.VTime
		n := 1 + rng.Intn(60)
		var total float64
		for i := 0; i < n; i++ {
			s := rng.Float64() * 1e-2
			e := s + rng.Float64()*3e-3
			if i > 0 {
				ps, pe := starts[i-1], ends[i-1]
				switch rng.Intn(5) {
				case 0: // touching the previous interval
					s = float64(pe)
					e = s + rng.Float64()*1e-3
				case 1: // nested inside it
					w := float64(pe - ps)
					s = float64(ps) + rng.Float64()*w/2
					e = s + rng.Float64()*w/2
				case 2: // zero-length
					e = s
				}
			}
			tk := task.Task{Kind: []task.Kind{task.Compute, task.Comm,
				task.HostLoad}[rng.Intn(3)]}
			start, end := sim.VTime(s), sim.VTime(e)
			switch tk.Kind {
			case task.Compute:
				tk.GPU = rng.Intn(5) // GPU 4 is past every reported count
				tl.Add(timeline.Compute, tk.GPU, -1, start, end)
			default:
				tk.Src = nodes[rng.Intn(len(nodes))]
				tk.Dst = nodes[rng.Intn(len(nodes))]
				if rng.Intn(4) == 0 {
					tk.Dst = tk.Src
				}
				phase := timeline.Comm
				if tk.Kind == task.HostLoad {
					phase = timeline.HostLoad
				}
				tl.Add(phase, int(tk.Src), int(tk.Dst), start, end)
			}
			tasks = append(tasks, tk)
			starts, ends = append(starts, start), append(ends, end)
			total = math.Max(total, e)
		}

		ref := newRefPartition(topo)
		for _, i := range rng.Perm(n) {
			ref.TaskDone(&tasks[i], starts[i], ends[i])
		}
		c := NewCollector(NewRegistry(), topo, nil)
		for i := range tasks {
			c.TaskDone(&tasks[i], starts[i], ends[i])
		}
		numGPUs := 3 + rng.Intn(2) // sometimes fewer than the topology has
		got := c.Finalize(RunInfo{NumGPUs: numGPUs, TotalSec: total,
			Phases: tl}).GPUs
		want := ref.stats(numGPUs, total)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d GPU stats, want %d", trial, len(got),
				len(want))
		}
		for g := range want {
			a, b := got[g], want[g]
			if a.GPU != b.GPU || a.ComputeTasks != b.ComputeTasks ||
				!sameBits(a.ComputeSec, b.ComputeSec) ||
				!sameBits(a.ExposedCommSec, b.ExposedCommSec) ||
				!sameBits(a.ExposedHostSec, b.ExposedHostSec) ||
				!sameBits(a.IdleSec, b.IdleSec) {
				t.Fatalf("trial %d gpu%d: %+v, reference %+v", trial, g, a, b)
			}
		}
	}
}

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// A collector finalized without a phase store reports every GPU idle.
func TestFinalizeWithoutPhasesIsIdle(t *testing.T) {
	topo := network.Switch(network.Config{NumGPUs: 2, LinkBandwidth: 1e9,
		HostBandwidth: 1e9})
	rep := NewCollector(NewRegistry(), topo, nil).
		Finalize(RunInfo{NumGPUs: 2, TotalSec: 1})
	for _, g := range rep.GPUs {
		if g.IdleSec != 1 || g.ComputeSec != 0 || g.ComputeTasks != 0 {
			t.Fatalf("gpu%d without phases: %+v", g.GPU, g)
		}
	}
}
