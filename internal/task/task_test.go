package task

import (
	"math/rand"
	"testing"

	"triosim/internal/network"
	"triosim/internal/sim"
	"triosim/internal/timeline"
)

func TestGraphBuildAndValidate(t *testing.T) {
	g := NewGraph()
	a := g.AddCompute(0, 1, "a")
	b := g.AddCompute(0, 2, "b")
	c := g.AddComm(0, 1, 1e9, "c")
	g.AddDep(a, b)
	g.AddDep(b, c)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Len() != 3 {
		t.Fatalf("Len = %d", g.Len())
	}
	if len(b.Deps()) != 1 || b.Deps()[0] != a.ID {
		t.Fatalf("deps of b: %v", b.Deps())
	}
	if len(a.Dependents()) != 1 || a.Dependents()[0] != b.ID {
		t.Fatalf("dependents of a: %v", a.Dependents())
	}
}

func TestDuplicateAndSelfDepsIgnored(t *testing.T) {
	g := NewGraph()
	a := g.AddCompute(0, 1, "a")
	b := g.AddCompute(0, 1, "b")
	g.AddDep(a, b)
	g.AddDep(a, b)
	g.AddDep(a, a)
	g.AddDep(nil, b)
	g.AddDep(a, nil)
	if len(b.Deps()) != 1 {
		t.Fatalf("duplicate dep recorded: %v", b.Deps())
	}
	if len(a.Deps()) != 0 {
		t.Fatalf("self dep recorded: %v", a.Deps())
	}
}

func TestCycleDetected(t *testing.T) {
	g := NewGraph()
	a := g.AddCompute(0, 1, "a")
	b := g.AddCompute(0, 1, "b")
	g.AddDep(a, b)
	g.AddDep(b, a)
	if err := g.Validate(); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestValidateRejectsBadFields(t *testing.T) {
	g := NewGraph()
	c := g.AddCompute(0, 1, "x")
	c.Duration = -1
	if g.Validate() == nil {
		t.Fatal("negative duration accepted")
	}
	g = NewGraph()
	c = g.AddCompute(0, 1, "x")
	c.GPU = -1
	if g.Validate() == nil {
		t.Fatal("negative GPU accepted")
	}
	g = NewGraph()
	cm := g.AddComm(0, 1, 1, "x")
	cm.Bytes = -5
	if g.Validate() == nil {
		t.Fatal("negative bytes accepted")
	}
}

func TestCriticalPath(t *testing.T) {
	g := NewGraph()
	a := g.AddCompute(0, 3, "a")
	b := g.AddCompute(1, 5, "b")
	c := g.AddCompute(0, 4, "c")
	g.AddDep(a, c) // chain a→c = 7; b alone = 5
	if got := g.CriticalPathLength(); got != 7 {
		t.Fatalf("critical path = %v, want 7", got)
	}
	g.AddDep(b, c) // chain b→c = 9
	if got := g.CriticalPathLength(); got != 9 {
		t.Fatalf("critical path = %v, want 9", got)
	}
}

func TestSummarize(t *testing.T) {
	g := NewGraph()
	g.AddCompute(0, 2, "a")
	g.AddComm(0, 1, 100, "b")
	g.AddHostLoad(9, 0, 50, "c")
	g.AddBarrier("d")
	s := g.Summarize()
	if s.Compute != 1 || s.Comm != 1 || s.HostLoad != 1 || s.Barrier != 1 {
		t.Fatalf("summary %+v", s)
	}
	if s.ComputeTime != 2 || s.CommBytes != 150 {
		t.Fatalf("summary %+v", s)
	}
}

func TestKindString(t *testing.T) {
	if Compute.String() != "compute" || Barrier.String() != "barrier" {
		t.Fatal("kind names wrong")
	}
}

// gpuLog is a test observer collecting each GPU's compute intervals.
type gpuLog map[int][]timeline.Seg

func (l gpuLog) TaskDone(t *Task, start, end sim.VTime) {
	if t.Kind == Compute {
		l[t.GPU] = append(l[t.GPU],
			timeline.Seg{S: float64(start), E: float64(end)})
	}
}

// busy returns the union of gpu's compute intervals.
func (l gpuLog) busy(gpu int) sim.VTime {
	segs := append([]timeline.Seg(nil), l[gpu]...)
	return sim.VTime(timeline.Length(timeline.Union(segs)))
}

// runGraph executes g on a serial engine with an ideal network, returning
// the makespan, the phase timeline and the per-GPU compute intervals.
func runGraph(t *testing.T, g *Graph, bw float64,
	lat sim.VTime) (sim.VTime, *timeline.Timeline, gpuLog) {
	t.Helper()
	eng := sim.NewSerialEngine()
	net := network.NewIdealNetwork(eng, bw, lat)
	tl := timeline.New()
	x := NewExecutor(eng, net, g, tl)
	gl := gpuLog{}
	x.Observe(gl)
	makespan, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	return makespan, tl, gl
}

func TestExecutorSerializesPerGPU(t *testing.T) {
	g := NewGraph()
	g.AddCompute(0, 2, "a")
	g.AddCompute(0, 3, "b")
	g.AddCompute(1, 4, "c")
	makespan, _, gl := runGraph(t, g, 1e9, 0)
	// GPU0 runs a then b (5); GPU1 runs c (4) concurrently.
	if makespan != 5 {
		t.Fatalf("makespan = %v, want 5", makespan)
	}
	if busy := gl.busy(0); busy != 5 {
		t.Fatalf("gpu0 busy = %v", busy)
	}
	if busy := gl.busy(1); busy != 4 {
		t.Fatalf("gpu1 busy = %v", busy)
	}
}

func TestExecutorHonorsDeps(t *testing.T) {
	g := NewGraph()
	a := g.AddCompute(0, 2, "a")
	b := g.AddCompute(1, 3, "b")
	g.AddDep(a, b) // b waits for a even though on another GPU
	makespan, _, _ := runGraph(t, g, 1e9, 0)
	if makespan != 5 {
		t.Fatalf("makespan = %v, want 5", makespan)
	}
}

func TestExecutorCommPath(t *testing.T) {
	g := NewGraph()
	a := g.AddCompute(0, 1, "a")
	c := g.AddComm(0, 1, 2e9, "xfer") // 2 s at 1 GB/s
	b := g.AddCompute(1, 1, "b")
	g.AddDep(a, c)
	g.AddDep(c, b)
	makespan, tl, _ := runGraph(t, g, 1e9, 0)
	if makespan != 4 {
		t.Fatalf("makespan = %v, want 4", makespan)
	}
	if commTime := tl.UnionTime(timeline.ByPhase("comm")); commTime != 2 {
		t.Fatalf("comm time = %v, want 2", commTime)
	}
}

func TestExecutorBarrierInstant(t *testing.T) {
	g := NewGraph()
	a := g.AddCompute(0, 1, "a")
	bar := g.AddBarrier("sync")
	b := g.AddCompute(1, 1, "b")
	g.AddDep(a, bar)
	g.AddDep(bar, b)
	makespan, _, _ := runGraph(t, g, 1e9, 0)
	if makespan != 2 {
		t.Fatalf("makespan = %v, want 2", makespan)
	}
}

func TestExecutorHostLoadPhase(t *testing.T) {
	g := NewGraph()
	h := g.AddHostLoad(9, 0, 1e9, "stage-input")
	c := g.AddCompute(0, 1, "fwd")
	g.AddDep(h, c)
	makespan, tl, _ := runGraph(t, g, 1e9, 0)
	if makespan != 2 {
		t.Fatalf("makespan = %v, want 2", makespan)
	}
	if hl := tl.UnionTime(timeline.ByPhase("hostload")); hl != 1 {
		t.Fatalf("hostload time = %v", hl)
	}
}

func TestExecutorRejectsCyclicGraph(t *testing.T) {
	g := NewGraph()
	a := g.AddCompute(0, 1, "a")
	b := g.AddCompute(0, 1, "b")
	g.AddDep(a, b)
	g.AddDep(b, a)
	eng := sim.NewSerialEngine()
	x := NewExecutor(eng, network.NewIdealNetwork(eng, 1, 0), g,
		timeline.New())
	if _, err := x.Run(); err == nil {
		t.Fatal("cyclic graph executed")
	}
}

func TestExecutorEmptyGraph(t *testing.T) {
	g := NewGraph()
	makespan, _, _ := runGraph(t, g, 1e9, 0)
	if makespan != 0 {
		t.Fatalf("empty graph makespan = %v", makespan)
	}
}

// Property: for random DAGs, (1) every task runs exactly once, (2) the
// makespan is at least the critical-path length and at most the serial sum.
func TestExecutorRandomDAGsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		g := NewGraph()
		n := 2 + rng.Intn(30)
		nGPU := 1 + rng.Intn(4)
		var serial sim.VTime
		for i := 0; i < n; i++ {
			dur := sim.VTime(rng.Intn(10))
			tk := g.AddCompute(rng.Intn(nGPU), dur, "t")
			serial += dur
			// Edges only to earlier tasks: guaranteed acyclic.
			for j := 0; j < i; j++ {
				if rng.Intn(5) == 0 {
					g.AddDep(g.Tasks[j], tk)
				}
			}
		}
		makespan, tl, _ := runGraph(t, g, 1e9, 0)
		cp := g.CriticalPathLength()
		if makespan < cp || makespan > serial {
			t.Fatalf("trial %d: makespan %v outside [%v, %v]",
				trial, makespan, cp, serial)
		}
		var runs int
		for i := range tl.Intervals {
			if tl.Intervals[i].Phase == timeline.Compute {
				runs++
			}
		}
		if runs != n {
			t.Fatalf("trial %d: %d compute intervals for %d tasks",
				trial, runs, n)
		}
	}
}

// Property: per-GPU compute intervals never overlap (streams are serial).
func TestExecutorNoComputeOverlapProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		g := NewGraph()
		n := 5 + rng.Intn(20)
		for i := 0; i < n; i++ {
			g.AddCompute(rng.Intn(2), sim.VTime(1+rng.Intn(5)), "t")
		}
		_, _, gl := runGraph(t, g, 1e9, 0)
		for gpu, segs := range gl {
			sum := sim.VTime(timeline.Length(segs))
			if union := gl.busy(gpu); sum != union {
				t.Fatalf("trial %d: gpu%d has overlapping compute: sum %v, union %v",
					trial, gpu, sum, union)
			}
		}
	}
}

func TestExecutorWithFlowNetwork(t *testing.T) {
	// End-to-end with the real flow network: two transfers share a link.
	eng := sim.NewSerialEngine()
	topo := network.NewTopology()
	a := topo.AddNode("a", network.GPUNode)
	b := topo.AddNode("b", network.GPUNode)
	topo.AddLink(a, b, 1e9, 0)
	net := network.NewFlowNetwork(eng, topo)

	g := NewGraph()
	g.AddComm(a, b, 1e9, "x1")
	g.AddComm(a, b, 1e9, "x2")
	tl := timeline.New()
	x := NewExecutor(eng, net, g, tl)
	makespan, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	if makespan != 2 {
		t.Fatalf("shared-link makespan = %v, want 2", makespan)
	}
}
