package timeline

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"triosim/internal/sim"
)

// referenceUnionTime is the edge-sweep union the merge-based algebra
// replaced: +1/−1 edges sorted by time (opens before closes at ties), with
// the covered length summed each time the depth returns to zero.
func referenceUnionTime(tl *Timeline, match func(*Interval) bool) sim.VTime {
	type edge struct {
		t     sim.VTime
		delta int
	}
	var edges []edge
	for i := range tl.Intervals {
		iv := &tl.Intervals[i]
		if !match(iv) || iv.End.AtOrBefore(iv.Start) {
			continue
		}
		edges = append(edges, edge{iv.Start, +1}, edge{iv.End, -1})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].t != edges[j].t {
			return edges[i].t.Before(edges[j].t)
		}
		return edges[i].delta > edges[j].delta
	})
	var total sim.VTime
	depth := 0
	var openAt sim.VTime
	for _, e := range edges {
		if depth == 0 && e.delta > 0 {
			openAt = e.t
		}
		depth += e.delta
		if depth == 0 && e.delta < 0 {
			total += e.t - openAt
		}
	}
	return total
}

func all(*Interval) bool { return true }

func TestSumAndUnion(t *testing.T) {
	tl := New()
	tl.Add(Compute, 0, 2)
	tl.Add(Compute, 1, 3) // overlaps the first
	tl.Add(Comm, 5, 6)

	if got := Length([]Seg{{0, 2}, {1, 3}}); got != 4 {
		t.Fatalf("Length = %v, want 4", got)
	}
	if got := tl.UnionTime(ByPhase("compute")); got != 3 {
		t.Fatalf("UnionTime = %v, want 3", got)
	}
	if got := tl.UnionTime(ByPhase("comm")); got != 1 {
		t.Fatalf("comm UnionTime = %v, want 1", got)
	}
	if got := tl.UnionTime(all); got != 4 {
		t.Fatalf("all UnionTime = %v, want 4 (gap between 3 and 5)", got)
	}
}

func TestFilters(t *testing.T) {
	tl := New()
	tl.Add(Compute, 0, 1)
	tl.Add(HostLoad, 0, 2)
	for name, want := range map[string]sim.VTime{
		"compute": 1, "hostload": 2, "comm": 0, "fault": 0,
	} {
		if got := tl.UnionTime(ByPhase(name)); got != want {
			t.Fatalf("ByPhase(%q) union = %v, want %v", name, got, want)
		}
	}
	if Comm.String() != "comm" || Phase(9).String() != "unknown" {
		t.Fatal("phase names wrong")
	}
}

func TestUnionAdjacentIntervals(t *testing.T) {
	tl := New()
	tl.Add(Compute, 0, 1)
	tl.Add(Compute, 1, 2) // touching, not overlapping
	if got := tl.UnionTime(ByPhase("compute")); got != 2 {
		t.Fatalf("adjacent union = %v, want 2", got)
	}
}

func TestUnionIgnoresEmptyIntervals(t *testing.T) {
	tl := New()
	tl.Add(Compute, 5, 5)
	if got := tl.UnionTime(ByPhase("compute")); got != 0 {
		t.Fatalf("empty-interval union = %v", got)
	}
}

// Property: union <= sum, and union >= max single duration.
func TestUnionBoundsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		tl := New()
		var maxDur, sum sim.VTime
		n := 1 + rng.Intn(20)
		for i := 0; i < n; i++ {
			s := sim.VTime(rng.Intn(100))
			d := sim.VTime(1 + rng.Intn(20))
			tl.Add(Compute, s, s+d)
			sum += d
			if d > maxDur {
				maxDur = d
			}
		}
		union := tl.UnionTime(all)
		if union > sum || union < maxDur {
			t.Fatalf("trial %d: union %v, sum %v, max %v",
				trial, union, sum, maxDur)
		}
	}
}

// Property: union equals a brute-force sweep over integer points.
func TestUnionMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		tl := New()
		covered := map[int]bool{}
		n := 1 + rng.Intn(10)
		for i := 0; i < n; i++ {
			s := rng.Intn(50)
			e := s + 1 + rng.Intn(10)
			tl.Add(Comm, sim.VTime(s), sim.VTime(e))
			for x := s; x < e; x++ {
				covered[x] = true
			}
		}
		if got := tl.UnionTime(all); got != sim.VTime(len(covered)) {
			t.Fatalf("trial %d: union %v, brute force %d", trial, got,
				len(covered))
		}
	}
}

// Property: the merge-based union is bit-identical to the edge-sweep
// reference on random float intervals, including touching, nested and
// zero-length ones — both through UnionTime and with the zero-length
// segments handed to Union directly.
func TestUnionMatchesEdgeSweepReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 500; trial++ {
		tl := New()
		var segs []Seg
		n := 1 + rng.Intn(40)
		for i := 0; i < n; i++ {
			s := rng.Float64() * 1e-2
			e := s + rng.Float64()*3e-3
			if i > 0 {
				prev := tl.Intervals[i-1]
				switch rng.Intn(5) {
				case 0: // touching the previous interval
					s = float64(prev.End)
					e = s + rng.Float64()*1e-3
				case 1: // nested inside it
					w := float64(prev.End - prev.Start)
					s = float64(prev.Start) + rng.Float64()*w/2
					e = s + rng.Float64()*w/2
				case 2: // zero-length
					e = s
				}
			}
			tl.Add(Phase(rng.Intn(3)), sim.VTime(s), sim.VTime(e))
			segs = append(segs, Seg{s, e})
		}
		want := referenceUnionTime(tl, all)
		if got := tl.UnionTime(all); got != want {
			t.Fatalf("trial %d: UnionTime %v, reference %v", trial, got, want)
		}
		if got := Length(Union(segs)); math.Float64bits(got) !=
			math.Float64bits(float64(want)) {
			t.Fatalf("trial %d: Length(Union) %v, reference %v",
				trial, got, want)
		}
		for p := Compute; p <= HostLoad; p++ {
			f := ByPhase(p.String())
			if got, want := tl.UnionTime(f), referenceUnionTime(tl, f); got != want {
				t.Fatalf("trial %d %v: UnionTime %v, reference %v",
					trial, p, got, want)
			}
		}
	}
}

func TestSubtract(t *testing.T) {
	u := Union([]Seg{{5, 7}, {1, 3}, {2, 4}})
	d := Subtract(u, Union([]Seg{{2, 6}}))
	if len(d) != 2 || d[0] != (Seg{1, 2}) || d[1] != (Seg{6, 7}) {
		t.Fatalf("subtract = %v", d)
	}
	// A point splits the segment it is subtracted from.
	if d := Subtract([]Seg{{0, 2}}, []Seg{{1, 1}}); len(d) != 2 ||
		Length(d) != 2 {
		t.Fatalf("point subtract = %v", d)
	}
	if d := Subtract([]Seg{{0, 2}}, []Seg{{0, 3}}); len(d) != 0 {
		t.Fatalf("covered subtract = %v", d)
	}
	if Union(nil) != nil {
		t.Fatal("empty union not nil")
	}
}
