package spantrace

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"triosim/internal/sim"
	"triosim/internal/task"
)

// fault is one fault window for viewLog.
type fault struct {
	label      string
	start, end sim.VTime
}

// viewLog records ws plus the given fault windows, as the harness does:
// fault windows first, then task spans in completion order.
func viewLog(t *testing.T, g *task.Graph, ws []window, fs ...fault) *Log {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatalf("fixture graph invalid: %v", err)
	}
	r := NewRecorder(g, nil)
	for _, f := range fs {
		r.AddFault(f.label, f.start, f.end)
	}
	for _, w := range ws {
		r.TaskDone(w.t, w.start, w.end)
	}
	return r.Finalize()
}

func writeHTML(t *testing.T, l *Log, title string, cp *Report) string {
	t.Helper()
	var buf bytes.Buffer
	if err := l.WriteHTML(&buf, title, cp); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestBreakdownOverlapAware(t *testing.T) {
	g := task.NewGraph()
	op := g.AddCompute(0, 4, "op")
	xfer := g.AddComm(0, 1, 1e9, "xfer")
	stage := g.AddHostLoad(9, 0, 1e9, "stage")
	long := g.AddCompute(1, 10, "op")
	// gpu0 computes [0,4); the net lane carries comm [2,6) and host
	// staging [5,7) (1s under comm, 1s exposed). Span ends at 10.
	l := viewLog(t, g, []window{
		{op, 0, 4}, {xfer, 2, 6}, {stage, 5, 7}, {long, 0, 10},
	})

	bds := l.Breakdown()
	if len(bds) != 3 || bds[0].Resource != "gpu0" ||
		bds[1].Resource != "gpu1" || bds[2].Resource != "net" {
		t.Fatalf("breakdown = %+v", bds)
	}
	if g0 := bds[0]; g0.ComputeSec != 4 || g0.BusySec != 4 || g0.IdleSec != 6 {
		t.Fatalf("gpu0 = %+v", g0)
	}
	if g1 := bds[1]; g1.ComputeSec != 10 || g1.IdleSec != 0 {
		t.Fatalf("gpu1 = %+v", g1)
	}
	n := bds[2]
	if n.CommSec != 4 || n.ExposedCommSec != 4 {
		t.Fatalf("net comm/exposed = %v/%v", n.CommSec, n.ExposedCommSec)
	}
	if n.HostLoadSec != 2 || n.ExposedHostSec != 1 {
		t.Fatalf("net host/exposed = %v/%v", n.HostLoadSec, n.ExposedHostSec)
	}
	if n.BusySec != 5 || n.IdleSec != 5 {
		t.Fatalf("net busy/idle = %v/%v", n.BusySec, n.IdleSec)
	}
	// Partition: compute + exposed comm + exposed host + idle = span.
	for _, b := range bds {
		if sum := b.ComputeSec + b.ExposedCommSec + b.ExposedHostSec +
			b.IdleSec; sum != 10 {
			t.Fatalf("%s partition sums to %v, span 10", b.Resource, sum)
		}
	}
}

func TestBreakdownEmpty(t *testing.T) {
	if got := viewLog(t, task.NewGraph(), nil).Breakdown(); len(got) != 0 {
		t.Fatalf("empty log breakdown = %+v", got)
	}
}

// TestBreakdownDegenerateLane: a lane whose only activity is instantaneous
// (a GPUFail marker) still gets an all-idle breakdown row, keeping the HTML
// table aligned with the SVG lanes. Barriers are not drawn at all.
func TestBreakdownDegenerateLane(t *testing.T) {
	g := task.NewGraph()
	conv := g.AddCompute(0, 1e-3, "conv")
	bar := g.AddBarrier("barrier-step0")
	l := viewLog(t, g, []window{{conv, 0, 1e-3}, {bar, 5e-4, 5e-4}},
		fault{"gpu0 fail", 5e-4, 5e-4})
	rows := l.Breakdown()
	if len(rows) != 2 || rows[0].Resource != "faults" ||
		rows[1].Resource != "gpu0" {
		t.Fatalf("breakdown rows = %+v, want faults and gpu0", rows)
	}
	if f := rows[0]; f.BusySec != 0 || f.IdleSec <= 0 {
		t.Fatalf("degenerate lane should be all idle: %+v", f)
	}
	out := writeHTML(t, l, "degenerate", nil)
	if got := strings.Count(out, "<td>gpu0</td>") +
		strings.Count(out, "<td>faults</td>"); got != 2 {
		t.Fatalf("breakdown table rows = %d, want 2", got)
	}
	if got := strings.Count(out, `fill="#f0f0f0"`); got != 2 {
		t.Fatalf("lane backgrounds = %d, want 2", got)
	}
	if strings.Contains(out, "barrier-step0") {
		t.Fatal("barrier span drawn")
	}
}

// TestCategoryColorsPinned: each drawn category has its fixed color.
func TestCategoryColorsPinned(t *testing.T) {
	for cat, want := range map[Category]string{
		Compute: "#4878cf", Comm: "#d65f5f", HostLoad: "#6acc65",
		Fault: "#ee854a",
	} {
		if got := categoryColors[cat]; got != want {
			t.Fatalf("color of %v = %q, want %q", cat, got, want)
		}
	}
}

func TestWriteHTML(t *testing.T) {
	g := task.NewGraph()
	conv := g.AddCompute(0, 2e-3, "conv2d")
	ar := g.AddComm(0, 1, 1e6, "allreduce-step0")
	stage := g.AddHostLoad(9, 1, 1e6, "stage-input")
	l := viewLog(t, g, []window{
		{conv, 0, 2e-3}, {ar, 1e-3, 3e-3}, {stage, 0, 5e-4},
	})
	out := writeHTML(t, l, "test timeline", nil)
	for _, want := range []string{
		"<!DOCTYPE html>", "<svg", "</svg>", "test timeline",
		"gpu0", "net", "conv2d", "allreduce-step0", "stage-input",
		"#4878cf", "#d65f5f", "#6acc65",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("HTML missing %q", want)
		}
	}
	// One rect per span plus one lane background per lane.
	if got := strings.Count(out, "<rect"); got != 3+2 {
		t.Fatalf("rect count = %d, want 5", got)
	}
}

func TestWriteHTMLIncludesBreakdownTable(t *testing.T) {
	g := task.NewGraph()
	op := g.AddCompute(0, 1, "op")
	l := viewLog(t, g, []window{{op, 0, 1}})
	out := writeHTML(t, l, "t", nil)
	for _, want := range []string{
		`<table class="breakdown">`,
		"<th>exposed comm (s)</th>",
		"<td>gpu0</td>",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("HTML missing %q", want)
		}
	}
	if strings.Index(out, "<table") > strings.Index(out, "<svg") {
		t.Fatal("breakdown table should precede the SVG lanes")
	}
}

func TestWriteHTMLEscapes(t *testing.T) {
	g := task.NewGraph()
	op := g.AddCompute(0, 1, `<script>alert("x")</script>`)
	l := viewLog(t, g, []window{{op, 0, 1}})
	if strings.Contains(writeHTML(t, l, "<title>", nil), "<script>") {
		t.Fatal("labels not escaped")
	}
}

func TestWriteHTMLEmptyLog(t *testing.T) {
	out := writeHTML(t, viewLog(t, task.NewGraph(), nil), "empty", nil)
	if !strings.Contains(out, "</svg>") {
		t.Fatal("empty export malformed")
	}
}

// TestWriteHTMLHighlight: the critical path's spans render at full opacity
// with an outline, the rest are dimmed, and the summary renders under the
// legend. Spans are matched by identity: an off-path span with the same
// label and times as an on-path one stays dimmed.
func TestWriteHTMLHighlight(t *testing.T) {
	g := task.NewGraph()
	on := g.AddCompute(0, 1e-3, "step")
	twin := g.AddCompute(1, 1e-3, "step") // same label and window, off path
	tail := g.AddCompute(0, 1e-3, "tail")
	g.AddDep(on, tail)
	l := viewLog(t, g, []window{
		{on, 0, 1e-3}, {twin, 0, 1e-3}, {tail, 1e-3, 2e-3},
	})
	cp := l.CriticalPath(0)
	out := writeHTML(t, l, "highlight", cp)
	if got := strings.Count(out, `stroke="#222"`); got != 2 {
		t.Fatalf("outlined spans = %d, want 2 (step on gpu0, tail)", got)
	}
	if got := strings.Count(out, `opacity="0.35"`); got != 1 {
		t.Fatalf("dimmed spans = %d, want 1 (the gpu1 twin)", got)
	}
	if !strings.Contains(out, "critical path: 2 steps") {
		t.Fatal("summary line missing")
	}
	// Without a report nothing is dimmed or outlined.
	plain := writeHTML(t, l, "plain", nil)
	if strings.Contains(plain, `opacity="0.35"`) ||
		strings.Contains(plain, `stroke="#222"`) ||
		strings.Contains(plain, "critical path:") {
		t.Fatal("plain export should not dim, outline or summarize")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestWriteHTMLReportsWriteError(t *testing.T) {
	l := viewLog(t, task.NewGraph(), nil)
	if err := l.WriteHTML(failWriter{}, "t", nil); err == nil ||
		err.Error() != "disk full" {
		t.Fatalf("WriteHTML to a failing writer = %v, want disk full", err)
	}
}
