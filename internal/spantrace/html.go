// Per-lane breakdown and the self-contained HTML timeline viewer.
package spantrace

import (
	"bufio"
	"fmt"
	"html"
	"io"
	"sort"

	"triosim/internal/sim"
	"triosim/internal/timeline"
)

// laneName returns the viewer lane a span is drawn on: compute on its GPU's
// track, communication and host staging on the shared net lane, fault
// windows on the faults track. Barriers, delays and request lifetimes are
// not drawn ("").
func (l *Log) laneName(sp *Span) string {
	switch sp.Cat {
	case Compute, Fault:
		return l.Name(sp.Track)
	case Comm, HostLoad:
		return "net"
	}
	return ""
}

// laneLayout is the viewer's layout of a log: the drawn spans in record order,
// the sorted lane names, each drawn span's lane index, and the earliest
// start and latest end across the drawn spans.
type laneLayout struct {
	spans      []int
	names      []string
	laneOf     []int
	start, end sim.VTime
}

func (l *Log) lanes() laneLayout {
	var lv laneLayout
	byName := map[string]int{}
	var spanLanes []string
	for i := range l.Spans {
		name := l.laneName(&l.Spans[i])
		if name == "" {
			continue
		}
		if _, ok := byName[name]; !ok {
			byName[name] = 0
			lv.names = append(lv.names, name)
		}
		lv.spans = append(lv.spans, i)
		spanLanes = append(spanLanes, name)
	}
	if len(lv.spans) == 0 {
		return lv
	}
	sort.Strings(lv.names)
	for i, name := range lv.names {
		byName[name] = i
	}
	lv.start = sim.Infinity
	for k, i := range lv.spans {
		sp := &l.Spans[i]
		lv.laneOf = append(lv.laneOf, byName[spanLanes[k]])
		if sp.Start.Before(lv.start) {
			lv.start = sp.Start
		}
		if sp.End.After(lv.end) {
			lv.end = sp.End
		}
	}
	return lv
}

// ResourceBreakdown is one lane's per-phase accounting over the span of the
// drawn spans. ComputeSec, ExposedCommSec, ExposedHostSec and IdleSec
// partition that span exactly: communication or host staging overlapped by
// compute is hidden (pipelined) and charged to compute, matching the paper's
// exposed-communication notion.
type ResourceBreakdown struct {
	Resource string
	// ComputeSec is the union time the lane spent computing.
	ComputeSec float64
	// CommSec is the union time the lane had communication in flight
	// (overlap with compute included).
	CommSec float64
	// ExposedCommSec is communication time not hidden under compute.
	ExposedCommSec float64
	// HostLoadSec is the union time of host→device staging.
	HostLoadSec float64
	// ExposedHostSec is host staging hidden by neither compute nor comm.
	ExposedHostSec float64
	// IdleSec is the rest of the span.
	IdleSec float64
	// BusySec is the union of all drawn activity, fault windows included.
	BusySec float64
}

// Breakdown computes the per-lane, per-phase accounting of the viewer's
// lanes, sorted by lane name. Overlap handling is exact: exposed
// communication is comm∖compute, exposed host staging is
// hostload∖(compute∪comm), and idle is whatever remains of the span. A lane
// whose only activity is instantaneous (GPUFail markers) still gets an
// all-idle row, so the HTML table aligns with the lanes.
func (l *Log) Breakdown() []ResourceBreakdown {
	return l.breakdown(l.lanes())
}

func (l *Log) breakdown(lv laneLayout) []ResourceBreakdown {
	type phases struct{ compute, comm, host, all []timeline.Seg }
	byLane := make([]phases, len(lv.names))
	for k, i := range lv.spans {
		sp := &l.Spans[i]
		if sp.End.AtOrBefore(sp.Start) {
			continue
		}
		p := &byLane[lv.laneOf[k]]
		sg := timeline.Seg{S: float64(sp.Start), E: float64(sp.End)}
		switch sp.Cat {
		case Compute:
			p.compute = append(p.compute, sg)
		case Comm:
			p.comm = append(p.comm, sg)
		case HostLoad:
			p.host = append(p.host, sg)
		}
		p.all = append(p.all, sg)
	}
	total := float64(lv.end - lv.start)
	out := make([]ResourceBreakdown, len(lv.names))
	for i, name := range lv.names {
		p := &byLane[i]
		compute := timeline.Union(p.compute)
		comm := timeline.Union(p.comm)
		host := timeline.Union(p.host)
		b := ResourceBreakdown{
			Resource:       name,
			ComputeSec:     timeline.Length(compute),
			CommSec:        timeline.Length(comm),
			ExposedCommSec: timeline.Length(timeline.Subtract(comm, compute)),
			HostLoadSec:    timeline.Length(host),
			ExposedHostSec: timeline.Length(timeline.Subtract(
				timeline.Subtract(host, compute), comm)),
			BusySec: timeline.Length(timeline.Union(p.all)),
		}
		b.IdleSec = max(total-b.BusySec, 0)
		out[i] = b
	}
	return out
}

// categoryColors pins each drawn category to a fixed color.
var categoryColors = [...]string{
	Compute:  "#4878cf",
	Comm:     "#d65f5f",
	HostLoad: "#6acc65",
	Fault:    "#ee854a",
}

// WriteHTML writes a self-contained Daisen-style timeline viewer: a
// per-lane breakdown table, then one SVG lane per GPU plus the net and
// faults lanes, spans as colored bars with hover titles. No external assets
// — open the file in any browser. When cp has steps, the critical path is
// overlaid: the spans its steps recorded are drawn at full opacity with a
// dark outline, everything else is dimmed, and its attribution and top
// near-critical spans render under the legend. cp may be nil.
func (l *Log) WriteHTML(out io.Writer, title string, cp *Report) error {
	// The buffered writer keeps the first write error; Flush returns it.
	w := bufio.NewWriter(out)
	lv := l.lanes()
	start, end := lv.start, lv.end
	span := float64(end - start)
	if span <= 0 {
		span = 1
	}
	var onPath []bool
	if cp != nil && len(cp.Steps) > 0 {
		onPath = make([]bool, len(l.Spans))
		for _, st := range cp.Steps {
			if i := l.SpanOf(st.Task); i >= 0 {
				onPath[i] = true
			}
		}
	}

	const (
		width      = 1200.0
		laneHeight = 28.0
		laneGap    = 6.0
		leftPad    = 90.0
		topPad     = 40.0
	)
	height := topPad + float64(len(lv.names))*(laneHeight+laneGap) + 20

	fmt.Fprintf(w, `<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>%s</title>
<style>
body { font-family: sans-serif; background: #fafafa; margin: 16px; }
svg { background: white; border: 1px solid #ddd; }
.lane-label { font-size: 12px; fill: #333; }
.axis { font-size: 10px; fill: #777; }
.legend { font-size: 12px; }
.critpath { font-size: 12px; color: #444; }
table.breakdown { border-collapse: collapse; font-size: 12px; margin-bottom: 12px; }
table.breakdown th, table.breakdown td { border: 1px solid #ddd; padding: 3px 8px; text-align: right; }
table.breakdown th:first-child, table.breakdown td:first-child { text-align: left; }
</style></head><body>
<h2>%s</h2>
<p class="legend">
<span style="color:%s">&#9632;</span> compute&nbsp;
<span style="color:%s">&#9632;</span> communication&nbsp;
<span style="color:%s">&#9632;</span> host load&nbsp;
<span style="color:%s">&#9632;</span> fault window
— span %s</p>
`, html.EscapeString(title), html.EscapeString(title),
		categoryColors[Compute], categoryColors[Comm], categoryColors[HostLoad],
		categoryColors[Fault], (end - start).String())
	if onPath != nil {
		for _, line := range cp.summary() {
			fmt.Fprintf(w, "<p class=\"critpath\">%s</p>\n",
				html.EscapeString(line))
		}
	}

	// Per-lane breakdown above the lanes, one row per lane.
	fmt.Fprint(w, `<table class="breakdown">
<tr><th>resource</th><th>compute (s)</th><th>comm (s)</th><th>exposed comm (s)</th><th>host load (s)</th><th>idle (s)</th><th>busy %</th></tr>
`)
	for _, b := range l.breakdown(lv) {
		fmt.Fprintf(w,
			"<tr><td>%s</td><td>%.6g</td><td>%.6g</td><td>%.6g</td><td>%.6g</td><td>%.6g</td><td>%.1f</td></tr>\n",
			html.EscapeString(b.Resource), b.ComputeSec, b.CommSec,
			b.ExposedCommSec, b.HostLoadSec, b.IdleSec, b.BusySec/span*100)
	}
	fmt.Fprint(w, "</table>\n")

	fmt.Fprintf(w, `<svg width="%.0f" height="%.0f">
`, width, height)

	// Lane labels and backgrounds.
	for i, name := range lv.names {
		y := topPad + float64(i)*(laneHeight+laneGap)
		fmt.Fprintf(w,
			`<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="#f0f0f0"/>`+"\n",
			leftPad, y, width-leftPad-10, laneHeight)
		fmt.Fprintf(w,
			`<text class="lane-label" x="4" y="%.1f">%s</text>`+"\n",
			y+laneHeight*0.65, html.EscapeString(name))
	}
	// Time axis ticks.
	for i := 0; i <= 10; i++ {
		frac := float64(i) / 10
		x := leftPad + frac*(width-leftPad-10)
		t := start + sim.VTime(frac*float64(end-start))
		fmt.Fprintf(w,
			`<text class="axis" x="%.1f" y="%.1f">%s</text>`+"\n",
			x, topPad-8, t.String())
	}

	// Spans, drawn in start order so later bars overlay earlier ones.
	order := make([]int, len(lv.spans))
	for k := range order {
		order[k] = k
	}
	sort.SliceStable(order, func(a, b int) bool {
		return l.Spans[lv.spans[order[a]]].Start.Before(
			l.Spans[lv.spans[order[b]]].Start)
	})
	for _, k := range order {
		i := lv.spans[k]
		sp := &l.Spans[i]
		x := leftPad + float64(sp.Start-start)/span*(width-leftPad-10)
		wpx := max(float64(sp.Duration())/span*(width-leftPad-10), 0.5)
		y := topPad + float64(lv.laneOf[k])*(laneHeight+laneGap)
		opacity, stroke := "0.85", ""
		if onPath != nil {
			if onPath[i] {
				opacity, stroke = "1.0", ` stroke="#222" stroke-width="1.5"`
			} else {
				opacity = "0.35"
			}
		}
		fmt.Fprintf(w,
			`<rect x="%.2f" y="%.1f" width="%.2f" height="%.1f" fill="%s" opacity="%s"%s><title>%s [%s] %s–%s (%s)</title></rect>`+"\n",
			x, y+3, wpx, laneHeight-6, categoryColors[sp.Cat], opacity, stroke,
			html.EscapeString(l.Name(sp.Name)), sp.Cat,
			sp.Start.String(), sp.End.String(), sp.Duration().String())
	}

	fmt.Fprint(w, "</svg></body></html>\n")
	return w.Flush()
}

// summary renders the critical path's attribution and its three most
// nearly critical spans as the viewer's caption lines.
func (r *Report) summary() []string {
	pct := func(v float64) float64 {
		if r.LengthSec <= 0 {
			return 0
		}
		return 100 * v / r.LengthSec
	}
	a := r.Attribution
	lines := []string{fmt.Sprintf(
		"critical path: %d steps over %.6gs — compute %.1f%%, comm %.1f%%, idle %.1f%%, fault-stretch %.1f%%, other %.1f%%",
		len(r.Steps), r.LengthSec, pct(a.ComputeSec), pct(a.CommSec),
		pct(a.IdleSec), pct(a.FaultStretchSec), pct(a.HostLoadSec+a.OtherSec))}
	for i, s := range r.Slack {
		if i >= 3 {
			break
		}
		lines = append(lines, fmt.Sprintf(
			"near-critical: %s on %s — slack %.6gs", s.Name, s.Track,
			s.SlackSec))
	}
	return lines
}
