package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"triosim"
)

// TestTimelineHTMLOutlinesCriticalSteps: the -timeline-html viewer outlines
// exactly the drawn critical-path steps (compute, comm and host staging;
// barriers and delays have no bar), even where many spans share a step's
// label and times, as ring-collective steps on different GPUs do.
func TestTimelineHTMLOutlinesCriticalSteps(t *testing.T) {
	for _, par := range []triosim.Parallelism{triosim.DDP, triosim.TP} {
		res, err := triosim.Simulate(triosim.Config{
			Model: "resnet18", Platform: triosim.P2(), Parallelism: par,
			TraceBatch: 128, SpanTrace: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "tl.html")
		if err := writeTimelineHTML(path, string(par), res); err != nil {
			t.Fatal(err)
		}
		out, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, st := range res.CriticalPath.Steps {
			switch st.Category {
			case "compute", "comm", "hostload":
				want++
			}
		}
		if want == 0 {
			t.Fatalf("%s: no drawable critical steps", par)
		}
		if got := strings.Count(string(out), `stroke="#222"`); got != want {
			t.Fatalf("%s: %d outlined rects, want %d drawable critical steps",
				par, got, want)
		}
	}
}
