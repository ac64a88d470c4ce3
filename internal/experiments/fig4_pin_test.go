package experiments

import (
	"testing"

	"neurotest/internal/report"
)

// TestFigure4TinyPinned pins every Figure 4 value on the tiny architecture:
// escape and overkill for all three methods over five σ points, with 40
// faulty and 40 good chips per point. The numbers were captured from the
// clone-then-add chip-under-test model and must not move while campaigns
// simulate dies as perturbed views; the larger σ points carry real hits
// (overkill climbs to 100%, baseline escapes vary), so a view that drifted
// from the materialised weights would show here.
func TestFigure4TinyPinned(t *testing.T) {
	cfg := tinyConfig()
	cfg.SigmaFractions = []float64{0.05, 0.15, 0.3, 0.6, 1.0}
	cfg.GoodChips = 40
	cfg.EscapeSample = 40
	r := NewRunner(cfg)
	escape, overkill := r.Figure4(tinyArch)
	want := map[string]map[string][]float64{
		"escape": {
			ATCPG.String():       {57.5, 57.5, 60, 52.5, 60},
			Compression.String(): {60, 62.5, 65, 52.5, 62.5},
			Proposed.String():    {0, 0, 0, 0, 0},
		},
		"overkill": {
			ATCPG.String():       {0, 0, 0, 0, 0},
			Compression.String(): {0, 0, 0, 0, 0},
			Proposed.String():    {0, 5, 95, 100, 100},
		},
	}
	for name, fig := range map[string]*report.Figure{"escape": escape, "overkill": overkill} {
		if len(fig.Series) != len(want[name]) {
			t.Fatalf("%s: %d series, want %d", name, len(fig.Series), len(want[name]))
		}
		for _, s := range fig.Series {
			w, ok := want[name][s.Name]
			if !ok || len(s.Y) != len(w) {
				t.Fatalf("%s %q: unexpected series %v", name, s.Name, s.Y)
			}
			for i := range w {
				if s.Y[i] != w[i] {
					t.Errorf("%s %q at σ=%gθ: %v, pinned %v", name, s.Name, cfg.SigmaFractions[i], s.Y[i], w[i])
				}
			}
		}
	}
}
