package exp

import (
	"fmt"
	"strings"

	"repro/internal/stats"
)

// Figure is one regenerated table/figure: a printable table plus headline
// values used by EXPERIMENTS.md and the regression tests.
type Figure struct {
	ID    string
	Title string
	// Paper states what the paper reports for the headline metric.
	Paper string
	Table *stats.Table
	// Summary holds the headline numbers (e.g. "avg_ipc_gain" -> 0.154).
	Summary map[string]float64
	Notes   []string
}

// String renders the figure for terminal output.
func (f *Figure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", f.ID, f.Title)
	if f.Paper != "" {
		fmt.Fprintf(&b, "paper: %s\n", f.Paper)
	}
	if f.Table != nil {
		b.WriteString(f.Table.String())
	}
	for _, k := range stats.SortedKeys(f.Summary) {
		fmt.Fprintf(&b, "measured %s = %.4f\n", k, f.Summary[k])
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Markdown renders the figure as one section of a Markdown report.
func (f *Figure) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n\n", f.ID, f.Title)
	if f.Paper != "" {
		fmt.Fprintf(&b, "> paper: %s\n\n", f.Paper)
	}
	if f.Table != nil {
		b.WriteString(f.Table.Markdown())
		b.WriteByte('\n')
	}
	if keys := stats.SortedKeys(f.Summary); len(keys) > 0 {
		for _, k := range keys {
			fmt.Fprintf(&b, "- **%s** = %.4f\n", k, f.Summary[k])
		}
		b.WriteByte('\n')
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "*%s*\n\n", n)
	}
	return b.String()
}

// GenFunc generates one figure.
type GenFunc func(r *Runner) (*Figure, error)

// Registry maps figure ids to their generators, in paper order.
func Registry() []struct {
	ID  string
	Gen GenFunc
} {
	return []struct {
		ID  string
		Gen GenFunc
	}{
		{"table1", TableI},
		{"3", Fig3},
		{"4", Fig4},
		{"5", Fig5},
		{"util", LinkUtil},
		{"6", Fig6},
		{"enhanced", EnhancedBaseline},
		{"sizing", SpeedupSizing},
		{"9", Fig9},
		{"10", Fig10},
		{"11", Fig11},
		{"12", Fig12},
		{"13", Fig13},
		{"14", Fig14},
		{"15", Fig15},
		{"16", Fig16},
		{"scale", Scalability},
		{"area", AreaOverhead},
		{"placement", PlacementAblation},
		{"stability", SeedStability},
		{"fault", FaultFigure},
		{"loadlat", LoadLatency},
		{"analytic", AnalyticComparison},
		{"decompose", func(r *Runner) (*Figure, error) { return Decompose(r.Base, tracedBench(r), tracedSample) }},
		{"slo", func(r *Runner) (*Figure, error) { return SLOFigure(r.Base, tracedBench(r), tracedSample, 0) }},
	}
}

// tracedSample is the packet sampling rate of the trace-sampled figures
// (decompose, slo): every 4th packet.
const tracedSample = 4

// tracedBench is the kernel the trace-sampled figures run on: the first of
// the runner's benchmarks, bfs when the runner has none.
func tracedBench(r *Runner) string {
	if len(r.Benchmarks) == 0 {
		return "bfs"
	}
	return r.Benchmarks[0].Name
}

// Generate produces the figure with the given id.
func Generate(r *Runner, id string) (*Figure, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e.Gen(r)
		}
	}
	return nil, fmt.Errorf("exp: unknown figure %q", id)
}

// pct formats a ratio change as a percentage string.
func pct(v float64) string { return fmt.Sprintf("%+.1f%%", v*100) }

// safeDiv returns a/b or 0.
func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
