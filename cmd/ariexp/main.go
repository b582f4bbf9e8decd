// Command ariexp regenerates the paper's tables and figures.
//
// Usage:
//
//	ariexp -fig 11                # one figure (ids: -list)
//	ariexp -fig all               # everything, in paper order
//	ariexp -fig 11 -cycles 20000  # longer measurement window
//	ariexp -quick                 # fast smoke pass (short horizons)
//	ariexp -csv results_csv       # also write fig_<id>.csv and report.md (Markdown)
//	ariexp -fig slo -bench srad   # trace-sampled figures run on the first -bench kernel
//	ariexp -v                     # per-run progress
//	ariexp -bench bfs,srad        # restrict the suite to a benchmark subset
//	ariexp -journal runs.jsonl    # resume an interrupted pass from a journal
//	ariexp -timeout 5m            # fail any single run exceeding 5 minutes
//
// Every simulation executes under the harness watchdogs: a run that stops
// making forward progress fails with a diagnostic dump instead of hanging
// the whole figure pass, and a -journal'd pass that is killed resumes
// without recomputing finished runs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/trace"
)

// sanitize maps a figure id to a filesystem-safe name.
func sanitize(id string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '_':
			return r
		case r >= 'A' && r <= 'Z':
			return r + ('a' - 'A')
		default:
			return '_'
		}
	}, id)
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "ariexp:", err)
		os.Exit(1)
	}
}

// run is the testable entry point: it parses args, regenerates the requested
// figures and writes them to stdout.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("ariexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	r := exp.NewRunner()
	var journal string
	exp.HorizonFlags(fs, &r.Base)
	exp.SeedFlag(fs, &r.Base)
	exp.JournalFlag(fs, &journal)
	exp.TimeoutFlag(fs, &r.RunTimeout)
	var (
		fig     = fs.String("fig", "all", "figure id or 'all'")
		quick   = fs.Bool("quick", false, "short horizons for a smoke pass (3000 measured + 1000 warmup cycles; explicit -cycles/-warmup still win)")
		verbose = fs.Bool("v", false, "print per-run progress")
		csvDir  = fs.String("csv", "", "also write each figure's table as CSV, and all of them as report.md, into this directory")
		list    = fs.Bool("list", false, "list figure ids and exit")
		bench   = fs.String("bench", "", "comma-separated benchmark subset (default: full suite; the trace-sampled figures run on its first)")
	)
	fs.IntVar(&r.Workers, "workers", r.Workers, "parallel simulations (0 = GOMAXPROCS)")
	quickPreset := func() error {
		if *quick {
			r.Base.MeasureCycles, r.Base.WarmupCycles = 3000, 1000
		}
		return nil
	}
	if err := exp.ParseFlags(fs, args, quickPreset); err != nil {
		return err
	}
	if err := r.Base.Validate(); err != nil {
		return err
	}

	if *list {
		for _, e := range exp.Registry() {
			fmt.Fprintln(stdout, e.ID)
		}
		return nil
	}

	if *verbose {
		r.Progress = stderr
	}
	if *bench != "" {
		var subset []trace.Kernel
		for _, name := range strings.Split(*bench, ",") {
			k, err := trace.ByName(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			subset = append(subset, k)
		}
		r.Benchmarks = subset
	}
	if journal != "" {
		j, err := exp.OpenJournal(journal)
		if err != nil {
			return err
		}
		defer j.Close()
		r.Journal = j
		if j.Loaded() > 0 {
			fmt.Fprintf(stderr, "ariexp: resuming, %d runs journalled in %s\n", j.Loaded(), j.Path())
		}
	}

	start := time.Now()
	ids := []string{*fig}
	if *fig == "all" {
		ids = ids[:0]
		for _, e := range exp.Registry() {
			ids = append(ids, e.ID)
		}
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}
	var report strings.Builder
	fmt.Fprintf(&report, "# ARI reproduction report\n\nGenerated by `ariexp`; %d measured + %d warmup NoC cycles per run, seed %d.\n\n",
		r.Base.MeasureCycles, r.Base.WarmupCycles, r.Base.Seed)
	for _, id := range ids {
		f, err := exp.Generate(r, id)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, f.String())
		report.WriteString(f.Markdown())
		if *csvDir != "" && f.Table != nil {
			path := filepath.Join(*csvDir, "fig_"+sanitize(id)+".csv")
			if err := os.WriteFile(path, []byte(f.Table.CSV()), 0o644); err != nil {
				return err
			}
		}
	}
	elapsed := time.Since(start)
	if *csvDir != "" {
		fmt.Fprintf(&report, "---\n\n%d simulations in %s.\n", r.Runs(), elapsed.Round(time.Second))
		if err := os.WriteFile(filepath.Join(*csvDir, "report.md"), []byte(report.String()), 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "(%d simulations, %s)\n", r.Runs(), elapsed.Round(time.Millisecond))
	return nil
}
