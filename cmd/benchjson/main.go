// Command benchjson converts `go test -bench` output on stdin into a JSON
// document on stdout, so benchmark numbers can be committed alongside the
// code that produced them (make bench writes BENCH_<date>.json with it).
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// entry is one benchmark result line.
type entry struct {
	Name        string   `json:"name"`
	Package     string   `json:"package,omitempty"`
	Iterations  int64    `json:"iterations"`
	NsPerOp     float64  `json:"ns_per_op"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	// Procs is the GOMAXPROCS the benchmark ran under (the -N name
	// suffix). Scaling gates (benchdiff -scale) use it to tell a genuine
	// flat-scaling regression from a run on a machine with too few cores
	// to scale at all.
	Procs int `json:"procs,omitempty"`
}

// doc is the full output document.
type doc struct {
	Goos   string `json:"goos,omitempty"`
	Goarch string `json:"goarch,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	// Procs is the highest GOMAXPROCS any benchmark ran under (1 when no
	// name carries a -N suffix): the host limit every absolute number and
	// scaling ratio in the snapshot was measured at.
	Procs      int     `json:"procs"`
	Benchmarks []entry `json:"benchmarks"`
}

func main() {
	var d doc
	var pkg string
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			d.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			d.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			d.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			if e, ok := parseBench(line); ok {
				e.Package = pkg
				d.Benchmarks = append(d.Benchmarks, e)
				d.Procs = max(d.Procs, e.Procs, 1)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(d); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parseBench parses one result line of the form
//
//	BenchmarkName-8   123456   987.6 ns/op   12 B/op   3 allocs/op
func parseBench(line string) (entry, bool) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return entry{}, false
	}
	var e entry
	// Strip the -GOMAXPROCS suffix if present, recording its value.
	e.Name = f[0]
	if i := strings.LastIndexByte(f[0], '-'); i > 0 {
		if p, err := strconv.Atoi(f[0][i+1:]); err == nil && p > 0 {
			e.Name = f[0][:i]
			e.Procs = p
		}
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return entry{}, false
	}
	e.Iterations = iters
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			continue
		}
		switch f[i+1] {
		case "ns/op":
			e.NsPerOp = v
		case "B/op":
			b := v
			e.BytesPerOp = &b
		case "allocs/op":
			a := v
			e.AllocsPerOp = &a
		}
	}
	return e, true
}
