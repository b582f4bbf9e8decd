package main

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/trace"
)

// fig11Schemes are the five schemes of the paper's Fig 11, in column order.
var fig11Schemes = []core.Scheme{core.XYBaseline, core.XYARI, core.AdaBaseline, core.AdaMultiPort, core.AdaARI}

// fig11Workers is the exp worker-pool size: one per CPU of the 2-CPU
// reference host.
const fig11Workers = 2

// fig11Matrix regenerates the paper's headline figure the way ariexp does:
// exp.Generate(r, "11") over the 30-kernel suite and 5 schemes, 1000 warmup
// + 4000 measured cycles, on a fresh Runner per pass.
type fig11Matrix struct {
	base    core.Config
	kernels []trace.Kernel
	seed    uint64
	// simSetups holds every per-simulator NewSimulator time measured by
	// setup.
	simSetups []time.Duration
}

func newFig11Matrix(seed uint64) (*fig11Matrix, error) {
	base := exp.NewRunner().Base
	base.WarmupCycles = 1000
	base.MeasureCycles = 4000
	base.Seed = seed
	return &fig11Matrix{base: base, kernels: trace.Suite(), seed: seed}, nil
}

// setup builds (and discards) the 150 simulators of the matrix one at a
// time: the per-simulation set-up the Runner pays inside a pass.
func (w *fig11Matrix) setup() (time.Duration, error) {
	start := time.Now()
	for _, k := range w.kernels {
		for _, s := range fig11Schemes {
			cfg := w.base
			cfg.Scheme = s
			t := time.Now()
			sim, err := core.NewSimulator(cfg, k)
			if err != nil {
				return 0, err
			}
			w.simSetups = append(w.simSetups, time.Since(t))
			sim.Close()
		}
	}
	return time.Since(start), nil
}

func (w *fig11Matrix) setupReps() int { return 5 }

func (w *fig11Matrix) recorded() string { return recordedDigests["fig11-matrix"] }

func (w *fig11Matrix) run(tr *tracer) (pass, error) {
	root := tr.start("fig11-matrix.pass", "")
	defer tr.end(root)

	r := exp.NewRunner()
	r.Base = w.base
	r.Benchmarks = w.kernels
	r.Workers = fig11Workers
	gen := tr.start("exp.Generate", root.ID)
	log := newRunLog(tr, gen.ID)
	r.InstrumentJob = log.begin
	r.Progress = log
	var pr *probes
	if tr != nil {
		pr = &probes{}
		r.Instrument = func(sim *core.Simulator) { pr.attach(sim, w.base.WarmupCycles) }
	}

	start := time.Now()
	fig, err := exp.Generate(r, "11")
	wall := time.Since(start)
	tr.end(gen)

	n := len(w.kernels) * len(fig11Schemes)
	p := pass{
		wall:      wall,
		cycles:    float64(n) * float64(w.base.WarmupCycles+w.base.MeasureCycles),
		latencies: []time.Duration{wall},
		attempted: n,
	}
	if err != nil {
		p.failed = n
		p.problems = append(p.problems, err.Error())
		return p, nil
	}
	if g := fig.Summary["ada_ari_gain"]; w.seed == defaultSeed && !(g > 0) {
		p.failed = n
		p.problems = append(p.problems, fmt.Sprintf("ada_ari_gain %v, want > 0", g))
	}

	results := make([]core.Result, 0, n)
	parts := make([][]byte, 0, n)
	for _, k := range w.kernels {
		for _, s := range fig11Schemes {
			cfg := w.base
			cfg.Scheme = s
			res, ok := r.Lookup(cfg, k.Name)
			if !ok {
				return pass{}, fmt.Errorf("fig11-matrix: no result for %s/%s", k.Name, s)
			}
			if why := checkResult(res); why != "" {
				p.failed++
				p.problems = append(p.problems, why)
			}
			b, err := json.Marshal(res)
			if err != nil {
				return pass{}, err
			}
			results = append(results, res)
			parts = append(parts, b)
			p.flitHops += horizonFlitHops(res, cfg)
		}
	}
	p.digest = digestOf(parts...)
	if p.failed > n {
		p.failed = n
	}
	if tr != nil {
		p.layers = resultLayers(results)
		pr.layers(p.layers)
		expLayers(p.layers, fig11Workers, wall, log)
		var setups []float64
		for _, d := range w.simSetups {
			setups = append(setups, ms(d))
		}
		p.layers["core.setup_ms"] = median(setups)
	}
	return p, nil
}
