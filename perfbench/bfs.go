package main

import (
	"encoding/json"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// bfsAda is the canonical single run: bfs under Ada-ARI on the 6x6 mesh,
// 4k warmup + 20k measured cycles, one serial simulation per pass through
// core.NewSimulator and RunChecked.
type bfsAda struct {
	cfg    core.Config
	kernel trace.Kernel
	// setups holds every NewSimulator time measured by setup.
	setups []time.Duration
}

func newBFSAda(seed uint64) (*bfsAda, error) {
	cfg := core.DefaultConfig()
	cfg.Scheme = core.AdaARI
	cfg.WarmupCycles = 4000
	cfg.MeasureCycles = 20000
	cfg.Seed = seed
	k, err := trace.ByName("bfs")
	if err != nil {
		return nil, err
	}
	return &bfsAda{cfg: cfg, kernel: k}, nil
}

// setup builds (and discards) the simulator a pass runs. Building takes
// about a millisecond, so a run times many.
func (w *bfsAda) setup() (time.Duration, error) {
	start := time.Now()
	sim, err := core.NewSimulator(w.cfg, w.kernel)
	d := time.Since(start)
	if err != nil {
		return 0, err
	}
	sim.Close()
	w.setups = append(w.setups, d)
	return d, nil
}

func (w *bfsAda) setupReps() int { return 31 }

func (w *bfsAda) recorded() string { return recordedDigests["bfs-ada"] }

func (w *bfsAda) run(tr *tracer) (pass, error) {
	root := tr.start("bfs-ada.pass", "")
	defer tr.end(root)

	sp := tr.start("core.NewSimulator", root.ID)
	var sim *core.Simulator
	var tw *timedWorkload
	var pr *probes
	var err error
	if tr == nil {
		sim, err = core.NewSimulator(w.cfg, w.kernel)
	} else {
		// The wrapper drives the same generator NewSimulator would build:
		// one stream set over the compute nodes, seeded by Config.Seed.
		var gen *trace.Generator
		gen, err = trace.NewGenerator(w.kernel, w.cfg.MeshWidth*w.cfg.MeshHeight-w.cfg.NumMC, w.cfg.Seed)
		if err != nil {
			return pass{}, err
		}
		tw = newTimedWorkload(gen)
		sim, err = core.NewSimulatorWorkload(w.cfg, w.kernel, tw)
	}
	tr.end(sp)
	if err != nil {
		return pass{}, err
	}
	defer sim.Close()
	if tr != nil {
		pr = &probes{}
		pr.attach(sim, w.cfg.WarmupCycles)
	}

	sp = tr.start("core.RunChecked", root.ID)
	start := time.Now()
	res, err := sim.RunChecked(core.CheckOptions{})
	wall := time.Since(start)
	tr.end(sp)

	p := pass{
		wall:      wall,
		cycles:    float64(w.cfg.WarmupCycles + w.cfg.MeasureCycles),
		flitHops:  horizonFlitHops(res, w.cfg),
		latencies: []time.Duration{wall},
		attempted: 1,
	}
	if err != nil {
		p.failed = 1
		p.problems = append(p.problems, err.Error())
		return p, nil
	}
	if why := checkResult(res); why != "" {
		p.failed = 1
		p.problems = append(p.problems, why)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return pass{}, err
	}
	p.digest = digestOf(b)
	if tr != nil {
		p.layers = resultLayers([]core.Result{res})
		pr.layers(p.layers)
		p.layers["trace.calls"] = float64(tw.calls)
		p.layers["trace.busy_s"] = tw.busyEstimate().Seconds()
		var setups []float64
		for _, d := range w.setups {
			setups = append(setups, ms(d))
		}
		p.layers["core.setup_ms"] = median(setups)
	}
	return p, nil
}
