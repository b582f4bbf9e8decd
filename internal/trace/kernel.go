// Package trace provides the synthetic workloads that stand in for the
// paper's 30 Rodinia / CUDA-SDK benchmarks. Each benchmark is a Kernel: a
// small parameter set (compute-to-memory ratio, read fraction, coalescing,
// locality, working-set structure) from which a deterministic per-warp
// instruction and address stream is generated. The parameters encode what
// the paper's figures actually depend on — NoC traffic intensity and
// sensitivity class (9 high / 11 medium / 10 low, §6.2), read/write mix
// (Fig 5) and cache behaviour — rather than the benchmarks' semantics.
package trace

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Sensitivity is the paper's NoC-sensitivity class of a benchmark.
type Sensitivity uint8

const (
	// High sensitivity: memory-bound, little compute per access.
	High Sensitivity = iota
	// Medium sensitivity.
	Medium
	// Low sensitivity: compute-bound, sparse memory traffic.
	Low
)

// String returns the class name.
func (s Sensitivity) String() string {
	switch s {
	case High:
		return "high"
	case Medium:
		return "medium"
	case Low:
		return "low"
	default:
		return fmt.Sprintf("Sensitivity(%d)", uint8(s))
	}
}

// Kernel parameterises one synthetic benchmark.
type Kernel struct {
	Name string
	Sens Sensitivity

	// WarpsPerCore is the occupancy the kernel achieves.
	WarpsPerCore int
	// ComputePerMem is the mean number of compute instructions a warp
	// executes between memory instructions (geometric distribution).
	ComputePerMem float64
	// ReadFrac is the probability a memory instruction is a load.
	ReadFrac float64
	// CoalesceMean is the mean number of 128B transactions one memory
	// instruction generates (1 = perfectly coalesced; divergent kernels
	// approach 4). Clamped to [1, 4].
	CoalesceMean float64
	// Locality is the probability an access targets the warp's private hot
	// set (L1-resident reuse).
	Locality float64
	// HotLines is the warp-private hot-set size in cache lines.
	HotLines int
	// L2Frac is the probability a non-local access falls in the shared
	// L2-resident region rather than the large streaming region.
	L2Frac float64
	// SharedLines is the shared region size in lines (across all MCs).
	SharedLines int
	// StreamLines is the streaming region size in lines; warps walk it
	// with a per-warp cursor, so it is effectively DRAM-bound when large.
	StreamLines uint64
}

// Validate checks the kernel parameters.
func (k Kernel) Validate() error {
	if k.Name == "" {
		return fmt.Errorf("trace: kernel without a name")
	}
	if k.WarpsPerCore <= 0 {
		return fmt.Errorf("trace: %s: WarpsPerCore must be positive", k.Name)
	}
	// Cap occupancy: the generator allocates per-warp state, so an absurd
	// value must fail validation instead of exhausting memory.
	const maxWarpsPerCore = 4096
	if k.WarpsPerCore > maxWarpsPerCore {
		return fmt.Errorf("trace: %s: WarpsPerCore %d exceeds %d", k.Name, k.WarpsPerCore, maxWarpsPerCore)
	}
	// Reject non-finite parameters explicitly: NaN compares false against
	// every bound, so it would slip through the range checks below.
	for _, f := range [...]float64{k.ComputePerMem, k.ReadFrac, k.CoalesceMean, k.Locality, k.L2Frac} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("trace: %s: non-finite parameter", k.Name)
		}
	}
	// Cap the geometric means: beyond this the sampler's float->int
	// conversions stop being meaningful (and no workload needs them).
	const maxMeanParam = 1e9
	if k.ComputePerMem < 0 || k.ComputePerMem > maxMeanParam ||
		k.ReadFrac < 0 || k.ReadFrac > 1 ||
		k.CoalesceMean < 0 || k.CoalesceMean > maxMeanParam ||
		k.Locality < 0 || k.Locality > 1 || k.L2Frac < 0 || k.L2Frac > 1 {
		return fmt.Errorf("trace: %s: parameter out of range", k.Name)
	}
	if k.HotLines <= 0 || k.SharedLines <= 0 || k.StreamLines == 0 {
		return fmt.Errorf("trace: %s: region sizes must be positive", k.Name)
	}
	return nil
}

// Region base addresses, line-aligned and far apart so regions never alias.
const (
	lineBytes  = 128
	hotBase    = uint64(0x10_0000_0000)
	sharedBase = uint64(0x20_0000_0000)
	streamBase = uint64(0x30_0000_0000)
)

// warpGen is the per-warp stream state.
type warpGen struct {
	rng     *rng.Source
	cursor  uint64
	hotOff  uint64 // this warp's hot-set base offset in lines
	started bool
}

// Generator implements gpu.Workload for one kernel on a given core count.
type Generator struct {
	k     Kernel
	warps []warpGen // [core*warpsPerCore + warp]
	wpc   int
	// compute and extra are the kernel's fixed geometric draws: the
	// compute-segment length (mean ComputePerMem) and the extra coalesced
	// transactions of a divergent access (mean CoalesceMean-1).
	compute, extra rng.Geom
}

// NewGenerator builds the deterministic stream generator for kernel k over
// `cores` cores, seeded by seed.
func NewGenerator(k Kernel, cores int, seed uint64) (*Generator, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	if cores <= 0 {
		return nil, fmt.Errorf("trace: cores must be positive")
	}
	root := rng.New(seed ^ hashName(k.Name))
	g := &Generator{
		k:       k,
		wpc:     k.WarpsPerCore,
		compute: rng.NewGeom(k.ComputePerMem),
		extra:   rng.NewGeom(k.CoalesceMean - 1),
	}
	g.warps = make([]warpGen, cores*k.WarpsPerCore)
	for i := range g.warps {
		w := &g.warps[i]
		w.rng = root.Split(uint64(i) + 1)
		// The hot set is shared by a core's warps (inter-warp reuse), so a
		// kernel with HotLines within the L1 capacity is L1-friendly.
		w.hotOff = uint64(i/k.WarpsPerCore) * uint64(k.HotLines)
		// Stagger streaming cursors so warps do not trivially share lines.
		w.cursor = (uint64(i) * 7919) % k.StreamLines
	}
	return g, nil
}

// Kernel returns the kernel parameters.
func (g *Generator) Kernel() Kernel { return g.k }

func hashName(s string) uint64 {
	var h uint64 = 1469598103934665603 // FNV-1a
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func (g *Generator) warp(core, warp int) *warpGen {
	return &g.warps[core*g.wpc+warp]
}

// NextCompute returns the next compute-segment length for (core, warp).
func (g *Generator) NextCompute(core, warp int) int {
	w := g.warp(core, warp)
	return w.rng.Sample(g.compute)
}

// NextMem generates the next memory instruction for (core, warp).
func (g *Generator) NextMem(core, warp int, scratch []uint64) (write bool, addrs []uint64) {
	w := g.warp(core, warp)
	write = !w.rng.Bool(g.k.ReadFrac)

	n := 1
	if g.k.CoalesceMean > 1 {
		n = 1 + w.rng.Sample(g.extra)
		if n > 4 {
			n = 4
		}
	}
	base := g.nextAddr(w)
	addrs = append(scratch, base)
	for i := 1; i < n; i++ {
		// Divergent transactions touch adjacent lines: distinct packets to
		// (generally) the same or neighbouring MCs.
		addrs = append(addrs, base+uint64(i)*lineBytes)
	}
	return write, addrs
}

// nextAddr draws one line address from the kernel's region mix.
func (g *Generator) nextAddr(w *warpGen) uint64 {
	r := w.rng
	switch {
	case r.Bool(g.k.Locality):
		line := w.hotOff + uint64(r.Intn(g.k.HotLines))
		return hotBase + line*lineBytes
	case r.Bool(g.k.L2Frac):
		line := uint64(r.Intn(g.k.SharedLines))
		return sharedBase + line*lineBytes
	default:
		w.cursor = (w.cursor + 1) % g.k.StreamLines
		return streamBase + w.cursor*lineBytes
	}
}
