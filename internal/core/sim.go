package core

import (
	"encoding/json"
	"fmt"

	"repro/internal/fault"
	"repro/internal/gpu"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/par"
	"repro/internal/timing"
	"repro/internal/trace"
)

// resettableFabric is a Fabric whose measurement counters can be cleared at
// the warmup boundary (both the mesh network and the DA2mesh overlay are).
type resettableFabric interface {
	noc.Fabric
	ResetStats()
}

// Simulator is one full-system instance: a kernel running on every compute
// node, request and reply networks, and the MC nodes.
type Simulator struct {
	cfg      Config
	kernel   trace.Kernel
	workload trace.Workload

	mesh      noc.Mesh
	mcNodes   []int
	ccNodes   []int
	mcIndexOf map[int]int

	reqNet *noc.Network
	repNet resettableFabric

	cores []*gpu.Core
	mcs   []*mem.Controller

	// reqFault/repFault drive the deterministic fault schedules when
	// Config.Fault is enabled (mesh fabrics only).
	reqFault *fault.Injector
	repFault *fault.Injector

	coreClock *timing.Clock
	memClock  *timing.Clock
	cycle     int64
	measuring bool
	// measuredCycles is the realised measurement window (fixed for Run,
	// variable for RunWork).
	measuredCycles int64

	// coreCyclesMeasured counts core-clock ticks during measurement.
	coreCyclesMeasured uint64

	// sampler, when installed, runs every sampleEvery NoC cycles at the end
	// of Step (observability hook: a metrics registry's Sample). The
	// disabled-path cost is one comparison per Step.
	sampler     func(cycle int64)
	sampleEvery int64

	// Sharded stepping (Config.Shards > 1): both mesh networks and the node
	// logic are partitioned by the same noc.ShardRanges row blocks and
	// stepped on one shared worker pool, byte-identical to serial stepping.
	shards     int
	pool       *par.Pool
	nodeShards []nodeShard
	nodeStepFn func(int)
	// parallelNodes gates the node-logic fan-out on the workload supporting
	// concurrent per-core calls (trace.ConcurrentWorkload); when false the
	// networks still step sharded but node ticks stay on the caller.
	parallelNodes bool
	// tickCoreTicks/tickMemTicks pass the per-Step clock ticks into the
	// prebuilt nodeStepFn without a per-cycle closure allocation.
	tickCoreTicks int
	tickMemTicks  int
}

// nodeShard groups the cores and MCs whose nodes fall in one mesh shard's
// row block, so node logic and its NIs are always ticked by the same worker.
type nodeShard struct {
	cores []*gpu.Core
	mcs   []*mem.Controller
}

// NewSimulator assembles a simulator for kernel k under cfg, generating
// the workload streams synthetically from k's parameters.
func NewSimulator(cfg Config, k trace.Kernel) (*Simulator, error) {
	return NewSimulatorWorkload(cfg, k, nil)
}

// NewSimulatorWorkload assembles a simulator that drives the cores with an
// explicit workload (e.g. a trace.Replayer over a recorded trace, or a
// trace.Recorder teeing the synthetic streams to disk). k still supplies
// the occupancy (WarpsPerCore) and labels; when w is nil the synthetic
// generator for k is used.
func NewSimulatorWorkload(cfg Config, k trace.Kernel, w trace.Workload) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := k.Validate(); err != nil {
		return nil, err
	}
	s := &Simulator{
		cfg:       cfg,
		kernel:    k,
		workload:  w,
		mesh:      noc.Mesh{Width: cfg.MeshWidth, Height: cfg.MeshHeight},
		mcIndexOf: make(map[int]int),
		coreClock: timing.NewClock(cfg.CoreClockNum, cfg.CoreClockDen),
		memClock:  timing.NewClock(cfg.MemClockNum, cfg.MemClockDen),
	}

	if cfg.EdgeMCPlacement {
		s.mcNodes = noc.EdgeMCPlacement(s.mesh, cfg.NumMC)
	} else {
		s.mcNodes = noc.DiamondMCPlacement(s.mesh, cfg.NumMC)
	}
	isMC := make(map[int]bool, len(s.mcNodes))
	for i, n := range s.mcNodes {
		isMC[n] = true
		s.mcIndexOf[n] = i
	}
	for n := 0; n < s.mesh.Nodes(); n++ {
		if !isMC[n] {
			s.ccNodes = append(s.ccNodes, n)
		}
	}

	if err := s.buildNetworks(); err != nil {
		return nil, err
	}
	if err := s.buildNodes(); err != nil {
		return nil, err
	}
	if err := s.buildFaultInjectors(); err != nil {
		return nil, err
	}
	if err := s.setupShards(); err != nil {
		return nil, err
	}
	return s, nil
}

// setupShards enables deterministic intra-run parallelism when
// Config.Shards asks for it: one worker pool shared by both mesh networks
// and (when the workload allows it) the node-logic fan-out, all partitioned
// by the same row blocks. Non-mesh reply fabrics (ideal, DA2mesh) keep
// stepping serially on the caller — only the meshes shard.
func (s *Simulator) setupShards() error {
	s.shards = noc.EffectiveShards(s.mesh, s.cfg.Shards)
	if s.shards <= 1 {
		s.shards = 1
		return nil
	}
	s.pool = par.New(s.shards)
	if _, err := s.reqNet.SetShards(s.shards, s.pool); err != nil {
		return fmt.Errorf("core: sharding request network: %w", err)
	}
	if rep, ok := s.repNet.(*noc.Network); ok {
		if _, err := rep.SetShards(s.shards, s.pool); err != nil {
			return fmt.Errorf("core: sharding reply network: %w", err)
		}
	}
	ranges := noc.ShardRanges(s.mesh, s.shards)
	s.nodeShards = make([]nodeShard, len(ranges))
	for _, c := range s.cores {
		for i, rg := range ranges {
			if c.Node >= rg[0] && c.Node < rg[1] {
				s.nodeShards[i].cores = append(s.nodeShards[i].cores, c)
				break
			}
		}
	}
	for _, mc := range s.mcs {
		for i, rg := range ranges {
			if mc.Node >= rg[0] && mc.Node < rg[1] {
				s.nodeShards[i].mcs = append(s.nodeShards[i].mcs, mc)
				break
			}
		}
	}
	if cw, ok := s.workload.(trace.ConcurrentWorkload); ok {
		s.parallelNodes = cw.ConcurrentByCore()
	}
	s.nodeStepFn = func(i int) { s.stepNodeShard(i) }
	return nil
}

// stepNodeShard runs one shard's core and MC ticks for the current cycle
// (the parallel half of Step's node phase).
func (s *Simulator) stepNodeShard(i int) {
	ns := &s.nodeShards[i]
	for t := 0; t < s.tickCoreTicks; t++ {
		for _, c := range ns.cores {
			c.Tick()
		}
	}
	for _, mc := range ns.mcs {
		if s.cfg.ScanStep || !mc.Quiescent() {
			mc.Tick(s.cycle, s.tickMemTicks)
		} else {
			mc.SkipIdle(s.tickMemTicks)
		}
	}
}

// Shards returns the effective shard count (1 when stepping serially).
func (s *Simulator) Shards() int { return s.shards }

// RecoveryStats returns the fault-recovery protocol counters summed over the
// request network and, when it is a mesh, the reply network. Zero when
// recovery is disabled (Config.RetransBufPkts 0 and no corrupting faults).
func (s *Simulator) RecoveryStats() noc.RecoveryStats {
	var agg noc.RecoveryStats
	add := func(r noc.RecoveryStats) {
		agg.CorruptFlits += r.CorruptFlits
		agg.CorruptPackets += r.CorruptPackets
		agg.NacksSent += r.NacksSent
		agg.AcksSent += r.AcksSent
		agg.RetransPackets += r.RetransPackets
		agg.RetransFlits += r.RetransFlits
		agg.RetransBufFullRejects += r.RetransBufFullRejects
		agg.DeadLinks += r.DeadLinks
	}
	add(s.reqNet.RecoveryStats())
	if rep, ok := s.repNet.(*noc.Network); ok {
		add(rep.RecoveryStats())
	}
	return agg
}

// Close releases the worker pool behind sharded stepping and hands the
// networks' buffers and the caches' line storage back for reuse by the next
// simulator built in this process. It is idempotent; the simulator must not
// be stepped or inspected afterwards.
func (s *Simulator) Close() {
	if s.pool != nil {
		s.pool.Close()
		s.pool = nil
	}
	s.reqNet.Close()
	if rep, ok := s.repNet.(*noc.Network); ok {
		rep.Close()
	}
	for _, c := range s.cores {
		c.L1().Release()
	}
	for _, mc := range s.mcs {
		mc.L2().Release()
	}
}

// buildFaultInjectors attaches the deterministic fault schedules when
// Config.Fault is enabled. Faults apply to mesh networks only: the DA2mesh
// overlay and the ideal fabric are behavioural models without per-link
// state, so the reply side is skipped for those schemes.
func (s *Simulator) buildFaultInjectors() error {
	if !s.cfg.Fault.Enabled {
		return nil
	}
	fcfg := s.cfg.Fault
	if fcfg.Seed == 0 {
		fcfg.Seed = s.cfg.Seed
	}
	var err error
	if s.reqFault, err = fault.NewInjector(fcfg, s.reqNet, 1); err != nil {
		return fmt.Errorf("core: request fault injector: %w", err)
	}
	if rep, ok := s.repNet.(*noc.Network); ok {
		if s.repFault, err = fault.NewInjector(fcfg, rep, 2); err != nil {
			return fmt.Errorf("core: reply fault injector: %w", err)
		}
	}
	return nil
}

// buildNetworks wires the request mesh and the scheme's reply fabric.
func (s *Simulator) buildNetworks() error {
	cfg := s.cfg
	routing := cfg.Scheme.Routing()

	// Recovery protocol sizing: corruption without a retransmission buffer
	// would mean silently wrong deliveries, so a corrupting fault schedule
	// turns recovery on by default (Config.RetransBufPkts documents this).
	retrans := cfg.RetransBufPkts
	if retrans == 0 && cfg.Fault.Enabled && cfg.Fault.CorruptProb > 0 {
		retrans = 8
	}

	// Request network: never modified by any scheme (§4.2, §6.1).
	reqCfg := noc.Config{
		Mesh:           s.mesh,
		VCs:            cfg.VCs,
		LinkBits:       cfg.ReqLinkBits,
		DataBytes:      cfg.DataBytes,
		Routing:        routing,
		NonAtomicVC:    true,
		EjectRate:      cfg.EjectRate,
		RetransBufPkts: retrans,
		ScanStep:       cfg.ScanStep,
		CheckEvery:     cfg.NoCCheckEvery,
	}
	reqNet, err := noc.NewNetwork(reqCfg)
	if err != nil {
		return fmt.Errorf("core: request network: %w", err)
	}
	s.reqNet = reqNet

	// Reply network: per-MC-node injection architecture by scheme.
	repCfg := noc.Config{
		Mesh:           s.mesh,
		VCs:            cfg.VCs,
		LinkBits:       cfg.RepLinkBits,
		DataBytes:      cfg.DataBytes,
		Routing:        routing,
		NonAtomicVC:    true,
		NIQueueFlits:   cfg.NIQueueFlits,
		EjectRate:      cfg.EjectRate,
		RetransBufPkts: retrans,
		ScanStep:       cfg.ScanStep,
		CheckEvery:     cfg.NoCCheckEvery,
	}
	if cfg.Scheme.hasPriority() {
		repCfg.PriorityLevels = cfg.PriorityLevels
		repCfg.StarvationLimit = cfg.StarvationLimit
	}
	nodes := make([]noc.NodeConfig, s.mesh.Nodes())
	speedup := cfg.InjSpeedup
	if speedup <= 0 {
		speedup = 4
	}
	for _, n := range s.mcNodes {
		nc := &nodes[n]
		if cfg.Scheme.hasSplitNI() {
			nc.NI = noc.NISplit
		}
		if cfg.Scheme.hasSpeedup() {
			nc.InjSpeedup = speedup
		}
		if cfg.Scheme.isMultiPort() {
			nc.NI = noc.NIMultiPort
			nc.InjPorts = cfg.MultiPortPorts
		}
		if cfg.UnenhancedBaseline && nc.NI == noc.NIBaseline {
			nc.NI = noc.NINarrowLink
		}
	}
	repCfg.Nodes = nodes

	switch {
	case cfg.IdealReply:
		// The ideal fabric and the DA2mesh overlay never see corruption
		// (fault injectors attach to mesh Networks only), so the recovery
		// layer would only perturb their timing — leave it off.
		repCfg.RetransBufPkts = 0
		rep, err := noc.NewIdealFabric(repCfg)
		if err != nil {
			return fmt.Errorf("core: ideal reply fabric: %w", err)
		}
		s.repNet = rep
	case cfg.Scheme.usesOverlay():
		repCfg.RetransBufPkts = 0
		rep, err := noc.NewDA2Mesh(repCfg)
		if err != nil {
			return fmt.Errorf("core: reply overlay: %w", err)
		}
		s.repNet = rep
	default:
		rep, err := noc.NewNetwork(repCfg)
		if err != nil {
			return fmt.Errorf("core: reply network: %w", err)
		}
		for _, n := range s.mcNodes {
			rep.MarkMCRouter(n)
		}
		s.repNet = rep
	}
	return nil
}

// buildNodes constructs the cores and memory controllers and installs the
// traffic hooks.
func (s *Simulator) buildNodes() error {
	cfg := s.cfg

	coreCfg := cfg.Core
	coreCfg.WarpsPerCore = s.kernel.WarpsPerCore
	coreCfg.ScanTick = cfg.ScanStep
	workload := s.workload
	if workload == nil {
		gen, err := trace.NewGenerator(s.kernel, len(s.ccNodes), cfg.Seed)
		if err != nil {
			return err
		}
		workload = gen
		s.workload = gen // setupShards checks it for per-core concurrency
	}

	s.cores = make([]*gpu.Core, len(s.ccNodes))
	for i, node := range s.ccNodes {
		idx, nd := i, node
		send := func(txn *mem.Transaction) bool { return s.sendRequest(nd, txn) }
		c, err := gpu.NewCore(idx, nd, coreCfg, workload, send)
		if err != nil {
			return err
		}
		s.cores[i] = c
	}

	s.mcs = make([]*mem.Controller, len(s.mcNodes))
	for i, node := range s.mcNodes {
		mc, err := mem.NewController(node, cfg.MC, s.repNet, cfg.RepLinkBits, cfg.DataBytes)
		if err != nil {
			return err
		}
		s.mcs[i] = mc
	}

	// Request network delivers to MCs, gated by their ingress space. The MC
	// extracts the transaction, so the packet shell recycles immediately.
	s.reqNet.SetEjectHandler(func(node int, pkt *noc.Packet, now int64) {
		s.mcs[s.mcIndexOf[node]].Receive(pkt)
		s.reqNet.PutPacket(pkt)
	})
	s.reqNet.SetSinkGate(func(node int) bool {
		i, ok := s.mcIndexOf[node]
		if !ok {
			return true
		}
		return s.mcs[i].CanReceive()
	})

	// Reply fabric delivers to cores.
	coreAt := make(map[int]*gpu.Core, len(s.cores))
	for _, c := range s.cores {
		coreAt[c.Node] = c
	}
	s.repNet.SetEjectHandler(func(node int, pkt *noc.Packet, now int64) {
		txn, ok := pkt.Payload.(*mem.Transaction)
		if !ok {
			panic("core: reply packet without Transaction payload")
		}
		if c := coreAt[node]; c != nil {
			c.ReceiveReply(txn)
		}
		s.repNet.PutPacket(pkt)
	})
	return nil
}

// mcNodeFor maps a line address to its owning MC node (line interleaving
// across MCs).
func (s *Simulator) mcNodeFor(addr uint64) int {
	line := addr / uint64(s.cfg.DataBytes)
	return s.mcNodes[int(line%uint64(len(s.mcNodes)))]
}

// sendRequest builds and injects a request packet from a core's node.
func (s *Simulator) sendRequest(node int, txn *mem.Transaction) bool {
	typ := noc.ReadRequest
	if txn.IsWrite {
		typ = noc.WriteRequest
	}
	pkt := s.reqNet.GetPacket()
	pkt.Type = typ
	pkt.Dst = s.mcNodeFor(txn.Addr)
	pkt.Size = noc.PacketSize(typ, s.cfg.ReqLinkBits, s.cfg.DataBytes)
	pkt.Payload = txn
	if !s.reqNet.Inject(node, pkt) {
		s.reqNet.PutPacket(pkt)
		return false
	}
	return true
}

// Step advances the whole system by one NoC cycle.
func (s *Simulator) Step() {
	coreTicks := s.coreClock.Tick()
	memTicks := s.memClock.Tick()
	if s.parallelNodes {
		// Fan the node phase out over the mesh shards: cores and MCs only
		// interact through the networks (requests and replies hand over
		// inside the networks' Step, not here), so per-shard tick order is
		// free to differ from the serial (tick, node) order.
		s.tickCoreTicks, s.tickMemTicks = coreTicks, memTicks
		s.pool.Run(len(s.nodeShards), s.nodeStepFn)
	} else {
		for t := 0; t < coreTicks; t++ {
			for _, c := range s.cores {
				c.Tick()
			}
		}
		for _, mc := range s.mcs {
			if s.cfg.ScanStep || !mc.Quiescent() {
				mc.Tick(s.cycle, memTicks)
			} else {
				// A quiescent MC's Tick only advances the DRAM clock; skip
				// the rest of the pipeline walk but keep that clock aligned.
				mc.SkipIdle(memTicks)
			}
		}
	}
	if s.measuring {
		s.coreCyclesMeasured += uint64(coreTicks)
	}
	if s.reqFault != nil {
		s.reqFault.Step(s.cycle)
	}
	s.reqNet.Step()
	if s.repFault != nil {
		s.repFault.Step(s.cycle)
	}
	s.repNet.Step()
	s.cycle++
	if s.sampleEvery > 0 && s.cycle%s.sampleEvery == 0 {
		s.sampler(s.cycle)
	}
}

// SetSampler installs fn to run every `every` NoC cycles at the end of Step
// (every <= 0 or a nil fn disables sampling). The hook observes only: it
// must not mutate simulator state, so an instrumented run stays
// bit-identical to an uninstrumented one.
func (s *Simulator) SetSampler(every int64, fn func(cycle int64)) {
	if fn == nil || every <= 0 {
		s.sampler, s.sampleEvery = nil, 0
		return
	}
	s.sampler, s.sampleEvery = fn, every
}

// Cycle returns the current NoC cycle.
func (s *Simulator) Cycle() int64 { return s.cycle }

// Cores exposes the compute nodes.
func (s *Simulator) Cores() []*gpu.Core { return s.cores }

// MCs exposes the memory controllers.
func (s *Simulator) MCs() []*mem.Controller { return s.mcs }

// RequestNet exposes the request network.
func (s *Simulator) RequestNet() *noc.Network { return s.reqNet }

// ReplyNet exposes the reply fabric.
func (s *Simulator) ReplyNet() noc.Fabric { return s.repNet }

// MCNodes returns the MC node ids.
func (s *Simulator) MCNodes() []int { return s.mcNodes }

// StateDumpJSON returns a JSON diagnostic of both fabrics' non-quiescent
// state (the structured form of the watchdog's text dump). Like DumpState
// it only reads, but it must run on the goroutine stepping the simulator —
// the watchdog poll services Inspector state requests for exactly that
// reason.
func (s *Simulator) StateDumpJSON() []byte {
	type dump struct {
		Cycle       int64          `json:"cycle"`
		Benchmark   string         `json:"benchmark"`
		Scheme      string         `json:"scheme"`
		Request     *noc.StateDump `json:"request"`
		Reply       *noc.StateDump `json:"reply,omitempty"`
		RepInFlight int            `json:"reply_in_flight"`
	}
	d := dump{
		Cycle:       s.cycle,
		Benchmark:   s.kernel.Name,
		Scheme:      s.cfg.Scheme.String(),
		RepInFlight: s.repNet.InFlight(),
	}
	req := s.reqNet.StateSnapshot()
	d.Request = &req
	if rep, ok := s.repNet.(*noc.Network); ok {
		rd := rep.StateSnapshot()
		d.Reply = &rd
	}
	b, err := json.Marshal(d)
	if err != nil {
		// The dump types contain only marshallable fields; a failure here is
		// a programming error worth surfacing in the payload, not a panic in
		// a diagnostics path.
		return []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
	}
	return b
}

// resetStats clears all measurement counters at the warmup boundary.
func (s *Simulator) resetStats() {
	for _, c := range s.cores {
		c.ResetStats()
	}
	for _, mc := range s.mcs {
		mc.StallTime = 0
		mc.BlockedCycle = 0
		mc.RepliesSent = 0
	}
	s.reqNet.ResetStats()
	s.repNet.ResetStats()
	s.coreCyclesMeasured = 0
}

// Run executes warmup + a fixed-horizon measurement window and returns the
// collected result. It never fails: all watchdogs are disabled, so a
// deadlocked simulation spins forever — use RunChecked anywhere a hang is
// unacceptable (the experiment harness always does).
func (s *Simulator) Run() Result {
	r, _ := s.RunChecked(uncheckedOptions())
	return r
}

// RunChecked is Run with forward-progress watchdogs: it detects deadlock
// (flits in flight, zero movement for CheckOptions.DeadlockCycles) and
// livelock/starvation (a packet older than CheckOptions.PacketAgeCap) and
// fails with a structured *WatchdogError carrying a full diagnostic dump
// instead of spinning. A healthy simulation produces a Result bit-identical
// to Run's: the watchdog only reads.
func (s *Simulator) RunChecked(opt CheckOptions) (Result, error) {
	w := newWatchdog(s, opt)
	for s.cycle < s.cfg.WarmupCycles {
		s.Step()
		if err := w.poll(); err != nil {
			return Result{}, err
		}
	}
	s.resetStats()
	s.measuring = true
	end := s.cfg.WarmupCycles + s.cfg.MeasureCycles
	for s.cycle < end {
		s.Step()
		if err := w.poll(); err != nil {
			return Result{}, err
		}
	}
	s.measuring = false
	s.measuredCycles = s.cfg.MeasureCycles
	return s.collect(), nil
}

// RunWork executes warmup, then measures until the cores have retired
// `instructions` warp-instructions in total (fixed-work mode: the basis the
// paper's execution-time and energy comparisons use), bounded by maxCycles
// as a runaway guard. The result's MeasuredCycles reflects the actual
// window, so lower is faster for the same work; Result.Truncated reports
// whether the guard clipped the run before the work completed. Watchdogs
// are disabled — see RunWorkChecked.
func (s *Simulator) RunWork(instructions uint64, maxCycles int64) Result {
	r, _ := s.RunWorkChecked(instructions, maxCycles, uncheckedOptions())
	return r
}

// RunWorkChecked is RunWork with the forward-progress watchdogs of
// RunChecked. A run clipped by maxCycles is not an error — the Result comes
// back with Truncated set so callers can decide.
func (s *Simulator) RunWorkChecked(instructions uint64, maxCycles int64, opt CheckOptions) (Result, error) {
	w := newWatchdog(s, opt)
	for s.cycle < s.cfg.WarmupCycles {
		s.Step()
		if err := w.poll(); err != nil {
			return Result{}, err
		}
	}
	s.resetStats()
	s.measuring = true
	start := s.cycle
	truncated := false
	for {
		var done uint64
		for _, c := range s.cores {
			done += c.Instructions
		}
		if done >= instructions {
			break
		}
		if s.cycle-start >= maxCycles {
			truncated = true
			break
		}
		s.Step()
		if err := w.poll(); err != nil {
			return Result{}, err
		}
	}
	s.measuring = false
	s.measuredCycles = s.cycle - start
	r := s.collect()
	r.Truncated = truncated
	return r, nil
}
