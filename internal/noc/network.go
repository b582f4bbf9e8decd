package noc

import (
	"fmt"
	"sync"

	"repro/internal/par"
	"repro/internal/stats"
)

// statsTimeWeightedAt restarts an NI occupancy tracker mid-run.
func statsTimeWeightedAt(level float64, now int64) stats.TimeWeighted {
	return stats.NewTimeWeightedAt(level, now)
}

// Fabric is the interface between node logic and an interconnect; the mesh
// Network and the DA2mesh overlay both implement it.
type Fabric interface {
	// CanInject reports whether Inject(node, pkt) would succeed this cycle.
	CanInject(node int, pkt *Packet) bool
	// Inject hands a whole packet to node's NI; false means the node must
	// stall and retry.
	Inject(node int, pkt *Packet) bool
	// Step advances the fabric by one NoC cycle.
	Step()
	// Now returns the fabric's current cycle.
	Now() int64
	// SetEjectHandler installs the packet-delivery callback.
	SetEjectHandler(h func(node int, pkt *Packet, now int64))
	// InFlight returns packets accepted but not yet delivered.
	InFlight() int
	// Stats returns the fabric's statistics (finalised occupancy included).
	Stats() *NetStats
	// GetPacket returns a zeroed Packet from the fabric's freelist. Callers
	// that do not manage packet lifetimes may ignore it and allocate
	// Packets directly; the freelist is an optimisation, not a requirement.
	GetPacket() *Packet
	// PutPacket releases a packet to the freelist. Only call it for packets
	// obtained from GetPacket, and only once no reference remains (after
	// the ejection callback returned, or after Inject rejected it).
	PutPacket(*Packet)
}

// Network is a cycle-accurate 2D-mesh NoC.
type Network struct {
	cfg      Config
	routers  []*router
	ejectors []*ejector
	nis      []*NI

	now      int64
	inFlight int
	stats    NetStats
	// recovery holds the fault-recovery protocol counters (recovery.go);
	// kept off NetStats so encoded Results stay byte-identical to
	// pre-recovery goldens. Never reset — consumers take deltas.
	recovery RecoveryStats
	// ctlPending counts ACK/NACK sideband signals issued but not yet
	// consumed; it keeps Step and Idle honest after the last flit drains
	// while acknowledgements are still propagating.
	ctlPending int
	// ftable is the fault-adaptive up*/down* next-hop table, non-nil once
	// any mesh link is permanently dead; it then supersedes the configured
	// routing algorithm entirely (ftable.go). Rebuilt on every kill,
	// read-only during stepping.
	ftable       []uint8
	ejectHandler func(node int, pkt *Packet, now int64)
	// sinkGate, when set, lets a node refuse ejection this cycle (e.g. a
	// memory controller whose request ingress is full); the refusal backs
	// flits up into the network — the §3 backpressure chain.
	sinkGate func(node int) bool

	// injWindow tracks packets injected in the current 100-cycle window,
	// to expose the peak packet injection rate used by eq. (1)'s speedup
	// sizing (§4.2).
	injWindowCount uint32
	injWindowStart int64
	InjWindows     []uint32

	// scan selects the scan-everything reference loop (Config.ScanStep);
	// the default is event-driven stepping over the active components.
	scan   bool
	pool   pktPool
	poolMu sync.Mutex
	// store backs the routers', ejectors' and NIs' buffers (store.go);
	// Close hands it back for reuse.
	store *netStore

	// Sharded stepping (see shard.go): the mesh is always partitioned —
	// into one shard by default, so serial and parallel stepping share one
	// code path — and stepPool fans the shards out when there are several.
	shards      []*netShard
	sharded     bool
	stepPool    *par.Pool
	ownPool     *par.Pool
	shardStepFn func(int)
	commitFn    func(int)

	// tracer receives lifecycle events for every traceEvery-th packet (see
	// SetTracer); nil disables tracing at the cost of a nil check on
	// head-flit events.
	tracer     Tracer
	traceEvery uint64
	// vaGrants counts successful VC allocations. It lives here rather than
	// in NetStats so encoded Results (which embed NetStats) stay
	// byte-identical to pre-observability golden files.
	vaGrants uint64
}

var _ Fabric = (*Network)(nil)

// NewNetwork builds a network from cfg (validated first).
func NewNetwork(cfg Config) (*Network, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	n := &Network{cfg: cfg, scan: cfg.ScanStep}
	n.store = getStore(&cfg)
	nodes := cfg.Mesh.Nodes()
	n.routers = make([]*router, nodes)
	n.ejectors = make([]*ejector, nodes)
	n.nis = make([]*NI, nodes)
	for id := 0; id < nodes; id++ {
		n.routers[id] = newRouter(n, id)
	}
	// Wire mesh links and local ports.
	meshLinks := 0
	for id, r := range n.routers {
		for d := Direction(0); d < Direction(NumDirections); d++ {
			nb := cfg.Mesh.Neighbor(id, d)
			if nb < 0 {
				continue
			}
			// Output port d of this router feeds input port opposite(d) of
			// the neighbour.
			dst := n.routers[nb].in[int(d.opposite())]
			r.out[int(d)].destPort = dst
			r.out[int(d)].freeVCs = maskAll(cfg.VCs)
			dst.upstream = r.out[int(d)]
			meshLinks++
		}
		e := newEjector(n, id, r.out[ejectPortIndex])
		r.out[ejectPortIndex].eject = e
		r.out[ejectPortIndex].freeVCs = maskAll(cfg.VCs)
		n.ejectors[id] = e
		n.nis[id] = newNI(n, id, r)
	}
	n.stats.MeshLinks = meshLinks
	injLinks := 0
	for _, ni := range n.nis {
		if ni.mode == NISplit {
			injLinks += cfg.VCs
		} else {
			injLinks += len(ni.ports)
		}
	}
	n.stats.InjLinks = injLinks
	n.buildShards(1)
	return n, nil
}

// Config returns the validated configuration.
func (n *Network) Config() Config { return n.cfg }

// Now returns the current cycle.
func (n *Network) Now() int64 { return n.now }

// SetEjectHandler installs the packet-delivery callback.
func (n *Network) SetEjectHandler(h func(node int, pkt *Packet, now int64)) {
	n.ejectHandler = h
}

// MarkMCRouter tags a node's router as an MC-router (stats/diagnostics).
func (n *Network) MarkMCRouter(node int) { n.routers[node].isMC = true }

// SetSinkGate installs the per-node ejection readiness check.
func (n *Network) SetSinkGate(g func(node int) bool) { n.sinkGate = g }

// ResetStats clears measurement counters (end of warmup) while preserving
// structural fields and all in-flight state.
func (n *Network) ResetStats() {
	n.fold() // flush shard deltas so none survive the reset
	meshLinks, injLinks := n.stats.MeshLinks, n.stats.InjLinks
	n.stats = NetStats{MeshLinks: meshLinks, InjLinks: injLinks}
	n.InjWindows = n.InjWindows[:0]
	n.injWindowCount = 0
	n.injWindowStart = n.now
	for _, ni := range n.nis {
		ni.occupancy = statsTimeWeightedAt(float64(ni.queuedFlits()), n.now)
		ni.everHeld = ni.queuedFlits() > 0
		ni.rejectedOfferEvents = 0
		ni.injectedFlits = 0
	}
	for _, r := range n.routers {
		for _, op := range r.out {
			op.flits = 0
		}
	}
}

// CanInject reports whether node's NI can accept pkt this cycle.
func (n *Network) CanInject(node int, pkt *Packet) bool {
	return n.nis[node].CanAccept(pkt, n.now)
}

// Inject hands pkt to node's NI. pkt.Size must already be set (use
// PacketSize); pkt.Src is overwritten with node.
func (n *Network) Inject(node int, pkt *Packet) bool {
	if pkt.Size <= 0 {
		panic("noc: packet has no size; use PacketSize")
	}
	if pkt.Dst < 0 || pkt.Dst >= n.cfg.Mesh.Nodes() {
		panic(fmt.Sprintf("noc: destination %d out of range", pkt.Dst))
	}
	pkt.Src = node
	// Inject is called from node logic, which sharded simulations fan out
	// over the same spatial partition as the mesh — so everything below
	// (the NI and its shard's counters) is only touched by node's shard.
	sh := n.nis[node].sh
	if pkt.ID == 0 {
		pkt.ID = sh.ctr.pktIDNext
		sh.ctr.pktIDNext += sh.ctr.pktIDStride
	}
	ok := n.nis[node].Offer(pkt, n.now)
	if ok {
		sh.ctr.injWindow++
	}
	return ok
}

// Step advances the network one cycle: arrivals/credits land, NIs supply
// flits, routers run RC/VA/SA/ST, ejectors drain. The default stepping is
// event-driven (only components holding flits are visited); Config.ScanStep
// selects the scan-everything reference loop. Both produce bit-identical
// simulations — see DESIGN.md §"Event-driven stepping" for the invariants
// that make the skip safe.
func (n *Network) Step() {
	// Fold injection-phase deltas first: the inFlight early-out below must
	// see packets node logic injected since the previous step.
	n.fold()
	if n.scan || n.inFlight > 0 || n.ctlPending > 0 {
		n.stepPool.Run(len(n.shards), n.shardStepFn)
		if n.sharded {
			n.commitShards()
		}
		if n.scan {
			for _, e := range n.ejectors {
				e.consume(n.now)
			}
		} else {
			// Dense sweep of the SoA ejector predicates: node order is
			// preserved because shards partition nodes into ascending
			// contiguous ranges.
			for _, s := range n.shards {
				for i, f := range s.ejectFlits {
					if f > 0 {
						s.ejectors[i].consume(n.now)
					}
				}
			}
		}
		n.fold()
	}
	if n.cfg.CheckEvery > 0 && n.now%n.cfg.CheckEvery == 0 {
		if err := n.CheckInvariants(); err != nil {
			panic(fmt.Sprintf("noc: invariant violated at cycle %d: %v", n.now, err))
		}
	}
	n.now++
	n.stats.Cycles++
	if n.now-n.injWindowStart >= 100 {
		n.InjWindows = append(n.InjWindows, n.injWindowCount)
		n.injWindowCount = 0
		n.injWindowStart = n.now
	}
}

// The per-component phases of a step live in netShard.step (shard.go): the
// serial loops this file used to hold are the one-shard special case of the
// sharded schedule, with the same phase order and the same event-driven
// activity predicates:
//
//   - a router with flits == 0 has nothing buffered or staged, so RC/VA/SA
//     are no-ops on it (vcWaitVC implies a buffered head flit, and the
//     round-robin arbiters advance only on grants); the per-cycle rrVA
//     rotation it would have performed is fast-forwarded on wake-up inside
//     vcAllocate, and credits staged toward it stay in creditIn until its
//     next applyArrivals — no decision can read them before then;
//   - an NI with no queued flits can neither supply a flit nor change its
//     time-weighted occupancy (the level is unchanged, and TimeWeighted.Set
//     is idempotent for unchanged levels);
//   - an ejector with no buffered or staged flits has nothing to drain.
//
// When no packet is in flight anywhere (InFlight == 0) the whole cycle is
// skipped: every counter above is provably zero. Ejection always runs
// serially in node order after the shards complete (see shard.go for why).

// GetPacket returns a zeroed Packet from the network's freelist. With
// sharded stepping the freelist is shared by every shard's node logic, so
// it locks; serial networks keep the lock-free path.
func (n *Network) GetPacket() *Packet {
	if n.sharded {
		n.poolMu.Lock()
		p := n.pool.get()
		n.poolMu.Unlock()
		return p
	}
	return n.pool.get()
}

// PutPacket releases a delivered or rejected packet to the freelist.
func (n *Network) PutPacket(p *Packet) {
	if n.sharded {
		n.poolMu.Lock()
		n.pool.put(p)
		n.poolMu.Unlock()
		return
	}
	n.pool.put(p)
}

// InFlight returns packets accepted but not yet delivered.
func (n *Network) InFlight() int {
	n.fold()
	return n.inFlight
}

// Idle reports whether no flit exists anywhere in the network and no
// recovery-protocol work (ACK/NACK signals, unacknowledged packets) remains.
func (n *Network) Idle() bool {
	n.fold()
	if n.inFlight != 0 || n.ctlPending != 0 {
		return false
	}
	for _, ni := range n.nis {
		if ni.pendingFlits() > 0 {
			return false
		}
	}
	return true
}

// Stats returns the network statistics.
func (n *Network) Stats() *NetStats {
	n.fold()
	return &n.stats
}

// VAGrants returns the cumulative count of successful VC allocations across
// all routers (observability; never reset, consumers take deltas).
func (n *Network) VAGrants() uint64 {
	n.fold()
	return n.vaGrants
}

// BufferedFlits returns the flits resident in routers (VC buffers plus
// staged arrivals): the instantaneous router occupancy of the fabric.
func (n *Network) BufferedFlits() int {
	total := 0
	for _, r := range n.routers {
		total += r.flitCount()
	}
	return total
}

// NIQueuedFlits returns the flits waiting in all NI injection queues.
func (n *Network) NIQueuedFlits() int {
	total := 0
	for _, ni := range n.nis {
		total += ni.queuedFlits()
	}
	return total
}

// VCOccupancy returns the flits buffered in input VC index v across every
// router and port: the per-VC occupancy breakdown of BufferedFlits (staged
// arrivals excluded — they have not landed in a VC yet). O(routers*ports);
// call it at sampling cadence, not per cycle.
func (n *Network) VCOccupancy(v int) int {
	if v < 0 || v >= n.cfg.VCs {
		return 0
	}
	total := 0
	for _, r := range n.routers {
		if r.flitCount() == 0 {
			continue
		}
		for _, ip := range r.in {
			total += ip.vcs[v].buf.len()
		}
	}
	return total
}

// NIOccupancyAvgFlits returns the mean time-weighted NI queue occupancy in
// flits over all NIs that injected traffic.
func (n *Network) NIOccupancyAvgFlits() float64 {
	var sum float64
	var cnt int
	for _, ni := range n.nis {
		if !ni.everHeld {
			continue
		}
		sum += ni.OccupancyAvg(n.now)
		cnt++
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}

// NIQueueCapacityFlits returns the configured NI capacity of node.
func (n *Network) NIQueueCapacityFlits(node int) int {
	return n.nis[node].QueueCapacityFlits()
}

// LinkLoad reports per-node, per-direction flit counts over the run: a
// utilisation heatmap of the mesh (the ejection "direction" is index 4).
// Divide by Stats().Cycles for flits/cycle.
func (n *Network) LinkLoad() [][]uint64 {
	out := make([][]uint64, len(n.routers))
	for id, r := range n.routers {
		row := make([]uint64, numOutPorts)
		for o, op := range r.out {
			row[o] = op.flits
		}
		out[id] = row
	}
	return out
}

// NILoad reports per-node injection-link flit counts.
func (n *Network) NILoad() []uint64 {
	out := make([]uint64, len(n.nis))
	for id, ni := range n.nis {
		out[id] = ni.injectedFlits
	}
	return out
}

// PeakInjWindow returns the p-th percentile (0..100) of per-100-cycle
// packet injection counts, the measurement behind eq. (1) (§4.2 sizes S so
// that 95% of peak windows are satisfied).
func (n *Network) PeakInjWindow(p float64) float64 {
	if len(n.InjWindows) == 0 {
		return 0
	}
	sorted := make([]uint32, len(n.InjWindows))
	copy(sorted, n.InjWindows)
	for i := 1; i < len(sorted); i++ { // insertion sort: windows are few
		for j := i; j > 0 && sorted[j-1] > sorted[j]; j-- {
			sorted[j-1], sorted[j] = sorted[j], sorted[j-1]
		}
	}
	idx := int(p / 100 * float64(len(sorted)-1))
	return float64(sorted[idx])
}
