package noc

import "repro/internal/stats"

// NI is the injection side of a node's network interface. It models the
// paper's enhanced baseline (§4.1) and the two accelerated architectures:
//
//   - NIBaseline: the node hands a whole packet to the single injection
//     queue in one cycle (wide W link), and the queue feeds the router
//     injection port over a narrow N link at one flit per cycle, choosing
//     the injection VC per packet.
//   - NISplit (ARI): the queue is split into one one-packet queue per
//     injection VC, each wired by its own narrow link to that VC, giving an
//     aggregate supply of up to VCs flits per cycle.
//   - NIMultiPort: one queue, one flit per cycle total, but the head packet
//     may bind to any VC of any of the router's multiple injection ports.
type NI struct {
	net *Network
	// sh is the stepping shard that owns this NI's node; injection-side
	// counters go to its deltas (Inject is fanned out by shard too), and
	// lidx is the NI's slot in the shard's SoA activity arrays: the queued
	// flit count lives in sh.niQueued[lidx] (see soa.go).
	sh     *netShard
	lidx   int32
	node   int
	mode   NIMode
	router *router
	ports  []*inputPort // the router's injection input ports

	// vcCredits[p][v] is the free space the NI sees in injection port p,
	// VC v of the router (decremented on staging, restored by the router's
	// switch traversal).
	vcCredits [][]int

	// Baseline / MultiPort state: one FIFO and the (port, VC) binding of
	// the packet currently streaming over the narrow link.
	queue               *flitQueue
	boundPort, boundVC  int
	rrBind              *roundRobin // over port*vc slots for head binding
	lastOfferCycle      int64
	offeredThisCycle    bool
	splitQueues         []*flitQueue // NISplit: one per VC
	splitPick           *roundRobin
	occupancy           stats.TimeWeighted
	everHeld            bool
	acceptedPackets     uint64
	rejectedOfferEvents uint64
	injectedFlits       uint64 // flits sent over the injection link(s)
	// mcLinkBusyUntil models the narrow MC->NI link of the unenhanced
	// baseline (NINarrowLink): accepting a packet occupies it Size cycles.
	mcLinkBusyUntil int64
	// stalledUntil is the fault-injection backpressure horizon: while now is
	// before it the NI supplies no flits, so its queues back up and Offer
	// rejections propagate the burst to the node (see internal/fault).
	stalledUntil int64

	// Fault-recovery protocol state (recovery.go). retransCap > 0 enables
	// the layer: retrans retains unacknowledged packets (bounded by
	// retransCap — a full buffer backpressures Offer), retransPending counts
	// NACKed entries awaiting re-injection, and inbox holds ACK/NACK
	// sideband signals in flight toward this NI.
	retransCap     int
	retrans        []retransEntry
	retransPending int
	inbox          []ctlSignal
}

func newNI(net *Network, node int, router *router) *NI {
	cfg := &net.cfg
	nc := cfg.node(node)
	ni := &net.store.nis.take(1)[0]
	*ni = NI{
		net:       net,
		node:      node,
		mode:      nc.NI,
		router:    router,
		boundPort: -1,
		boundVC:   -1,
	}
	for p := NumDirections; p < len(router.in); p++ {
		ip := router.in[p]
		ip.ni = ni
		ni.ports = append(ni.ports, ip)
	}
	ni.vcCredits = make([][]int, len(ni.ports))
	for p := range ni.vcCredits {
		ni.vcCredits[p] = make([]int, cfg.VCs)
		for v := range ni.vcCredits[p] {
			ni.vcCredits[p][v] = cfg.VCDepth
		}
	}
	switch ni.mode {
	case NISplit:
		per := cfg.splitQueueFlits()
		ni.splitQueues = make([]*flitQueue, cfg.VCs)
		for v := range ni.splitQueues {
			ni.splitQueues[v] = net.store.newQueue(per)
		}
		ni.splitPick = newRoundRobin(cfg.VCs)
	default:
		ni.queue = net.store.newQueue(cfg.NIQueueFlits)
		ni.rrBind = newRoundRobin(len(ni.ports) * cfg.VCs)
	}
	if cfg.RetransBufPkts > 0 {
		ni.retransCap = cfg.RetransBufPkts
		ni.retrans = make([]retransEntry, 0, cfg.RetransBufPkts)
	}
	return ni
}

// creditReturn restores one credit for injection port p, VC v; called by
// the router when it pops a flit from that VC.
func (ni *NI) creditReturn(p, v int) { ni.vcCredits[p][v]++ }

// queuedFlits reads the NI's activity predicate: flits buffered in its
// injection queue(s) (SoA slot; see soa.go).
func (ni *NI) queuedFlits() int { return int(ni.sh.niQueued[ni.lidx]) }

// addQueued adjusts the NI's activity predicate; only ever called from the
// NI's own shard (node logic is fanned out by the same partition).
func (ni *NI) addQueued(d int) { ni.sh.niQueued[ni.lidx] += int32(d) }

// CanAccept reports whether Offer(pkt) would succeed this cycle: the NI
// core logic formats at most one packet per cycle (it processes one data
// per cycle, §4.1) and the target queue must have space for the whole
// packet, since the wide link writes it in one cycle.
func (ni *NI) CanAccept(pkt *Packet, now int64) bool {
	if ni.offeredThisCycle && ni.lastOfferCycle == now {
		return false
	}
	if ni.retransCap > 0 && len(ni.retrans) >= ni.retransCap {
		return false // retransmission buffer full: unacked packets at the cap
	}
	if ni.mode == NINarrowLink && now < ni.mcLinkBusyUntil {
		return false // previous packet still serialising over the MC->NI link
	}
	if ni.mode == NISplit {
		return ni.pickSplitQueue(pkt) >= 0
	}
	return ni.queue.free() >= pkt.Size
}

// Offer hands a whole packet to the NI. It returns false (and the node must
// stall and retry) when the queue cannot take it; that rejection is the
// paper's "data stall in MC" condition (Fig 12).
func (ni *NI) Offer(pkt *Packet, now int64) bool {
	if !ni.CanAccept(pkt, now) {
		ni.rejectedOfferEvents++
		ni.sh.ctr.niFullRejects++
		if ni.retransCap > 0 && len(ni.retrans) >= ni.retransCap {
			ni.sh.ctr.retransFullRejects++
		}
		return false
	}
	ni.offeredThisCycle = true
	ni.lastOfferCycle = now
	if ni.mode == NINarrowLink {
		ni.mcLinkBusyUntil = now + int64(pkt.Size)
	}
	pkt.CreatedAt = now
	if ni.net.cfg.PriorityLevels >= 2 {
		pkt.Priority = ni.net.cfg.PriorityLevels - 1
	} else {
		pkt.Priority = 0
	}
	var q *flitQueue
	if ni.mode == NISplit {
		q = ni.splitQueues[ni.pickSplitQueue(pkt)]
	} else {
		q = ni.queue
	}
	if ni.retransCap > 0 {
		// Stamp the end-to-end checksum and retain the packet's identity
		// until the ACK arrives (recovery.go). Identity fields are copied:
		// the delivered shell may be recycled while the ACK is in flight.
		pkt.Check = PacketCheck(pkt)
		ni.retrans = append(ni.retrans, retransEntry{
			id:      pkt.ID,
			typ:     pkt.Type,
			dst:     pkt.Dst,
			size:    pkt.Size,
			check:   pkt.Check,
			created: pkt.CreatedAt,
			payload: pkt.Payload,
		})
	}
	for s := 0; s < pkt.Size; s++ {
		q.push(flit{pkt: pkt, seq: s})
	}
	ni.addQueued(pkt.Size)
	ni.everHeld = true
	ni.occupancy.Set(float64(ni.queuedFlits()), now)
	ni.acceptedPackets++
	ni.sh.ctr.inFlight++
	ni.sh.ctr.packetsInjected[pkt.Type]++
	ni.sh.ctr.flitsInjected[pkt.Type] += uint64(pkt.Size)
	if tr := ni.net.tracer; tr != nil && pkt.ID%ni.net.traceEvery == 0 {
		pkt.traced = true
		tr.PacketEvent(pkt.ID, pkt.Type, pkt.Src, pkt.Dst, ni.node, TraceNIEnqueue, now)
	}
	return true
}

// pickSplitQueue returns the split queue index for pkt: the least-occupied
// queue with room for the whole packet (round-robin tie-break), or -1.
func (ni *NI) pickSplitQueue(pkt *Packet) int {
	best, bestLen := -1, 0
	n := len(ni.splitQueues)
	start := ni.splitPick.next
	for k := 0; k < n; k++ {
		v := (start + k) % n
		q := ni.splitQueues[v]
		if q.free() < pkt.Size {
			continue
		}
		if best == -1 || q.len() < bestLen {
			best, bestLen = v, q.len()
		}
	}
	return best
}

// step supplies flits over the narrow link(s) into the router's injection
// VCs. Staged flits land in the VC buffers at the start of the next cycle
// (the injection link is a real 1-cycle link).
func (ni *NI) step(now int64) {
	if now >= ni.stalledUntil {
		if ni.retransCap > 0 {
			// Protocol work first: consume due ACK/NACKs and re-inject at
			// most one NACKed packet, so it can start supplying this cycle.
			// A stalled NI does neither — the fault freezes the whole NI.
			ni.stepProtocol(now)
		}
		switch ni.mode {
		case NISplit:
			ni.stepSplit(now)
		default:
			ni.stepFIFO(now)
		}
	}
	if ni.everHeld {
		ni.occupancy.Set(float64(ni.queuedFlits()), now)
	}
}

// stepFIFO implements the single-queue supply (baseline and MultiPort):
// one flit per cycle over one narrow link, with the head packet bound to
// an injection (port, VC) pair chosen by the NI.
func (ni *NI) stepFIFO(now int64) {
	if ni.queue.empty() {
		return
	}
	f := ni.queue.front()
	if f.isHead() && ni.boundVC == -1 {
		ni.bindHead(f.pkt)
		if ni.boundVC == -1 {
			return // no injection VC can take the packet yet
		}
	}
	p, v := ni.boundPort, ni.boundVC
	if p == -1 || ni.vcCredits[p][v] <= 0 {
		return
	}
	ni.sendFlit(p, v, now)
	if f.isTail() {
		ni.boundPort, ni.boundVC = -1, -1
	}
}

// bindHead selects the injection (port, VC) for a new packet: the slot with
// the most free space, round-robin tie-broken, requiring room for the whole
// packet so two packets never interleave within a VC stream from the NI.
func (ni *NI) bindHead(pkt *Packet) {
	vcs := ni.net.cfg.VCs
	best, bestCred := -1, 0
	n := len(ni.ports) * vcs
	start := ni.rrBind.next
	for k := 0; k < n; k++ {
		slot := (start + k) % n
		p, v := slot/vcs, slot%vcs
		c := ni.vcCredits[p][v]
		if c < pkt.Size {
			continue
		}
		if c > bestCred {
			best, bestCred = slot, c
		}
	}
	if best < 0 {
		return
	}
	ni.rrBind.next = (best + 1) % n
	ni.boundPort, ni.boundVC = best/vcs, best%vcs
}

// stepSplit implements the ARI split supply: every split queue forwards one
// flit per cycle into its dedicated VC of injection port 0.
func (ni *NI) stepSplit(now int64) {
	for v, q := range ni.splitQueues {
		if q.empty() || ni.vcCredits[0][v] <= 0 {
			continue
		}
		ni.sendSplitFlit(v, now)
	}
}

func (ni *NI) sendFlit(p, v int, now int64) {
	f := ni.queue.pop()
	ni.deliver(f, p, v, now)
}

func (ni *NI) sendSplitFlit(v int, now int64) {
	f := ni.splitQueues[v].pop()
	ni.deliver(f, 0, v, now)
}

func (ni *NI) deliver(f flit, p, v int, now int64) {
	ni.vcCredits[p][v]--
	ni.addQueued(-1)
	if f.isHead() {
		f.pkt.InjectedAt = now
		if tr := ni.net.tracer; tr != nil && f.pkt.traced {
			tr.PacketEvent(f.pkt.ID, f.pkt.Type, f.pkt.Src, f.pkt.Dst, ni.node, TraceInject, now)
		}
	}
	// The injection link is one cycle regardless of router pipeline depth.
	ni.ports[p].arrivals = append(ni.ports[p].arrivals, stagedFlit{f: f, vc: v, deliverAt: now + 1})
	ni.router.addFlits(1)
	ni.injectedFlits++
	ni.sh.ctr.injLinkFlits++
}

// pendingFlits returns the flits still buffered in the NI.
func (ni *NI) pendingFlits() int { return ni.queuedFlits() }

// OccupancyAvg returns the time-weighted average NI queue occupancy in
// flits (Fig 6's metric, converted to packets by the caller).
func (ni *NI) OccupancyAvg(now int64) float64 {
	ni.occupancy.Finish(now)
	return ni.occupancy.Average()
}

// QueueCapacityFlits returns the NI's total buffering in flits.
func (ni *NI) QueueCapacityFlits() int {
	if ni.mode == NISplit {
		total := 0
		for _, q := range ni.splitQueues {
			total += q.cap()
		}
		return total
	}
	return ni.queue.cap()
}
