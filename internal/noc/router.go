package noc

import "math/bits"

// ejectPortIndex is the output-port index of the local ejection port; mesh
// output ports use Direction values 0..3.
const ejectPortIndex = NumDirections

// numOutPorts is the number of output ports of every router (4 mesh + 1
// ejection). Injection only adds input ports.
const numOutPorts = NumDirections + 1

// vcState is the input-VC state machine: idle (no packet at the front),
// waitVC (route computed, waiting for a downstream VC), active (downstream
// VC held, flits flowing).
type vcState uint8

const (
	vcIdle vcState = iota
	vcWaitVC
	vcActive
)

// inputVC is one virtual channel of a router input port.
type inputVC struct {
	port      *inputPort
	vcIdx     int // index within the port
	globalIdx int // index within router.allVCs

	buf   flitQueue
	state vcState

	// sp is the switch-port this VC is multiplexed onto and spBit its bit
	// in that switch-port's request masks (index within r.spVCs[sp]).
	sp    int
	spBit uint64

	cands   []routeCandidate
	outPort int
	outVC   int
	// effPrio is the packet priority captured at route computation, before
	// the per-hop decrement (§5): the value the packet carried on arrival.
	effPrio int
	// waitSince is when the head flit last became eligible without being
	// served; it drives the starvation guard.
	waitSince int64
}

// stagedFlit is a flit in flight on a link or in the router pipeline,
// delivered into the target buffer at the start of cycle deliverAt.
type stagedFlit struct {
	f         flit
	vc        int
	deliverAt int64
}

// inputPort is a router input port: either one of the four mesh ports or an
// injection port fed by the node's NI.
type inputPort struct {
	router *router
	index  int // input-port index within the router
	vcs    []*inputVC

	// arrivals staged by the upstream ST (or the NI) this cycle, applied at
	// the start of the next cycle.
	arrivals []stagedFlit

	isInjection bool
	injIndex    int // which injection port of the node (MultiPort)

	// frozenUntil is the fault-injection freeze horizon: while now is before
	// it, no VC of this port may bid for the switch. Buffered flits (and
	// their credits) are untouched, so the stall is absorbed losslessly by
	// the credit flow control (see internal/fault).
	frozenUntil int64

	// upstream is the neighbouring router's output port feeding this port
	// (nil for injection ports, whose credits return to the NI).
	upstream *outputPort
	// remoteUpstream marks an upstream owned by another stepping shard:
	// credits then return through the shard outbox instead of writing
	// upstream.creditIn directly, and upstreamShard names the shard whose
	// commit worker must land them (see shard.go).
	remoteUpstream bool
	upstreamShard  int32
	ni             *NI

	// spIDs are the switch-port ids owned by this port (1 for mesh ports,
	// InjSpeedup for injection ports).
	spIDs []int
}

// outVCState tracks one downstream virtual channel from the sender's side.
type outVCState struct {
	credits int
	// owner is the globalIdx of the input VC currently forwarding a packet
	// into this downstream VC, or -1.
	owner int
}

// outputPort is a router output port: a mesh link to a neighbour or the
// local ejection port.
type outputPort struct {
	router *router
	index  int
	vcs    []outVCState
	// freeVCs has bit v set while downstream VC v has no owner: VC
	// allocation intersects it with a candidate's VC mask instead of
	// testing every owner. Always 0 on a mesh-edge port (no link), so edge
	// candidates drop out with no separate check.
	freeVCs uint32
	// creditIn stages credits returned by the downstream consumer this
	// cycle, applied at the start of the next cycle.
	creditIn []int

	// Exactly one of destPort (mesh) or eject (local) is non-nil.
	destPort *inputPort
	eject    *ejector
	// remote marks a destPort owned by another stepping shard: traversals
	// then stage through the shard outbox instead of appending to
	// destPort.arrivals directly, and remoteShard names the destination
	// shard whose commit worker must land them (see shard.go).
	remote      bool
	remoteShard int32

	// flits counts traversals onto this output's link (observability).
	flits uint64

	// stalledUntil is the fault-injection link-stall horizon: while now is
	// before it, switch allocation never grants this output, so no flit
	// traverses the link. Credits and buffered flits are untouched.
	stalledUntil int64
	// corruptUntil is the fault-injection corruption horizon: flits
	// traversing the link while now is before it are marked bad (payload
	// bit-flips detected by the receiving NI's CRC check; see recovery.go).
	corruptUntil int64
	// dead marks a permanently killed mesh link (KillLink): route
	// computation never offers it again. Worms that held it at death drain
	// gracefully.
	dead bool
}

// router is a virtual-channel wormhole router with a single-cycle
// RC/VA/SA/ST pipeline and 1-cycle links, per-injection-port crossbar
// speedup and optional priority-aware switch allocation.
type router struct {
	net *Network
	// sh is the stepping shard that owns this router; phase-A counter
	// increments go to its deltas so parallel shards never share a counter,
	// and lidx is this router's slot in the shard's SoA activity arrays
	// (id - sh.lo; see soa.go).
	sh     *netShard
	lidx   int32
	id     int
	isMC   bool // tagged by the caller for stats / scheme logic
	in     []*inputPort
	out    []*outputPort
	allVCs []*inputVC

	// Switch: spVCs[sp] lists the globalIdx of VCs multiplexed onto
	// switch-port sp; spArb arbitrates among them (SA stage 1); outArb[o]
	// arbitrates among switch-ports for output o (SA stage 2).
	spVCs    [][]int
	spArb    []*roundRobin
	outArb   []*roundRobin
	spWinner []int // per switch-port: winning globalIdx this cycle
	// spElig/spStall are SA stage 1's per-switch-port request masks over
	// the port's VCs (bit = inputVC.spBit): VCs that can bid this cycle,
	// and active VCs held back only by a lack of downstream credits.
	spElig  []uint64
	spStall []uint64
	// spPrio is the effective priority of each switch-port's winner and
	// outReq[o] the set of switch-ports requesting output o (SA stage 2).
	spPrio    []int
	outReq    [numOutPorts]bitset
	rrVA      int
	prioArbOn bool

	// The router's flit-count activity predicate lives in its shard's SoA
	// array (sh.routerFlits[lidx]; see soa.go) — addFlits/flitCount below.
	// It always equals what busy() recounts.
	//
	// VC sets over allVCs (globalIdx bits), so every pipeline stage visits
	// only the VCs it can act on (DESIGN.md §17):
	//   - waitSet: VCs in vcWaitVC (VC allocation candidates);
	//   - activeSet: VCs in vcActive (switch allocation bidders);
	//   - rcSet: idle VCs with a buffered (head) flit, i.e. exactly the VCs
	//     route computation will move to vcWaitVC this cycle.
	// CheckInvariants asserts all three equal a recount of VC states.
	waitSet   bitset
	activeSet bitset
	rcSet     bitset
	// creditPending is set whenever a credit is staged into any output's
	// creditIn and cleared by the applyArrivals sweep that lands them, so
	// routers with nothing staged skip the sweep.
	creditPending bool
	// lastVA is the cycle vcAllocate last ran, so the unconditional rrVA
	// rotation of skipped cycles can be fast-forwarded on wake-up.
	lastVA int64

	// deadEpoch increments on every link kill anywhere in the mesh (the
	// fault-routing table is global); rcEpoch is its value at this router's
	// last route computation. When they differ, every waiting VC recomputes
	// its route candidates (see routeCompute).
	deadEpoch int
	rcEpoch   int
}

func newRouter(net *Network, id int) *router {
	cfg := &net.cfg
	nc := cfg.node(id)
	// The router, its ports, VCs and their buffers are carved from the
	// network's store (store.go) rather than allocated one by one.
	r := &net.store.routers.take(1)[0]
	*r = router{
		net:       net,
		id:        id,
		prioArbOn: cfg.PriorityLevels >= 2,
		lastVA:    -1,
	}

	numIn := NumDirections + nc.injPorts()
	nVC := numIn * cfg.VCs
	vcBlock := net.store.vcs.take(nVC)
	flitBlock := net.store.flits.take(nVC * cfg.VCDepth)
	r.allVCs = net.store.vcPtrs.take(nVC)
	ports := net.store.inPorts.take(numIn)
	r.in = make([]*inputPort, numIn)
	spID := 0
	for p := range ports {
		ip := &ports[p]
		*ip = inputPort{router: r, index: p}
		if p >= NumDirections {
			ip.isInjection = true
			ip.injIndex = p - NumDirections
		}
		spCount := 1
		if ip.isInjection {
			spCount = nc.injSpeedup(cfg.VCs)
		}
		for k := 0; k < spCount; k++ {
			ip.spIDs = append(ip.spIDs, spID)
			spID++
		}
		lo := p * cfg.VCs
		ip.vcs = r.allVCs[lo : lo+cfg.VCs : lo+cfg.VCs]
		for v := range ip.vcs {
			g := lo + v
			vc := &vcBlock[g]
			*vc = inputVC{
				port:      ip,
				vcIdx:     v,
				globalIdx: g,
				buf:       flitQueue{buf: flitBlock[g*cfg.VCDepth : (g+1)*cfg.VCDepth : (g+1)*cfg.VCDepth]},
				outPort:   -1,
				outVC:     -1,
			}
			ip.vcs[v] = vc
		}
		r.in[p] = ip
	}

	// Switch-port -> VC mapping: VC v of a port with s switch-ports is
	// demultiplexed onto the port's switch-port v mod s (§4.2, Fig 8).
	r.spVCs = make([][]int, spID)
	for _, ip := range r.in {
		s := len(ip.spIDs)
		for _, vc := range ip.vcs {
			sp := ip.spIDs[vc.vcIdx%s]
			vc.sp, vc.spBit = sp, 1<<uint(len(r.spVCs[sp]))
			r.spVCs[sp] = append(r.spVCs[sp], vc.globalIdx)
		}
	}
	r.spArb = make([]*roundRobin, spID)
	for sp := range r.spArb {
		r.spArb[sp] = newRoundRobin(len(r.spVCs[sp]))
	}
	ints := make([]int, 2*spID)
	r.spWinner, r.spPrio = ints[:spID:spID], ints[spID:]

	// One word block holds the switch-port masks, the three VC sets and the
	// per-output request sets.
	vw, sw := bitsetWords(nVC), bitsetWords(spID)
	words := make([]uint64, 2*spID+3*vw+numOutPorts*sw)
	carve := func(n int) []uint64 {
		b := words[:n:n]
		words = words[n:]
		return b
	}
	r.spElig, r.spStall = carve(spID), carve(spID)
	r.waitSet, r.activeSet, r.rcSet = carve(vw), carve(vw), carve(vw)
	for o := range r.outReq {
		r.outReq[o] = carve(sw)
	}

	outs := net.store.outPorts.take(numOutPorts)
	outVCs := net.store.outVCs.take(numOutPorts * cfg.VCs)
	creditIn := net.store.credits.take(numOutPorts * cfg.VCs)
	r.out = make([]*outputPort, numOutPorts)
	r.outArb = make([]*roundRobin, numOutPorts)
	for o := range outs {
		lo, hi := o*cfg.VCs, (o+1)*cfg.VCs
		op := &outs[o]
		*op = outputPort{
			router:   r,
			index:    o,
			vcs:      outVCs[lo:hi:hi],
			creditIn: creditIn[lo:hi:hi],
		}
		for v := range op.vcs {
			op.vcs[v] = outVCState{credits: cfg.VCDepth, owner: -1}
		}
		r.out[o] = op
		r.outArb[o] = newRoundRobin(spID)
	}
	return r
}

// flitCount reads the router's activity predicate: flits resident in its
// input-VC buffers plus staged arrivals (SoA slot; see soa.go).
func (r *router) flitCount() int { return int(r.sh.routerFlits[r.lidx]) }

// addFlits adjusts the router's activity predicate. Callers outside the
// router's own shard may only do so from the commit worker of the shard
// that owns it (see commitShard).
func (r *router) addFlits(d int) { r.sh.routerFlits[r.lidx] += int32(d) }

// applyArrivals moves due link-staged flits into VC buffers and applies
// staged credits (phase 1 of the cycle). A flit landing in an idle VC makes
// that VC RC-pending; the credit sweep runs only when credits were staged.
func (r *router) applyArrivals(now int64) {
	for _, ip := range r.in {
		if len(ip.arrivals) == 0 {
			continue
		}
		kept := ip.arrivals[:0]
		for _, sf := range ip.arrivals {
			if sf.deliverAt <= now {
				vc := ip.vcs[sf.vc]
				vc.buf.push(sf.f)
				if vc.state == vcIdle {
					r.rcSet.set(vc.globalIdx)
				}
			} else {
				kept = append(kept, sf)
			}
		}
		ip.arrivals = kept
	}
	if !r.creditPending {
		return
	}
	r.creditPending = false
	for _, op := range r.out {
		for v := range op.creditIn {
			if op.creditIn[v] != 0 {
				op.vcs[v].credits += op.creditIn[v]
				op.creditIn[v] = 0
			}
		}
	}
}

// routeCompute runs RC for every RC-pending VC (idle, with a buffered head
// flit): it computes the admissible candidates, captures the arrival
// priority, and performs the per-hop priority decrement (§5). When a link
// died since this router's last RC (rcEpoch stale), every VC still waiting
// for a downstream VC recomputes its candidates first — without
// re-applying the priority decrement, which is per hop, not per
// recomputation.
func (r *router) routeCompute(now int64) {
	if r.rcEpoch != r.deadEpoch {
		for i := r.waitSet.nextFrom(0); i >= 0; i = r.waitSet.nextFrom(i + 1) {
			vc := r.allVCs[i]
			vc.cands = r.net.routeCandidates(r.id, vc.buf.front().pkt.Dst, vc.cands)
		}
		r.rcEpoch = r.deadEpoch
	}
	for i := r.rcSet.nextFrom(0); i >= 0; i = r.rcSet.nextFrom(i + 1) {
		vc := r.allVCs[i]
		f := vc.buf.front()
		if !f.isHead() {
			panic("noc: non-head flit at front of idle VC")
		}
		pkt := f.pkt
		vc.cands = r.net.routeCandidates(r.id, pkt.Dst, vc.cands)
		vc.effPrio = pkt.Priority
		if pkt.Priority > 0 {
			pkt.Priority--
		}
		vc.state = vcWaitVC
		r.waitSet.set(i)
		vc.waitSince = now
	}
	r.rcSet.reset()
}

// vcAllocate runs separable input-first VC allocation: waiting VCs claim a
// free downstream VC among their route candidates, visited in rotating
// order for fairness. With ARI prioritisation enabled, higher-priority
// waiters (freshly injected packets at MC-routers, §5) are served first so
// they exit the hot region quickly.
//
// The rotating pointer rrVA advances once per simulated cycle whether or
// not anything allocates, so a router skipped by event-driven stepping
// first fast-forwards the rotations of the cycles it slept through; the
// pointer is then exactly what the scan-everything loop would hold.
func (r *router) vcAllocate(now int64) {
	n := len(r.allVCs)
	if skipped := now - 1 - r.lastVA; skipped > 0 {
		r.rrVA = (r.rrVA + int(skipped%int64(n))) % n
	}
	if !r.waitSet.empty() {
		r.vcAllocatePass(now)
	}
	if r.rrVA++; r.rrVA == n {
		r.rrVA = 0
	}
	r.lastVA = now
}

// vcAllocatePass attempts allocation for every waiting VC in rotation order
// from rrVA: the waiting-set members at or after the pointer, then those
// before it. Iterating the live set is exact: granted VCs leave it only
// after being visited, and no VC can start waiting mid-pass (only RC adds
// to the set).
func (r *router) vcAllocatePass(now int64) {
	for i := r.waitSet.nextFrom(r.rrVA); i >= 0; i = r.waitSet.nextFrom(i + 1) {
		r.tryAllocateVC(r.allVCs[i], now)
	}
	for i := r.waitSet.nextFrom(0); i >= 0 && i < r.rrVA; i = r.waitSet.nextFrom(i + 1) {
		r.tryAllocateVC(r.allVCs[i], now)
	}
}

// tryAllocateVC grants a waiting VC the eligible free downstream VC with
// the most credits among its route candidates, if there is one.
func (r *router) tryAllocateVC(vc *inputVC, now int64) {
	pkt := vc.buf.front().pkt
	bestPort, bestVC, bestCredits := -1, -1, -1
	for _, cand := range vc.cands {
		op := r.out[cand.port]
		// Scanning VCs downward makes credit ties prefer adaptive VCs over
		// the escape VC.
		for m := cand.vcMask & op.freeVCs; m != 0; {
			v := bits.Len32(m) - 1
			m &^= 1 << uint(v)
			ov := &op.vcs[v]
			if !r.vcEligible(pkt, ov) {
				continue
			}
			// Prefer the candidate with the most downstream credits (local
			// congestion awareness).
			if ov.credits > bestCredits {
				bestPort, bestVC, bestCredits = cand.port, v, ov.credits
			}
		}
	}
	if bestPort < 0 {
		return
	}
	op := r.out[bestPort]
	op.vcs[bestVC].owner = vc.globalIdx
	op.freeVCs &^= 1 << uint(bestVC)
	vc.outPort, vc.outVC = bestPort, bestVC
	vc.state = vcActive
	r.waitSet.clear(vc.globalIdx)
	r.activeSet.set(vc.globalIdx)
	r.sh.ctr.vaGrants++
	if tr := r.net.tracer; tr != nil && pkt.traced {
		tr.PacketEvent(pkt.ID, pkt.Type, pkt.Src, pkt.Dst, r.id, TraceVAGrant, now)
	}
}

// vcEligible applies the buffer-allocation policy to an unowned downstream
// VC: atomic allocation needs a completely empty downstream VC; non-atomic
// (WPF [28]) only needs space for the whole packet.
func (r *router) vcEligible(pkt *Packet, ov *outVCState) bool {
	if r.net.cfg.NonAtomicVC {
		return ov.credits >= pkt.Size
	}
	return ov.credits == r.net.cfg.VCDepth
}

// starvationActive reports whether any non-injection input VC has been
// waiting longer than the starvation threshold, in which case injection
// priority is suppressed this cycle (§5). Only non-idle VCs (waiting or
// active) can qualify.
func (r *router) starvationActive(now int64) bool {
	limit := r.net.cfg.StarvationLimit
	for w := range r.waitSet {
		for x := r.waitSet[w] | r.activeSet[w]; x != 0; x &= x - 1 {
			vc := r.allVCs[w<<6|bits.TrailingZeros64(x)]
			if !vc.port.isInjection && now-vc.waitSince > limit {
				return true
			}
		}
	}
	return false
}

// switchAllocate runs separable input-first switch allocation and performs
// the winning switch/link traversals (SA + ST + LT).
//
// Stage 1 builds each switch-port's request mask from the active VCs only
// and lets the switch-port's arbiter pick among them; stage 2 folds the
// winners into one request set per output and grants each requested
// output (DESIGN.md §17). creditStallCycles counts the credit-starved
// active VCs each switch-port's rotation passes before its winner: the
// stall mask restricted to the rotation range [next, winner), or all of it
// when nothing wins.
func (r *router) switchAllocate(now int64) {
	if r.activeSet.empty() {
		// No input VC holds a downstream VC, so no switch-port can bid and
		// no output can grant; skipping is behaviour-identical (arbiters
		// advance only on grants, and creditStallCycles only counts active
		// VCs).
		return
	}

	// Stage 1a: sort the active VCs into per-switch-port masks.
	for w, x := range r.activeSet {
		for ; x != 0; x &= x - 1 {
			vc := r.allVCs[w<<6|bits.TrailingZeros64(x)]
			if now < vc.port.frozenUntil || vc.buf.empty() {
				continue // port frozen by fault injection, or nothing to send
			}
			if r.out[vc.outPort].vcs[vc.outVC].credits <= 0 {
				r.spStall[vc.sp] |= vc.spBit
			} else {
				r.spElig[vc.sp] |= vc.spBit
			}
		}
	}

	// Stage 1b: each switch-port picks among its eligible VCs; the winner
	// requests its output.
	injWon := false
	for sp := range r.spElig {
		elig, stall := r.spElig[sp], r.spStall[sp]
		if elig|stall == 0 {
			continue
		}
		r.spElig[sp], r.spStall[sp] = 0, 0
		arb := r.spArb[sp]
		next := uint(arb.next)
		w := arb.pickMask(bitset{elig})
		if w < 0 {
			r.sh.ctr.creditStallCycles += uint64(bits.OnesCount64(stall))
			continue
		}
		if uint(w) >= next {
			stall &= lowBits(uint(w)) &^ lowBits(next)
		} else {
			stall &= lowBits(uint(w)) | ^lowBits(next)
		}
		r.sh.ctr.creditStallCycles += uint64(bits.OnesCount64(stall))
		vc := r.allVCs[r.spVCs[sp][w]]
		r.spWinner[sp] = vc.globalIdx
		r.spPrio[sp] = vc.effPrio
		r.outReq[vc.outPort].set(sp)
		injWon = injWon || vc.port.isInjection
	}

	// Injection priority is suppressed while a mesh VC starves. The check
	// only matters when an injection VC bids, and it must run before the
	// first traversal below, which resets waitSince.
	if r.prioArbOn && injWon && r.starvationActive(now) {
		for o := range r.outReq {
			for sp := r.outReq[o].nextFrom(0); sp >= 0; sp = r.outReq[o].nextFrom(sp + 1) {
				if r.allVCs[r.spWinner[sp]].port.isInjection {
					r.spPrio[sp] = 0
				}
			}
		}
	}

	// Stage 2: each requested output grants one switch-port; priority-aware
	// when ARI prioritisation is enabled.
	for o, op := range r.out {
		req := r.outReq[o]
		if req.empty() {
			continue
		}
		if now < op.stalledUntil {
			req.reset()
			continue // link stalled by fault injection: no grant this cycle
		}
		var winner int
		if r.prioArbOn {
			winner = r.outArb[o].pickPriorityMask(req, r.spPrio)
		} else {
			winner = r.outArb[o].pickMask(req)
		}
		req.reset()
		r.traverse(r.allVCs[r.spWinner[winner]], op, now)
	}
}

// traverse moves one flit from an input VC across the crossbar onto the
// output link, returns a credit upstream, and retires the downstream-VC
// ownership at the tail.
func (r *router) traverse(vc *inputVC, op *outputPort, now int64) {
	f := vc.buf.pop()
	r.addFlits(-1)
	ov := &op.vcs[vc.outVC]
	ov.credits--
	op.flits++
	r.sh.ctr.switchTraversals++
	if now < op.corruptUntil {
		// The link is inside a corruption window: the flit's payload is
		// damaged in transit. Only the receiving NI's CRC check observes it.
		f.bad = true
		r.sh.ctr.corruptFlits++
	}
	if tr := r.net.tracer; tr != nil && f.seq == 0 && f.pkt.traced {
		tr.PacketEvent(f.pkt.ID, f.pkt.Type, f.pkt.Src, f.pkt.Dst, r.id, TraceSwitch, now)
	}

	// A flit sent at cycle t lands in the downstream buffer at
	// t + PipelineStages (1 = single-cycle router + 1-cycle link).
	due := now + int64(r.net.cfg.PipelineStages)
	switch {
	case op.remote:
		// Boundary link: the destination buffer belongs to another shard,
		// so stage into the outbox slot of the destination shard, whose
		// commit worker lands it (the downstream applyArrivals cannot read
		// it before deliverAt anyway).
		d := op.remoteShard
		r.sh.outFlits[d] = append(r.sh.outFlits[d], remoteFlit{dst: op.destPort, sf: stagedFlit{f: f, vc: vc.outVC, deliverAt: due}})
		r.sh.ctr.meshLinkFlits++
	case op.destPort != nil:
		op.destPort.arrivals = append(op.destPort.arrivals, stagedFlit{f: f, vc: vc.outVC, deliverAt: due})
		op.destPort.router.addFlits(1)
		r.sh.ctr.meshLinkFlits++
	case op.eject != nil:
		op.eject.arrivals = append(op.eject.arrivals, stagedFlit{f: f, vc: vc.outVC, deliverAt: due})
		op.eject.addFlits(1)
	default:
		panic("noc: output port with no destination")
	}

	// Credit for the freed input-buffer slot.
	switch {
	case vc.port.isInjection:
		vc.port.ni.creditReturn(vc.port.injIndex, vc.vcIdx)
	case vc.port.remoteUpstream:
		d := vc.port.upstreamShard
		r.sh.outCredits[d] = append(r.sh.outCredits[d], remoteCredit{op: vc.port.upstream, vc: vc.vcIdx})
	default:
		vc.port.upstream.creditIn[vc.vcIdx]++
		vc.port.upstream.router.creditPending = true
	}

	vc.waitSince = now
	if f.isTail() {
		ov.owner = -1
		op.freeVCs |= 1 << uint(vc.outVC)
		vc.state = vcIdle
		vc.outPort, vc.outVC = -1, -1
		r.activeSet.clear(vc.globalIdx)
		if !vc.buf.empty() {
			r.rcSet.set(vc.globalIdx) // the next packet's head is buffered
		}
	}
}

// lowBits returns a mask of the k lowest bits.
func lowBits(k uint) uint64 { return 1<<k - 1 }

// busy reports whether the router holds any flit in any input VC or staged
// arrival (used for drain detection). It recounts what the flits counter
// tracks incrementally; CheckInvariants asserts the two agree.
func (r *router) busy() bool {
	for _, ip := range r.in {
		if len(ip.arrivals) > 0 {
			return true
		}
		for _, vc := range ip.vcs {
			if !vc.buf.empty() {
				return true
			}
		}
	}
	return false
}
