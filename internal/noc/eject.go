package noc

// ejector is the ejection side of a node's network interface: per-VC
// reassembly buffers drained at a fixed flit rate. Completed packets are
// delivered to the network's ejection handler; every drained flit returns a
// credit to the router's ejection output port.
type ejector struct {
	net  *Network
	node int
	// sh/lidx locate the ejector's flit-count activity predicate in its
	// stepping shard's SoA arrays (sh.ejectFlits[lidx]; see soa.go) — the
	// count of buffered plus staged flits, always equal to what busy()
	// recounts.
	sh   *netShard
	lidx int32
	vcs  []*flitQueue
	// arrivals staged by the router's ST this cycle.
	arrivals []stagedFlit
	rr       *roundRobin
	rate     int
	// backOut is the router output port whose credits track this ejector's
	// buffer space.
	backOut *outputPort
	// vcBad accumulates, per reassembly VC, whether any flit of the packet
	// currently reassembling arrived corrupted — the model of the receiving
	// NI recomputing the packet CRC. Nil when recovery is disabled
	// (corrupted packets are then delivered undetected).
	vcBad []bool
}

func newEjector(net *Network, node int, backOut *outputPort) *ejector {
	cfg := &net.cfg
	e := &net.store.ejectors.take(1)[0]
	*e = ejector{
		net:     net,
		node:    node,
		vcs:     make([]*flitQueue, cfg.VCs),
		rr:      newRoundRobin(cfg.VCs),
		rate:    cfg.EjectRate,
		backOut: backOut,
	}
	for v := range e.vcs {
		e.vcs[v] = net.store.newQueue(cfg.VCDepth)
	}
	if cfg.RetransBufPkts > 0 {
		e.vcBad = make([]bool, cfg.VCs)
	}
	return e
}

// flitCount reads the ejector's activity predicate (SoA slot; see soa.go).
func (e *ejector) flitCount() int { return int(e.sh.ejectFlits[e.lidx]) }

// addFlits adjusts the ejector's activity predicate. Incremented by the
// owning shard's traverse (the ejection port never crosses a shard
// boundary), decremented by the serial ejection phase.
func (e *ejector) addFlits(d int) { e.sh.ejectFlits[e.lidx] += int32(d) }

func (e *ejector) applyArrivals(now int64) {
	kept := e.arrivals[:0]
	for _, sf := range e.arrivals {
		if sf.deliverAt <= now {
			e.vcs[sf.vc].push(sf.f)
		} else {
			kept = append(kept, sf)
		}
	}
	e.arrivals = kept
}

// consume drains up to rate flits this cycle, round-robin across VCs, and
// delivers packets whose tail flit has drained. A closed sink gate (node
// ingress full) stops ejection entirely, backing traffic into the network.
func (e *ejector) consume(now int64) {
	if g := e.net.sinkGate; g != nil && !g(e.node) {
		return
	}
	for k := 0; k < e.rate; k++ {
		v := e.rr.pick(func(i int) bool { return !e.vcs[i].empty() })
		if v < 0 {
			return
		}
		f := e.vcs[v].pop()
		e.addFlits(-1)
		e.backOut.creditIn[v]++
		e.backOut.router.creditPending = true
		e.net.stats.EjectFlits++
		if f.bad && e.vcBad != nil {
			e.vcBad[v] = true
		}
		if f.isTail() {
			if e.vcBad != nil && e.vcBad[v] {
				// CRC mismatch at reassembly: drop the packet and NACK the
				// source; the sender's retransmission buffer still holds it.
				// Credits were returned per flit above, so flow control is
				// already settled; inFlight stays up until a clean copy of
				// this packet is delivered.
				e.vcBad[v] = false
				e.net.dropCorrupt(e.node, f.pkt, now)
				continue
			}
			e.net.stats.recordEject(f.pkt, now)
			e.net.inFlight--
			if e.vcBad != nil {
				// Clean delivery: ACK frees the sender's retransmission slot.
				// Sent before the handler, which may recycle the shell.
				e.net.sendCtl(e.node, f.pkt.Src, f.pkt.ID, false, now)
			}
			// The eject event fires before the handler, which may recycle the
			// packet into the pool (zeroing it).
			if tr := e.net.tracer; tr != nil && f.pkt.traced {
				tr.PacketEvent(f.pkt.ID, f.pkt.Type, f.pkt.Src, f.pkt.Dst, e.node, TraceEject, now)
			}
			if h := e.net.ejectHandler; h != nil {
				h(e.node, f.pkt, now)
			}
		}
	}
}

func (e *ejector) busy() bool {
	if len(e.arrivals) > 0 {
		return true
	}
	for _, q := range e.vcs {
		if !q.empty() {
			return true
		}
	}
	return false
}
