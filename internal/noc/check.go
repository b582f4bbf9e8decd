package noc

import "fmt"

// CheckInvariants validates the network's internal consistency. It is
// O(buffers) and intended for tests and debugging, not the hot loop. The
// checked invariants are the correctness core of credit-based wormhole
// switching:
//
//  1. no buffer ever exceeds its capacity;
//  2. credit conservation: for every (output port, VC), the sender's
//     credit count plus flits resident in (or staged toward) the matching
//     downstream buffer plus credits staged back equals the buffer depth;
//  3. ownership coherence: a downstream VC owned by an input VC is the
//     one that input VC is actively forwarding into, and vice versa;
//  4. wormhole contiguity: within any VC buffer, flits form contiguous
//     ascending runs per packet and packets never interleave;
//  5. pipeline-state coherence: each router's waiting, active and
//     RC-pending VC sets and free-VC masks equal a recount of VC states and
//     ownership, and its credit-pending flag is set exactly when some
//     output has staged credits.
func (n *Network) CheckInvariants() error {
	if err := n.checkRecovery(); err != nil {
		return err
	}
	for _, r := range n.routers {
		if err := n.checkRouter(r); err != nil {
			return fmt.Errorf("router %d: %w", r.id, err)
		}
	}
	return nil
}

// checkRecovery validates the fault-recovery protocol layer (recovery.go):
//
//  5. every NI's retransmission buffer respects its cap and its pending
//     counter matches a recount;
//  6. ctlPending equals the ACK/NACK signals actually sitting in NI
//     inboxes (no signal is lost or double-counted);
//  7. when nothing is in flight and no signal is pending, every
//     retransmission buffer is empty — each accepted packet was delivered
//     exactly once and acknowledged.
func (n *Network) checkRecovery() error {
	if !n.recoveryOn() {
		return nil
	}
	n.fold() // checks run at step boundaries; drain any shard deltas first
	inbox := 0
	for id, ni := range n.nis {
		if len(ni.retrans) > ni.retransCap {
			return fmt.Errorf("ni %d: %d retrans entries exceed cap %d", id, len(ni.retrans), ni.retransCap)
		}
		pending := 0
		for i := range ni.retrans {
			if ni.retrans[i].pending {
				pending++
			}
		}
		if pending != ni.retransPending {
			return fmt.Errorf("ni %d: retransPending %d != recounted %d", id, ni.retransPending, pending)
		}
		inbox += len(ni.inbox)
	}
	if inbox != n.ctlPending {
		return fmt.Errorf("ctlPending %d != %d signals in NI inboxes", n.ctlPending, inbox)
	}
	if n.inFlight == 0 && n.ctlPending == 0 {
		for id, ni := range n.nis {
			if len(ni.retrans) != 0 {
				return fmt.Errorf("ni %d: %d retrans entries with nothing in flight or pending", id, len(ni.retrans))
			}
		}
	}
	return nil
}

func (n *Network) checkRouter(r *router) error {
	depth := n.cfg.VCDepth

	// (0): the incremental activity counters of event-driven stepping must
	// agree with a full recount (a divergence would silently de-schedule a
	// busy component).
	recount := 0
	for _, ip := range r.in {
		recount += len(ip.arrivals)
		for _, vc := range ip.vcs {
			recount += vc.buf.len()
		}
	}
	if recount != r.flitCount() {
		return fmt.Errorf("activity counter %d != recounted %d flits", r.flitCount(), recount)
	}
	e := n.ejectors[r.id]
	recount = len(e.arrivals)
	for _, q := range e.vcs {
		recount += q.len()
	}
	if recount != e.flitCount() {
		return fmt.Errorf("ejector activity counter %d != recounted %d flits", e.flitCount(), recount)
	}

	if err := checkPipelineState(r); err != nil {
		return err
	}

	// (1) and (4): buffer bounds and contiguity.
	for _, ip := range r.in {
		for _, vc := range ip.vcs {
			if vc.buf.len() > depth {
				return fmt.Errorf("port %d vc %d: %d flits exceed depth %d",
					ip.index, vc.vcIdx, vc.buf.len(), depth)
			}
			if err := checkContiguity(&vc.buf); err != nil {
				return fmt.Errorf("port %d vc %d: %w", ip.index, vc.vcIdx, err)
			}
		}
	}

	// (2): credit conservation per output VC.
	for _, op := range r.out {
		for v := range op.vcs {
			credits := op.vcs[v].credits + op.creditIn[v]
			var resident int
			switch {
			case op.destPort != nil:
				resident = op.destPort.vcs[v].buf.len()
				for _, sf := range op.destPort.arrivals {
					if sf.vc == v {
						resident++
					}
				}
			case op.eject != nil:
				resident = op.eject.vcs[v].len()
				for _, sf := range op.eject.arrivals {
					if sf.vc == v {
						resident++
					}
				}
			}
			if credits+resident != depth {
				return fmt.Errorf("out %d vc %d: credits %d + resident %d != depth %d",
					op.index, v, credits, resident, depth)
			}
		}
	}

	// (3): ownership coherence in both directions.
	for _, op := range r.out {
		for v := range op.vcs {
			owner := op.vcs[v].owner
			if owner < 0 {
				continue
			}
			vc := r.allVCs[owner]
			if vc.state != vcActive || vc.outPort != op.index || vc.outVC != v {
				return fmt.Errorf("out %d vc %d: owner %d not forwarding into it (state %d, out %d/%d)",
					op.index, v, owner, vc.state, vc.outPort, vc.outVC)
			}
		}
	}
	for _, vc := range r.allVCs {
		if vc.state != vcActive {
			continue
		}
		ov := &r.out[vc.outPort].vcs[vc.outVC]
		if ov.owner != vc.globalIdx {
			return fmt.Errorf("vc %d active toward %d/%d but not its owner (owner %d)",
				vc.globalIdx, vc.outPort, vc.outVC, ov.owner)
		}
	}

	// NI-side credit conservation for injection VCs.
	ni := n.nis[r.id]
	for p, ip := range ni.ports {
		for v, vc := range ip.vcs {
			staged := 0
			for _, sf := range ip.arrivals {
				if sf.vc == v {
					staged++
				}
			}
			if ni.vcCredits[p][v]+vc.buf.len()+staged != depth {
				return fmt.Errorf("injection port %d vc %d: NI credits %d + buffered %d + staged %d != depth %d",
					p, v, ni.vcCredits[p][v], vc.buf.len(), staged, depth)
			}
		}
	}
	return nil
}

// checkPipelineState verifies (5): the incremental VC sets and flags the
// allocators visit instead of scanning must agree with the VC states they
// summarise, or a VC would silently drop out of RC, VA or SA.
func checkPipelineState(r *router) error {
	for _, vc := range r.allVCs {
		i := vc.globalIdx
		if got, want := r.waitSet.has(i), vc.state == vcWaitVC; got != want {
			return fmt.Errorf("vc %d: in waiting set = %v, state %d", i, got, vc.state)
		}
		if got, want := r.activeSet.has(i), vc.state == vcActive; got != want {
			return fmt.Errorf("vc %d: in active set = %v, state %d", i, got, vc.state)
		}
		if got, want := r.rcSet.has(i), vc.state == vcIdle && !vc.buf.empty(); got != want {
			return fmt.Errorf("vc %d: in RC-pending set = %v, state %d with %d flits", i, got, vc.state, vc.buf.len())
		}
	}
	staged := false
	for _, op := range r.out {
		var free uint32
		if op.destPort != nil || op.eject != nil {
			for v := range op.vcs {
				if op.vcs[v].owner == -1 {
					free |= 1 << uint(v)
				}
			}
		}
		if op.freeVCs != free {
			return fmt.Errorf("out %d: free-VC mask %#x != recounted %#x", op.index, op.freeVCs, free)
		}
		for _, c := range op.creditIn {
			staged = staged || c != 0
		}
	}
	if r.creditPending != staged {
		return fmt.Errorf("credit-pending flag %v but staged credits present = %v", r.creditPending, staged)
	}
	return nil
}

// checkContiguity verifies (4) for one buffer: per-packet flit sequences
// ascend by one and a packet's flits are never interleaved with another's.
func checkContiguity(q *flitQueue) error {
	var cur *Packet
	expect := 0
	for i := 0; i < q.len(); i++ {
		f := q.at(i)
		if cur == nil || f.pkt != cur {
			if cur != nil && expect != 0 && expect != cur.Size {
				// Previous packet truncated mid-stream inside the buffer is
				// fine only if its earlier flits already left; a *new*
				// packet may only start at a head flit.
				if !f.isHead() {
					return fmt.Errorf("packet %d interleaved mid-stream", f.pkt.ID)
				}
			}
			cur = f.pkt
			expect = f.seq
		}
		if f.seq != expect {
			return fmt.Errorf("packet %d flit %d out of order (want %d)", f.pkt.ID, f.seq, expect)
		}
		expect++
		if expect == cur.Size {
			cur, expect = nil, 0
		}
	}
	return nil
}
