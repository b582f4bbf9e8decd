package noc

import "sync"

// netStore is the bulk storage of one Network: the routers, NIs and
// ejectors themselves, every router's input ports, input VCs, output ports,
// output-VC state and credit counters, and every flit queue with its slots
// (input-VC buffers, ejection buffers and NI injection queues), carved per
// component as the network is built.
//
// Close hands the store back to stores and the next NewNetwork reuses it, so
// a program that builds simulators one after another (a sweep, the
// experiment runner, a job server) allocates this storage once instead of
// once per simulation. Without reuse every build adds a few hundred KB of
// garbage, and the heap a process peaks at depends on where the collector's
// cycles happen to fall among the builds.
type netStore struct {
	routers  block[router]
	nis      block[NI]
	ejectors block[ejector]
	inPorts  block[inputPort]
	vcs      block[inputVC]
	vcPtrs   block[*inputVC]
	outPorts block[outputPort]
	outVCs   block[outVCState]
	credits  block[int]
	queues   block[flitQueue]
	flits    block[flit]
}

// stores holds the stores of closed networks.
var stores sync.Pool

// getStore returns a zeroed store sized for a network built from cfg,
// reusing a closed network's storage where it is large enough.
func getStore(cfg *Config) *netStore {
	s, _ := stores.Get().(*netStore)
	if s == nil {
		s = &netStore{}
	}
	nodes := cfg.Mesh.Nodes()
	var in, vcs, queues, flits int
	for id := 0; id < nodes; id++ {
		nc := cfg.node(id)
		p := NumDirections + nc.injPorts()
		in += p
		vcs += p * cfg.VCs
		// Input-VC buffers, ejection buffers, NI queue(s).
		flits += (p + 1) * cfg.VCs * cfg.VCDepth
		queues += cfg.VCs
		if nc.NI == NISplit {
			queues += cfg.VCs
			flits += cfg.VCs * cfg.splitQueueFlits()
		} else {
			queues++
			flits += cfg.NIQueueFlits
		}
	}
	out := numOutPorts * nodes
	s.routers.reset(nodes)
	s.nis.reset(nodes)
	s.ejectors.reset(nodes)
	s.inPorts.reset(in)
	s.vcs.reset(vcs)
	s.vcPtrs.reset(vcs)
	s.outPorts.reset(out)
	s.outVCs.reset(out * cfg.VCs)
	s.credits.reset(out * cfg.VCs)
	s.queues.reset(queues)
	s.flits.reset(flits)
	return s
}

// putStore zeroes s and keeps it for reuse. A pooled store must not keep a
// closed network's routers and packets reachable.
func putStore(s *netStore) {
	s.routers.zero()
	s.nis.zero()
	s.ejectors.zero()
	s.inPorts.zero()
	s.vcs.zero()
	s.vcPtrs.zero()
	s.outPorts.zero()
	s.outVCs.zero()
	s.credits.zero()
	s.queues.zero()
	s.flits.zero()
	stores.Put(s)
}

// newQueue carves a flit queue of the given capacity.
func (s *netStore) newQueue(capacity int) *flitQueue {
	q := &s.queues.take(1)[0]
	q.buf = s.flits.take(capacity)
	return q
}

// block is one backing array carved front to back.
type block[T any] struct {
	buf []T
	off int
}

// reset makes room for n elements, allocating only when the capacity is
// short. The elements are zero: zero clears the whole capacity.
func (b *block[T]) reset(n int) {
	if cap(b.buf) < n {
		b.buf = make([]T, n)
	}
	b.buf, b.off = b.buf[:n], 0
}

// take carves the next n elements.
func (b *block[T]) take(n int) []T {
	lo := b.off
	b.off += n
	return b.buf[lo:b.off:b.off]
}

// zero clears the whole capacity.
func (b *block[T]) zero() { clear(b.buf[:cap(b.buf)]) }
