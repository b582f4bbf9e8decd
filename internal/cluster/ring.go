// Package cluster turns N ariserve replicas into one fault-tolerant
// service behind an arigate front door.
//
// The paper's determinism is the load-bearing property: a simulation result
// is a pure function of its exp.JobKey, so replication needs no coordination
// protocol — any replica that has (or computes) a key's result holds *the*
// result. Routing therefore reduces to consistent hashing over JobKeys,
// failover to re-routing, caching to peer result-fetch, and recovery to
// replaying a crash-only journal. The degradation ladder, top to bottom:
//
//  1. Healthy: jobs route to their primary owner; duplicates anywhere in
//     the cluster are answered from journals via peer fetch.
//  2. Slow primary: the gateway waits for it. A second copy on another
//     owner could only repeat a deterministic run, so owners are tried one
//     after another, never raced.
//  3. Dead primary: the readyz-probing circuit breaker opens after
//     BreakerThreshold consecutive failures and routing falls over to the
//     next owner on the ring; the probe loop closes the circuit on recovery.
//  4. All owners down: arigate sheds with 429 + Retry-After — the bounded
//     client (internal/serve/client) rides it out.
//  5. Partitioned replica: keeps serving its local journal and running jobs
//     (peer fetch is an optimisation, never a dependency).
//  6. Rejoining replica: warms from its fsync'd journal; completed jobs are
//     never re-run.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
)

// DefaultVnodes is the per-replica virtual-node count. 256 points per
// replica keeps the load split within a few percent of uniform for small
// clusters (TestRingUniformLoad locks ±10% over 10k keys) while the whole
// ring stays a few KB.
const DefaultVnodes = 256

// Ring is a deterministic consistent-hash ring over replica base URLs.
//
// Determinism matters twice: placement is a pure function of the replica
// set (any process that knows the replica list computes identical routing —
// across restarts, across gateway instances), and key movement on
// membership change is minimal (removing a replica reassigns only the keys
// it owned; every other key keeps its owner, so the cluster's journals stay
// hot).
type Ring struct {
	replicas []string
	points   []ringPoint // sorted by (hash, replica) ascending
}

type ringPoint struct {
	hash    uint64
	replica int32 // index into replicas
}

// NewRing builds a ring with vnodes virtual nodes per replica
// (DefaultVnodes when <= 0). Replica names are deduplicated and sorted, so
// the ring is independent of argument order.
func NewRing(replicas []string, vnodes int) (*Ring, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one replica")
	}
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	sorted := append([]string(nil), replicas...)
	sort.Strings(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return nil, fmt.Errorf("cluster: duplicate replica %q", sorted[i])
		}
	}
	r := &Ring{
		replicas: sorted,
		points:   make([]ringPoint, 0, len(sorted)*vnodes),
	}
	for ri, rep := range sorted {
		for v := 0; v < vnodes; v++ {
			h := hash64(rep + "#" + strconv.Itoa(v))
			r.points = append(r.points, ringPoint{hash: h, replica: int32(ri)})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare at 64 bits) break by replica order so
		// the ring stays a pure function of the replica set.
		return r.points[i].replica < r.points[j].replica
	})
	return r, nil
}

// Replicas returns the ring's members in canonical (sorted) order.
func (r *Ring) Replicas() []string { return append([]string(nil), r.replicas...) }

// Owners returns the n distinct replicas owning key, primary first, walking
// clockwise from the key's hash. n is clamped to the replica count.
func (r *Ring) Owners(key string, n int) []string {
	return r.OwnersAppend(nil, key, n)
}

// OwnersAppend is Owners appending into dst — the allocation-free hot path
// the gateway routes every submission through (BenchmarkGateRoute).
func (r *Ring) OwnersAppend(dst []string, key string, n int) []string {
	if n > len(r.replicas) {
		n = len(r.replicas)
	}
	if n <= 0 {
		return dst
	}
	h := hash64(key)
	// First point clockwise of h (wrapping past the top of the ring).
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	start := len(dst)
	var seen uint64 // replica-index bitmap; rings are small (≤64 replicas fast-pathed)
	for walked := 0; walked < len(r.points) && len(dst)-start < n; walked++ {
		p := r.points[(i+walked)%len(r.points)]
		if p.replica < 64 {
			if seen&(1<<uint(p.replica)) != 0 {
				continue
			}
			seen |= 1 << uint(p.replica)
		} else if containsFrom(dst, start, r.replicas[p.replica]) {
			continue
		}
		dst = append(dst, r.replicas[p.replica])
	}
	return dst
}

func containsFrom(s []string, from int, v string) bool {
	for _, x := range s[from:] {
		if x == v {
			return true
		}
	}
	return false
}

// hash64 maps a label to its ring position: the first 8 bytes of SHA-256,
// platform-independent and stable across releases (JobKeys are themselves
// SHA-256 hex, so routing inherits the job identity's collision resistance).
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}
