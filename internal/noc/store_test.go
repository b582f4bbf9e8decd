package noc

import (
	"reflect"
	"sync"
	"testing"
)

// storeTraffic injects seeded random reply traffic for cycles cycles and
// returns the mesh flit count and mean reply latency.
func storeTraffic(n *Network, cycles int) (uint64, float64) {
	cfg := n.Config()
	n.SetEjectHandler(func(node int, pkt *Packet, now int64) {})
	seed := uint64(7)
	next := func(mod int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int(seed>>33) % mod
	}
	for cycle := 0; cycle < cycles; cycle++ {
		for s := 0; s < cfg.Mesh.Nodes(); s++ {
			if next(10) < 4 {
				if d := next(cfg.Mesh.Nodes()); d != s {
					n.Inject(s, mkPacket(cfg, ReadReply, d))
				}
			}
		}
		n.Step()
	}
	st := n.Stats()
	return st.MeshLinkFlits, st.AvgLatency(ReadReply)
}

// allZero reports whether every element of b's whole capacity is zero.
func allZero[T any](b *block[T]) bool {
	for _, v := range b.buf[:cap(b.buf)] {
		if !reflect.ValueOf(&v).Elem().IsZero() {
			return false
		}
	}
	return true
}

// TestNetworkStoreReuse closes a larger network with traffic in flight and
// checks that the storage it hands back holds nothing of it, and that a
// network built on reused storage runs exactly like one built fresh.
func TestNetworkStoreReuse(t *testing.T) {
	adaptive := func(c *Config) {
		c.Routing = RouteMinAdaptive
		c.PriorityLevels = 2
	}
	fresh := newTestNet(t, adaptive)
	wantFlits, wantLat := storeTraffic(fresh, 1500)

	// Two injection ports and split NIs per node: more ports, VCs and
	// flit slots than the network built after it.
	big := newTestNet(t, func(c *Config) {
		adaptive(c)
		c.Nodes = make([]NodeConfig, c.Mesh.Nodes())
		for i := range c.Nodes {
			c.Nodes[i] = NodeConfig{NI: NISplit, InjPorts: 2, InjSpeedup: 2}
		}
	})
	storeTraffic(big, 300)
	if big.InFlight() == 0 {
		t.Fatal("no traffic in flight when the network closed")
	}
	s := big.store
	big.Close()
	big.Close()
	if !allZero(&s.routers) || !allZero(&s.nis) || !allZero(&s.ejectors) ||
		!allZero(&s.inPorts) || !allZero(&s.vcs) || !allZero(&s.vcPtrs) ||
		!allZero(&s.outPorts) || !allZero(&s.outVCs) || !allZero(&s.credits) ||
		!allZero(&s.queues) || !allZero(&s.flits) {
		t.Fatal("a closed network's store still holds its state")
	}

	reused := newTestNet(t, adaptive)
	if reused.store != s {
		t.Log("the pool dropped the closed store; the network was built fresh")
	}
	flits, lat := storeTraffic(reused, 1500)
	if flits != wantFlits || lat != wantLat {
		t.Fatalf("network on reused storage: %d flits, latency %v; fresh: %d, %v", flits, lat, wantFlits, wantLat)
	}
	if err := reused.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestNetworkStoreReuseConcurrent builds, runs and closes networks from
// several goroutines at once, so stores pass between goroutines through the
// pool; every run must match a network built fresh.
func TestNetworkStoreReuseConcurrent(t *testing.T) {
	cfgs := []Config{
		testConfig(t, nil),
		testConfig(t, func(c *Config) {
			c.Nodes = make([]NodeConfig, c.Mesh.Nodes())
			for i := range c.Nodes {
				c.Nodes[i] = NodeConfig{NI: NISplit, InjPorts: 2, InjSpeedup: 2}
			}
		}),
	}
	type outcome struct {
		flits uint64
		lat   float64
	}
	want := make([]outcome, len(cfgs))
	for i, cfg := range cfgs {
		n, err := NewNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i].flits, want[i].lat = storeTraffic(n, 400)
		n.Close()
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 6; r++ {
				i := (g + r) % len(cfgs)
				n, err := NewNetwork(cfgs[i])
				if err != nil {
					t.Error(err)
					return
				}
				var got outcome
				got.flits, got.lat = storeTraffic(n, 400)
				n.Close()
				if got != want[i] {
					t.Errorf("goroutine %d run %d config %d: %+v, fresh %+v", g, r, i, got, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
}
