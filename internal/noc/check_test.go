package noc

import "testing"

// runChecked drives random traffic while validating all invariants every
// few cycles, across a matrix of configurations.
func runChecked(t *testing.T, mutate func(*Config), cycles int, seed uint64) {
	t.Helper()
	n := newTestNet(t, func(c *Config) {
		// Also exercise the opt-in in-Step invariant gate (Config.CheckEvery),
		// which panics on the first violation; the explicit checks below then
		// report the cycle when one slips through off-period.
		c.CheckEvery = 16
		if mutate != nil {
			mutate(c)
		}
	})
	cfg := n.Config()
	n.SetEjectHandler(func(int, *Packet, int64) {})
	next := func(mod int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int(seed>>33) % mod
	}
	types := []PacketType{ReadRequest, WriteRequest, ReadReply, WriteReply}
	for c := 0; c < cycles; c++ {
		for s := 0; s < cfg.Mesh.Nodes(); s++ {
			if next(10) < 5 {
				d := next(cfg.Mesh.Nodes())
				if d != s {
					n.Inject(s, mkPacket(cfg, types[next(4)], d))
				}
			}
		}
		n.Step()
		if c%13 == 0 {
			if err := n.CheckInvariants(); err != nil {
				t.Fatalf("cycle %d: %v", c, err)
			}
		}
	}
	runUntilIdle(t, n, 100000)
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("after drain: %v", err)
	}
}

func TestInvariantsBaselineXY(t *testing.T) {
	runChecked(t, nil, 1500, 1)
}

func TestInvariantsAdaptive(t *testing.T) {
	runChecked(t, func(c *Config) { c.Routing = RouteMinAdaptive }, 1500, 2)
}

func TestInvariantsAtomicVC(t *testing.T) {
	runChecked(t, func(c *Config) { c.NonAtomicVC = false }, 1500, 3)
}

func TestInvariantsARI(t *testing.T) {
	runChecked(t, func(c *Config) {
		c.Routing = RouteMinAdaptive
		c.PriorityLevels = 2
		c.Nodes = make([]NodeConfig, c.Mesh.Nodes())
		for i := 0; i < c.Mesh.Nodes(); i += 3 {
			c.Nodes[i] = NodeConfig{NI: NISplit, InjSpeedup: 4}
		}
	}, 1500, 4)
}

func TestInvariantsMultiPort(t *testing.T) {
	runChecked(t, func(c *Config) {
		c.Nodes = make([]NodeConfig, c.Mesh.Nodes())
		for i := 0; i < c.Mesh.Nodes(); i += 4 {
			c.Nodes[i] = NodeConfig{NI: NIMultiPort, InjPorts: 2}
		}
	}, 1500, 5)
}

func TestInvariantsTwoVCs(t *testing.T) {
	runChecked(t, func(c *Config) {
		c.VCs = 2
		c.Routing = RouteMinAdaptive
	}, 1500, 6)
}

func TestInvariantsWideLinks(t *testing.T) {
	runChecked(t, func(c *Config) { c.LinkBits = 256 }, 1000, 7)
}

func TestInvariantsHighEjectRate(t *testing.T) {
	runChecked(t, func(c *Config) { c.EjectRate = 4 }, 1000, 8)
}

// TestInvariantsWideRouter runs routers whose VC sets span several bitset
// words: 32 VCs on nodes with three injection ports (7 ports x 32 = 224
// input VCs) and full injection speedup (100 switch-ports, two words of
// output requests).
func TestInvariantsWideRouter(t *testing.T) {
	runChecked(t, func(c *Config) {
		c.VCs = 32
		c.Routing = RouteMinAdaptive
		c.PriorityLevels = 2
		c.Nodes = make([]NodeConfig, c.Mesh.Nodes())
		for i := 0; i < c.Mesh.Nodes(); i += 3 {
			c.Nodes[i] = NodeConfig{NI: NIMultiPort, InjPorts: 3, InjSpeedup: 32}
		}
	}, 800, 9)
}

// TestInvariantsUnderFaults drives random traffic through every fault hook
// at once — link stalls, input-port freezes, corruption windows and
// permanent link kills (so waiting VCs re-route) — on a prioritised ARI
// network, with invariants checked every cycle.
func TestInvariantsUnderFaults(t *testing.T) {
	n := recoveryNet(t, func(c *Config) {
		c.Routing = RouteMinAdaptive
		c.PriorityLevels = 2
		c.StarvationLimit = 40 // so the starvation guard flips during the run
		c.Nodes = make([]NodeConfig, c.Mesh.Nodes())
		for i := 0; i < c.Mesh.Nodes(); i += 3 {
			c.Nodes[i] = NodeConfig{NI: NISplit, InjSpeedup: 4}
		}
	})
	cfg := n.Config()
	nodes := cfg.Mesh.Nodes()
	n.SetEjectHandler(func(int, *Packet, int64) {})
	seed := uint64(11)
	next := func(mod int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int(seed>>33) % mod
	}
	types := []PacketType{ReadRequest, WriteRequest, ReadReply, WriteReply}
	kills := 0
	for c := 0; c < 1500; c++ {
		for s := 0; s < nodes; s++ {
			if d := next(nodes); next(10) < 4 && d != s {
				n.Inject(s, mkPacket(cfg, types[next(4)], d))
			}
		}
		now := n.Now()
		switch next(40) {
		case 0:
			n.StallLink(next(nodes), next(numOutPorts), now+int64(4+next(30)))
		case 1:
			node := next(nodes)
			n.FreezeInputPort(node, next(len(n.routers[node].in)), now+int64(4+next(30)))
		case 2:
			n.CorruptLink(next(nodes), next(NumDirections), now+int64(4+next(16)))
		case 3:
			if c > 300 && kills < 3 && n.KillLink(next(nodes), next(NumDirections)) {
				kills++
			}
		}
		n.Step()
	}
	if kills == 0 {
		t.Fatal("no link was killed: the re-route path went unexercised")
	}
	runUntilIdle(t, n, 100000)
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("after drain: %v", err)
	}
}

// TestOldestPacketAgeMatchesOldestPackets checks the watchdog's min-scan
// against the sorted diagnostic listing under random and faulty traffic,
// and that the scan does not allocate.
func TestOldestPacketAgeMatchesOldestPackets(t *testing.T) {
	for _, faulty := range []bool{false, true} {
		n := recoveryNet(t, func(c *Config) { c.Routing = RouteMinAdaptive })
		cfg := n.Config()
		nodes := cfg.Mesh.Nodes()
		n.SetEjectHandler(func(int, *Packet, int64) {})
		seed := uint64(3)
		next := func(mod int) int {
			seed = seed*6364136223846793005 + 1442695040888963407
			return int(seed>>33) % mod
		}
		if n.OldestPacketAge() != 0 {
			t.Fatal("empty network reports a nonzero oldest age")
		}
		for c := 0; c < 1200; c++ {
			for s := 0; s < nodes; s++ {
				if d := next(nodes); next(10) < 4 && d != s {
					n.Inject(s, mkPacket(cfg, ReadReply, d))
				}
			}
			if faulty && next(8) == 0 {
				n.StallLink(next(nodes), next(numOutPorts), n.Now()+int64(10+next(40)))
				n.CorruptLink(next(nodes), next(NumDirections), n.Now()+8)
			}
			n.Step()
			if c%7 != 0 {
				continue
			}
			want := int64(0)
			if old := n.OldestPackets(1); len(old) > 0 {
				want = n.Now() - old[0].CreatedAt
			}
			if got := n.OldestPacketAge(); got != want {
				t.Fatalf("faulty=%v cycle %d: OldestPacketAge %d, OldestPackets(1) age %d", faulty, c, got, want)
			}
		}
		if n.OldestPacketAge() == 0 {
			t.Fatalf("faulty=%v: loaded network reports no in-flight packet", faulty)
		}
		if allocs := testing.AllocsPerRun(100, func() { n.OldestPacketAge() }); allocs != 0 {
			t.Fatalf("OldestPacketAge allocates %.1f times per call; want 0", allocs)
		}
	}
}
