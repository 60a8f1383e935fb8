package cluster

import (
	"math"
	"testing"

	"blmr/internal/sim"
)

func smallCfg() Config {
	cfg := Default()
	cfg.Nodes = 4
	cfg.SpeedSpread = 0
	cfg.TransferChunkBytes = 1 << 20
	return cfg
}

func TestComputeScalesWithSpeed(t *testing.T) {
	k := sim.NewKernel()
	cfg := smallCfg()
	c := New(k, cfg)
	c.Nodes[1].Speed = 0.5
	var fast, slow sim.Time
	k.Spawn("fast", func(p *sim.Proc) {
		c.Nodes[0].Compute(p, 10)
		fast = p.Now()
	})
	k.Spawn("slow", func(p *sim.Proc) {
		c.Nodes[1].Compute(p, 10)
		slow = p.Now()
	})
	k.Run()
	if fast != 10 {
		t.Fatalf("fast node took %v", fast)
	}
	if slow != 20 {
		t.Fatalf("half-speed node took %v, want 20", slow)
	}
}

func TestDiskSerializesConcurrentIO(t *testing.T) {
	k := sim.NewKernel()
	cfg := smallCfg()
	cfg.DiskMBps = 100 // 100 MB/s
	c := New(k, cfg)
	n := c.Nodes[0]
	var t1, t2 sim.Time
	k.Spawn("a", func(p *sim.Proc) { n.DiskWrite(p, 100e6); t1 = p.Now() })
	k.Spawn("b", func(p *sim.Proc) { n.DiskWrite(p, 100e6); t2 = p.Now() })
	k.Run()
	// 200 MB total through one 100 MB/s disk: last finisher at ~2s.
	last := math.Max(t1, t2)
	if math.Abs(last-2.0) > 0.01 {
		t.Fatalf("last disk writer finished at %v, want ~2.0", last)
	}
}

func TestTransferTimeMatchesBandwidth(t *testing.T) {
	k := sim.NewKernel()
	cfg := smallCfg()
	cfg.NICMBps = 100
	cfg.Oversubscription = 1
	c := New(k, cfg)
	var done sim.Time
	k.Spawn("xfer", func(p *sim.Proc) {
		c.Transfer(p, c.Nodes[0], c.Nodes[1], 500e6)
		done = p.Now()
	})
	k.Run()
	if math.Abs(done-5.0) > 0.01 {
		t.Fatalf("500MB over 100MB/s took %v, want ~5.0", done)
	}
}

func TestLocalTransferIsFree(t *testing.T) {
	k := sim.NewKernel()
	c := New(k, smallCfg())
	var done sim.Time = -1
	k.Spawn("xfer", func(p *sim.Proc) {
		c.Transfer(p, c.Nodes[2], c.Nodes[2], 1e9)
		done = p.Now()
	})
	k.Run()
	if done != 0 {
		t.Fatalf("local transfer took %v, want 0", done)
	}
}

func TestUplinkContention(t *testing.T) {
	// Two flows out of the same source share its uplink: total time doubles.
	k := sim.NewKernel()
	cfg := smallCfg()
	cfg.NICMBps = 100
	cfg.Oversubscription = 1
	c := New(k, cfg)
	var d1, d2 sim.Time
	k.Spawn("f1", func(p *sim.Proc) { c.Transfer(p, c.Nodes[0], c.Nodes[1], 100e6); d1 = p.Now() })
	k.Spawn("f2", func(p *sim.Proc) { c.Transfer(p, c.Nodes[0], c.Nodes[2], 100e6); d2 = p.Now() })
	k.Run()
	if math.Abs(math.Max(d1, d2)-2.0) > 0.05 {
		t.Fatalf("shared-uplink flows finished at %v/%v, want last ~2.0", d1, d2)
	}
}

func TestCoreOversubscriptionThrottles(t *testing.T) {
	// 4 nodes, oversubscription 4 => 1 concurrent flow through the core.
	k := sim.NewKernel()
	cfg := smallCfg()
	cfg.NICMBps = 100
	cfg.Oversubscription = 4
	c := New(k, cfg)
	var last sim.Time
	k.Spawn("f1", func(p *sim.Proc) {
		c.Transfer(p, c.Nodes[0], c.Nodes[1], 100e6)
		if p.Now() > last {
			last = p.Now()
		}
	})
	k.Spawn("f2", func(p *sim.Proc) {
		c.Transfer(p, c.Nodes[2], c.Nodes[3], 100e6)
		if p.Now() > last {
			last = p.Now()
		}
	})
	k.Run()
	// Disjoint node pairs, but the single core token serializes them: ~2s.
	if math.Abs(last-2.0) > 0.05 {
		t.Fatalf("oversubscribed flows finished at %v, want ~2.0", last)
	}
}

func TestNonBlockingCoreParallelism(t *testing.T) {
	k := sim.NewKernel()
	cfg := smallCfg()
	cfg.NICMBps = 100
	cfg.Oversubscription = 1
	c := New(k, cfg)
	var last sim.Time
	k.Spawn("f1", func(p *sim.Proc) {
		c.Transfer(p, c.Nodes[0], c.Nodes[1], 100e6)
		if p.Now() > last {
			last = p.Now()
		}
	})
	k.Spawn("f2", func(p *sim.Proc) {
		c.Transfer(p, c.Nodes[2], c.Nodes[3], 100e6)
		if p.Now() > last {
			last = p.Now()
		}
	})
	k.Run()
	if math.Abs(last-1.0) > 0.05 {
		t.Fatalf("disjoint flows finished at %v, want ~1.0 (parallel)", last)
	}
}

func TestHeterogeneityWithinBounds(t *testing.T) {
	k := sim.NewKernel()
	cfg := Default()
	cfg.Nodes = 50
	cfg.SpeedSpread = 0.2
	c := New(k, cfg)
	varied := false
	for _, n := range c.Nodes {
		if n.Speed < 0.8-1e-9 || n.Speed > 1.2+1e-9 {
			t.Fatalf("node %d speed %v outside [0.8,1.2]", n.ID, n.Speed)
		}
		if math.Abs(n.Speed-1) > 0.01 {
			varied = true
		}
	}
	if !varied {
		t.Fatal("no heterogeneity generated")
	}
	// Determinism: same seed, same speeds.
	c2 := New(sim.NewKernel(), cfg)
	for i := range c.Nodes {
		if c.Nodes[i].Speed != c2.Nodes[i].Speed {
			t.Fatal("speeds not reproducible")
		}
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(sim.NewKernel(), Config{Nodes: 0})
}
