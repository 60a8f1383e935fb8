// Package cluster models a MapReduce datacenter on the sim kernel: nodes
// with CPUs of (optionally) heterogeneous speed, exclusive-access disks,
// and full-duplex NICs connected through a core switch whose aggregate
// capacity can be oversubscribed — the commodity-cluster properties (skewed
// machines, oversubscribed links) that create the mapper slack the paper
// exploits. A node's map/reduce task slots are a count in Config: who holds
// one is the scheduler's state (exec's decision core, driven by simmr), not
// a resource of the node.
package cluster

import (
	"fmt"

	"blmr/internal/sim"
	"blmr/internal/workload"
)

// Config describes the simulated cluster. The defaults (see Default) mirror
// the paper's testbed: 15 worker nodes, 4 map + 4 reduce slots each (dual
// quad-core), GigE NICs.
type Config struct {
	// Nodes is the number of worker nodes (the paper used 15 workers plus
	// one master; the master is not simulated as it does no data work).
	Nodes int
	// MapSlots and ReduceSlots are concurrent task slots per node.
	MapSlots    int
	ReduceSlots int
	// DiskMBps is sequential disk bandwidth per node, MB/s.
	DiskMBps float64
	// NICMBps is per-node link bandwidth, MB/s (GigE ~ 117 MB/s).
	NICMBps float64
	// Oversubscription divides the core switch capacity: aggregate core
	// bandwidth = Nodes*NICMBps/Oversubscription. 1 = non-blocking.
	Oversubscription float64
	// SpeedSpread introduces heterogeneity: node speed is uniform in
	// [1-SpeedSpread, 1+SpeedSpread]. 0 = homogeneous.
	SpeedSpread float64
	// TransferChunkBytes is the store-and-forward granularity for network
	// transfers and disk bursts (virtual bytes).
	TransferChunkBytes int64
	// Seed drives heterogeneity assignment.
	Seed uint64
}

// Default returns the paper-shaped cluster configuration.
func Default() Config {
	return Config{
		Nodes:              15,
		MapSlots:           4,
		ReduceSlots:        4,
		DiskMBps:           80,
		NICMBps:            117,
		Oversubscription:   2,
		SpeedSpread:        0.15,
		TransferChunkBytes: 4 << 20,
		Seed:               1,
	}
}

// Cluster is a set of simulated nodes plus the shared core switch.
type Cluster struct {
	K     *sim.Kernel
	Cfg   Config
	Nodes []*Node
	core  *sim.Resource
}

// Node is one worker machine.
type Node struct {
	ID       int
	Speed    float64
	disk     *sim.Resource
	up, down *sim.Resource
	cfg      *Config
	cluster  *Cluster
}

// New builds a cluster on kernel k.
func New(k *sim.Kernel, cfg Config) *Cluster {
	if cfg.Nodes <= 0 || cfg.MapSlots <= 0 || cfg.ReduceSlots <= 0 {
		panic("cluster: invalid slot configuration")
	}
	if cfg.DiskMBps <= 0 || cfg.NICMBps <= 0 {
		panic("cluster: bandwidths must be positive")
	}
	if cfg.Oversubscription < 1 {
		cfg.Oversubscription = 1
	}
	if cfg.TransferChunkBytes <= 0 {
		cfg.TransferChunkBytes = 4 << 20
	}
	c := &Cluster{K: k, Cfg: cfg}
	// Core switch capacity expressed as concurrent full-rate flows.
	flows := int64(float64(cfg.Nodes) / cfg.Oversubscription)
	if flows < 1 {
		flows = 1
	}
	c.core = sim.NewResource(k, "core-switch", flows)
	rng := workload.NewRNG(cfg.Seed)
	for i := 0; i < cfg.Nodes; i++ {
		speed := 1.0
		if cfg.SpeedSpread > 0 {
			speed = 1 + cfg.SpeedSpread*(2*rng.Float64()-1)
		}
		n := &Node{
			ID:      i,
			Speed:   speed,
			disk:    sim.NewResource(k, fmt.Sprintf("disk-%d", i), 1),
			up:      sim.NewResource(k, fmt.Sprintf("uplink-%d", i), 1),
			down:    sim.NewResource(k, fmt.Sprintf("downlink-%d", i), 1),
			cfg:     &c.Cfg,
			cluster: c,
		}
		c.Nodes = append(c.Nodes, n)
	}
	return c
}

// Compute busies the caller for cpuSeconds of nominal CPU work, scaled by
// the node's speed (a slow node takes proportionally longer). The caller is
// assumed to hold a task slot, which is the unit of CPU allocation — the
// paper's testbed ran 4+4 slots on 8 cores, so slots are the CPU bound.
func (n *Node) Compute(p *sim.Proc, cpuSeconds float64) {
	if cpuSeconds <= 0 {
		return
	}
	p.Sleep(cpuSeconds / n.Speed)
}

// DiskRead charges a sequential read of the given virtual bytes against the
// node's disk, in chunks so concurrent disk users interleave fairly.
func (n *Node) DiskRead(p *sim.Proc, bytes int64) { n.diskIO(p, bytes) }

// DiskWrite charges a sequential write of the given virtual bytes.
func (n *Node) DiskWrite(p *sim.Proc, bytes int64) { n.diskIO(p, bytes) }

func (n *Node) diskIO(p *sim.Proc, bytes int64) {
	if bytes <= 0 {
		return
	}
	chunk := n.cfg.TransferChunkBytes
	bps := n.cfg.DiskMBps * 1e6
	for bytes > 0 {
		b := bytes
		if b > chunk {
			b = chunk
		}
		n.disk.Use(p, 1, func() { p.Sleep(float64(b) / bps) })
		bytes -= b
	}
}

// Transfer moves bytes from src to dst across the network: each chunk holds
// the source uplink, the destination downlink, and one core-switch flow
// token for bytes/NIC-rate seconds. Local "transfers" (src == dst) are
// free — the write-local/read-remote model means local reads skip the
// network entirely.
func (c *Cluster) Transfer(p *sim.Proc, src, dst *Node, bytes int64) {
	if bytes <= 0 || src == dst {
		return
	}
	chunk := c.Cfg.TransferChunkBytes
	bps := c.Cfg.NICMBps * 1e6
	for bytes > 0 {
		b := bytes
		if b > chunk {
			b = chunk
		}
		// Fixed acquisition order (uplink, downlink, core) prevents
		// circular waits.
		src.up.Acquire(p, 1)
		dst.down.Acquire(p, 1)
		c.core.Acquire(p, 1)
		p.Sleep(float64(b) / bps)
		c.core.Release(1)
		dst.down.Release(1)
		src.up.Release(1)
		bytes -= b
	}
}
