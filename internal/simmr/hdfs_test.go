package simmr

import (
	"fmt"
	"math"
	"testing"

	"blmr/internal/cluster"
	"blmr/internal/core"
	"blmr/internal/sim"
	"blmr/internal/workload"
)

func hdfsCluster(k *sim.Kernel, nodes int) *cluster.Cluster {
	cfg := cluster.Default()
	cfg.Nodes = nodes
	cfg.SpeedSpread = 0
	cfg.DiskMBps = 100
	cfg.NICMBps = 100
	cfg.Oversubscription = 1
	return cluster.New(k, cfg)
}

func hdfsSplits(n, per int) [][]core.Record {
	var splits [][]core.Record
	id := 0
	for i := 0; i < n; i++ {
		var recs []core.Record
		for j := 0; j < per; j++ {
			recs = append(recs, core.Record{Key: fmt.Sprintf("k%06d", id), Value: "v"})
			id++
		}
		splits = append(splits, recs)
	}
	return splits
}

func TestHDFSIngestPlacement(t *testing.T) {
	k := sim.NewKernel()
	c := hdfsCluster(k, 5)
	d := newHDFS(c, 3)
	f := d.ingest("in", hdfsSplits(10, 4), 1)
	if len(f.chunks) != 10 {
		t.Fatalf("chunks = %d", len(f.chunks))
	}
	counts := map[int]int{}
	for i, ch := range f.chunks {
		if len(ch.replicas) != 3 {
			t.Fatalf("chunk %d has %d replicas", i, len(ch.replicas))
		}
		seen := map[int]bool{}
		for _, r := range ch.replicas {
			if seen[r.ID] {
				t.Fatalf("chunk %d has duplicate replica on node %d", i, r.ID)
			}
			seen[r.ID] = true
		}
		counts[ch.primary().ID]++
	}
	// Round-robin primaries over 5 nodes, 10 chunks: 2 each.
	for id, c := range counts {
		if c != 2 {
			t.Fatalf("node %d is primary for %d chunks, want 2", id, c)
		}
	}
}

func TestHDFSIngestVirtualBytesScaled(t *testing.T) {
	k := sim.NewKernel()
	d := newHDFS(hdfsCluster(k, 3), 1)
	splits := hdfsSplits(1, 10)
	real := core.RecordsSize(splits[0])
	f := d.ingest("in", splits, 1000)
	if f.chunks[0].bytes != real*1000 {
		t.Fatalf("virtual bytes = %d, want %d", f.chunks[0].bytes, real*1000)
	}
}

func TestHDFSLocalReadSkipsNetwork(t *testing.T) {
	k := sim.NewKernel()
	c := hdfsCluster(k, 3)
	d := newHDFS(c, 2)
	f := d.ingest("in", hdfsSplits(1, 100), 1e6) // big virtual chunk
	ch := f.chunks[0]
	var localT, remoteT sim.Time
	k.Spawn("local", func(p *sim.Proc) {
		recs := d.readChunk(p, ch.primary(), ch)
		if len(recs) != 100 {
			t.Errorf("records = %d", len(recs))
		}
		localT = p.Now()
	})
	k.Run()
	// Remote read from a node holding no replica.
	k2 := sim.NewKernel()
	c2 := hdfsCluster(k2, 3)
	d2 := newHDFS(c2, 1)
	f2 := d2.ingest("in", hdfsSplits(1, 100), 1e6)
	ch2 := f2.chunks[0]
	var other *cluster.Node
	for _, n := range c2.Nodes {
		if n != ch2.primary() {
			other = n
			break
		}
	}
	k2.Spawn("remote", func(p *sim.Proc) {
		d2.readChunk(p, other, ch2)
		remoteT = p.Now()
	})
	k2.Run()
	if remoteT <= localT {
		t.Fatalf("remote read (%v) should cost more than local (%v)", remoteT, localT)
	}
}

func TestHDFSWriteReplicationPipeline(t *testing.T) {
	k := sim.NewKernel()
	c := hdfsCluster(k, 4)
	d := newHDFS(c, 3)
	var done sim.Time
	k.Spawn("writer", func(p *sim.Proc) {
		d.write(p, c.Nodes[0], 100e6)
		done = p.Now()
	})
	k.Run()
	// The writer is a replica: 3 disk writes (1s each at 100MB/s) + 2
	// transfers (1s each) = ~5s. A pipeline without the writer among its
	// replicas would pay a third transfer, ~6s.
	if math.Abs(done-5.0) > 0.1 {
		t.Fatalf("replicated write took %v, want ~5.0", done)
	}
}

func TestHDFSReplicationClampedToClusterSize(t *testing.T) {
	k := sim.NewKernel()
	c := hdfsCluster(k, 2)
	d := newHDFS(c, 5)
	f := d.ingest("in", hdfsSplits(1, 1), 1)
	if len(f.chunks[0].replicas) != 2 {
		t.Fatalf("replicas = %d, want clamped 2", len(f.chunks[0].replicas))
	}
}

func TestHDFSRecordsRoundTrip(t *testing.T) {
	k := sim.NewKernel()
	d := newHDFS(hdfsCluster(k, 3), 2)
	data := workload.Text(5, 50, 20, 5)
	f := d.ingest("in", workload.SplitEvenly(data, 4), 1)
	var got []core.Record
	for _, c := range f.chunks {
		got = append(got, c.records...)
	}
	if len(got) != len(data) {
		t.Fatalf("records = %d, want %d", len(got), len(data))
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatal("record order not preserved across chunks")
		}
	}
}
