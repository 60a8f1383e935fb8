package dfs

import (
	"fmt"
	"math"
	"testing"

	"blmr/internal/cluster"
	"blmr/internal/core"
	"blmr/internal/sim"
	"blmr/internal/workload"
)

func mkCluster(k *sim.Kernel, nodes int) *cluster.Cluster {
	cfg := cluster.Default()
	cfg.Nodes = nodes
	cfg.SpeedSpread = 0
	cfg.DiskMBps = 100
	cfg.NICMBps = 100
	cfg.Oversubscription = 1
	return cluster.New(k, cfg)
}

func mkSplits(n, per int) [][]core.Record {
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

func TestIngestPlacement(t *testing.T) {
	k := sim.NewKernel()
	c := mkCluster(k, 5)
	d := New(c, 3)
	f := d.Ingest("in", mkSplits(10, 4), 1)
	if len(f.Chunks) != 10 {
		t.Fatalf("chunks = %d", len(f.Chunks))
	}
	counts := map[int]int{}
	for _, ch := range f.Chunks {
		if len(ch.Replicas) != 3 {
			t.Fatalf("chunk %d has %d replicas", ch.Index, len(ch.Replicas))
		}
		seen := map[int]bool{}
		for _, r := range ch.Replicas {
			if seen[r.ID] {
				t.Fatalf("chunk %d has duplicate replica on node %d", ch.Index, r.ID)
			}
			seen[r.ID] = true
		}
		counts[ch.Primary().ID]++
	}
	// Round-robin primaries over 5 nodes, 10 chunks: 2 each.
	for id, c := range counts {
		if c != 2 {
			t.Fatalf("node %d is primary for %d chunks, want 2", id, c)
		}
	}
	if d.files["in"] != f {
		t.Fatal("ingested file not registered")
	}
}

func TestIngestVirtualBytesScaled(t *testing.T) {
	k := sim.NewKernel()
	d := New(mkCluster(k, 3), 1)
	splits := mkSplits(1, 10)
	real := core.RecordsSize(splits[0])
	f := d.Ingest("in", splits, 1000)
	if f.Chunks[0].Bytes != real*1000 {
		t.Fatalf("virtual bytes = %d, want %d", f.Chunks[0].Bytes, real*1000)
	}
}

func TestLocalReadSkipsNetwork(t *testing.T) {
	k := sim.NewKernel()
	c := mkCluster(k, 3)
	d := New(c, 2)
	f := d.Ingest("in", mkSplits(1, 100), 1e6) // big virtual chunk
	ch := f.Chunks[0]
	var localT, remoteT sim.Time
	k.Spawn("local", func(p *sim.Proc) {
		recs := d.ReadChunk(p, ch.Primary(), ch)
		if len(recs) != 100 {
			t.Errorf("records = %d", len(recs))
		}
		localT = p.Now()
	})
	k.Run()
	// Remote read from a node holding no replica.
	k2 := sim.NewKernel()
	c2 := mkCluster(k2, 3)
	d2 := New(c2, 1)
	f2 := d2.Ingest("in", mkSplits(1, 100), 1e6)
	ch2 := f2.Chunks[0]
	var other *cluster.Node
	for _, n := range c2.Nodes {
		if n != ch2.Primary() {
			other = n
			break
		}
	}
	k2.Spawn("remote", func(p *sim.Proc) {
		d2.ReadChunk(p, other, ch2)
		remoteT = p.Now()
	})
	k2.Run()
	if remoteT <= localT {
		t.Fatalf("remote read (%v) should cost more than local (%v)", remoteT, localT)
	}
}

func TestWriteReplicationPipeline(t *testing.T) {
	k := sim.NewKernel()
	c := mkCluster(k, 4)
	d := New(c, 3)
	recs := mkSplits(1, 10)[0]
	var done sim.Time
	k.Spawn("writer", func(p *sim.Proc) {
		ch := d.Write(p, c.Nodes[0], "out", recs, 100e6)
		if len(ch.Replicas) != 3 {
			t.Errorf("replicas = %d", len(ch.Replicas))
		}
		if ch.Primary() != c.Nodes[0] {
			t.Error("writer should be primary replica")
		}
		done = p.Now()
	})
	k.Run()
	// 3 disk writes (1s each at 100MB/s) + 2 transfers (1s each) = ~5s.
	if math.Abs(done-5.0) > 0.1 {
		t.Fatalf("replicated write took %v, want ~5.0", done)
	}
	if f := d.files["out"]; f == nil || len(f.Chunks) != 1 {
		t.Fatal("output file not registered")
	}
}

func TestWriteAppendsChunks(t *testing.T) {
	k := sim.NewKernel()
	c := mkCluster(k, 4)
	d := New(c, 1)
	k.Spawn("w", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			d.Write(p, c.Nodes[i%4], "out", nil, 1000)
		}
	})
	k.Run()
	f := d.files["out"]
	if len(f.Chunks) != 5 {
		t.Fatalf("chunks = %d", len(f.Chunks))
	}
	for i, ch := range f.Chunks {
		if ch.Index != i {
			t.Fatalf("chunk %d has index %d", i, ch.Index)
		}
	}
}

func TestReplicationClampedToClusterSize(t *testing.T) {
	k := sim.NewKernel()
	c := mkCluster(k, 2)
	d := New(c, 5)
	f := d.Ingest("in", mkSplits(1, 1), 1)
	if len(f.Chunks[0].Replicas) != 2 {
		t.Fatalf("replicas = %d, want clamped 2", len(f.Chunks[0].Replicas))
	}
}

func TestRecordsRoundTrip(t *testing.T) {
	k := sim.NewKernel()
	d := New(mkCluster(k, 3), 2)
	data := workload.Text(5, 50, 20, 5)
	f := d.Ingest("in", workload.SplitEvenly(data, 4), 1)
	var got []core.Record
	for _, c := range f.Chunks {
		got = append(got, c.Records...)
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
