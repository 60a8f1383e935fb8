// Package dfs is a chunked, replicated distributed file system over the
// simulated cluster — the HDFS stand-in. Files are split into chunks, each
// chunk placed on `replication` nodes; reads prefer a local replica
// (map-task data locality), writes stream through a replication pipeline
// exactly like HDFS: local disk write plus chained transfers to the remote
// replicas.
//
// Chunk payloads are real records held once in memory; replica placement is
// metadata. Only the virtual byte size participates in timing.
package dfs

import (
	"blmr/internal/cluster"
	"blmr/internal/core"
	"blmr/internal/sim"
	"blmr/internal/workload"
)

// Chunk is one replicated unit of a file.
type Chunk struct {
	Index    int
	Bytes    int64 // virtual bytes used for timing and capacity accounting
	Replicas []*cluster.Node
	Records  []core.Record
}

// Primary returns the first replica — the data-local execution target.
func (c *Chunk) Primary() *cluster.Node { return c.Replicas[0] }

// File is a named sequence of chunks.
type File struct {
	Name   string
	Chunks []*Chunk
}

// DFS is the namespace plus placement policy.
type DFS struct {
	c           *cluster.Cluster
	replication int
	files       map[string]*File
	rng         *workload.RNG
	next        int // rotating placement cursor
}

// New creates a DFS with the given replication factor (the paper used 3).
func New(c *cluster.Cluster, replication int) *DFS {
	if replication < 1 {
		replication = 1
	}
	if replication > len(c.Nodes) {
		replication = len(c.Nodes)
	}
	return &DFS{
		c:           c,
		replication: replication,
		files:       make(map[string]*File),
		rng:         workload.NewRNG(0xD15C),
	}
}

// Ingest registers input data as a file without charging simulation time
// (the dataset exists before the job starts, as in the paper's experiments).
// splits become chunks; virtual sizes are the record sizes scaled by
// byteScale. Replicas are placed round-robin from a rotating start so load
// is balanced and deterministic.
func (d *DFS) Ingest(name string, splits [][]core.Record, byteScale float64) *File {
	f := &File{Name: name}
	for i, recs := range splits {
		ch := &Chunk{
			Index:   i,
			Bytes:   int64(float64(core.RecordsSize(recs)) * byteScale),
			Records: recs,
		}
		for r := 0; r < d.replication; r++ {
			ch.Replicas = append(ch.Replicas, d.c.Nodes[(d.next+r)%len(d.c.Nodes)])
		}
		d.next = (d.next + 1) % len(d.c.Nodes)
		f.Chunks = append(f.Chunks, ch)
	}
	d.files[name] = f
	return f
}

// ReadChunk reads a chunk from the perspective of a task on node at: a local
// replica costs one disk read; otherwise the nearest replica's disk read
// plus a network transfer.
func (d *DFS) ReadChunk(p *sim.Proc, at *cluster.Node, ch *Chunk) []core.Record {
	var src *cluster.Node
	for _, r := range ch.Replicas {
		if r == at {
			src = r
			break
		}
	}
	if src == nil {
		src = ch.Replicas[0]
	}
	src.DiskRead(p, ch.Bytes)
	d.c.Transfer(p, src, at, ch.Bytes) // no-op when src == at
	return ch.Records
}

// Write appends one chunk to file name through a replication pipeline
// rooted at node from: local disk write, then chained transfer+write to each
// additional replica. Returns the created chunk.
func (d *DFS) Write(p *sim.Proc, from *cluster.Node, name string, recs []core.Record, virtBytes int64) *Chunk {
	f := d.files[name]
	if f == nil {
		f = &File{Name: name}
		d.files[name] = f
	}
	replicas := []*cluster.Node{from}
	cursor := d.next
	for len(replicas) < d.replication {
		cand := d.c.Nodes[cursor%len(d.c.Nodes)]
		cursor++
		if cand != from {
			replicas = append(replicas, cand)
		}
	}
	d.next = (d.next + 1) % len(d.c.Nodes)
	// Replication pipeline: each hop transfers then writes. Pipelining is
	// approximated hop-sequentially at chunk granularity (the cluster's
	// transfer chunking interleaves concurrent writers).
	prev := from
	for i, rep := range replicas {
		if i > 0 {
			d.c.Transfer(p, prev, rep, virtBytes)
		}
		rep.DiskWrite(p, virtBytes)
		prev = rep
	}
	ch := &Chunk{Index: len(f.Chunks), Bytes: virtBytes, Replicas: replicas, Records: recs}
	f.Chunks = append(f.Chunks, ch)
	return ch
}
