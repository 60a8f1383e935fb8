package simmr

// The simulated HDFS the paper's jobs read from and write back to: a
// chunked, replicated file system over the simulated cluster. An input file
// is split into chunks, each placed on `replication` nodes; reads prefer a
// local replica (map-task data locality), and writes stream through a
// replication pipeline exactly like HDFS: a local disk write plus chained
// transfers to the remote replicas.
//
// Chunk payloads are real records held once in memory; replica placement is
// metadata. Only the virtual byte size participates in timing. Output is
// charged, not stored: a reducer's records go to Result.Output, and write
// only pays for the pipeline.

import (
	"blmr/internal/cluster"
	"blmr/internal/core"
	"blmr/internal/sim"
)

// chunk is one replicated unit of an input file: one map task's split.
type chunk struct {
	bytes    int64 // virtual bytes used for timing
	replicas []*cluster.Node
	records  []core.Record
}

// primary returns the first replica — the data-local execution target.
func (c *chunk) primary() *cluster.Node { return c.replicas[0] }

// File is a job's input in the simulated HDFS: a named sequence of chunks.
type File struct {
	Name   string
	chunks []*chunk
}

// hdfs is the placement policy over the cluster's nodes.
type hdfs struct {
	c           *cluster.Cluster
	replication int
	next        int // rotating placement cursor, shared by ingest and write
}

// newHDFS creates an HDFS with the given replication factor (the paper used
// 3), clamped to the cluster's size.
func newHDFS(c *cluster.Cluster, replication int) *hdfs {
	if replication < 1 {
		replication = 1
	}
	if replication > len(c.Nodes) {
		replication = len(c.Nodes)
	}
	return &hdfs{c: c, replication: replication}
}

// ingest registers input data as a file without charging simulation time
// (the dataset exists before the job starts, as in the paper's experiments).
// splits become chunks; virtual sizes are the record sizes scaled by
// byteScale. Replicas are placed round-robin from a rotating start so load
// is balanced and deterministic.
func (d *hdfs) ingest(name string, splits [][]core.Record, byteScale float64) *File {
	f := &File{Name: name}
	for _, recs := range splits {
		ch := &chunk{
			bytes:   int64(float64(core.RecordsSize(recs)) * byteScale),
			records: recs,
		}
		for r := 0; r < d.replication; r++ {
			ch.replicas = append(ch.replicas, d.c.Nodes[(d.next+r)%len(d.c.Nodes)])
		}
		d.next = (d.next + 1) % len(d.c.Nodes)
		f.chunks = append(f.chunks, ch)
	}
	return f
}

// readChunk reads a chunk from the perspective of a task on node at: a local
// replica costs one disk read; otherwise the nearest replica's disk read
// plus a network transfer.
func (d *hdfs) readChunk(p *sim.Proc, at *cluster.Node, ch *chunk) []core.Record {
	var src *cluster.Node
	for _, r := range ch.replicas {
		if r == at {
			src = r
			break
		}
	}
	if src == nil {
		src = ch.replicas[0]
	}
	src.DiskRead(p, ch.bytes)
	d.c.Transfer(p, src, at, ch.bytes) // no-op when src == at
	return ch.records
}

// write charges virtBytes of output written from node from through a
// replication pipeline rooted there: local disk write, then chained
// transfer+write to each additional replica.
func (d *hdfs) write(p *sim.Proc, from *cluster.Node, virtBytes int64) {
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
}
