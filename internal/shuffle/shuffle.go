// Package shuffle is the pluggable shuffle data plane of the real-concurrency
// engine: it moves partitioned intermediate records from map tasks to reduce
// tasks. Two transports implement the same Transport contract:
//
//   - InProc: shared-memory runs plus batched per-reducer channels — the
//     original single-process engine's data plane (zero-copy, free-list
//     batch recycling).
//   - TCP: map tasks seal every wave of output as codec-encoded, key-sorted
//     multi-partition segment files (the spill-run format of dfs.RunDir,
//     Hadoop's io.sort layout), and reduce tasks fetch partition sections
//     from a loopback TCP run-server (Server) — the wire path the
//     multi-process mode (internal/mpexec) uses between worker processes.
//
// Two consumption disciplines are offered, mirroring the engine's two
// execution modes. Stream discipline (pipelined): map tasks Send record
// batches and reduce tasks drain them with NextBatch as they arrive. Run
// discipline (barrier, and pipelined over the run exchange): map
// tasks publish key-sorted runs per partition with PublishWave, and reduce
// tasks either merge every run after the map barrier (Runs) or stream each
// map task's runs as it completes (NextBatch).
package shuffle

import (
	"fmt"
	"sync"

	"blmr/internal/core"
	"blmr/internal/dfs"
	"blmr/internal/sortx"
)

// Kind names a shuffle transport, used in configs and flags.
type Kind int

// Available transports.
const (
	// InProc exchanges intermediate data through process memory: batched
	// channels (stream discipline) and shared record slices (run
	// discipline). Run-discipline map tasks' sealed spill waves go to disk
	// through Config.Dir.
	InProc Kind = iota
	// TCP seals every map output wave as a spill-run segment file served by
	// a loopback TCP run-server: reduce tasks fetch partition sections over
	// the wire.
	TCP
)

var kindNames = [...]string{"inproc", "tcp"}

func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return "unknown"
	}
	return kindNames[k]
}

// ParseKind converts a flag string (inproc|tcp) to a Kind.
func ParseKind(s string) (Kind, error) {
	for i, n := range kindNames {
		if s == n {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("shuffle: unknown transport %q (want inproc|tcp)", s)
}

// The batch shape of the pipelined shuffle, the same on every engine: a
// batch holds BatchSize records — a mapper's channel send, a run-exchange
// source's NextBatch — and a partition's channel holds QueueCap batches, so
// a lagging reducer has QueueCap*BatchSize records of slack before its
// mappers block. The simulator's pipelined reducer queue holds QueueCap
// batches too.
const (
	BatchSize = 256
	QueueCap  = 64
)

// Config parameterizes a transport for one job execution.
type Config struct {
	// Maps and Parts are the map-task and partition (reduce-task) counts.
	Maps, Parts int
	// Dir stores sealed run files. Required for TCP, and for InProc when map
	// tasks seal spill waves (Options.SpillBytes).
	Dir *dfs.RunDir
	// MergeFanIn is the external merge's fan-in cap (Options.MergeFanIn):
	// the TCP transport uses it to bound pipelined section prefetch per
	// reduce source (default 64).
	MergeFanIn int
	// DecodeWorkers, QueueCap and BatchSize are read by no engine: every
	// fetched section decodes on the goroutine that consumes it, and the
	// batch shape is the constants BatchSize and QueueCap. The fields stay
	// only because the benchmark module sets them; they go with ROADMAP
	// item 1b.
	DecodeWorkers, QueueCap, BatchSize int
}

// Transport is one job execution's shuffle data plane. MapSink and
// ReduceSource are safe to call from concurrent tasks; each returned sink
// or source is single-owner.
type Transport interface {
	// MapSink returns map task m's output sink.
	MapSink(m int) MapSink
	// ReduceSource returns partition r's consumer side.
	ReduceSource(r int) ReduceSource
	// Fail aborts the exchange: every blocked producer and consumer wakes
	// with err. The first call wins; later calls are no-ops.
	Fail(err error)
	// Close releases transport-wide resources (servers, channels). Sealed
	// run files are owned by Config.Dir, not the transport.
	Close() error
}

// MapSink receives one map task's partitioned output. A task uses exactly
// one discipline: Send (stream) or PublishWave (runs). Close marks the
// task's output complete either way.
type MapSink interface {
	// Batch returns an empty batch buffer to fill (stream discipline);
	// transports with a free list hand back recycled buffers.
	Batch() []core.Record
	// Send publishes one filled batch for partition p; buffer ownership
	// transfers to the transport. It blocks on backpressure and fails only
	// after the transport has been failed.
	Send(p int, batch []core.Record) error
	// PublishWave publishes one wave: a key-sorted run per partition (empty
	// partitions are skipped). sealed=true marks a spill crossing — the
	// wave must leave the task's memory before PublishWave returns, and the
	// caller may then reuse the part slices. sealed=false publishes the
	// task's final wave; ownership of the slices transfers, and the caller
	// must not touch them again. The in-proc transport keeps them as the
	// wave's in-memory runs; a RunSink seals them to disk and hands them
	// to core's record-buffer free list (core.RecycleRecords).
	PublishWave(parts [][]core.Record, sealed bool) error
	// Close marks this map task's output complete.
	Close() error
}

// ReduceSource delivers one partition's intermediate data to a reduce task.
type ReduceSource interface {
	// NextBatch blocks for the next batch of records (pipelined
	// consumption); ok=false once every map task's output is drained.
	NextBatch() (batch []core.Record, ok bool, err error)
	// Recycle returns a drained batch buffer to the transport.
	Recycle(batch []core.Record)
	// Runs blocks until every map task has closed its sink (the shuffle
	// barrier) and returns all of the partition's runs in (map task,
	// publish order) order — the ordering whose stable merge reproduces the
	// single-process engine's sort byte-for-byte. Disk- and network-backed
	// runs open lazily and implement io.Closer; the caller closes them.
	Runs() ([]sortx.Run, error)
	// Close releases any readers the source itself still holds.
	Close() error
}

// New builds the transport of the given kind.
func New(kind Kind, cfg Config) (Transport, error) {
	if cfg.MergeFanIn <= 0 {
		cfg.MergeFanIn = 64
	}
	switch kind {
	case InProc:
		return newInProc(cfg), nil
	case TCP:
		if cfg.Dir == nil {
			return nil, fmt.Errorf("shuffle: %v transport needs a run directory", kind)
		}
		srv, err := NewServer()
		if err != nil {
			return nil, err
		}
		return newRunExchange(cfg, srv), nil
	default:
		return nil, fmt.Errorf("shuffle: unknown transport kind %d", kind)
	}
}

// failState is the shared abort latch embedded by every transport.
type failState struct {
	mu   sync.Mutex
	done chan struct{}
	err  error
}

func newFailState() *failState { return &failState{done: make(chan struct{})} }

// fail latches err and wakes every waiter. Only the first call stores err;
// callers must hold no transport locks.
func (f *failState) fail(err error) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	select {
	case <-f.done:
		return false
	default:
	}
	f.err = err
	close(f.done)
	return true
}

// failed returns the latched error, or nil.
func (f *failState) failed() error {
	select {
	case <-f.done:
		if f.err != nil {
			return f.err
		}
		return fmt.Errorf("shuffle: transport aborted")
	default:
		return nil
	}
}
