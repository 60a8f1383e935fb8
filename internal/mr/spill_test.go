package mr

// External-shuffle tests beyond output equivalence (FuzzJob's): the memory
// bound, the merger a bounded pipelined store needs, the KV store under a
// budget, and backpressure on the in-proc stream.

import (
	"testing"
	"time"

	"blmr/internal/apps"
	"blmr/internal/core"
	"blmr/internal/shuffle"
	"blmr/internal/store"
	"blmr/internal/workload"
)

// requireExact asserts two outputs are byte-identical in order — the
// barrier-mode guarantee (deterministic reducer concat + key-sorted,
// arrival-stable records within each reducer).
func requireExact(t *testing.T, name string, a, b []core.Record) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d records", name, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: record %d: %v vs %v", name, i, a[i], b[i])
		}
	}
}

// TestSpillBoundedMemory is the memory-bound acceptance check: a pipelined
// sort whose partial results would occupy megabytes in memory runs with a
// 256KiB budget, and the observed peak store footprint stays within a small
// constant of the budget (threshold crossing + retained encode scratch; the
// bound is ~2x, asserted at 4x for headroom).
func TestSpillBoundedMemory(t *testing.T) {
	const budget = 256 << 10
	input := workload.UniformKeys(2, 200_000, 1<<40)
	unbounded, err := Run(apps.Sort(), input, Options{
		Mappers: 4, Reducers: 2, Mode: Pipelined,
	})
	if err != nil {
		t.Fatal(err)
	}
	bounded, err := Run(apps.Sort(), input, Options{
		Mappers: 4, Reducers: 2, Mode: Pipelined,
		SpillBytes: budget, SpillDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	requireSame(t, "bounded-vs-unbounded", unbounded.Output, bounded.Output)
	if unbounded.PeakPartialBytes < 4*budget {
		t.Fatalf("workload too small to prove anything: unbounded peak %d < 4x budget %d",
			unbounded.PeakPartialBytes, budget)
	}
	if bounded.PeakPartialBytes > 4*budget {
		t.Fatalf("memory bound violated: peak partials %d > 4x budget %d",
			bounded.PeakPartialBytes, budget)
	}
	if bounded.Spills == 0 || bounded.SpilledBytes == 0 {
		t.Fatal("bounded run never spilled")
	}
	t.Logf("unbounded peak=%dKB bounded peak=%dKB budget=%dKB spills=%d spilled=%dKB",
		unbounded.PeakPartialBytes>>10, bounded.PeakPartialBytes>>10, budget>>10,
		bounded.Spills, bounded.SpilledBytes>>10)
}

// TestSpillRequiresMergerPipelined: bounded-memory pipelined runs need a
// merger to reunite spilled partials.
func TestSpillRequiresMergerPipelined(t *testing.T) {
	job := apps.WordCount()
	job.Merger = nil
	_, err := Run(job, workload.Text(1, 10, 5, 3), Options{
		Mode: Pipelined, SpillBytes: 1024,
	})
	if err == nil {
		t.Fatal("expected an error for SpillBytes without a Merger")
	}
}

// TestSpillStoreKindInteraction: an explicit KV store keeps its own
// memory management even when SpillBytes is set (the budget then only
// governs the mapper side in barrier mode).
func TestSpillStoreKindInteraction(t *testing.T) {
	input := workload.Text(5, 2000, 400, 6)
	ref, err := Run(apps.WordCount(), input, Options{Mappers: 2, Reducers: 2, Mode: Barrier})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(apps.WordCount(), input, Options{
		Mappers: 2, Reducers: 2, Mode: Pipelined, Store: store.KV,
		SpillBytes: 8 << 10, SpillDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	requireSame(t, "kv-with-spillbytes", ref.Output, res.Output)
}

// slowStream throttles an inner stream reducer so the mapper outruns it and
// the per-partition queues fill.
type slowStream struct {
	inner core.StreamReducer
	n     int
}

func (s *slowStream) Consume(rec core.Record, out core.Output) {
	s.n++
	if s.n%256 == 0 {
		time.Sleep(time.Millisecond)
	}
	s.inner.Consume(rec, out)
}

func (s *slowStream) Finish(out core.Output) { s.inner.Finish(out) }

// backpressureDeadline bounds TestPipelinedSlowReducerBackpressure's
// pipelined run. It takes about 0.27 s on a 2-core host; a run still going
// after this long has wedged on backpressure.
const backpressureDeadline = 30 * time.Second

// TestPipelinedSlowReducerBackpressure: reducers that lag fill the in-proc
// stream's queues, and the mappers block on them instead of setting batches
// aside — the channels are the one path from map to reduce. Each of the two
// partitions gets three times the records its channel holds
// (shuffle.QueueCap batches of shuffle.BatchSize), so the mappers meet a
// full channel long before they finish. SpillBytes bounds only the
// reducers' partial results, and the KV store keeps those in its own cache,
// so nothing is sealed; the output matches the barrier reference, and the
// run finishes instead of wedging.
func TestPipelinedSlowReducerBackpressure(t *testing.T) {
	const words = 8 // a line
	input := workload.Text(11, 3*2*shuffle.QueueCap*shuffle.BatchSize/words, 500, words)
	ref, err := Run(apps.WordCount(), input,
		Options{Mappers: 4, Reducers: 2, Mode: Barrier})
	if err != nil {
		t.Fatal(err)
	}
	job := apps.WordCount()
	inner := job.NewStream
	job.NewStream = func(st store.Store) core.StreamReducer {
		return &slowStream{inner: inner(st)}
	}
	type outcome struct {
		res *Result
		err error
	}
	opts := Options{
		Mappers: 4, Reducers: 2, Mode: Pipelined, Store: store.KV,
		SpillBytes: 16 << 10, SpillDir: t.TempDir(),
	}
	done := make(chan outcome, 1)
	start := time.Now()
	go func() {
		res, err := Run(job, input, opts)
		done <- outcome{res, err}
	}()
	var out outcome
	select {
	case out = <-done:
	case <-time.After(backpressureDeadline):
		t.Fatalf("pipelined run under backpressure still going after %v", backpressureDeadline)
	}
	if out.err != nil {
		t.Fatal(out.err)
	}
	requireSame(t, "slow-reducer-backpressure", ref.Output, out.res.Output)
	if out.res.Spills != 0 || out.res.SpilledBytes != 0 {
		t.Fatalf("pipelined run sealed %d spills / %d bytes, want none", out.res.Spills, out.res.SpilledBytes)
	}
	t.Logf("backpressured run: %v", time.Since(start))
}
