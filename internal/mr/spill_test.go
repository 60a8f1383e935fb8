package mr

// Equivalence and memory-bound suite for the external (disk-spilling)
// shuffle: for every app in internal/apps, both modes must produce the same
// output with SpillBytes unlimited (0), 64KiB and 4KiB — barrier output
// byte-identical (the external merge reproduces the in-memory stable sort
// exactly), pipelined output equal as sorted multisets. Run under -race in
// CI: the suite doubles as a race exercise of concurrent RunDir use.

import (
	"testing"
	"time"

	"blmr/internal/apps"
	"blmr/internal/core"
	"blmr/internal/store"
	"blmr/internal/workload"
)

// spillBudgets: unlimited, then budgets far below each non-tiny app's
// intermediate volume.
var spillBudgets = []int64{0, 64 << 10, 4 << 10}

// mustSpillAt4K names the apps whose intermediate data is guaranteed to
// dwarf a 4KiB budget in barrier mode, so the suite can assert the spill
// path actually engaged rather than silently staying in memory.
var mustSpillAt4K = map[string]bool{
	"grep": true, "sort": true, "wordcount": true, "knn": true, "lastfm": true, "ga": true,
}

// mustSpillPipelinedAt4K names the apps whose pipelined partial results
// outgrow a 4KiB store budget. knn's do not: its 40 query keys spread over
// four reducers, about 10 top-10 lists each, peak near 3KiB a reducer.
var mustSpillPipelinedAt4K = map[string]bool{"lastfm": true}

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

func TestSpillEquivalence(t *testing.T) {
	for _, tc := range equivalenceCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			mappers := 4
			if tc.orderSensitive {
				mappers = 1
			}
			var refBarrier, refPipelined *Result
			for _, sb := range spillBudgets {
				res, err := Run(tc.app, tc.input, Options{
					Mappers: mappers, Reducers: tc.reducers, Mode: Barrier,
					SpillBytes: sb, SpillDir: t.TempDir(),
				})
				if err != nil {
					t.Fatalf("barrier spill=%d: %v", sb, err)
				}
				if sb == 0 {
					refBarrier = res
					continue
				}
				// The external merge must reproduce the in-memory barrier
				// output exactly, not just as a multiset.
				requireExact(t, tc.name+"-barrier", refBarrier.Output, res.Output)
				if res.ShuffleRecords != refBarrier.ShuffleRecords {
					t.Fatalf("barrier spill=%d: shuffled %d records, want %d",
						sb, res.ShuffleRecords, refBarrier.ShuffleRecords)
				}
				if sb == 4<<10 && mustSpillAt4K[tc.name] {
					if res.Spills == 0 || res.SpilledBytes == 0 {
						t.Fatalf("barrier spill=%d: expected real spills, got %d runs / %d bytes",
							sb, res.Spills, res.SpilledBytes)
					}
				}
			}
			for _, sb := range spillBudgets {
				res, err := Run(tc.app, tc.input, Options{
					Mappers: mappers, Reducers: tc.reducers, Mode: Pipelined,
					SpillBytes: sb, SpillDir: t.TempDir(), BatchSize: 64,
				})
				if err != nil {
					t.Fatalf("pipelined spill=%d: %v", sb, err)
				}
				if tc.orderSensitive {
					if len(res.Output) != len(refBarrier.Output) {
						t.Fatalf("pipelined spill=%d: %d records vs barrier's %d",
							sb, len(res.Output), len(refBarrier.Output))
					}
					continue
				}
				requireSame(t, tc.name+"-pipelined-vs-barrier", refBarrier.Output, res.Output)
				// The in-proc pipelined stream seals no map waves, so every
				// run counted is the reducers' spill-merge store's: the
				// mergers fold on the per-record path and at the final merge.
				if sb == 4<<10 && mustSpillPipelinedAt4K[tc.name] && res.Spills == 0 {
					t.Fatalf("pipelined spill=%d: the spill-merge store never spilled", sb)
				}
				if refPipelined == nil {
					refPipelined = res
					continue
				}
				requireSame(t, tc.name+"-pipelined-vs-unlimited", refPipelined.Output, res.Output)
			}
		})
	}
}

// TestSpillCombinerEquivalence: the combiner composes with spilling — each
// sealed run is combined before encoding, so a key may reach the reducer as
// several pre-folded partials; the fold must still converge to the same
// totals, and the shuffle must still shrink.
func TestSpillCombinerEquivalence(t *testing.T) {
	input := workload.Text(9, 4000, 500, 10)
	app := apps.WordCount()
	plain := app
	combined := app
	combined.Combiner = app.Merger

	ref, err := Run(plain, input, Options{Mappers: 4, Reducers: 4, Mode: Barrier})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{Barrier, Pipelined} {
		for _, sb := range []int64{16 << 10, 4 << 10} {
			res, err := Run(combined, input, Options{
				Mappers: 4, Reducers: 4, Mode: mode,
				SpillBytes: sb, SpillDir: t.TempDir(),
			})
			if err != nil {
				t.Fatalf("mode=%d spill=%d: %v", mode, sb, err)
			}
			requireSame(t, "combined-spill", ref.Output, res.Output)
			if res.ShuffleRecords >= ref.ShuffleRecords {
				t.Fatalf("mode=%d spill=%d: combiner did not cut shuffle volume: %d >= %d",
					mode, sb, res.ShuffleRecords, ref.ShuffleRecords)
			}
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
// pipelined run. It takes about 0.12 s on a 2-core host; a run still going
// after this long has wedged on backpressure.
const backpressureDeadline = 30 * time.Second

// TestPipelinedSlowReducerBackpressure: reducers that lag fill the in-proc
// stream's one-batch queues, and the mappers block on them instead of
// setting batches aside — the channels are the one path from map to reduce.
// SpillBytes bounds only the reducers' partial results, and the KV store
// keeps those in its own cache, so nothing is sealed; the output matches the
// barrier reference, and the run finishes instead of wedging.
func TestPipelinedSlowReducerBackpressure(t *testing.T) {
	input := workload.Text(11, 6000, 500, 8)
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
		QueueCap: 1, BatchSize: 64,
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
