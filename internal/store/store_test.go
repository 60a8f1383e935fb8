package store

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"blmr/internal/core"
)

func sumMerger(a, b string) string {
	x, _ := strconv.Atoi(a)
	y, _ := strconv.Atoi(b)
	return strconv.Itoa(x + y)
}

type sink struct {
	recs []core.Record
}

func (s *sink) Write(k, v string) { s.recs = append(s.recs, core.Record{Key: k, Value: v}) }

// aggregate drives a store like an aggregation reducer: fold delta into
// the key's partial sum.
func aggregate(s Store, key string, delta int) {
	s.Merge(key, strconv.Itoa(delta), sumMerger)
}

func allStores(t *testing.T, spillThreshold int64) map[string]Store {
	t.Helper()
	return map[string]Store{
		"in-memory":   NewMemStore(),
		"spill-merge": NewSpillStore(spillThreshold, sumMerger, nil, nil),
		"kvstore":     NewKVStore(512, nil),
	}
}

func TestAllStoresAgreeOnAggregation(t *testing.T) {
	// Drive each store with the same word-count-like stream; all must
	// produce identical sorted output.
	stream := make([]string, 0, 5000)
	for i := 0; i < 5000; i++ {
		stream = append(stream, fmt.Sprintf("word%03d", (i*7)%97))
	}
	var ref map[string]int
	for name, s := range allStores(t, 2048) {
		for _, w := range stream {
			aggregate(s, w, 1)
		}
		out := &sink{}
		s.Emit(out)
		got := map[string]int{}
		var keys []string
		for _, r := range out.recs {
			got[r.Key], _ = strconv.Atoi(r.Value)
			keys = append(keys, r.Key)
		}
		if !sort.StringsAreSorted(keys) {
			t.Fatalf("%s: Emit not key-sorted", name)
		}
		if ref == nil {
			ref = got
			// Sanity: 97 distinct words, 5000 total.
			if len(ref) != 97 {
				t.Fatalf("ref has %d keys", len(ref))
			}
			total := 0
			for _, c := range ref {
				total += c
			}
			if total != 5000 {
				t.Fatalf("ref total = %d", total)
			}
			continue
		}
		if len(got) != len(ref) {
			t.Fatalf("%s: %d keys, want %d", name, len(got), len(ref))
		}
		for k, v := range ref {
			if got[k] != v {
				t.Fatalf("%s: %s = %d, want %d", name, k, got[k], v)
			}
		}
	}
}

func TestMemStoreBytesGrowWithKeys(t *testing.T) {
	s := NewMemStore()
	var last int64
	for i := 0; i < 100; i++ {
		s.Merge(fmt.Sprintf("key%04d", i), "value", sumMerger)
		if s.MemBytes() <= last {
			t.Fatalf("MemBytes did not grow at key %d", i)
		}
		last = s.MemBytes()
	}
	if s.SpilledBytes() != 0 {
		t.Fatal("MemStore never spills")
	}
}

func TestSpillStoreRespectsThreshold(t *testing.T) {
	s := NewSpillStore(4096, sumMerger, nil, nil)
	for i := 0; i < 10000; i++ {
		aggregate(s, fmt.Sprintf("key%05d", i), 1)
	}
	if s.Spills == 0 {
		t.Fatal("expected spills")
	}
	if s.MemBytes() >= 4096+256 {
		t.Fatalf("memory above threshold: %d", s.MemBytes())
	}
	if s.SpilledBytes() == 0 {
		t.Fatal("expected spilled bytes")
	}
	out := &sink{}
	s.Emit(out)
	if len(out.recs) != 10000 {
		t.Fatalf("emitted %d records, want 10000", len(out.recs))
	}
}

func TestSpillStoreMergesAcrossRuns(t *testing.T) {
	// The same key spilled into multiple runs must be merged with the
	// Merger at Emit (partial sums add up).
	s := NewSpillStore(600, sumMerger, nil, nil)
	const rounds = 50
	for r := 0; r < rounds; r++ {
		for i := 0; i < 20; i++ {
			aggregate(s, fmt.Sprintf("hot%02d", i), 1)
		}
	}
	if s.Spills < 2 {
		t.Fatalf("want multiple spills, got %d", s.Spills)
	}
	out := &sink{}
	s.Emit(out)
	if len(out.recs) != 20 {
		t.Fatalf("emitted %d keys, want 20", len(out.recs))
	}
	for _, r := range out.recs {
		if r.Value != strconv.Itoa(rounds) {
			t.Fatalf("key %s = %s, want %d", r.Key, r.Value, rounds)
		}
	}
}

func TestSpillStoreNoSpillFastPath(t *testing.T) {
	s := NewSpillStore(1<<20, sumMerger, nil, nil)
	aggregate(s, "b", 2)
	aggregate(s, "a", 1)
	out := &sink{}
	s.Emit(out)
	if len(out.recs) != 2 || out.recs[0].Key != "a" || out.recs[1].Key != "b" {
		t.Fatalf("recs = %v", out.recs)
	}
	if s.Spills != 0 {
		t.Fatal("unexpected spill")
	}
}

func TestSpillHooksCharged(t *testing.T) {
	h := &ioCounter{}
	s := NewSpillStore(512, sumMerger, h, nil)
	for i := 0; i < 2000; i++ {
		aggregate(s, fmt.Sprintf("k%04d", i), 1)
	}
	s.Emit(&sink{})
	if h.wrote == 0 || h.read == 0 {
		t.Fatalf("hooks not charged: wrote=%d read=%d", h.wrote, h.read)
	}
	if h.read != h.wrote || h.ops != 0 {
		t.Fatalf("merge should read back exactly what was spilled, and a spill store has no per-op cost: wrote=%d read=%d ops=%d", h.wrote, h.read, h.ops)
	}
}

func TestKVStoreBoundedMemory(t *testing.T) {
	s := NewKVStore(1024, nil)
	for i := 0; i < 5000; i++ {
		aggregate(s, fmt.Sprintf("key%05d", i%500), 1)
	}
	if s.MemBytes() > 1024+128 {
		t.Fatalf("cache exceeded budget: %d", s.MemBytes())
	}
	out := &sink{}
	s.Emit(out)
	if len(out.recs) != 500 {
		t.Fatalf("emitted %d, want 500", len(out.recs))
	}
	for _, r := range out.recs {
		if r.Value != "10" {
			t.Fatalf("%s = %s, want 10", r.Key, r.Value)
		}
	}
}

func TestStoresEquivalenceProperty(t *testing.T) {
	// Property: for any stream of (key, delta) increments, all three
	// strategies emit identical aggregates.
	f := func(ops []uint16) bool {
		mem := NewMemStore()
		spill := NewSpillStore(512, sumMerger, nil, nil)
		kv := NewKVStore(256, nil)
		for _, op := range ops {
			key := fmt.Sprintf("k%02d", op%23)
			delta := int(op%5) + 1
			aggregate(mem, key, delta)
			aggregate(spill, key, delta)
			aggregate(kv, key, delta)
		}
		outs := make([][]core.Record, 3)
		for i, s := range []Store{mem, spill, kv} {
			o := &sink{}
			s.Emit(o)
			outs[i] = o.recs
		}
		for i := 1; i < 3; i++ {
			if len(outs[i]) != len(outs[0]) {
				return false
			}
			for j := range outs[0] {
				if outs[i][j] != outs[0][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	if InMemory.String() != "in-memory" || SpillMerge.String() != "spill-merge" || KV.String() != "kvstore" {
		t.Fatal("kind names wrong")
	}
	if Kind(9).String() != "unknown" {
		t.Fatal("out-of-range kind")
	}
}

func TestKindBounded(t *testing.T) {
	for _, c := range []struct {
		k          Kind
		spillBytes int64
		want       Kind
	}{
		{InMemory, 0, InMemory}, {SpillMerge, 0, SpillMerge}, {KV, 0, KV},
		{InMemory, 1, SpillMerge}, {SpillMerge, 1, SpillMerge}, {KV, 1, KV},
	} {
		if got := c.k.Bounded(c.spillBytes); got != c.want {
			t.Errorf("%v.Bounded(%d) = %v, want %v", c.k, c.spillBytes, got, c.want)
		}
	}
}

// benchKeys are built before the timer starts: formatting a key costs more
// than the store operation it feeds.
func benchKeys() []string {
	keys := make([]string, 1000)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%04d", i)
	}
	return keys
}

func benchAggregate(b *testing.B, s Store) {
	keys := benchKeys()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		aggregate(s, keys[i%len(keys)], 1)
	}
}

// benchMerge drives the path the stream reducers take: one Merge per record.
func benchMerge(b *testing.B, s Store) {
	keys := benchKeys()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Merge(keys[i%len(keys)], "1", sumMerger)
	}
}

func benchKV() Store { return NewKVStore(1<<14, nil) }

func BenchmarkMemStoreAggregate(b *testing.B) { benchAggregate(b, NewMemStore()) }
func BenchmarkSpillStoreAggregate(b *testing.B) {
	benchAggregate(b, NewSpillStore(1<<16, sumMerger, nil, nil))
}
func BenchmarkKVStoreAggregate(b *testing.B) { benchAggregate(b, benchKV()) }
func BenchmarkMemStoreMerge(b *testing.B)    { benchMerge(b, NewMemStore()) }
func BenchmarkSpillStoreMerge(b *testing.B)  { benchMerge(b, NewSpillStore(1<<16, sumMerger, nil, nil)) }
func BenchmarkKVStoreMerge(b *testing.B)     { benchMerge(b, benchKV()) }

// TestFirstSeenValueIsCopied: the first value merged for a key is retained
// as is (no merge runs), and on the pooled fetch path it is a view into a
// 72 KiB decode-arena chunk. The tree stores must copy it, or every key
// seen once pins a chunk until the output is released.
func TestFirstSeenValueIsCopied(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&sb, "%06d", i)
	}
	backing := sb.String()
	lo := uintptr(unsafe.Pointer(unsafe.StringData(backing)))
	inside := func(s string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		return len(s) > 0 && p >= lo && p < lo+uintptr(len(backing))
	}
	mem, spill := NewMemStore(), NewSpillStore(1<<20, sumMerger, nil, nil)
	for name, s := range map[string]struct {
		Store
		t *table
	}{
		"in-memory":   {mem, &mem.t},
		"spill-merge": {spill, &spill.t},
	} {
		for i := 0; i < 500; i++ {
			// Key and value are both views into backing; every third key is
			// merged a second time, the rest stay first-seen.
			k, v := backing[i*6:i*6+6], backing[i*6+3:i*6+6]
			s.Merge(k, v, sumMerger)
			if i%3 == 0 {
				s.Merge(k, v, sumMerger)
			}
			if got, ok := s.t.get(k); !ok || inside(got) {
				t.Fatalf("%s: stored %q = %q,%v: a view into the caller's backing string", name, k, got, ok)
			}
		}
		out := &sink{}
		s.Emit(out)
		if len(out.recs) != 500 {
			t.Fatalf("%s: emitted %d keys", name, len(out.recs))
		}
		for i, r := range out.recs {
			want := fmt.Sprintf("%03d", i) // first-seen, stored as passed
			if i%3 == 0 {
				want = strconv.Itoa(2 * i)
			}
			if r.Key != backing[i*6:i*6+6] || r.Value != want {
				t.Fatalf("%s: emitted %q=%q, want value %q", name, r.Key, r.Value, want)
			}
			if inside(r.Key) || inside(r.Value) {
				t.Fatalf("%s: emitted %q=%q points into the caller's backing string", name, r.Key, r.Value)
			}
		}
	}
}

func TestStoreAccessors(t *testing.T) {
	mem := NewMemStore()
	aggregate(mem, "a", 1)
	aggregate(mem, "b", 1)
	if mem.Len() != 2 {
		t.Fatalf("mem Len = %d", mem.Len())
	}
	sp := NewSpillStore(1<<20, sumMerger, nil, nil)
	aggregate(sp, "a", 1)
	if sp.Len() != 1 {
		t.Fatalf("spill Len = %d", sp.Len())
	}
	kv := NewKVStore(1024, nil)
	aggregate(kv, "x", 1)
	if kv.Len() != 1 {
		t.Fatalf("kv Len = %d", kv.Len())
	}
	if kv.SpilledBytes() != int64(len(kv.log)) {
		t.Fatal("SpilledBytes should mirror log size")
	}
}

func TestSpillStoreRequiresMerger(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic without merger")
		}
	}()
	NewSpillStore(1024, nil, nil, nil)
}

func TestSpillStoreDefaultThreshold(t *testing.T) {
	s := NewSpillStore(0, sumMerger, nil, nil)
	aggregate(s, "k", 1)
	out := &sink{}
	s.Emit(out)
	if len(out.recs) != 1 {
		t.Fatal("default-threshold store broken")
	}
}
