package store

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// ioCounter counts what a store reports through its Hooks.
type ioCounter struct {
	ops         int
	wrote, read int64
}

func (h *ioCounter) Op()               { h.ops++ }
func (h *ioCounter) DiskWrite(n int64) { h.wrote += n }
func (h *ioCounter) DiskRead(n int64)  { h.read += n }

func TestKVPutGetBasic(t *testing.T) {
	h := &ioCounter{}
	s := NewKVStore(0, h)
	s.put("a", "1")
	s.put("b", "2")
	if v, ok := s.get("a"); !ok || v != "1" {
		t.Fatalf("get(a) = %q,%v", v, ok)
	}
	if _, ok := s.get("missing"); ok {
		t.Fatal("found missing key")
	}
	s.put("a", "updated")
	if v, _ := s.get("a"); v != "updated" {
		t.Fatalf("get(a) = %q after update", v)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if h.wrote != 0 || s.SpilledBytes() != 0 {
		t.Fatal("nothing should be written while the cache fits")
	}
}

func TestKVEvictionSpillsToLog(t *testing.T) {
	h := &ioCounter{}
	s := NewKVStore(300, h)
	const n = 100
	for i := 0; i < n; i++ {
		s.put(fmt.Sprintf("key-%03d", i), fmt.Sprintf("val-%03d", i))
	}
	if h.wrote == 0 || s.SpilledBytes() != h.wrote {
		t.Fatalf("evictions wrote %d bytes, log holds %d", h.wrote, s.SpilledBytes())
	}
	if s.MemBytes() > 300+64 {
		t.Fatalf("cache overshoot: %d bytes", s.MemBytes())
	}
	// Everything must still be readable (from the log).
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%03d", i)
		if v, ok := s.get(k); !ok || v != fmt.Sprintf("val-%03d", i) {
			t.Fatalf("get(%s) = %q,%v", k, v, ok)
		}
	}
	if h.read == 0 {
		t.Fatal("expected log reads after eviction")
	}
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
}

func TestKVReadModifyWriteCycle(t *testing.T) {
	// The paper's usage: every reduce invocation fetches the previous
	// partial result, updates it, and stores it back.
	s := NewKVStore(256, nil)
	const keys = 50
	const rounds = 40
	for r := 0; r < rounds; r++ {
		for i := 0; i < keys; i++ {
			k := fmt.Sprintf("w%02d", i)
			prev, _ := s.get(k)
			s.put(k, prev+"x")
		}
	}
	for i := 0; i < keys; i++ {
		v, ok := s.get(fmt.Sprintf("w%02d", i))
		if !ok || len(v) != rounds {
			t.Fatalf("key %d: len=%d ok=%v, want %d", i, len(v), ok, rounds)
		}
	}
}

func TestKVCompaction(t *testing.T) {
	h := &ioCounter{}
	s := NewKVStore(128, h)
	// Overwrite the same small key set many times to generate garbage: 17
	// bytes an entry, so evictions write about 4× kvCompactMinBytes.
	const rounds = 30_000
	for r := 0; r < rounds; r++ {
		for i := 0; i < 8; i++ {
			s.put(fmt.Sprintf("k%d", i), fmt.Sprintf("value-%d-%05d", i, r))
		}
	}
	if h.wrote < 2*kvCompactMinBytes || s.SpilledBytes() >= kvCompactMinBytes {
		t.Fatalf("log not compacted: %d bytes written, log holds %d", h.wrote, s.SpilledBytes())
	}
	// All keys still correct after compaction.
	for i := 0; i < 8; i++ {
		v, ok := s.get(fmt.Sprintf("k%d", i))
		if want := fmt.Sprintf("value-%d-%05d", i, rounds-1); !ok || v != want {
			t.Fatalf("k%d = %q,%v, want %q", i, v, ok, want)
		}
	}
}

// TestKVLenWithMixedCacheLogKeys: a key counts once and is emitted once,
// whether it sits in the cache, the log, or both.
func TestKVLenWithMixedCacheLogKeys(t *testing.T) {
	s := NewKVStore(150, nil)
	keys := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	for _, k := range keys {
		s.put(k, "some-longish-value-here")
	}
	s.get("alpha") // back into the cache, and still in the log
	if s.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d (cache+log dedup)", s.Len(), len(keys))
	}
	out := &sink{}
	s.Emit(out)
	want := []string{"alpha", "beta", "delta", "epsilon", "gamma", "zeta"}
	if len(out.recs) != len(want) {
		t.Fatalf("Emit wrote %v", out.recs)
	}
	for i, r := range out.recs {
		if r.Key != want[i] || r.Value != "some-longish-value-here" {
			t.Fatalf("Emit record %d = %v, want key %q", i, r, want[i])
		}
	}
}

// TestKVKeysComplete: Emit writes every key exactly once, most of them
// read back from the log.
func TestKVKeysComplete(t *testing.T) {
	s := NewKVStore(200, nil)
	want := map[string]bool{}
	for i := 0; i < 60; i++ {
		k := fmt.Sprintf("key-%02d", i)
		s.put(k, "v")
		want[k] = true
	}
	if s.SpilledBytes() == 0 {
		t.Fatal("expected most keys in the log")
	}
	out := &sink{}
	s.Emit(out)
	if len(out.recs) != len(want) {
		t.Fatalf("Emit wrote %d records, want %d", len(out.recs), len(want))
	}
	for _, r := range out.recs {
		if !want[r.Key] {
			t.Fatalf("unexpected or repeated key %q", r.Key)
		}
		delete(want, r.Key)
	}
}

// TestKVOpCounts: every get, hit or miss, and every put is one Op; a store
// within its cache budget touches no log.
func TestKVOpCounts(t *testing.T) {
	h := &ioCounter{}
	s := NewKVStore(128, h)
	s.put("a", "1")
	if v, ok := s.get("a"); !ok || v != "1" {
		t.Fatalf("get(a) = %q,%v", v, ok)
	}
	if _, ok := s.get("missing"); ok {
		t.Fatal("found missing key")
	}
	if h.ops != 3 {
		t.Fatalf("ops = %d, want 3", h.ops)
	}
	if h.wrote != 0 || h.read != 0 {
		t.Fatalf("writes=%d reads=%d, want no log traffic", h.wrote, h.read)
	}
	if s.MemBytes() > 128 {
		t.Fatalf("cache holds %d bytes, budget 128", s.MemBytes())
	}
}

func TestKVHooksObserved(t *testing.T) {
	h := &ioCounter{}
	s := NewKVStore(100, h)
	for i := 0; i < 50; i++ {
		s.put(fmt.Sprintf("key-%04d", i), "some-value")
	}
	for i := 0; i < 50; i++ {
		s.get(fmt.Sprintf("key-%04d", i))
	}
	if h.ops != 100 {
		t.Fatalf("ops = %d, want 100", h.ops)
	}
	if h.wrote == 0 || h.read == 0 {
		t.Fatalf("writes=%d reads=%d, want both > 0", h.wrote, h.read)
	}
}

func TestKVMatchesMapProperty(t *testing.T) {
	// Property: under random puts/overwrites with a tiny cache, the store
	// agrees with a plain map.
	f := func(ops []uint16) bool {
		s := NewKVStore(200, nil)
		ref := map[string]string{}
		for i, op := range ops {
			k := fmt.Sprintf("k%d", op%37)
			v := fmt.Sprintf("v%d", i)
			s.put(k, v)
			ref[k] = v
		}
		if s.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			got, ok := s.get(k)
			if !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkKVPutHot(b *testing.B) {
	s := NewKVStore(1<<24, nil)
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%08d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.put(keys[i&1023], "value-payload")
	}
}

func BenchmarkKVReadModifyWriteCold(b *testing.B) {
	// Cache far smaller than the working set: every op round-trips the log.
	s := NewKVStore(1<<12, nil)
	rng := rand.New(rand.NewSource(3))
	keys := make([]string, 1<<14)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%08d", i)
		s.put(keys[i], "0")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[rng.Intn(len(keys))]
		v, _ := s.get(k)
		s.put(k, v)
	}
}
