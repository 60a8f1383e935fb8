package kvstore

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestPutGetBasic(t *testing.T) {
	s := New(Config{})
	s.Put("a", "1")
	s.Put("b", "2")
	if v, ok := s.Get("a"); !ok || v != "1" {
		t.Fatalf("Get(a) = %q,%v", v, ok)
	}
	if _, ok := s.Get("missing"); ok {
		t.Fatal("found missing key")
	}
	s.Put("a", "updated")
	if v, _ := s.Get("a"); v != "updated" {
		t.Fatalf("Get(a) = %q after update", v)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Stats().BytesWritten != 0 {
		t.Fatal("nothing should be written while the cache fits")
	}
}

func TestEvictionSpillsToDisk(t *testing.T) {
	s := New(Config{CacheBytes: 300})
	const n = 100
	for i := 0; i < n; i++ {
		s.Put(fmt.Sprintf("key-%03d", i), fmt.Sprintf("val-%03d", i))
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatal("expected evictions with tiny cache")
	}
	if st.BytesWritten == 0 {
		t.Fatal("expected disk writes")
	}
	if s.CacheBytes() > 300+64 {
		t.Fatalf("cache overshoot: %d bytes", s.CacheBytes())
	}
	// Everything must still be readable (from disk).
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%03d", i)
		if v, ok := s.Get(k); !ok || v != fmt.Sprintf("val-%03d", i) {
			t.Fatalf("Get(%s) = %q,%v", k, v, ok)
		}
	}
	if s.Stats().BytesRead == 0 {
		t.Fatal("expected disk reads after eviction")
	}
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
}

func TestReadModifyWriteCycle(t *testing.T) {
	// The paper's usage: every reduce invocation fetches the previous
	// partial result, updates it, and stores it back.
	s := New(Config{CacheBytes: 256})
	const keys = 50
	const rounds = 40
	for r := 0; r < rounds; r++ {
		for i := 0; i < keys; i++ {
			k := fmt.Sprintf("w%02d", i)
			prev, _ := s.Get(k)
			s.Put(k, prev+"x")
		}
	}
	for i := 0; i < keys; i++ {
		v, ok := s.Get(fmt.Sprintf("w%02d", i))
		if !ok || len(v) != rounds {
			t.Fatalf("key %d: len=%d ok=%v, want %d", i, len(v), ok, rounds)
		}
	}
}

func TestCompaction(t *testing.T) {
	d := NewMemDisk(1 << 10)
	s := New(Config{CacheBytes: 128, Disk: d, CompactMinBytes: 2048, CompactGarbageRatio: 0.4})
	// Overwrite the same small key set many times to generate garbage.
	for r := 0; r < 400; r++ {
		for i := 0; i < 8; i++ {
			s.Put(fmt.Sprintf("k%d", i), fmt.Sprintf("value-%d-%d", i, r))
		}
	}
	st := s.Stats()
	if st.Compactions == 0 {
		t.Fatal("expected compactions")
	}
	if st.LogBytes > 4*st.LiveBytes+2048 {
		t.Fatalf("log not compacted: log=%d live=%d", st.LogBytes, st.LiveBytes)
	}
	// All keys still correct after compaction.
	for i := 0; i < 8; i++ {
		v, ok := s.Get(fmt.Sprintf("k%d", i))
		if !ok || v != fmt.Sprintf("value-%d-399", i) {
			t.Fatalf("k%d = %q,%v", i, v, ok)
		}
	}
}

func TestKeysComplete(t *testing.T) {
	s := New(Config{CacheBytes: 200})
	want := map[string]bool{}
	for i := 0; i < 60; i++ {
		k := fmt.Sprintf("key-%02d", i)
		s.Put(k, "v")
		want[k] = true
	}
	got := s.Keys()
	if len(got) != len(want) {
		t.Fatalf("Keys() returned %d, want %d", len(got), len(want))
	}
	for _, k := range got {
		if !want[k] {
			t.Fatalf("unexpected key %q", k)
		}
	}
}

func TestHooksObserved(t *testing.T) {
	h := &countingHooks{}
	s := New(Config{CacheBytes: 100, Hooks: h})
	for i := 0; i < 50; i++ {
		s.Put(fmt.Sprintf("key-%04d", i), "some-value")
	}
	for i := 0; i < 50; i++ {
		s.Get(fmt.Sprintf("key-%04d", i))
	}
	if h.ops != 100 {
		t.Fatalf("ops = %d, want 100", h.ops)
	}
	if h.writes == 0 || h.reads == 0 {
		t.Fatalf("writes=%d reads=%d, want both > 0", h.writes, h.reads)
	}
}

type countingHooks struct {
	ops    int
	writes int64
	reads  int64
}

func (h *countingHooks) Op(string)         { h.ops++ }
func (h *countingHooks) DiskWrite(n int64) { h.writes += n }
func (h *countingHooks) DiskRead(n int64)  { h.reads += n }

func TestStoreMatchesMapProperty(t *testing.T) {
	// Property: under random puts/overwrites with a tiny cache, the store
	// agrees with a plain map.
	f := func(ops []uint16) bool {
		s := New(Config{CacheBytes: 200})
		ref := map[string]string{}
		for i, op := range ops {
			k := fmt.Sprintf("k%d", op%37)
			v := fmt.Sprintf("v%d", i)
			s.Put(k, v)
			ref[k] = v
		}
		if s.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			got, ok := s.Get(k)
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

func TestMemDiskSegmentRoll(t *testing.T) {
	d := NewMemDisk(64)
	var locs [][2]int64
	for i := 0; i < 20; i++ {
		seg, off := d.Append(make([]byte, 32))
		locs = append(locs, [2]int64{int64(seg), off})
	}
	if last := locs[len(locs)-1][0]; last < 4 {
		t.Fatalf("expected segment rolls, last append landed in segment %d", last)
	}
	if got := d.ReadAt(int(locs[3][0]), locs[3][1], 32); len(got) != 32 {
		t.Fatal("read back failed")
	}
}

func BenchmarkPutHot(b *testing.B) {
	s := New(Config{CacheBytes: 1 << 24})
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%08d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Put(keys[i&1023], "value-payload")
	}
}

func BenchmarkReadModifyWriteCold(b *testing.B) {
	// Cache far smaller than the working set: every op round-trips disk.
	s := New(Config{CacheBytes: 1 << 12})
	rng := rand.New(rand.NewSource(3))
	keys := make([]string, 1<<14)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%08d", i)
		s.Put(keys[i], "0")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[rng.Intn(len(keys))]
		v, _ := s.Get(k)
		s.Put(k, v)
	}
}

func TestLenWithMixedCacheDiskKeys(t *testing.T) {
	s := New(Config{CacheBytes: 150})
	keys := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	for _, k := range keys {
		s.Put(k, "some-longish-value-here")
	}
	if s.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d (cache+disk dedup)", s.Len(), len(keys))
	}
	got := s.Keys()
	sort.Strings(got)
	want := append([]string(nil), keys...)
	sort.Strings(want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Keys = %v", got)
		}
	}
}

func TestStatsSnapshot(t *testing.T) {
	s := New(Config{CacheBytes: 128})
	s.Put("a", "1")
	s.Get("a")
	s.Get("missing")
	st := s.Stats()
	if st.Puts != 1 || st.Gets != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("hit/miss = %d/%d", st.CacheHits, st.CacheMisses)
	}
	if st.CacheBytesBudget != 128 {
		t.Fatalf("budget = %d", st.CacheBytesBudget)
	}
}
