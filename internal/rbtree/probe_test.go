package rbtree

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"blmr/internal/workload"
)

// collidingKeys returns perSlot keys for each of the first slots cache
// slots, all built from prefix and five digits (so two calls with different
// one-byte prefixes give different keys of the same lengths), plus the empty
// key: a node wiped by ClearReuse holds "", so a cache that was not emptied
// would answer a probe for "" with a dead node.
func collidingKeys(prefix string, slots, perSlot int) []string {
	keys := []string{""}
	filled := make([]int, slots)
	for i := 0; len(keys) < 1+slots*perSlot; i++ {
		k := fmt.Sprintf("%s%05d", prefix, i)
		if s := hashKey(k) % cacheSlots; int(s) < slots && filled[s] < perSlot {
			filled[s]++
			keys = append(keys, k)
		}
	}
	return keys
}

// TestProbeProperty drives random Update/Put/Get/Ascend/Clear/ClearReuse
// against a map reference. The key sets collide in the hot-key cache (six
// keys per slot), so slots are evicted and refilled constantly, and every
// Clear/ClearReuse switches to different keys of the same lengths, so a
// cache entry surviving the clear would be a stale hit. Invariants, subtree
// sizes, Bytes, Len and full contents are checked after every step.
func TestProbeProperty(t *testing.T) {
	sets := [][]string{collidingKeys("a", 8, 6), collidingKeys("b", 8, 6)}
	concat := func(old, v string) string { return old + v }
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := New[string](func(v string) int64 { return int64(len(v)) })
		ref := map[string]string{}
		set := 0
		for step := 0; step < 3000; step++ {
			// Probe across both sets: keys of the other set must miss.
			k := sets[rng.Intn(2)][rng.Intn(len(sets[0]))]
			if rng.Intn(4) > 0 {
				k = sets[set][rng.Intn(len(sets[set]))]
			}
			v := fmt.Sprintf("%d", rng.Intn(1000))
			switch op := rng.Intn(100); {
			case op < 45:
				tr.Update(k, v, concat)
				ref[k] += v
			case op < 65:
				tr.Put(k, v)
				ref[k] = v
			case op < 98:
				got, ok := tr.Get(k)
				if want, wantOK := ref[k]; ok != wantOK || got != want {
					t.Fatalf("seed %d step %d: Get(%q) = %q,%v want %q,%v", seed, step, k, got, ok, want, wantOK)
				}
			case op < 99:
				tr.Clear()
				ref = map[string]string{}
				set = 1 - set
			default:
				tr.ClearReuse()
				ref = map[string]string{}
				set = 1 - set
			}
			checkAgainst(t, tr, ref)
		}
	}
}

// checkAgainst asserts tr holds exactly ref, in order, with the byte
// account, sizes and red-black invariants intact.
func checkAgainst(t *testing.T, tr *Tree[string], ref map[string]string) {
	t.Helper()
	checkInvariants(t, tr)
	want := make([]string, 0, len(ref))
	bytes := int64(0)
	for k, v := range ref {
		want = append(want, k)
		bytes += int64(len(k)+len(v)) + NodeOverheadBytes
	}
	sort.Strings(want)
	if tr.Len() != len(want) || tr.Bytes() != bytes {
		t.Fatalf("Len,Bytes = %d,%d want %d,%d", tr.Len(), tr.Bytes(), len(want), bytes)
	}
	i := 0
	tr.Ascend(func(k, v string) bool {
		if i >= len(want) || k != want[i] || v != ref[k] {
			t.Fatalf("Ascend[%d] = %q=%q, want %q=%q", i, k, v, want[i], ref[want[i]])
		}
		i++
		return true
	})
	if i != len(want) {
		t.Fatalf("Ascend visited %d of %d", i, len(want))
	}
}

// TestGetAllocatesNothing pins the probe: cache hit, tree hit and miss.
func TestGetAllocatesNothing(t *testing.T) {
	tr := New[string](nil)
	keys := collidingKeys("g", 4, 3)
	for _, k := range keys {
		tr.Put(k, "v")
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, k := range keys {
			tr.Get(k)
		}
		tr.Get("absent")
	}); n != 0 {
		t.Fatalf("Get allocated %.1f times per run, want 0", n)
	}
}

var sinkLen int

func addInt(old, v int) int { return old + v }

// BenchmarkUpdateHitZipf is the word-count reducer's store traffic: 20 K
// keys, Zipf s = 1 (workload.Text's distribution), so after the first few
// thousand operations nearly every Update finds its key.
func BenchmarkUpdateHitZipf(b *testing.B) {
	words := make([]string, 20_000)
	for i := range words {
		words[i] = fmt.Sprintf("word%05d", i)
	}
	z := workload.NewZipf(workload.NewRNG(7), len(words), 1.0)
	stream := make([]string, 1<<20)
	for i := range stream {
		stream[i] = words[z.Next()]
	}
	tr := New[int](nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Update(stream[i&(len(stream)-1)], 1, addInt)
	}
	sinkLen = tr.Len()
}

// BenchmarkUpdateMissUnique is the pipelined sort's: every key is new, so
// every Update pays the failed probe and then the insert. The tree restarts
// every 1 M keys so ns/op does not depend on b.N.
func BenchmarkUpdateMissUnique(b *testing.B) {
	rng := workload.NewRNG(7)
	keys := make([]string, 1_000_000)
	for i := range keys {
		keys[i] = fmt.Sprintf("%012d-%07d", rng.Uint64()%(1<<40), i)
	}
	tr := New[int](nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(keys)
		if j == 0 {
			tr.ClearReuse()
		}
		tr.Update(keys[j], 1, addInt)
	}
	sinkLen = tr.Len()
}
