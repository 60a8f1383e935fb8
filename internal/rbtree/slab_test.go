package rbtree

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestSlabKeysSurviveGrowth: slab-cloned keys and first-seen values must
// stay intact through arbitrary interleaved inserts and replacements
// (slabs must never be overwritten while live).
func TestSlabKeysSurviveGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := New[string](func(v string) int64 { return int64(len(v)) })
	live := map[string]string{}
	for i := 0; i < 20_000; i++ {
		k := fmt.Sprintf("key-%06d", rng.Intn(8000))
		v := fmt.Sprintf("v%d", i)
		if rng.Intn(4) == 0 {
			tr.Update(k, v, func(old, v string) string { return old + v })
			live[k] += v
		} else {
			tr.Put(k, v)
			live[k] = v
		}
	}
	if tr.Len() != len(live) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(live))
	}
	tr.Ascend(func(k, v string) bool {
		if want, ok := live[k]; !ok || want != v {
			t.Fatalf("corrupt entry %q=%q (want %q, present %v)", k, v, want, ok)
		}
		delete(live, k)
		return true
	})
	if len(live) != 0 {
		t.Fatalf("%d entries missing from Ascend", len(live))
	}
}

// TestSlabOversizedKeys: keys above the slab limit take the private-clone
// path and still behave.
func TestSlabOversizedKeys(t *testing.T) {
	tr := New[string](nil)
	big := strings.Repeat("x", maxSlabKeyBytes+100)
	tr.Put(big, "v")
	tr.Put("small", "w")
	if v, ok := tr.Get(big); !ok || v != "v" {
		t.Fatalf("oversized key lookup = %q, %v", v, ok)
	}
}

// TestClearReuseRecycles: after ClearReuse, refilling the tree reuses the
// retired slabs (no unbounded growth) and the new contents are correct —
// the old keys' bytes are legitimately overwritten.
func TestClearReuseRecycles(t *testing.T) {
	tr := New[string](nil)
	for cycle := 0; cycle < 5; cycle++ {
		for i := 0; i < 3000; i++ {
			tr.Put(fmt.Sprintf("c%d-key-%06d", cycle, i), "v")
		}
		if tr.Len() != 3000 {
			t.Fatalf("cycle %d: Len = %d", cycle, tr.Len())
		}
		prev := ""
		n := 0
		tr.Ascend(func(k, _ string) bool {
			if k <= prev {
				t.Fatalf("cycle %d: out of order: %q after %q", cycle, k, prev)
			}
			if !strings.HasPrefix(k, fmt.Sprintf("c%d-", cycle)) {
				t.Fatalf("cycle %d: stale key %q leaked across ClearReuse", cycle, k)
			}
			prev = k
			n++
			return true
		})
		if n != 3000 {
			t.Fatalf("cycle %d: visited %d", cycle, n)
		}
		tr.ClearReuse()
		if tr.Len() != 0 || tr.Bytes() != 0 {
			t.Fatalf("cycle %d: ClearReuse left %d keys / %d bytes", cycle, tr.Len(), tr.Bytes())
		}
	}
	// After the cycles the spare lists should bound total slab count to
	// roughly one fill's worth, not five.
	if got := len(tr.spareSlabs) + len(tr.usedSlabs); got > 10 {
		t.Fatalf("slab count grew across cycles: %d spare+used", got)
	}
}

// TestSlabAllocsPerInsert: the arena must amortize the two historical
// per-insert allocations (node + key clone) down to well under one.
func TestSlabAllocsPerInsert(t *testing.T) {
	const n = 10_000
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("alloc-key-%06d", i)
	}
	var tr *Tree[string]
	allocs := testing.AllocsPerRun(5, func() {
		tr = New[string](nil)
		for _, k := range keys {
			tr.Put(k, "v")
		}
	})
	perInsert := allocs / n
	if perInsert > 0.25 {
		t.Fatalf("%.3f allocs per insert, want the slab arena's < 0.25 (total %.0f for %d inserts)",
			perInsert, allocs, n)
	}
	t.Logf("%.0f allocs for %d fresh-key inserts (%.4f/insert)", allocs, n, perInsert)
}
