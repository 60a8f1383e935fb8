package rbtree

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// checkInvariants verifies the left-leaning red-black invariants:
// BST order, no red right links, no two consecutive red left links, equal
// black height on every root-to-nil path, and exact subtree sizes.
func checkInvariants[V any](t *testing.T, tr *Tree[V]) {
	t.Helper()
	if tr.root == nil {
		return
	}
	if isRed(tr.root) {
		t.Fatal("root is red")
	}
	var prev *string
	tr.Ascend(func(k string, _ V) bool {
		if prev != nil && *prev >= k {
			t.Fatalf("keys out of order: %q then %q", *prev, k)
		}
		kk := k
		prev = &kk
		return true
	})
	var blackHeight func(x *node[V]) int
	blackHeight = func(x *node[V]) int {
		if x == nil {
			return 1
		}
		if isRed(x.right) {
			t.Fatal("red right link (not left-leaning)")
		}
		if isRed(x) && isRed(x.left) {
			t.Fatal("two consecutive red links")
		}
		if want := 1 + size(x.left) + size(x.right); x.n != want {
			t.Fatalf("subtree size at %q = %d, want %d", x.key, x.n, want)
		}
		l, r := blackHeight(x.left), blackHeight(x.right)
		if l != r {
			t.Fatalf("unbalanced black height: %d vs %d", l, r)
		}
		if !isRed(x) {
			l++
		}
		return l
	}
	blackHeight(tr.root)
}

func TestPutGet(t *testing.T) {
	tr := New[int](nil)
	for i := 0; i < 100; i++ {
		tr.Put(fmt.Sprintf("k%03d", i), i)
	}
	if tr.Len() != 100 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for i := 0; i < 100; i++ {
		v, ok := tr.Get(fmt.Sprintf("k%03d", i))
		if !ok || v != i {
			t.Fatalf("Get(k%03d) = %d,%v", i, v, ok)
		}
	}
	if _, ok := tr.Get("missing"); ok {
		t.Fatal("found missing key")
	}
	checkInvariants(t, tr)
}

func TestPutReplaces(t *testing.T) {
	tr := New[string](func(v string) int64 { return int64(len(v)) })
	tr.Put("a", "one")
	before := tr.Bytes()
	tr.Put("a", "twotwo")
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if v, _ := tr.Get("a"); v != "twotwo" {
		t.Fatalf("Get = %q", v)
	}
	if tr.Bytes() != before+3 {
		t.Fatalf("Bytes = %d, want %d", tr.Bytes(), before+3)
	}
}

func TestAscendOrderAndEarlyStop(t *testing.T) {
	tr := New[int](nil)
	keys := []string{"delta", "alpha", "echo", "bravo", "charlie"}
	for i, k := range keys {
		tr.Put(k, i)
	}
	var got []string
	tr.Ascend(func(k string, _ int) bool {
		got = append(got, k)
		return true
	})
	want := append([]string(nil), keys...)
	sort.Strings(want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v", got)
		}
	}
	count := 0
	tr.Ascend(func(string, int) bool { count++; return count < 2 })
	if count != 2 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestBytesAccounting(t *testing.T) {
	tr := New[string](func(v string) int64 { return int64(len(v)) })
	tr.Put("key1", "value1")
	want := int64(4+6) + NodeOverheadBytes
	if tr.Bytes() != want {
		t.Fatalf("Bytes = %d, want %d", tr.Bytes(), want)
	}
	tr.Put("key2", "v")
	want += int64(4+1) + NodeOverheadBytes
	if tr.Bytes() != want {
		t.Fatalf("Bytes = %d, want %d", tr.Bytes(), want)
	}
	tr.Clear()
	if tr.Bytes() != 0 || tr.Len() != 0 {
		t.Fatal("Clear did not reset")
	}
}

func TestInvariantsProperty(t *testing.T) {
	// Property: after any sequence of inserts, invariants hold and
	// iteration matches a sorted reference map.
	f := func(keys []string) bool {
		tr := New[int](nil)
		ref := map[string]int{}
		for i, k := range keys {
			tr.Put(k, i)
			ref[k] = i
		}
		if tr.Len() != len(ref) {
			return false
		}
		want := make([]string, 0, len(ref))
		for k := range ref {
			want = append(want, k)
		}
		sort.Strings(want)
		var got []string
		tr.Ascend(func(k string, _ int) bool {
			got = append(got, k)
			return true
		})
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
			if v, ok := tr.Get(got[i]); !ok || v != ref[got[i]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLargeRandomMixedWorkload(t *testing.T) {
	tr := New[int](nil)
	ref := map[string]int{}
	rng := rand.New(rand.NewSource(7))
	for op := 0; op < 20000; op++ {
		k := fmt.Sprintf("k%d", rng.Intn(3000))
		tr.Put(k, op)
		ref[k] = op
	}
	if tr.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(ref))
	}
	checkInvariants(t, tr)
	for k, v := range ref {
		if got, ok := tr.Get(k); !ok || got != v {
			t.Fatalf("Get(%q) = %d,%v want %d", k, got, ok, v)
		}
	}
}

func BenchmarkPut(b *testing.B) {
	keys := make([]string, 1<<16)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%08d", (i*2654435761)%(1<<24))
	}
	b.ResetTimer()
	tr := New[int](nil)
	for i := 0; i < b.N; i++ {
		tr.Put(keys[i&(len(keys)-1)], i)
	}
}

func BenchmarkGet(b *testing.B) {
	tr := New[int](nil)
	keys := make([]string, 1<<16)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%08d", i)
		tr.Put(keys[i], i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(keys[i&(len(keys)-1)])
	}
}
