package reducers

import (
	"encoding/binary"
	"sort"
	"strings"
	"testing"

	"blmr/internal/core"
	"blmr/internal/store"
)

// The reference: the split/merge/join code the two list mergers and the
// per-record inserts were before they folded through mergeLists, with the
// split as core.SplitList was before it read through core.ListCursor (its
// length check made unsigned, so a length past MaxInt64 is corrupt rather
// than a slice-bounds panic).

func splitListRef(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	b := []byte(s)
	for len(b) > 0 {
		n, sz := binary.Uvarint(b)
		if sz <= 0 || n > uint64(len(b)-sz) {
			panic("core: corrupt packed string")
		}
		out = append(out, string(b[sz:sz+int(n)]))
		b = b[sz+int(n):]
	}
	return out
}

func setUnionRef(a, b string) string {
	la, lb := splitListRef(a), splitListRef(b)
	merged := make([]string, 0, len(la)+len(lb))
	i, j := 0, 0
	for i < len(la) || j < len(lb) {
		switch {
		case i >= len(la):
			merged = append(merged, lb[j])
			j++
		case j >= len(lb):
			merged = append(merged, la[i])
			i++
		case la[i] < lb[j]:
			merged = append(merged, la[i])
			i++
		case la[i] > lb[j]:
			merged = append(merged, lb[j])
			j++
		default:
			merged = append(merged, la[i])
			i++
			j++
		}
	}
	return core.JoinList(merged...)
}

func selectionMergerRef(k int) func(a, b string) string {
	return func(a, b string) string {
		la, lb := splitListRef(a), splitListRef(b)
		merged := make([]string, 0, len(la)+len(lb))
		i, j := 0, 0
		for (i < len(la) || j < len(lb)) && len(merged) < k {
			switch {
			case i >= len(la):
				merged = append(merged, lb[j])
				j++
			case j >= len(lb) || la[i] <= lb[j]:
				merged = append(merged, la[i])
				i++
			default:
				merged = append(merged, lb[j])
				j++
			}
		}
		return core.JoinList(merged...)
	}
}

// insertSetRef is PostReductionStream.Consume's insert: v joins the sorted
// set unless it is there.
func insertSetRef(set []string, v string) []string {
	pos := sort.SearchStrings(set, v)
	if pos < len(set) && set[pos] == v {
		return set
	}
	set = append(set, "")
	copy(set[pos+1:], set[pos:])
	set[pos] = v
	return set
}

// insertTopKRef is SelectionStream.Consume's insert: v joins the sorted
// list, which keeps at most k entries.
func insertTopKRef(list []string, v string, k int) []string {
	pos := sort.SearchStrings(list, v)
	if pos >= k {
		return list
	}
	list = append(list, "")
	copy(list[pos+1:], list[pos:])
	list[pos] = v
	if len(list) > k {
		list = list[:k]
	}
	return list
}

// call returns m(a, b), or what it panicked with.
func call(m func(a, b string) string, a, b string) (out string, panicked any) {
	defer func() { panicked = recover() }()
	return m(a, b), nil
}

// canonical re-joins a list that splits, so its length prefixes are
// JoinList's: mergeLists keeps each element's framing as it lies, and every
// list the reducers hold was built by JoinList. A corrupt list is returned
// as it is.
func canonical(s string) (c string) {
	defer func() {
		if recover() != nil {
			c = s
		}
	}()
	return core.JoinList(splitListRef(s)...)
}

// FuzzListMergers holds SetUnionMerger and SelectionMerger(k) to the
// reference three ways: on the inputs as packed lists (corrupt ones must
// panic alike), folding the comma-separated elements of a then b in one at
// a time as the stream reducers' Consume does, and merging the two partials
// so folded as a spill merge does.
func FuzzListMergers(f *testing.F) {
	for _, s := range []struct {
		a, b string
		k    uint8
	}{
		{"", "", 0}, {"x", "", 0}, {"", "x", 3},
		{"a,b,b,c", "b,c,d", 2},        // duplicates within and across lists
		{"9,8,7,6,5,4,3,2,1,0", "", 2}, // descending inserts, k = 3: keeps 0,1,2
		{"5,1,9,3,7", "2,2,8", 0},      // k = 1
		{core.JoinList("a", "c"), core.JoinList("b"), 4},
		{core.JoinList("k", "m", "z"), core.JoinList("a", "m"), 1}, // a tie
		{"\x05ab", core.JoinList("a"), 2},                          // length past the end
		{core.JoinList("a") + "\x80", "", 2},                       // truncated length
		{core.JoinList("a", "b") + "\x05x", "", 0},                 // corrupt past the top k
		{"\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01", "", 5},        // length past MaxInt64
		{"\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01", "x", 5},   // varint overflow
	} {
		f.Add(s.a, s.b, s.k)
	}
	f.Fuzz(func(t *testing.T, a, b string, kk uint8) {
		k := int(kk%8) + 1 // 1 to 8
		mergers := []struct {
			name     string
			got, ref func(a, b string) string
		}{
			{"union", SetUnionMerger, setUnionRef},
			{"selection", SelectionMerger(k), selectionMergerRef(k)},
		}
		ca, cb := canonical(a), canonical(b)
		for _, m := range mergers {
			got, gotPanic := call(m.got, ca, cb)
			want, wantPanic := call(m.ref, ca, cb)
			if got != want || gotPanic != wantPanic {
				t.Fatalf("%s k=%d (%q, %q) = %q, panic %v; reference %q, panic %v",
					m.name, k, ca, cb, got, gotPanic, want, wantPanic)
			}
		}

		var set, top [2]string
		var refSet, refTop [2][]string
		for i, in := range []string{a, b} {
			for _, v := range strings.Split(in, ",") {
				set[i] = SetUnionMerger(set[i], core.JoinList(v))
				refSet[i] = insertSetRef(refSet[i], v)
				top[i] = SelectionMerger(k)(top[i], core.JoinList(v))
				refTop[i] = insertTopKRef(refTop[i], v, k)
				if set[i] != core.JoinList(refSet[i]...) || top[i] != core.JoinList(refTop[i]...) {
					t.Fatalf("k=%d: after %q the set is %q and the top list %q; reference %q and %q",
						k, v, core.SplitList(set[i]), core.SplitList(top[i]), refSet[i], refTop[i])
				}
			}
		}
		for _, m := range mergers {
			partials := set
			if m.name == "selection" {
				partials = top
			}
			if got, want := m.got(partials[0], partials[1]), m.ref(partials[0], partials[1]); got != want {
				t.Fatalf("%s k=%d of the folded partials = %q, reference %q",
					m.name, k, core.SplitList(got), core.SplitList(want))
			}
		}
	})
}

// TestListMergersAllocateOnce: a merge whose result interleaves both lists
// allocates the result and nothing else, and one whose result is a prefix of
// an input (a duplicate, a value past the top k) allocates nothing.
func TestListMergersAllocateOnce(t *testing.T) {
	set := core.JoinList("alice", "bob", "carol", "dave")
	top := core.JoinList("1", "3", "5")
	for _, c := range []struct {
		name  string
		merge store.Merger
		a, b  string
		want  float64
	}{
		{"union new", SetUnionMerger, set, core.JoinList("bobby"), 1},
		{"union duplicate", SetUnionMerger, set, core.JoinList("bob"), 0},
		{"selection new", SelectionMerger(3), top, core.JoinList("2"), 1},
		{"selection past k", SelectionMerger(3), top, core.JoinList("9"), 0},
	} {
		if got := testing.AllocsPerRun(100, func() { c.merge(c.a, c.b) }); got != c.want {
			t.Errorf("%s: %v allocations per merge, want %v", c.name, got, c.want)
		}
	}
}
