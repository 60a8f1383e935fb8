package reducers

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"testing"
	"testing/quick"

	"blmr/internal/core"
	"blmr/internal/sortx"
	"blmr/internal/store"
)

type sink struct{ recs []core.Record }

func (s *sink) Write(k, v string) { s.recs = append(s.recs, core.Record{Key: k, Value: v}) }

// sortedCopy returns records sorted by (key, value) for multiset comparison.
func sortedCopy(recs []core.Record) []core.Record {
	out := append([]core.Record(nil), recs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key != out[j].Key {
			return out[i].Key < out[j].Key
		}
		return out[i].Value < out[j].Value
	})
	return out
}

func sameMultiset(t *testing.T, name string, a, b []core.Record) {
	t.Helper()
	sa, sb := sortedCopy(a), sortedCopy(b)
	if len(sa) != len(sb) {
		t.Fatalf("%s: %d vs %d records", name, len(sa), len(sb))
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("%s: record %d differs: %v vs %v", name, i, sa[i], sb[i])
		}
	}
}

// runBarrier drives a GroupReducer the way the barrier engine does: records
// sorted by key, grouped, plus Cleanup if implemented.
func runBarrier(gr core.GroupReducer, recs []core.Record) []core.Record {
	sorted := append([]core.Record(nil), recs...)
	sortx.ByKey(sorted)
	out := &sink{}
	sortx.Group(sorted, func(k string, vs []string) { gr.Reduce(k, vs, out) })
	if c, ok := gr.(core.Cleanup); ok {
		c.Cleanup(out)
	}
	return out.recs
}

// runStream drives a StreamReducer in arrival order.
func runStream(sr core.StreamReducer, recs []core.Record) []core.Record {
	out := &sink{}
	for _, r := range recs {
		sr.Consume(r, out)
	}
	sr.Finish(out)
	return out.recs
}

func shuffled(recs []core.Record, seed int64) []core.Record {
	out := append([]core.Record(nil), recs...)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func eachStore(t *testing.T, merger store.Merger, fn func(name string, st store.Store)) {
	t.Helper()
	fn("in-memory", store.NewMemStore())
	fn("spill", store.NewSpillStore(1024, merger, nil, nil))
	fn("kv", store.NewKVStore(512, nil))
}

func TestIdentityEquivalence(t *testing.T) {
	var recs []core.Record
	for i := 0; i < 200; i++ {
		recs = append(recs, core.Record{Key: fmt.Sprintf("line%03d", i%50), Value: fmt.Sprintf("text %d", i)})
	}
	b := runBarrier(Identity{}, recs)
	s := runStream(Identity{}, shuffled(recs, 1))
	sameMultiset(t, "identity", b, s)
	if len(b) != len(recs) {
		t.Fatalf("identity dropped records: %d of %d", len(b), len(recs))
	}
}

func TestSortingEquivalence(t *testing.T) {
	var recs []core.Record
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		recs = append(recs, core.Record{Key: core.EncodeUint64(uint64(rng.Intn(100))), Value: ""})
	}
	b := runBarrier(SortingGroup{}, recs)
	if !sort.SliceIsSorted(b, func(i, j int) bool { return b[i].Key < b[j].Key }) {
		t.Fatal("barrier sort output not sorted")
	}
	eachStore(t, store.SumMerger, func(name string, st store.Store) {
		s := runStream(NewSortingStream(st), shuffled(recs, 3))
		if !sort.SliceIsSorted(s, func(i, j int) bool { return s[i].Key < s[j].Key }) {
			t.Fatalf("%s: stream sort output not sorted", name)
		}
		sameMultiset(t, "sorting/"+name, b, s)
	})
}

func TestAggregationEquivalence(t *testing.T) {
	var recs []core.Record
	for i := 0; i < 3000; i++ {
		recs = append(recs, core.Record{Key: fmt.Sprintf("w%02d", i%40), Value: "1"})
	}
	b := runBarrier(AggregationGroup{Combine: store.SumMerger}, recs)
	if len(b) != 40 {
		t.Fatalf("barrier produced %d keys", len(b))
	}
	eachStore(t, store.SumMerger, func(name string, st store.Store) {
		s := runStream(NewAggregationStream(st), shuffled(recs, 4))
		sameMultiset(t, "aggregation/"+name, b, s)
	})
}

func TestAggregationCountsExactly(t *testing.T) {
	recs := []core.Record{
		{Key: "a", Value: "1"}, {Key: "b", Value: "1"}, {Key: "a", Value: "1"},
		{Key: "a", Value: "1"}, {Key: "b", Value: "1"},
	}
	got := runStream(NewAggregationStream(store.NewMemStore()), recs)
	want := map[string]string{"a": "3", "b": "2"}
	if len(got) != 2 {
		t.Fatalf("got %v", got)
	}
	for _, r := range got {
		if want[r.Key] != r.Value {
			t.Fatalf("%s = %s, want %s", r.Key, r.Value, want[r.Key])
		}
	}
}

func TestSelectionEquivalence(t *testing.T) {
	const k = 5
	rng := rand.New(rand.NewSource(5))
	var recs []core.Record
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("q%02d", i%20)
		dist := rng.Float64() * 1000
		val := core.JoinValues(core.EncodeFloat64(dist), fmt.Sprintf("p%d", i))
		recs = append(recs, core.Record{Key: key, Value: val})
	}
	b := runBarrier(SelectionGroup{K: k}, recs)
	if len(b) != 20*k {
		t.Fatalf("barrier selected %d, want %d", len(b), 20*k)
	}
	eachStore(t, SelectionMerger(k), func(name string, st store.Store) {
		s := runStream(NewSelectionStream(st, k), shuffled(recs, 6))
		sameMultiset(t, "selection/"+name, b, s)
	})
}

func TestSelectionKeepsSmallest(t *testing.T) {
	st := store.NewMemStore()
	sel := NewSelectionStream(st, 2)
	for _, d := range []float64{5, 1, 9, 3, 7} {
		sel.Consume(core.Record{Key: "x", Value: core.JoinValues(core.EncodeFloat64(d), "")}, nil)
	}
	out := &sink{}
	sel.Finish(out)
	if len(out.recs) != 2 {
		t.Fatalf("kept %d", len(out.recs))
	}
	d0 := core.DecodeFloat64(core.SplitValues(out.recs[0].Value)[0])
	d1 := core.DecodeFloat64(core.SplitValues(out.recs[1].Value)[0])
	if d0 != 1 || d1 != 3 {
		t.Fatalf("kept distances %v %v, want 1 3", d0, d1)
	}
}

func TestSelectionMergerProperty(t *testing.T) {
	// Property: merging two top-k lists, each folded one value at a time
	// as SelectionStream.Consume folds, equals the k smallest of the union.
	f := func(xs, ys []uint16, kk uint8) bool {
		k := int(kk%8) + 1
		merge := SelectionMerger(k)
		mk := func(vals []uint16) string {
			list := ""
			for _, v := range vals {
				list = merge(list, core.JoinList(core.EncodeUint64(uint64(v))))
			}
			return list
		}
		var all []string
		for _, v := range append(append([]uint16{}, xs...), ys...) {
			all = append(all, core.EncodeUint64(uint64(v)))
		}
		sort.Strings(all)
		return merge(mk(xs), mk(ys)) == core.JoinList(all[:min(k, len(all))]...)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPostReductionEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var recs []core.Record
	for i := 0; i < 3000; i++ {
		track := fmt.Sprintf("t%03d", rng.Intn(100))
		user := fmt.Sprintf("u%02d", rng.Intn(30))
		recs = append(recs, core.Record{Key: track, Value: user})
	}
	b := runBarrier(PostReductionGroup{}, recs)
	eachStore(t, SetUnionMerger, func(name string, st store.Store) {
		s := runStream(NewPostReductionStream(st), shuffled(recs, 8))
		sameMultiset(t, "postreduce/"+name, b, s)
	})
}

func TestPostReductionCountsUnique(t *testing.T) {
	recs := []core.Record{
		{Key: "song", Value: "alice"}, {Key: "song", Value: "bob"},
		{Key: "song", Value: "alice"}, {Key: "song", Value: "alice"},
	}
	got := runStream(NewPostReductionStream(store.NewMemStore()), recs)
	if len(got) != 1 || got[0].Value != "2" {
		t.Fatalf("got %v, want song=2", got)
	}
}

func TestSetUnionMergerProperty(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		mk := func(vals []uint8) string {
			set := map[string]bool{}
			for _, v := range vals {
				set[fmt.Sprintf("v%03d", v)] = true
			}
			keys := make([]string, 0, len(set))
			for k := range set {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			return core.JoinList(keys...)
		}
		merged := SetUnionMerger(mk(xs), mk(ys))
		return merged == mk(append(append([]uint8{}, xs...), ys...))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCrossKeyWindow(t *testing.T) {
	var windows [][]core.Record
	op := func(w []core.Record, out core.Output) {
		windows = append(windows, append([]core.Record(nil), w...))
		for _, r := range w {
			out.Write(r.Key, r.Value)
		}
	}
	ck := NewCrossKeyWindow(4, op)
	var recs []core.Record
	for i := 0; i < 10; i++ {
		recs = append(recs, core.Record{Key: fmt.Sprintf("ind%02d", i), Value: "f"})
	}
	got := runStream(ck, recs)
	if len(got) != 10 {
		t.Fatalf("emitted %d", len(got))
	}
	if len(windows) != 3 {
		t.Fatalf("windows = %d, want 3 (4+4+2)", len(windows))
	}
	if len(windows[2]) != 2 {
		t.Fatalf("final partial window = %d, want 2", len(windows[2]))
	}
	if ck.MemBytes() != 0 {
		t.Fatal("window not drained")
	}
}

func TestCrossKeyBarrierStreamEquivalence(t *testing.T) {
	op := func(w []core.Record, out core.Output) {
		// A deterministic, order-insensitive window op: emit count and sum
		// of window fitness values.
		sum := 0
		for _, r := range w {
			f, _ := strconv.Atoi(r.Value)
			sum += f
		}
		out.Write("window", fmt.Sprintf("%d:%d", len(w), sum))
	}
	var recs []core.Record
	for i := 0; i < 23; i++ {
		recs = append(recs, core.Record{Key: core.EncodeUint64(uint64(i)), Value: strconv.Itoa(i)})
	}
	b := runBarrier(NewCrossKeyWindow(5, op), recs) // sorted arrival
	s := runStream(NewCrossKeyWindow(5, op), recs)  // same order
	sameMultiset(t, "crosskey", b, s)
}

func TestMomentsMatchesDirectComputation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var recs []core.Record
	var xs []float64
	for i := 0; i < 5000; i++ {
		x := rng.NormFloat64()*3 + 10
		xs = append(xs, x)
		recs = append(recs, core.Record{Key: "0", Value: MomentsValue(x)})
	}
	got := runStream(NewMoments(), recs)
	if len(got) != 3 {
		t.Fatalf("got %v", got)
	}
	var mean, sd float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		sd += (x - mean) * (x - mean)
	}
	sd = math.Sqrt(sd / float64(len(xs)))
	gm, _ := strconv.ParseFloat(got[1].Value, 64)
	gs, _ := strconv.ParseFloat(got[2].Value, 64)
	if math.Abs(gm-mean) > 1e-9*math.Abs(mean) {
		t.Fatalf("mean = %v, want %v", gm, mean)
	}
	if math.Abs(gs-sd) > 1e-6*sd {
		t.Fatalf("stddev = %v, want %v", gs, sd)
	}
}

func TestMomentsBarrierEquivalence(t *testing.T) {
	var recs []core.Record
	for i := 0; i < 100; i++ {
		recs = append(recs, core.Record{Key: "0", Value: MomentsValue(float64(i))})
	}
	b := runBarrier(NewMoments(), recs)
	s := runStream(NewMoments(), shuffled(recs, 10))
	sameMultiset(t, "moments", b, s)
}

func TestMomentsEmptyInput(t *testing.T) {
	got := runStream(NewMoments(), nil)
	if len(got) != 0 {
		t.Fatalf("empty input produced %v", got)
	}
}

func TestSumMerger(t *testing.T) {
	if store.SumMerger("3", "4") != "7" {
		t.Fatal("3+4")
	}
	if store.SumMerger("-2", "2") != "0" {
		t.Fatal("-2+2")
	}
}
