package sortx

// The loser-tree merger against its definition: concatenate the runs in run
// order and stable-sort by key. Every run count from 1 to 40 (most not
// powers of two), empty runs anywhere, runs that end at different times,
// NextGroup against grouping the reference, and a merger Reset over fewer
// and over more runs than it last merged.

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"blmr/internal/core"
)

const maxFuzzRuns = 40

// deal splits recs into k runs, record i going to run layout[i%len(layout)]
// mod k (round robin when layout is empty), and stable-sorts each run: ties
// within a run keep their emission order. Layouts that skip runs leave them
// empty wherever they fall.
func deal(recs []core.Record, layout []byte, k int) [][]core.Record {
	runs := make([][]core.Record, k)
	for i, r := range recs {
		j := i % k
		if len(layout) > 0 {
			j = int(layout[i%len(layout)]) % k
		}
		runs[j] = append(runs[j], r)
	}
	for _, run := range runs {
		slices.SortStableFunc(run, func(a, b core.Record) int { return strings.Compare(a.Key, b.Key) })
	}
	return runs
}

// sliceRuns wraps each run as a SliceRun, returning both views.
func sliceRuns(runs [][]core.Record) ([]*SliceRun, []Run) {
	srs := make([]*SliceRun, len(runs))
	asRuns := make([]Run, len(runs))
	for i, run := range runs {
		srs[i] = NewSliceRun(run)
		asRuns[i] = srs[i]
	}
	return srs, asRuns
}

// checkMerger resets m over runs and holds both of its read paths against
// the reference: Next record by record, then (rewound) NextGroup group by
// group.
func checkMerger(t *testing.T, m *Merger, runs [][]core.Record) {
	t.Helper()
	want := stableSorted(slices.Concat(runs...))
	srs, asRuns := sliceRuns(runs)
	m.Reset(asRuns)
	requireSame(t, fmt.Sprintf("merge of %d runs", len(runs)), m.Drain(), want)
	if _, ok := m.Next(); ok {
		t.Fatalf("merge of %d runs: a record after the end", len(runs))
	}

	for _, sr := range srs {
		sr.Rewind()
	}
	m.Reset(asRuns)
	for i := 0; i < len(want); {
		key, values, ok := m.NextGroup()
		if !ok {
			t.Fatalf("merge of %d runs: groups end at record %d of %d", len(runs), i, len(want))
		}
		if key != want[i].Key {
			t.Fatalf("merge of %d runs: group at record %d has key %q, want %q", len(runs), i, key, want[i].Key)
		}
		for _, v := range values {
			if i >= len(want) || want[i].Key != key || want[i].Value != v {
				t.Fatalf("merge of %d runs: group %q's values %q differ from the reference at record %d", len(runs), key, values, i)
			}
			i++
		}
		if i < len(want) && want[i].Key == key {
			t.Fatalf("merge of %d runs: group %q ends before record %d, which has its key", len(runs), key, i)
		}
	}
	if _, _, ok := m.NextGroup(); ok {
		t.Fatalf("merge of %d runs: a group after the end", len(runs))
	}
}

// TestMergerRunCounts: every run count from 1 to maxFuzzRuns, over the key
// shapes the prefix can get wrong, through one merger reset each time — so
// it is reset over fewer runs as often as over more.
func TestMergerRunCounts(t *testing.T) {
	m := NewMerger(nil)
	if _, ok := m.Next(); ok {
		t.Fatal("a merge of no runs yielded a record")
	}
	rng := rand.New(rand.NewSource(40))
	for _, k := range rng.Perm(maxFuzzRuns) {
		k++
		shape := keyShapes[k%len(keyShapes)]
		recs := make([]core.Record, rng.Intn(30*k))
		for i := range recs {
			recs[i] = core.Record{Key: shape.key(rng, i), Value: fmt.Sprint(i)}
		}
		layout := make([]byte, rng.Intn(8))
		for i := range layout {
			layout[i] = byte(rng.Intn(256))
		}
		t.Run(fmt.Sprintf("%s/runs=%d", shape.name, k), func(t *testing.T) {
			checkMerger(t, m, deal(recs, layout, k))
		})
	}
}

// TestMergerResetAllocatesNothing: a merger that has merged k runs merges
// any k or fewer again without allocating, whatever their lengths; only a
// Reset over more runs than it has seen grows its storage.
func TestMergerResetAllocatesNothing(t *testing.T) {
	recs := make([]core.Record, 3000)
	for i := range recs {
		recs[i] = core.Record{Key: core.EncodeUint64(uint64(i*7919) % 1000), Value: "v"}
	}
	m := NewMerger(nil)
	_, asRuns := sliceRuns(deal(recs, nil, maxFuzzRuns))
	m.Reset(asRuns)
	m.Drain()
	for _, k := range []int{maxFuzzRuns, 1, 2, 3, 17, 31, 32, 33} {
		srs, asRuns := sliceRuns(deal(recs, []byte{0, 1, 1, 5, 0, 2}, k))
		drain := func() {
			for _, sr := range srs {
				sr.Rewind()
			}
			m.Reset(asRuns)
			for _, _, ok := m.NextGroup(); ok; _, _, ok = m.NextGroup() {
			}
		}
		drain()
		if allocs := testing.AllocsPerRun(5, drain); allocs != 0 {
			t.Errorf("Reset and merge of %d runs after one of %d: %.0f allocs, want 0", k, maxFuzzRuns, allocs)
		}
	}
}

// FuzzMerger: data becomes records as in FuzzByKey; layout deals them to
// 1 + runs%40 runs. The same merger then merges the first run alone, all
// of them, and half of them, checked against the reference each time.
func FuzzMerger(f *testing.F) {
	f.Add([]byte{}, []byte{}, uint8(0), false)
	f.Add([]byte{1, 'a', 1, 'b', 1, 'a', 0, 1, 'c'}, []byte{}, uint8(2), false)
	// Nine runs, only the fourth and the last fed: empty runs on both sides.
	f.Add([]byte("\x03abc\x02ab\x01a\x03abc\x00\x02ab"), []byte{3, 8}, uint8(8), false)
	// Forty runs; prefix ties on {0,1}-folded keys.
	f.Add([]byte(strings.Repeat("\x09abcdefghi\x03abc\x00\x0aab\x00\x00\x00\x00\x00\x00\x00\x00", 6)), []byte{0, 39, 17, 5}, uint8(39), true)
	// One run ends after a record while another holds every other key.
	f.Add([]byte("\x01z\x01a\x01b\x01c\x01d\x01e\x01f"), []byte{1, 0, 0, 0, 0, 0, 0}, uint8(1), false)
	f.Fuzz(func(t *testing.T, data, layout []byte, runs uint8, narrow bool) {
		recs := fuzzRecords(data, narrow)
		k := 1 + int(runs)%maxFuzzRuns
		dealt := deal(recs, layout, k)
		m := NewMerger(nil)
		checkMerger(t, m, dealt[:1])
		checkMerger(t, m, dealt)
		checkMerger(t, m, dealt[:(k+1)/2])
	})
}
