package sortx

// Allocation-focused microbenchmarks of the k-way merge. The loser-tree
// Merger must do zero allocations per record merged.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"blmr/internal/core"
	"blmr/internal/workload"
)

// uniformKeys returns n records with uniform 64-bit keys.
func uniformKeys(n int) []core.Record {
	rng := rand.New(rand.NewSource(1))
	out := make([]core.Record, n)
	for i := range out {
		out[i] = core.Record{Key: core.EncodeUint64(rng.Uint64()), Value: "v"}
	}
	return out
}

// wordKeys returns WordCount's first n map outputs over workload.Text: 9-byte
// "word%05d" keys drawn Zipf from a 20 000-word vocabulary, valued "1".
func wordKeys(n int) []core.Record {
	out := make([]core.Record, 0, n+3)
	for _, line := range workload.Text(1, (n+3)/4, 20000, 4) {
		for _, w := range strings.Fields(line.Value) {
			out = append(out, core.Record{Key: w, Value: "1"})
		}
	}
	return out[:n]
}

// BenchmarkByKeySizes sweeps a warmed-up Sorter over sizes either side of
// radixSortMin, for both key shapes: the sweep that picks the cut-over.
func BenchmarkByKeySizes(b *testing.B) {
	for _, shape := range []struct {
		name string
		keys func(int) []core.Record
	}{{"uniform", uniformKeys}, {"words", wordKeys}} {
		for _, n := range []int{64, 256, 1024, 16384} {
			base := shape.keys(n)
			work := make([]core.Record, n)
			b.Run(fmt.Sprintf("%s/n=%d", shape.name, n), func(b *testing.B) {
				var s Sorter
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					copy(work, base)
					s.ByKey(work)
				}
			})
		}
	}
}

func buildRuns(nRuns, perRun int, seed int64) []*SliceRun {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*SliceRun, nRuns)
	for i := range out {
		recs := make([]core.Record, perRun)
		for j := range recs {
			recs[j] = core.Record{Key: core.EncodeUint64(rng.Uint64()), Value: "v"}
		}
		ByKey(recs)
		out[i] = NewSliceRun(recs)
	}
	return out
}

// BenchmarkMergerNext measures one Next call per op; allocs/op must be 0.
// The merger is Reset in-place (runs rewound) whenever it drains, so setup
// cost is amortized out of the per-record numbers.
func BenchmarkMergerNext(b *testing.B) {
	sliceRuns := buildRuns(8, 4096, 7)
	runs := make([]Run, len(sliceRuns))
	for i, r := range sliceRuns {
		runs[i] = r
	}
	m := NewMerger(runs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := m.Next(); !ok {
			b.StopTimer()
			for _, r := range sliceRuns {
				r.Rewind()
			}
			m.Reset(runs)
			b.StartTimer()
		}
	}
}

// BenchmarkMergerDrain measures a full 8x4096 merge per op, amortizing the
// (reused) tree setup into the run.
func BenchmarkMergerDrain(b *testing.B) {
	sliceRuns := buildRuns(8, 4096, 8)
	runs := make([]Run, len(sliceRuns))
	for i, r := range sliceRuns {
		runs[i] = r
	}
	m := NewMerger(runs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for {
			if _, ok := m.Next(); !ok {
				break
			}
		}
		for _, r := range sliceRuns {
			r.Rewind()
		}
		m.Reset(runs)
	}
}

func BenchmarkCombine(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	base := make([]core.Record, 1<<13)
	for i := range base {
		base[i] = core.Record{Key: core.EncodeUint64(rng.Uint64() % 512), Value: "1"}
	}
	work := make([]core.Record, len(base))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, base)
		Combine(work, func(a, _ string) string { return a })
	}
}
