package codec

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"blmr/internal/core"
	"blmr/internal/workload"
)

// sortedUniformKeys is one sealed run of sort_tcp_delta's shape: n
// order-preserving 8-byte keys below 2^40 with empty values, key-sorted.
// Front coding removes their shared prefixes; LZ finds little beyond that.
func sortedUniformKeys(n int) []core.Record {
	recs := workload.UniformKeys(7, n, 1<<40)
	slices.SortFunc(recs, func(a, b core.Record) int { return strings.Compare(a.Key, b.Key) })
	return recs
}

// wordCountKeys is one sealed run of a barrier WordCount's shape: a
// (word, "1") record per word of lines Zipf text lines, key-sorted. LZ pays
// here: runs of equal keys front-code to identical records.
func wordCountKeys(lines int) []core.Record {
	var recs []core.Record
	for _, line := range workload.Text(17, lines, 2000, 8) {
		for _, w := range strings.Fields(line.Value) {
			recs = append(recs, core.Record{Key: w, Value: "1"})
		}
	}
	slices.SortStableFunc(recs, func(a, b core.Record) int { return strings.Compare(a.Key, b.Key) })
	return recs
}

// textLines is a run of raw input lines (key = line id, value = the line):
// the values repeat words, so LZ pays under either block codec.
func textLines(lines int) []core.Record { return workload.Text(19, lines, 2000, 8) }

// benchRuns are the sealed-run shapes the codec benchmarks price, one per
// side of the LZ probe.
var benchRuns = []struct {
	name string
	recs func() []core.Record
}{
	{"delta-uniform", func() []core.Record { return sortedUniformKeys(62_500) }},
	{"delta-text", func() []core.Record { return wordCountKeys(8_000) }},
}

// BenchmarkEncode seals one run per op, reusing the encoder as a map task
// does across waves, and reports ns per record and the sealed size: each
// benchRuns shape with DeltaBlock, and the WordCount run with None, the
// codec of mpexec's record lists and of plain sealed waves.
func BenchmarkEncode(b *testing.B) {
	for _, bc := range benchRuns {
		b.Run(bc.name, func(b *testing.B) { benchEncode(b, bc.recs(), DeltaBlock) })
	}
	b.Run("none-text", func(b *testing.B) { benchEncode(b, wordCountKeys(8_000), None) })
}

func benchEncode(b *testing.B, recs []core.Record, comp Compression) {
	e := NewRunEncoder(nil, comp)
	b.ResetTimer()
	for range b.N {
		e.Reset(nil)
		for _, r := range recs {
			if err := e.Append(r); err != nil {
				b.Fatal(err)
			}
		}
		if err := e.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(recs)), "ns/rec")
	b.ReportMetric(float64(len(e.Bytes())), "sealed-B")
}

// BenchmarkDecode drains one run per op: "none" is 1 024 records sealed
// with None, the other cases the runs BenchmarkEncode seals, all decoded
// serially from one buffer with no arena.
func BenchmarkDecode(b *testing.B) {
	b.Run("none", func(b *testing.B) {
		e := NewRunEncoder(nil, None)
		for i := 0; i < 1024; i++ {
			_ = e.Append(core.Record{Key: "key-123456", Value: "value-payload"})
		}
		_ = e.Flush()
		run := e.Bytes()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rd := NewRunDecoderBytes(run, None)
			for {
				if _, ok := rd.Next(); !ok {
					break
				}
			}
		}
	})
	for _, bc := range benchRuns {
		b.Run(bc.name, func(b *testing.B) {
			recs := bc.recs()
			e := NewRunEncoder(nil, DeltaBlock)
			for _, r := range recs {
				if err := e.Append(r); err != nil {
					b.Fatal(err)
				}
			}
			if err := e.Flush(); err != nil {
				b.Fatal(err)
			}
			run := e.Bytes()
			b.ResetTimer()
			for range b.N {
				rd := NewRunDecoderBytes(run, DeltaBlock)
				n := 0
				for _, ok := rd.Next(); ok; _, ok = rd.Next() {
					n++
				}
				if rd.Err() != nil || n != len(recs) {
					b.Fatal(fmt.Errorf("decoded %d of %d records: %v", n, len(recs), rd.Err()))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(recs)), "ns/rec")
		})
	}
}
