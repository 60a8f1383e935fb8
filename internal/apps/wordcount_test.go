package apps

import (
	"slices"
	"strings"
	"testing"

	"blmr/internal/core"
	"blmr/internal/workload"
)

// referenceFields is the WordCount mapper's definition: a byte-at-a-time
// scan that splits on ASCII space, tab, newline, vertical tab, form feed and
// carriage return, and on nothing else.
func referenceFields(s string) []string {
	space := func(c byte) bool {
		switch c {
		case ' ', '\t', '\n', '\v', '\f', '\r':
			return true
		}
		return false
	}
	var out []string
	for i := 0; i < len(s); {
		for i < len(s) && space(s[i]) {
			i++
		}
		j := i
		for j < len(s) && !space(s[j]) {
			j++
		}
		if j > i {
			out = append(out, s[i:j])
		}
		i = j
	}
	return out
}

// mapFields returns the keys WordCount's mapper emits for line, failing on
// any value but "1".
func mapFields(t *testing.T, line string) []string {
	t.Helper()
	var keys []string
	WordCount().Mapper.Map("k", line, core.EmitterFunc(func(k, v string) {
		if v != "1" {
			t.Fatalf("%q: emitted value %q", line, v)
		}
		keys = append(keys, k)
	}))
	return keys
}

func checkFields(t *testing.T, line string) {
	t.Helper()
	if got, want := mapFields(t, line), referenceFields(line); !slices.Equal(got, want) {
		t.Fatalf("%q: mapper emitted %q, want %q", line, got, want)
	}
}

// TestWordCountMapperEveryByte puts each of the 256 byte values at each
// position of a 17-byte word, after a space and after a control byte, so
// every byte is met in every lane of the 8-byte scan, in the tail, and
// above a borrow out of the lane below.
func TestWordCountMapperEveryByte(t *testing.T) {
	for _, lead := range []string{"", " ", "\x01", "a\x00"} {
		for pos := 0; pos < 17; pos++ {
			for c := 0; c < 256; c++ {
				b := []byte(lead + strings.Repeat("w", 17))
				b[len(lead)+pos] = byte(c)
				checkFields(t, string(b))
			}
		}
	}
}

// FuzzWordCountMapper holds the mapper's word-at-a-time scan to the
// byte-at-a-time definition on every input. The committed corpus
// (testdata/fuzz/FuzzWordCountMapper) has a word ending on an 8-byte
// boundary, control bytes that are not spaces, 0x7f, bytes at or above
// 0x80, runs of mixed ASCII spaces, and the empty line.
func FuzzWordCountMapper(f *testing.F) {
	f.Fuzz(checkFields)
}

// BenchmarkWordCountMap is the mapper alone over workload.Text lines (four
// Zipf words of 9 bytes each): ns/op is ns per line.
func BenchmarkWordCountMap(b *testing.B) {
	lines := workload.Text(7, 1<<16, 20_000, 4)
	mapper := WordCount().Mapper
	words := 0
	emit := core.EmitterFunc(func(k, v string) { words++ })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := lines[i&(len(lines)-1)]
		mapper.Map(r.Key, r.Value, emit)
	}
	if words != 4*b.N {
		b.Fatalf("%d words from %d lines", words, b.N)
	}
}
