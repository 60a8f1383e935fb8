package core

// RecordSink is an Output that accumulates records in memory. Both engines
// use it to collect reducer output; tests use it to capture emissions.
type RecordSink struct {
	Recs []Record
}

// NewRecordSink returns a sink preallocated for capHint records.
func NewRecordSink(capHint int) *RecordSink {
	if capHint < 0 {
		capHint = 0
	}
	return &RecordSink{Recs: make([]Record, 0, capHint)}
}

// Write implements Output.
func (s *RecordSink) Write(k, v string) { s.Recs = appendDoubling(s.Recs, Record{Key: k, Value: v}) }

// appendDoubling appends r to buf, doubling a full buffer (to at least 64
// records). It is the one growth rule of the record buffers here: their
// sizes are unknown up front, and append's 1.25x growth of a large slice
// copies (and write-barriers) about five times the final size on the way
// there.
func appendDoubling(buf []Record, r Record) []Record {
	if len(buf) == cap(buf) {
		grown := make([]Record, len(buf), max(2*len(buf), 64))
		copy(grown, buf)
		buf = grown
	}
	return append(buf, r)
}

// PartitionedEmitter is an Emitter that routes each emitted record into one
// of n per-reducer buffers using Partition. It is the map-side partitioning
// helper shared by the real-concurrency and simulated engines: one
// allocation-lean emitter per map task instead of a fresh closure (and a
// fresh Record boxing path) per record.
//
// capHint presizes each partition buffer; pass the expected records per
// partition (e.g. len(split)/n for identity-shaped mappers) or 0. Past it,
// a full partition doubles. Presized buffers come from the record-buffer
// free list (TakeRecords), so a task whose predecessor's buffers were
// recycled allocates none.
type PartitionedEmitter struct {
	Parts [][]Record
}

// NewPartitionedEmitter builds an emitter over n partition buffers.
func NewPartitionedEmitter(n, capHint int) *PartitionedEmitter {
	if n < 1 {
		n = 1
	}
	parts := make([][]Record, n)
	if capHint > 0 {
		for i := range parts {
			parts[i] = TakeRecords(capHint)
		}
	}
	return &PartitionedEmitter{Parts: parts}
}

// Emit implements Emitter.
func (e *PartitionedEmitter) Emit(k, v string) {
	p := Partition(k, len(e.Parts))
	e.Parts[p] = appendDoubling(e.Parts[p], Record{Key: k, Value: v})
}

// Extrapolate grows each partition once, to its share of a split of total
// input records as extrapolated from the first done of them, plus an
// eighth: a mapper that expands its input (WordCount) then fills its
// buffers without a growth step, where the capHint of an identity-shaped
// mapper would have them double two or three times. The grown buffer comes
// from the free list, and the outgrown one goes back to it.
func (e *PartitionedEmitter) Extrapolate(done, total int) {
	if done <= 0 {
		return
	}
	for p, buf := range e.Parts {
		want := len(buf) * total / done
		want += want / 8
		if want > cap(buf) {
			e.Parts[p] = append(TakeRecords(want), buf...)
			RecycleRecords(buf)
		}
	}
}

// Len returns the total number of buffered records across partitions.
func (e *PartitionedEmitter) Len() int {
	n := 0
	for _, p := range e.Parts {
		n += len(p)
	}
	return n
}
