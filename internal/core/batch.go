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

// Write implements Output. A full sink doubles: a reduce task's output has
// no size hint, and append's 1.25x growth of a large slice copies (and
// write-barriers) about five times the final size on the way there.
func (s *RecordSink) Write(k, v string) {
	if len(s.Recs) == cap(s.Recs) {
		grown := make([]Record, len(s.Recs), max(2*len(s.Recs), 64))
		copy(grown, s.Recs)
		s.Recs = grown
	}
	s.Recs = append(s.Recs, Record{Key: k, Value: v})
}

// PartitionedEmitter is an Emitter that routes each emitted record into one
// of n per-reducer buffers using Partition. It is the map-side partitioning
// helper shared by the real-concurrency and simulated engines: one
// allocation-lean emitter per map task instead of a fresh closure (and a
// fresh Record boxing path) per record.
//
// capHint presizes each partition buffer; pass the expected records per
// partition (e.g. len(split)/n for identity-shaped mappers) or 0.
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
			parts[i] = make([]Record, 0, capHint)
		}
	}
	return &PartitionedEmitter{Parts: parts}
}

// Emit implements Emitter.
func (e *PartitionedEmitter) Emit(k, v string) {
	p := Partition(k, len(e.Parts))
	e.Parts[p] = append(e.Parts[p], Record{Key: k, Value: v})
}

// Len returns the total number of buffered records across partitions.
func (e *PartitionedEmitter) Len() int {
	n := 0
	for _, p := range e.Parts {
		n += len(p)
	}
	return n
}
