package core

// RecordSink is an Output that accumulates records in memory: the one
// accumulator of reducer output in both engines (tests use it to capture
// emissions too). It fills chunks drawn from the record-buffer free list,
// each asking for twice the last up to outputChunkMax records, so a written
// record is never copied again inside the sink; Chunks hands them over in
// order.
type RecordSink struct {
	full Chunks   // filled chunks, in write order
	cur  []Record // the chunk being filled
}

// Reducer-output chunk sizes, in records. The first chunk is small, so a
// partition with a handful of keys holds a few KiB; later chunks double up
// to outputChunkMax, 256 KiB of headers, so that one job's recycled chunks
// serve the next within the free list's bounds (freeRecordBufs,
// freeRecordBytes). Measured on sort_tcp_delta (1 M records, 2 reducers,
// 2-core host): its output comes back as about 124 chunks, 30.5 MiB, and
// the sink allocates under 0.1 MB of headers a job where doubling one
// buffer allocated about 64 MB.
const (
	firstOutputChunk = 256
	outputChunkMax   = 8192
)

// NewRecordSink returns an empty sink.
func NewRecordSink() *RecordSink { return &RecordSink{} }

// Write implements Output.
func (s *RecordSink) Write(k, v string) {
	if len(s.cur) == cap(s.cur) {
		s.grow()
	}
	s.cur = append(s.cur, Record{Key: k, Value: v})
}

// grow retires the full current chunk and takes the next from the free
// list. A taken buffer may be larger than asked for; it is filled to its
// capacity all the same.
func (s *RecordSink) grow() {
	n := firstOutputChunk
	if s.cur != nil {
		s.full = append(s.full, s.cur)
		n = min(2*cap(s.cur), outputChunkMax)
	}
	s.cur = TakeRecords(n)
}

// Chunks hands over every record written, in order, and empties the sink.
func (s *RecordSink) Chunks() Chunks {
	out := s.full
	if s.cur != nil { // never empty: a chunk is taken for a record
		out = append(out, s.cur)
	}
	s.full, s.cur = nil, nil
	return out
}

// Chunks is a record sequence held as consecutive buffers: a reduce task's
// output, as RecordSink collects it. Whoever finally consumes the records
// copies them out (AppendTo) and hands the buffers back (Recycle).
type Chunks [][]Record

// Len returns the number of records across the chunks.
func (c Chunks) Len() int {
	n := 0
	for _, ch := range c {
		n += len(ch)
	}
	return n
}

// AppendTo appends the records to dst, in order.
func (c Chunks) AppendTo(dst []Record) []Record {
	for _, ch := range c {
		dst = append(dst, ch...)
	}
	return dst
}

// Recycle hands every chunk to the record-buffer free list; neither c nor
// any chunk may be touched again.
func (c Chunks) Recycle() {
	for _, ch := range c {
		RecycleRecords(ch)
	}
}

// appendDoubling appends r to buf, doubling a full buffer (to at least 64
// records). It is the growth rule of the map-side partition buffers: their
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
