package store

import (
	"blmr/internal/codec"
	"blmr/internal/core"
	"blmr/internal/sortx"
)

// RunStore persists sealed spill runs — immutable key-sorted encoded record
// streams — and streams them back for the final merge. MemRuns keeps them on
// the heap (the simulator charges virtual disk time through Hooks instead of
// doing real I/O); the wall-clock engine plugs in a disk-backed
// implementation (dfs.RunSet) so spilled data actually leaves the heap.
// Append and Runs are phase-separated: all appends happen before the single
// Runs call, matching the spill lifecycle. A RunStore names its codec, and
// the spill store encodes every run it appends with it.
type RunStore interface {
	// Compression is the codec the spill store seals runs with (readers
	// learn it from each run's header).
	Compression() codec.Compression
	// Append seals buf as one immutable run. rawBytes is the run's standard
	// (pre-compression) encoded size, for compression-ratio accounting. The
	// buffer is owned by the caller and may be reused after Append returns.
	Append(buf []byte, rawBytes int64) error
	// Runs returns one streaming reader per sealed run, in append order.
	// Readers are sortx.Sources — they surface decode failures (truncated or
	// corrupt runs) through Err, so the merge driver must check Merger.Err
	// after draining; nothing in this path panics on bad bytes.
	Runs() ([]sortx.Run, error)
	// Release frees all sealed runs and any readers Runs returned.
	Release() error
}

// MemRuns returns an in-memory RunStore: runs live on the heap as flat
// buffers encoded with comp, so a compressing codec shrinks the spilled
// heap footprint by its ratio.
func MemRuns(comp codec.Compression) RunStore { return &memRuns{comp: comp} }

type memRuns struct {
	comp codec.Compression
	runs [][]byte
}

func (m *memRuns) Compression() codec.Compression { return m.comp }

func (m *memRuns) Append(buf []byte, rawBytes int64) error {
	m.runs = append(m.runs, append([]byte(nil), buf...))
	return nil
}

func (m *memRuns) Runs() ([]sortx.Run, error) {
	out := make([]sortx.Run, len(m.runs))
	for i, r := range m.runs {
		// Read in place: nothing writes a sealed run again, so its records'
		// strings view it, and one kept past Release keeps its run alive.
		out[i] = codec.NewRunDecoderBytes(r, m.comp)
	}
	return out, nil
}

func (m *memRuns) Release() error {
	m.runs = nil
	return nil
}

// SpillStore implements the paper's disk spill and merge scheme. Partial
// results accumulate in an in-memory table; when its footprint crosses the
// threshold, its contents are serialized in key order into a sealed run in
// the RunStore and the table is cleared. Emit k-way merges the runs and the
// live table, combining same-key partials with the Merger.
type SpillStore struct {
	t         table
	merger    Merger
	threshold int64
	hooks     Hooks
	runs      RunStore
	enc       *codec.RunEncoder // reusable run encoder (~threshold bytes once warm)
	runLens   []int64           // record bytes of each run, for the hooks' read accounting
	spilled   int64
	err       error
	// Spills counts how many spill runs were written (for tests/metrics).
	Spills int
}

// NewSpillStore creates a spill-and-merge store. threshold is the in-memory
// partial-results budget in bytes (the paper used 240 MB; <= 0 means 1 MiB);
// merger combines same-key partials at merge time; hooks may be nil. runs
// holds the sealed runs, encoded with its codec; nil means MemRuns(codec.None).
func NewSpillStore(threshold int64, merger Merger, hooks Hooks, runs RunStore) *SpillStore {
	if merger == nil {
		panic("store: SpillStore requires a Merger")
	}
	if hooks == nil {
		hooks = nopHooks{}
	}
	if threshold <= 0 {
		threshold = 1 << 20
	}
	if runs == nil {
		runs = MemRuns(codec.None)
	}
	return &SpillStore{
		merger:    merger,
		threshold: threshold,
		hooks:     hooks,
		runs:      runs,
		enc:       codec.NewRunEncoder(nil, runs.Compression()),
	}
}

// Merge implements Store in a single probe. Spilled partials for the key
// stay untouched; they are reunited with the in-memory partial by the
// Merger at Emit, so folding into only the live table is correct.
func (s *SpillStore) Merge(key, val string, mg Merger) {
	s.t.merge(key, val, mg)
	if s.t.bytes >= s.threshold {
		s.spill()
	}
}

// MergeSum implements Store like Merge: the live table's byte account is
// Merge's after every call, so the store spills at the same calls, and a
// spill drains the sums formatted, so it seals the same runs.
func (s *SpillStore) MergeSum(key, val string) {
	s.t.mergeSum(key, val)
	if s.t.bytes >= s.threshold {
		s.spill()
	}
}

// Len implements Store (in-memory keys only).
func (s *SpillStore) Len() int { return len(s.t.slots) }

// MemBytes implements Store.
func (s *SpillStore) MemBytes() int64 { return s.t.bytes }

// ApproxBytes implements Store: the live table plus the retained encode
// scratch (which grows to roughly one threshold's worth of encoded bytes).
func (s *SpillStore) ApproxBytes() int64 { return s.t.bytes + s.enc.ScratchBytes() }

// SpilledBytes implements Store (sealed, post-compression bytes).
func (s *SpillStore) SpilledBytes() int64 { return s.spilled }

// Err returns the first spill-storage failure (disk-backed stores only).
// A store with a non-nil Err keeps partials in memory instead of spilling,
// so output stays correct but memory is no longer bounded; engines should
// surface the error after Emit.
func (s *SpillStore) Err() error { return s.err }

// spill serializes the table in key order into a new sealed run (through
// the store's codec) and clears it. On storage failure the table is kept
// (correctness over memory bounds) and the error is recorded.
func (s *SpillStore) spill() {
	if len(s.t.slots) == 0 || s.err != nil {
		return
	}
	s.enc.Reset(nil)
	run := s.t.sorted()
	for r, ok := run.Next(); ok; r, ok = run.Next() {
		if s.enc.Append(r) != nil {
			break
		}
	}
	if err := s.enc.Flush(); err != nil {
		s.err = err
		return
	}
	buf, raw := s.enc.Bytes(), s.enc.RawBytes()
	if err := s.runs.Append(buf, raw); err != nil {
		s.err = err
		return
	}
	s.runLens = append(s.runLens, raw)
	s.spilled += int64(len(buf))
	s.Spills++
	s.hooks.DiskWrite(raw)
	// Everything the table held is now encoded in the sealed run, so its
	// slabs can be recycled for the next fill cycle (clearReuse's
	// no-escaped-strings contract holds).
	s.t.clearReuse()
}

// Emit implements Store: merge every sealed run plus the live table,
// combine same-key partials, and write final results in key order. Check
// Err afterwards when the run storage can fail.
func (s *SpillStore) Emit(out core.Output) {
	if s.Spills == 0 {
		s.t.emit(out) // fast path: nothing ever spilled
		return
	}
	runs, err := s.runs.Runs()
	if err != nil {
		s.err = err
		_ = s.runs.Release() // best-effort: don't leak sealed runs
		return
	}
	for _, n := range s.runLens {
		s.hooks.DiskRead(n)
	}
	// The live table, read in key order, is one more run.
	live := s.t.drain()
	runs = append(runs, &live)
	m := sortx.NewMerger(runs)
	for {
		key, values, ok := m.NextGroup()
		if !ok {
			break
		}
		acc := values[0]
		for _, v := range values[1:] {
			acc = s.merger(acc, v)
		}
		out.Write(key, acc)
	}
	if err := m.Err(); err != nil && s.err == nil {
		s.err = err
	}
	if err := s.runs.Release(); err != nil && s.err == nil {
		s.err = err
	}
	s.runLens = nil
	s.t.clear()
}
