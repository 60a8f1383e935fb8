// Package dfs is the real engines' run directory: local storage for the one
// kind of file the wall-clock engines need, sealed runs — immutable,
// codec-encoded record streams written once by a mapper or reducer (spill
// waves, run-exchange segments, store spills) and streamed back during the
// merge or fetched by a run-server (the role Hadoop's task-local spill files
// play; no replication, because runs are recomputable). The simulated HDFS
// the paper's jobs read from lives in simmr.
//
// Write path: a RunWriter accumulates arbitrary partial writes through a
// buffered writer and seals the file on Close; only the writer names a
// codec (the RunDir's). Read path: OpenRun reopens a sealed file as a
// RunReader, a sortx.Source that learns the codec from the run header and
// decodes records with bounded buffers, so merging N runs costs O(N) memory
// no matter how large the runs are. A truncated or corrupt file surfaces
// codec.ErrCorrupt from Err instead of panicking: partially written runs
// are expected debris after crashes.
package dfs

import (
	"bufio"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"blmr/internal/codec"
	"blmr/internal/core"
	"blmr/internal/sortx"
)

// readBufBytes is the per-open-run read buffer. An open run also holds its
// decoder's payload and block buffers, a 32 KiB block each, so the external
// merge holds about 2*readBufBytes per run it streams.
const readBufBytes = 64 << 10

// dirSeq distinguishes RunDir instances within this process, so two
// concurrent jobs pointed at the same caller-provided directory never
// collide on O_EXCL file creation (cross-process uniqueness comes from the
// pid in the filename).
var dirSeq atomic.Int64

// RunDir is a directory of spill-run files shared by every task of one job
// execution. Create/OpenRun are safe for concurrent use by multiple tasks;
// individual writers and readers are single-owner. The directory carries
// the job's sealed-run codec: every run sealed into it uses the same
// codec.Compression. Readers need not know it; each run's header names it.
type RunDir struct {
	dir     string
	uniq    string // per-instance filename component: pid + instance seq
	own     bool   // created by us => Close removes the whole directory
	comp    codec.Compression
	seq     atomic.Int64
	spilled atomic.Int64
	raw     atomic.Int64

	mu      sync.Mutex
	closed  bool
	created []string // every run file created, for non-owned-dir cleanup
}

// NewRunDir opens a spill directory sealing with codec.None. An empty dir
// creates a fresh temporary directory that Close will remove; a
// caller-provided dir is used as-is and only the run files created through
// this RunDir are cleaned up.
func NewRunDir(dir string) (*RunDir, error) { return NewRunDirComp(dir, codec.None) }

// NewRunDirComp is NewRunDir with an explicit sealed-run codec.
func NewRunDirComp(dir string, comp codec.Compression) (*RunDir, error) {
	uniq := fmt.Sprintf("%d-%d", os.Getpid(), dirSeq.Add(1))
	if dir == "" {
		d, err := os.MkdirTemp("", "blmr-spill-")
		if err != nil {
			return nil, fmt.Errorf("dfs: create spill dir: %w", err)
		}
		return &RunDir{dir: d, uniq: uniq, own: true, comp: comp}, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dfs: open spill dir: %w", err)
	}
	return &RunDir{dir: dir, uniq: uniq, comp: comp}, nil
}

// Dir returns the directory path.
func (d *RunDir) Dir() string { return d.dir }

// Compression returns the sealed-run codec every run in this directory
// uses.
func (d *RunDir) Compression() codec.Compression { return d.comp }

// SpilledBytes returns the total bytes sealed into run files so far (the
// on-disk, post-compression volume).
func (d *RunDir) SpilledBytes() int64 { return d.spilled.Load() }

// AddRawBytes accounts n raw (pre-compression) encoded bytes toward the
// directory's totals. Sealers call it once per sealed run so the
// compression ratio is observable job-wide.
func (d *RunDir) AddRawBytes(n int64) { d.raw.Add(n) }

// RawSpilledBytes returns the total raw (pre-compression) encoded bytes
// behind the sealed runs — under None, SpilledBytes less the block framing.
func (d *RunDir) RawSpilledBytes() int64 { return d.raw.Load() }

// Create opens a new run file for writing. tag labels the file for
// debugging (e.g. "m3-p7"); uniqueness comes from an internal sequence.
func (d *RunDir) Create(tag string) (*RunWriter, error) {
	path := filepath.Join(d.dir, fmt.Sprintf("%s-%06d-%s.run", d.uniq, d.seq.Add(1), tag))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("dfs: create spill run: %w", err)
	}
	d.mu.Lock()
	d.created = append(d.created, path)
	d.mu.Unlock()
	return &RunWriter{d: d, f: f, w: bufio.NewWriterSize(f, readBufBytes), path: path}, nil
}

// Close removes every run file created through this RunDir — the whole
// directory when owned, the individual files (best-effort; most are
// already gone via Release/Abort) when the caller provided the directory —
// so error paths that skip Release never leak sealed runs. Run files
// created through this RunDir become invalid.
func (d *RunDir) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	if d.own {
		return os.RemoveAll(d.dir)
	}
	for _, p := range d.created {
		_ = os.Remove(p)
	}
	d.created = nil
	return nil
}

// RunWriter streams one spill run to disk. Writes may be arbitrarily
// partial (the encoder hands over whatever it has buffered); Close flushes
// and seals the file. Not safe for concurrent use.
type RunWriter struct {
	d     *RunDir
	f     *os.File
	w     *bufio.Writer
	path  string
	bytes int64
	err   error
}

// Write implements io.Writer.
func (w *RunWriter) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	n, err := w.w.Write(p)
	w.bytes += int64(n)
	if err != nil {
		w.err = fmt.Errorf("dfs: write spill run %s: %w", w.path, err)
	}
	return n, w.err
}

// Path returns the file path of the run (valid after Close for OpenRun).
func (w *RunWriter) Path() string { return w.path }

// Bytes returns the bytes written so far.
func (w *RunWriter) Bytes() int64 { return w.bytes }

// Close flushes buffered data and seals the run.
func (w *RunWriter) Close() error {
	flushErr := w.w.Flush()
	closeErr := w.f.Close()
	if w.err == nil && flushErr != nil {
		w.err = fmt.Errorf("dfs: flush spill run %s: %w", w.path, flushErr)
	}
	if w.err == nil && closeErr != nil {
		w.err = fmt.Errorf("dfs: seal spill run %s: %w", w.path, closeErr)
	}
	if w.err == nil {
		w.d.spilled.Add(w.bytes)
	}
	return w.err
}

// Abort discards the run: the file is closed and removed, and its bytes are
// not accounted. Safe to call after a failed Write.
func (w *RunWriter) Abort() {
	w.w = nil
	_ = w.f.Close()
	_ = os.Remove(w.path)
}

// RunReader streams records back from a sealed run file. It implements
// sortx.Source: Next returns ok=false both at end-of-run and on error, and
// Err distinguishes the two. Not safe for concurrent use.
type RunReader struct {
	f   *os.File
	sr  codec.RecordReader
	err error
}

// OpenRun reopens a sealed run file.
func OpenRun(path string) (*RunReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dfs: open spill run: %w", err)
	}
	return newRunReader(f, f), nil
}

// OpenRunAt reopens the byte range [off, off+n) of a sealed spill file as
// one streaming run — the read side of multi-partition segment files, where
// each budget crossing seals a single file holding every partition's sorted
// run back to back (Hadoop's io.sort spill layout) and the writer remembers
// per-partition offsets. Each section is a complete self-contained run
// (header and whole blocks), so only the blocks the read actually touches
// are decompressed.
func OpenRunAt(path string, off, n int64) (*RunReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dfs: open spill segment: %w", err)
	}
	return newRunReader(f, io.NewSectionReader(f, off, n)), nil
}

// newRunReader decodes r, which reads f.
func newRunReader(f *os.File, r io.Reader) *RunReader {
	return &RunReader{f: f, sr: codec.NewRunDecoder(bufio.NewReaderSize(r, readBufBytes))}
}

// Next implements sortx.Run.
func (r *RunReader) Next() (core.Record, bool) {
	if r.err != nil {
		return core.Record{}, false
	}
	rec, ok := r.sr.Next()
	if !ok && r.sr.Err() != nil {
		r.err = fmt.Errorf("dfs: read spill run %s: %w", r.f.Name(), r.sr.Err())
	}
	return rec, ok
}

// Err implements sortx.Source.
func (r *RunReader) Err() error { return r.err }

// Close releases the underlying file.
func (r *RunReader) Close() error { return r.f.Close() }

// RunSet is an append-only sequence of runs owned by one task (one mapper's
// spills for one partition, or one reducer's store spills). Append seals
// each encoded run as a file; Open streams them all back in append order.
// Append and Open are phase-separated (write everything, then read), never
// concurrent — matching the spill lifecycle.
type RunSet struct {
	d     *RunDir
	tag   string
	paths []string
	open  []*RunReader
}

// NewRunSet creates an empty run set writing into d.
func (d *RunDir) NewRunSet(tag string) *RunSet { return &RunSet{d: d, tag: tag} }

// Compression is the directory's codec, which every run in the set is
// encoded with.
func (s *RunSet) Compression() codec.Compression { return s.d.comp }

// Append seals buf (one complete, key-sorted run, already encoded with the
// directory's codec) as a new run file. rawBytes is the run's standard
// (pre-compression) encoded size, for ratio accounting: the encoder's
// RawBytes, which under None is len(buf) less the block framing. The write
// goes through the buffered partial-write path so large runs never need a
// single syscall-sized buffer.
func (s *RunSet) Append(buf []byte, rawBytes int64) error {
	w, err := s.d.Create(s.tag)
	if err != nil {
		return err
	}
	// Feed the writer in bounded slices: exercises the same partial-write
	// path a streaming encoder would use.
	for off := 0; off < len(buf); off += readBufBytes {
		end := off + readBufBytes
		if end > len(buf) {
			end = len(buf)
		}
		if _, err := w.Write(buf[off:end]); err != nil {
			w.Abort()
			return err
		}
	}
	if err := w.Close(); err != nil {
		w.Abort()
		return err
	}
	s.d.AddRawBytes(rawBytes)
	s.paths = append(s.paths, w.Path())
	return nil
}

// Runs reopens every sealed run as a streaming reader, in append order,
// typed for direct use in a sortx merge (each returned Run is a
// sortx.Source whose Err reports read failures). The readers stay owned by
// the set; Release closes them. A RunSet is a store.RunStore, so it backs a
// spill store without an adapter.
func (s *RunSet) Runs() ([]sortx.Run, error) {
	runs := make([]sortx.Run, 0, len(s.paths))
	for _, p := range s.paths {
		r, err := OpenRun(p)
		if err != nil {
			_ = s.Release()
			return nil, err
		}
		s.open = append(s.open, r)
		runs = append(runs, r)
	}
	return runs, nil
}

// Release closes any open readers and deletes the run files.
func (s *RunSet) Release() error {
	var first error
	for _, r := range s.open {
		if err := r.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.open = nil
	for _, p := range s.paths {
		if err := os.Remove(p); err != nil && first == nil {
			first = err
		}
	}
	s.paths = nil
	return first
}

// CRCFile recomputes the CRC-32C of the whole file at path — the survival
// scan a returning worker runs over its sealed runs before advertising them
// for re-attach. A file that was deleted, truncated or bit-rotted since it
// was sealed simply fails the caller's comparison; it is not an error here.
func CRCFile(path string) (uint32, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	h := crc32.New(crcTable)
	if _, err := io.Copy(h, f); err != nil {
		return 0, err
	}
	return h.Sum32(), nil
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)
