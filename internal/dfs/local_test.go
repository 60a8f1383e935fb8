package dfs

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"blmr/internal/codec"
	"blmr/internal/core"
	"blmr/internal/sortx"
)

// encodeRun seals recs as a None run.
func encodeRun(recs []core.Record) []byte {
	enc := codec.NewRunEncoder(nil, codec.None)
	for _, r := range recs {
		_ = enc.Append(r)
	}
	_ = enc.Flush()
	return enc.Bytes()
}

func mkRecs(n int, prefix string) []core.Record {
	recs := make([]core.Record, n)
	for i := range recs {
		recs[i] = core.Record{Key: fmt.Sprintf("%s%06d", prefix, i), Value: fmt.Sprintf("v%d", i)}
	}
	return recs
}

func drain(t *testing.T, r *RunReader) []core.Record {
	t.Helper()
	var out []core.Record
	for {
		rec, ok := r.Next()
		if !ok {
			break
		}
		out = append(out, rec)
	}
	return out
}

// TestRunWriterPartialWriteReopen writes one run as many tiny partial
// writes (far smaller than the bufio buffer, and crossing its boundary),
// seals it, reopens it, and checks the stream decodes byte-for-byte.
func TestRunWriterPartialWriteReopen(t *testing.T) {
	d, err := NewRunDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	recs := mkRecs(20_000, "k") // ~300KB encoded, crosses the 64KB buffer
	buf := encodeRun(recs)
	w, err := d.Create("partial")
	if err != nil {
		t.Fatal(err)
	}
	// Dribble the encoding in 7-byte partial writes (worst case: every
	// record straddles multiple Write calls).
	for off := 0; off < len(buf); off += 7 {
		end := off + 7
		if end > len(buf) {
			end = len(buf)
		}
		if _, err := w.Write(buf[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	if w.Bytes() != int64(len(buf)) {
		t.Fatalf("writer accounted %d bytes, want %d", w.Bytes(), len(buf))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if d.SpilledBytes() != int64(len(buf)) {
		t.Fatalf("dir accounted %d spilled bytes, want %d", d.SpilledBytes(), len(buf))
	}

	r, err := OpenRun(w.Path())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := drain(t, r)
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if len(got) != len(recs) {
		t.Fatalf("reopened run decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d = %v, want %v", i, got[i], recs[i])
		}
	}
}

// TestRunReaderTruncatedFile: a run whose file was cut mid-block (a crash
// between partial writes) must surface codec.ErrCorrupt, not panic, and
// must still yield every record of the blocks before the cut.
func TestRunReaderTruncatedFile(t *testing.T) {
	d, err := NewRunDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	recs := mkRecs(5000, "t") // ~80KB: three 32KB blocks
	buf := encodeRun(recs)
	w, err := d.Create("trunc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(buf); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: truncate inside the second block.
	if err := os.Truncate(w.Path(), int64(len(buf))/2); err != nil {
		t.Fatal(err)
	}

	r, err := OpenRun(w.Path())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := drain(t, r)
	// The encoder seals a block once its payload reaches 32 KiB.
	first, size := 0, int64(0)
	for size < 32<<10 {
		size += codec.EncodedSize(recs[first])
		first++
	}
	if !slices.Equal(got, recs[:first]) {
		t.Fatalf("decoded %d records before the truncation point, want the first block's %d", len(got), first)
	}
	if !errors.Is(r.Err(), codec.ErrCorrupt) {
		t.Fatalf("Err() = %v, want codec.ErrCorrupt", r.Err())
	}
	// The reader is a sortx.Source; the merger must report the failure.
	r2, err := OpenRun(w.Path())
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	m := sortx.NewMerger([]sortx.Run{r2})
	m.Drain()
	if !errors.Is(m.Err(), codec.ErrCorrupt) {
		t.Fatalf("Merger.Err() = %v, want codec.ErrCorrupt", m.Err())
	}
}

// TestRunSetLifecycle appends several runs, reopens them in order, merges
// them, and verifies Release removes the files.
func TestRunSetLifecycle(t *testing.T) {
	d, err := NewRunDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	s := d.NewRunSet("r0")
	want := 0
	for run := 0; run < 3; run++ {
		recs := mkRecs(50, fmt.Sprintf("run%d-", run))
		var raw int64
		for _, r := range recs {
			raw += codec.EncodedSize(r)
		}
		if err := s.Append(encodeRun(recs), raw); err != nil {
			t.Fatal(err)
		}
		want += len(recs)
	}
	runs, err := s.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 {
		t.Fatalf("%d runs, want 3", len(runs))
	}
	m := sortx.NewMerger(runs)
	merged := m.Drain()
	if m.Err() != nil {
		t.Fatal(m.Err())
	}
	if len(merged) != want {
		t.Fatalf("merged %d records, want %d", len(merged), want)
	}
	for i := 1; i < len(merged); i++ {
		if merged[i].Key < merged[i-1].Key {
			t.Fatalf("merge out of order at %d: %q < %q", i, merged[i].Key, merged[i-1].Key)
		}
	}
	if err := s.Release(); err != nil {
		t.Fatal(err)
	}
	left, err := filepath.Glob(filepath.Join(d.Dir(), "*.run"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("Release left %d run files behind", len(left))
	}
}

// TestRunDirOwnedCleanup: a RunDir over a generated temp dir removes it on
// Close; one over a caller's dir leaves the dir itself alone.
func TestRunDirOwnedCleanup(t *testing.T) {
	d, err := NewRunDir("")
	if err != nil {
		t.Fatal(err)
	}
	w, err := d.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(encodeRun(mkRecs(1, "a"))); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(d.Dir()); !os.IsNotExist(err) {
		t.Fatalf("owned temp dir still exists after Close (stat err: %v)", err)
	}

	// Caller-provided dir: Close keeps the directory but removes the run
	// files created through the RunDir — an error path that skipped
	// Release (e.g. a failed job) must not leak sealed runs.
	keep := t.TempDir()
	d2, err := NewRunDir(keep)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := d2.Create("leaked")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w2.Write(encodeRun(mkRecs(1, "b"))); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(keep); err != nil {
		t.Fatalf("caller-provided dir removed by Close: %v", err)
	}
	if _, err := os.Stat(w2.Path()); !os.IsNotExist(err) {
		t.Fatalf("sealed run leaked in caller-provided dir after Close (stat err: %v)", err)
	}
}

// TestRunWriterAbort discards a half-written run without accounting it.
func TestRunWriterAbort(t *testing.T) {
	d, err := NewRunDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	w, err := d.Create("abort")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("half a rec")); err != nil {
		t.Fatal(err)
	}
	w.Abort()
	if _, err := os.Stat(w.Path()); !os.IsNotExist(err) {
		t.Fatal("aborted run file still exists")
	}
	if d.SpilledBytes() != 0 {
		t.Fatalf("aborted bytes were accounted: %d", d.SpilledBytes())
	}
}
