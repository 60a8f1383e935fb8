package dfs

// Compressed spill-run tests: a RunDir created with a codec seals and
// reopens compressed runs transparently — including multi-section segment
// files, where each section is its own self-contained compressed run —
// and surfaces codec.ErrCorrupt for truncated compressed files.

import (
	"errors"
	"os"
	"testing"

	"blmr/internal/codec"
	"blmr/internal/core"
)

// sealComp encodes recs with the dir's codec through a RunWriter, returning
// the sealed path and byte count.
func sealComp(t *testing.T, d *RunDir, recs []core.Record) (string, int64) {
	t.Helper()
	w, err := d.Create("c")
	if err != nil {
		t.Fatal(err)
	}
	enc := codec.NewRunEncoder(w, d.Compression())
	for _, r := range recs {
		if err := enc.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	d.AddRawBytes(enc.RawBytes())
	return w.Path(), w.Bytes()
}

func TestCompressedRunRoundTrip(t *testing.T) {
	for _, comp := range []codec.Compression{codec.None, codec.Block, codec.DeltaBlock} {
		d, err := NewRunDirComp(t.TempDir(), comp)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		recs := mkRecs(500, "cr-")
		path, _ := sealComp(t, d, recs)
		r, err := OpenRun(path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		got := drain(t, r)
		if err := r.Err(); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(recs) {
			t.Fatalf("%v: %d records, want %d", comp, len(got), len(recs))
		}
		for i := range recs {
			if got[i] != recs[i] {
				t.Fatalf("%v: record %d = %+v, want %+v", comp, i, got[i], recs[i])
			}
		}
		if comp != codec.None && d.RawSpilledBytes() <= d.SpilledBytes() {
			t.Fatalf("%v: no compression win on redundant keys: raw=%d sealed=%d",
				comp, d.RawSpilledBytes(), d.SpilledBytes())
		}
	}
}

// TestCompressedSectionReads seals two compressed runs back to back in one
// file (the multi-partition segment layout) and reopens each section
// independently — sections must be self-contained compressed runs.
func TestCompressedSectionReads(t *testing.T) {
	d, err := NewRunDirComp(t.TempDir(), codec.DeltaBlock)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	w, err := d.Create("seg")
	if err != nil {
		t.Fatal(err)
	}
	parts := [][]core.Record{mkRecs(300, "p0-"), mkRecs(200, "p1-")}
	var spans [][2]int64
	enc := codec.NewRunEncoder(nil, d.Compression())
	for _, part := range parts {
		off := w.Bytes()
		enc.Reset(w)
		for _, r := range part {
			if err := enc.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, [2]int64{off, w.Bytes() - off})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for p, part := range parts {
		r, err := OpenRunAt(w.Path(), spans[p][0], spans[p][1])
		if err != nil {
			t.Fatal(err)
		}
		got := drain(t, r)
		_ = r.Close()
		if err := r.Err(); err != nil {
			t.Fatalf("section %d: %v", p, err)
		}
		if len(got) != len(part) {
			t.Fatalf("section %d: %d records, want %d", p, len(got), len(part))
		}
		for i := range part {
			if got[i] != part[i] {
				t.Fatalf("section %d record %d: %+v, want %+v", p, i, got[i], part[i])
			}
		}
	}
}

// TestCompressedTruncatedRun: cutting a sealed compressed file mid-block
// must surface codec.ErrCorrupt from the reader, never a panic or a silent
// clean end.
func TestCompressedTruncatedRun(t *testing.T) {
	d, err := NewRunDirComp(t.TempDir(), codec.DeltaBlock)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	path, n := sealComp(t, d, mkRecs(400, "tr-"))
	if err := os.Truncate(path, n-7); err != nil {
		t.Fatal(err)
	}
	r, err := OpenRun(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	drain(t, r)
	if !errors.Is(r.Err(), codec.ErrCorrupt) {
		t.Fatalf("Err() = %v, want codec.ErrCorrupt", r.Err())
	}
}

// TestCompressedRunSet: a RunSet on a compressed dir decodes appended
// (pre-compressed) runs, learning the codec from each run's header.
func TestCompressedRunSet(t *testing.T) {
	d, err := NewRunDirComp(t.TempDir(), codec.Block)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	s := d.NewRunSet("rs")
	recs := mkRecs(250, "set-")
	enc := codec.NewRunEncoder(nil, codec.Block)
	for _, r := range recs {
		if err := enc.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(enc.Bytes(), enc.RawBytes()); err != nil {
		t.Fatal(err)
	}
	runs, err := s.Runs()
	if err != nil {
		t.Fatal(err)
	}
	var n int
	for {
		rec, ok := runs[0].Next()
		if !ok {
			break
		}
		if rec != recs[n] {
			t.Fatalf("record %d: %+v, want %+v", n, rec, recs[n])
		}
		n++
	}
	if n != len(recs) {
		t.Fatalf("decoded %d records, want %d", n, len(recs))
	}
	if err := s.Release(); err != nil {
		t.Fatal(err)
	}
}
