package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// testRecords builds n deterministic records of varied sizes (including
// empty) so framing edges get exercised.
func testRecords(n int) [][]byte {
	rng := rand.New(rand.NewSource(42))
	recs := make([][]byte, n)
	for i := range recs {
		size := rng.Intn(200)
		if i%7 == 0 {
			size = 0
		}
		rec := make([]byte, size)
		rng.Read(rec)
		recs[i] = rec
	}
	return recs
}

func writeJournal(t *testing.T, recs [][]byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "journal.wal")
	l, got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(got))
	}
	for _, rec := range recs {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func requireEqual(t *testing.T, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d differs", i)
		}
	}
}

// requirePrefix asserts got is a strict or full prefix of want.
func requirePrefix(t *testing.T, got, want [][]byte) {
	t.Helper()
	if len(got) > len(want) {
		t.Fatalf("replayed %d records from a journal of %d", len(got), len(want))
	}
	requireEqual(t, got, want[:len(got)])
}

func TestAppendReplayRoundTrip(t *testing.T) {
	recs := testRecords(50)
	path := writeJournal(t, recs)

	got, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	requireEqual(t, got, recs)

	l, got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	requireEqual(t, got, recs)

	// And the reopened log keeps appending where it left off.
	extra := []byte("after-reopen")
	if err := l.Append(extra); err != nil {
		t.Fatal(err)
	}
	l.Close()
	got, err = Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	requireEqual(t, got, append(append([][]byte{}, recs...), extra))
}

// TestCrashAtEveryOffset truncates the journal at every byte offset —
// every possible crash point mid-append — and requires Open to replay the
// longest clean prefix with no error, then accept new appends.
func TestCrashAtEveryOffset(t *testing.T) {
	recs := testRecords(12)
	path := writeJournal(t, recs)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Record boundaries: boundaries[i] = offset just past record i.
	boundaries := make([]int, 0, len(recs))
	off := 0
	for _, rec := range recs {
		off += headerSize + len(rec)
		boundaries = append(boundaries, off)
	}

	dir := t.TempDir()
	for cut := 0; cut <= len(full); cut++ {
		torn := filepath.Join(dir, "torn.wal")
		if err := os.WriteFile(torn, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		wantN := 0
		for _, b := range boundaries {
			if b <= cut {
				wantN++
			}
		}
		l, got, err := Open(torn)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		requireEqual(t, got, recs[:wantN])
		// The tail was truncated; an append lands on the clean prefix.
		if err := l.Append([]byte("recovered")); err != nil {
			t.Fatalf("cut=%d: append after recovery: %v", cut, err)
		}
		l.Close()
		got, err = Replay(torn)
		if err != nil {
			t.Fatalf("cut=%d: replay after recovery: %v", cut, err)
		}
		requireEqual(t, got, append(append([][]byte{}, recs[:wantN]...), []byte("recovered")))
	}
}

// TestBitFlipIsCorrupt flips every bit of the journal, one at a time. A
// flip must never yield the full original record set: interior damage is
// ErrCorrupt; a flip in the final frame's length field may masquerade as a
// torn tail, which legally replays a strict prefix.
func TestBitFlipIsCorrupt(t *testing.T) {
	recs := testRecords(8)
	path := writeJournal(t, recs)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	flipped := filepath.Join(dir, "flipped.wal")
	for pos := 0; pos < len(full); pos++ {
		for bit := 0; bit < 8; bit++ {
			buf := append([]byte(nil), full...)
			buf[pos] ^= 1 << bit
			if err := os.WriteFile(flipped, buf, 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := Replay(flipped)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("pos=%d bit=%d: unexpected error class: %v", pos, bit, err)
				}
				continue
			}
			if len(got) == len(recs) {
				t.Fatalf("pos=%d bit=%d: flip replayed the full record set", pos, bit)
			}
			requirePrefix(t, got, recs)
		}
	}
}

// TestCompactEquivalence: compacting to a subset replays exactly that
// subset, survives reopen, and keeps accepting appends through the
// renamed file.
func TestCompactEquivalence(t *testing.T) {
	recs := testRecords(30)
	path := filepath.Join(t.TempDir(), "journal.wal")
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	before := l.Size()

	// Keep every third record — the "still-live" snapshot.
	var live [][]byte
	for i, rec := range recs {
		if i%3 == 0 {
			live = append(live, rec)
		}
	}
	if err := l.Compact(live); err != nil {
		t.Fatal(err)
	}
	if l.Size() >= before {
		t.Fatalf("compaction did not shrink the journal: %d -> %d", before, l.Size())
	}
	post := []byte("post-compact")
	if err := l.Append(post); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	l.Close()

	got, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	requireEqual(t, got, append(append([][]byte{}, live...), post))

	// No temp droppings left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("compaction left %d files in the state dir", len(entries))
	}
}

// TestReplayMissingFile: a journal that was never created replays empty.
func TestReplayMissingFile(t *testing.T) {
	got, err := Replay(filepath.Join(t.TempDir(), "nope.wal"))
	if err != nil || len(got) != 0 {
		t.Fatalf("missing journal: got %d records, err %v", len(got), err)
	}
}

// FuzzScan feeds arbitrary bytes to scan, the frame walk Open and Replay
// share. A clean scan accounts for buf[:clean] exactly — re-framing its
// records reproduces those bytes — and Open on the same bytes replays the
// same records and truncates the file to clean. An error wraps ErrCorrupt,
// and Open refuses the file with it.
func FuzzScan(f *testing.F) {
	var valid []byte
	for _, rec := range testRecords(4) {
		valid = append(valid, frame(rec)...)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail
	flipped := bytes.Clone(valid)
	flipped[len(flipped)-1] ^= 1 // checksum mismatch in the last record
	f.Add(flipped)
	f.Add(binary.LittleEndian.AppendUint64(nil, maxRecord+1)) // absurd length
	f.Fuzz(func(t *testing.T, buf []byte) {
		recs, clean, err := scan(buf)
		path := filepath.Join(t.TempDir(), "journal.wal")
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		l, opened, openErr := Open(path)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) || !errors.Is(openErr, ErrCorrupt) {
				t.Fatalf("scan err %v, Open err %v, want ErrCorrupt from both", err, openErr)
			}
			return
		}
		if clean < 0 || clean > int64(len(buf)) {
			t.Fatalf("clean offset %d outside a %d-byte journal", clean, len(buf))
		}
		var reframed []byte
		for _, rec := range recs {
			reframed = append(reframed, frame(rec)...)
		}
		if !bytes.Equal(reframed, buf[:clean]) {
			t.Fatalf("re-framing %d records gives %d bytes, not the clean prefix of %d", len(recs), len(reframed), clean)
		}
		if openErr != nil {
			t.Fatalf("Open: %v", openErr)
		}
		l.Close()
		requireEqual(t, opened, recs)
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() != clean {
			t.Fatalf("Open left the journal at %d bytes, want %d", st.Size(), clean)
		}
	})
}
