package shuffle

// Fetch-plane raw-speed suite: the run-server's refcounted handle cache
// (filecache.go), the zero-copy section send (sendSectionBody), and the
// pooled consumer's parallel block-decode path. The benchmarks pin the
// sendfile cutover via zeroCopyMinBytes so both serve paths are measured
// on identical sections.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"testing"

	"blmr/internal/codec"
	"blmr/internal/core"
	"blmr/internal/dfs"
)

// TestServerHandleCache: serving many sections of few sealed files must pay
// one os.Open per distinct file, not one per section — and every
// connection shares the one cache.
func TestServerHandleCache(t *testing.T) {
	dir, err := dfs.NewRunDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()
	srv, err := NewServer()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const files, parts = 3, 4
	var waves []Wave
	for i := 0; i < files; i++ {
		p := make([][]core.Record, parts)
		for r := range p {
			p[r] = sortedRecs(fmt.Sprintf("f%d-p%d", i, r), 40)
		}
		w, _, ok, err := sealWave(dir, srv, "t", p, nil)
		if err != nil || !ok {
			t.Fatalf("sealWave: ok=%v err=%v", ok, err)
		}
		waves = append(waves, w)
	}

	pool := NewFetchPool()
	defer pool.Close()
	sections := 0
	for round := 0; round < 4; round++ {
		for _, w := range waves {
			for r := 0; r < parts; r++ {
				seg, ok := w.SegmentOf(r)
				if !ok {
					t.Fatalf("wave has no partition %d", r)
				}
				lr := fetchRun(pool, seg)
				if got := drainRun(t, lr); len(got) != 40 {
					t.Fatalf("section %d: %d records, want 40", sections, len(got))
				}
				_ = lr.Close()
				sections++
			}
		}
	}
	if got := srv.Opens(); got != files {
		t.Fatalf("%d sections cost %d opens, want %d (one per distinct file)", sections, got, files)
	}

	// A second peer's connection rides the same cache: no new opens.
	pool2 := NewFetchPool()
	defer pool2.Close()
	seg, _ := waves[0].SegmentOf(0)
	lr := fetchRun(pool2, seg)
	if got := drainRun(t, lr); len(got) != 40 {
		t.Fatalf("second connection: %d records, want 40", len(got))
	}
	_ = lr.Close()
	if d := pool2.Dials(); d != 1 {
		t.Fatalf("second pool dialed %d times, want 1 (its own connection)", d)
	}
	if got := srv.Opens(); got != files {
		t.Fatalf("second connection bypassed the handle cache: %d opens, want %d", got, files)
	}
}

// TestFileCacheEviction: over-cap idle handles are closed LRU-first, and a
// re-acquired evicted file costs a fresh open.
func TestFileCacheEviction(t *testing.T) {
	td := t.TempDir()
	path := func(i int) string {
		p := filepath.Join(td, fmt.Sprintf("run%d", i))
		if err := os.WriteFile(p, []byte("sealed"), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	c := newFileCache(2)
	for i := 0; i < 3; i++ {
		_, rel, err := c.acquire(uint64(i+1), path(i))
		if err != nil {
			t.Fatal(err)
		}
		rel()
	}
	if n := c.Len(); n != 2 {
		t.Fatalf("cache holds %d entries over cap 2", n)
	}
	if got := c.Opens(); got != 3 {
		t.Fatalf("%d opens, want 3", got)
	}
	// File 1 was the LRU victim: re-acquiring it is a miss; file 3 is a hit.
	if _, rel, err := c.acquire(1, filepath.Join(td, "run0")); err != nil {
		t.Fatal(err)
	} else {
		rel()
	}
	if got := c.Opens(); got != 4 {
		t.Fatalf("evicted file re-acquire: %d opens, want 4", got)
	}
	if _, rel, err := c.acquire(3, filepath.Join(td, "run2")); err != nil {
		t.Fatal(err)
	} else {
		rel()
	}
	if got := c.Opens(); got != 4 {
		t.Fatalf("resident file re-acquire missed: %d opens", got)
	}
}

// TestFileCacheBusyHandles: a handle with sections in flight survives both
// eviction pressure and invalidation — it keeps serving until the last
// release, then closes.
func TestFileCacheBusyHandles(t *testing.T) {
	td := t.TempDir()
	write := func(name, data string) string {
		p := filepath.Join(td, name)
		if err := os.WriteFile(p, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	c := newFileCache(1)
	f1, rel1, err := c.acquire(1, write("a", "first-file-bytes"))
	if err != nil {
		t.Fatal(err)
	}
	// Over-cap insert while file 1 is busy: eviction must skip it.
	_, rel2, err := c.acquire(2, write("b", "second"))
	if err != nil {
		t.Fatal(err)
	}
	rel2()
	if n := c.Len(); n != 1 {
		t.Fatalf("cache holds %d entries, want 1 (busy handle kept, idle evicted)", n)
	}
	// Invalidate the busy handle (unregister-while-served): in-flight
	// positional reads keep working; the close lands on the last release.
	c.invalidate(1)
	buf := make([]byte, 5)
	if _, err := f1.ReadAt(buf, 0); err != nil || string(buf) != "first" {
		t.Fatalf("read through invalidated busy handle: %q, %v", buf, err)
	}
	rel1()
	if _, err := f1.ReadAt(buf, 0); err == nil {
		t.Fatal("handle still open after last release of an invalidated entry")
	}
	if n := c.Len(); n != 0 {
		t.Fatalf("%d entries resident after invalidate", n)
	}
}

// TestServerUnregister: a withdrawn file errors on the next request without
// burning the pooled connection, and the in-flight server-side state stays
// consistent.
func TestServerUnregister(t *testing.T) {
	dir, err := dfs.NewRunDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()
	srv, err := NewServer()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	w, _, _, err := sealWave(dir, srv, "t", [][]core.Record{sortedRecs("k", 50)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	seg, _ := w.SegmentOf(0)

	pool := NewFetchPool()
	defer pool.Close()
	lr := fetchRun(pool, seg)
	if got := drainRun(t, lr); len(got) != 50 {
		t.Fatalf("%d records, want 50", len(got))
	}
	_ = lr.Close()

	srv.Unregister(seg.FileID)
	gone := fetchRun(pool, seg)
	if _, ok := gone.Next(); ok {
		t.Fatal("fetched a record from an unregistered file")
	}
	if err := gone.Err(); err == nil {
		t.Fatal("unregistered fetch reported no error")
	}
	_ = gone.Close()
	if d := pool.Dials(); d != 1 {
		t.Fatalf("error response burned the conn: %d dials", d)
	}
}

// TestPooledFetchDecodeWorkers: DeltaBlock sections that span several
// codec blocks, fetched one after another over one pooled connection, come
// back byte-identical to the sealed records: the connection's decoder and
// arena carry across sections and block boundaries. The subtest keeps the
// name of the one-worker case, which is how every section decodes now: on
// the goroutine that drains it.
func TestPooledFetchDecodeWorkers(t *testing.T) {
	t.Run("workers1", func(t *testing.T) {
		dir, err := dfs.NewRunDirComp(t.TempDir(), codec.DeltaBlock)
		if err != nil {
			t.Fatal(err)
		}
		defer dir.Close()
		srv, err := NewServer()
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		pool := NewFetchPool()
		defer pool.Close()

		const waves = 6
		for i := 0; i < waves; i++ {
			// Large enough that every run spans several 32KiB codec blocks.
			want := sortedRecs(fmt.Sprintf("w%02d", i), 8000)
			w, _, ok, err := sealWave(dir, srv, "t", [][]core.Record{want}, nil)
			if err != nil || !ok {
				t.Fatalf("sealWave: ok=%v err=%v", ok, err)
			}
			seg, _ := w.SegmentOf(0)
			lr := fetchRun(pool, seg)
			got := drainRun(t, lr)
			_ = lr.Close()
			if len(got) != len(want) {
				t.Fatalf("wave %d: %d records, want %d", i, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("wave %d record %d: %v vs %v", i, j, got[j], want[j])
				}
			}
		}
		if d := pool.Dials(); d != 1 {
			t.Fatalf("%d dials for %d sections from one server, want 1", d, waves)
		}
	})
}

// benchSection seals one big None run and returns its segment: the
// serve benchmarks request the same section repeatedly over one BLR2
// connection, so the numbers isolate the server's send path.
func benchSection(b *testing.B, dir *dfs.RunDir, srv *Server) Segment {
	b.Helper()
	recs := sortedRecs("bench", 60_000) // ~1.5 MB encoded
	w, _, ok, err := sealWave(dir, srv, "b", [][]core.Record{recs}, nil)
	if err != nil || !ok {
		b.Fatalf("sealWave: ok=%v err=%v", ok, err)
	}
	seg, _ := w.SegmentOf(0)
	return seg
}

func benchServe(b *testing.B, cutover int64) {
	defer func(v int64) { zeroCopyMinBytes = v }(zeroCopyMinBytes)
	zeroCopyMinBytes = cutover

	td, err := os.MkdirTemp("", "blmr-bench")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(td)
	dir, err := dfs.NewRunDir(td)
	if err != nil {
		b.Fatal(err)
	}
	defer dir.Close()
	srv, err := NewServer()
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	seg := benchSection(b, dir, srv)

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(serverMagicMux[:]); err != nil {
		b.Fatal(err)
	}
	br := bufio.NewReaderSize(conn, 256<<10)
	req := make([]byte, 0, 32)

	b.SetBytes(seg.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req = binary.AppendUvarint(req[:0], uint64(i))
		req = binary.AppendUvarint(req, seg.FileID)
		req = binary.AppendUvarint(req, uint64(seg.Off))
		req = binary.AppendUvarint(req, uint64(seg.N))
		if _, err := conn.Write(req); err != nil {
			b.Fatal(err)
		}
		if id, err := binary.ReadUvarint(br); err != nil || id != uint64(i) {
			b.Fatalf("reqID %d err %v, want %d", id, err, i)
		}
		status, err := br.ReadByte()
		if err != nil || status != 0 {
			b.Fatalf("status %d err %v", status, err)
		}
		if _, err := io.CopyN(io.Discard, br, seg.N); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if cutover == 1 && srv.ZeroCopySections() == 0 {
		b.Fatal("zero-copy path never taken despite forced cutover")
	}
}

// BenchmarkSectionServeBuffered forces every section through the buffered
// io.Copy path (the pre-sendfile server).
func BenchmarkSectionServeBuffered(b *testing.B) { benchServe(b, 1<<62) }

// BenchmarkSectionServeZeroCopy forces every section through the sendfile
// path.
func BenchmarkSectionServeZeroCopy(b *testing.B) { benchServe(b, 1) }
