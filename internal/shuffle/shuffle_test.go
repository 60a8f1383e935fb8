package shuffle

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"blmr/internal/codec"
	"blmr/internal/core"
	"blmr/internal/dfs"
)

func sortedRecs(prefix string, n int) []core.Record {
	recs := make([]core.Record, n)
	for i := range recs {
		recs[i] = core.Record{Key: prefix + string(rune('a'+i%26)), Value: "v"}
	}
	// keys cycle; sort for run discipline
	for i := 1; i < len(recs); i++ {
		for j := i; j > 0 && recs[j].Key < recs[j-1].Key; j-- {
			recs[j], recs[j-1] = recs[j-1], recs[j]
		}
	}
	return recs
}

// TestServerRoundTrip: a sealed wave fetched over the wire decodes to the
// bytes that were sealed, and bad requests fail loudly.
func TestServerRoundTrip(t *testing.T) {
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

	pool := NewFetchPool()
	defer pool.Close()

	parts := [][]core.Record{sortedRecs("x", 100), nil, sortedRecs("y", 7)}
	w, _, ok, err := sealWave(dir, srv, "t", parts, nil)
	if err != nil || !ok {
		t.Fatalf("sealWave: ok=%v err=%v", ok, err)
	}
	if w.Path != "" || w.Addr == "" {
		t.Fatalf("server-registered wave should be remote-only: %+v", w)
	}
	for p, want := range parts {
		seg, ok := w.SegmentOf(p)
		if !ok {
			if len(want) != 0 {
				t.Fatalf("partition %d lost", p)
			}
			continue
		}
		run := fetchRun(pool, seg)
		got := drainRun(t, run)
		_ = run.Close()
		if len(got) != len(want) {
			t.Fatalf("partition %d: %d records, want %d", p, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("partition %d record %d: %v vs %v", p, i, got[i], want[i])
			}
		}
	}

	bad := fetchRun(pool, Segment{Addr: srv.Addr(), FileID: 999, Off: 0, N: 10})
	defer bad.Close()
	if _, ok := bad.Next(); ok {
		t.Fatal("fetched a record from an unknown file")
	}
	if err := bad.Err(); err == nil || !strings.Contains(err.Error(), "unknown run file") {
		t.Fatalf("bad fileID: %v", err)
	}
}

// TestFetchShortSection: a section request that asks past the served bytes
// must surface corruption, not a silent clean end.
func TestFetchShortSection(t *testing.T) {
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
	sp := w.Spans[0]
	// Ask for more bytes than the file holds: the server sends what exists,
	// the fetcher must notice the shortfall.
	pool := NewFetchPool()
	defer pool.Close()
	run := fetchRun(pool, Segment{Addr: w.Addr, FileID: w.FileID, Off: sp.Off, N: sp.N + 100})
	defer run.Close()
	for {
		if _, ok := run.Next(); !ok {
			break
		}
	}
	if err := run.Err(); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("short section error = %v, want ErrCorrupt", err)
	}
}

// TestPushSourceStreaming: NextBatch over the run exchange's per-partition
// sources yields every record of every closed map, re-batched.
func TestPushSourceStreaming(t *testing.T) {
	dir, err := dfs.NewRunDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()
	tr, err := New(TCP, Config{Maps: 3, Parts: 2, BatchSize: 16, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	want := 0
	for m := 0; m < 3; m++ {
		sink := tr.MapSink(m)
		parts := [][]core.Record{sortedRecs("a", 10+m), sortedRecs("b", 5*m)}
		for _, p := range parts {
			want += len(p)
		}
		if err := sink.PublishWave(parts, false); err != nil {
			t.Fatal(err)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
	}
	got := 0
	for r := 0; r < 2; r++ {
		src := tr.ReduceSource(r)
		for {
			batch, ok, err := src.NextBatch()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if len(batch) > 16 {
				t.Fatalf("batch of %d exceeds BatchSize", len(batch))
			}
			got += len(batch)
			src.Recycle(batch)
		}
		_ = src.Close()
	}
	if got != want {
		t.Fatalf("streamed %d records, want %d", got, want)
	}
}

// TestRunExchangeFailsFast: the in-process run exchange does not re-route —
// no other attempt of a map can ever be routed in one process — so a sealed
// wave cut short on disk fails the barrier merge with ErrCorrupt at once,
// not after a re-route budget of several seconds.
func TestRunExchangeFailsFast(t *testing.T) {
	dir, err := dfs.NewRunDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()
	tr, err := New(TCP, Config{Maps: 1, Parts: 1, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	sink := tr.MapSink(0)
	if err := sink.PublishWave([][]core.Record{sortedRecs("k", 500)}, false); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir.Dir(), "*"))
	if err != nil || len(files) != 1 {
		t.Fatalf("sealed files %v (err %v), want one", files, err)
	}
	fi, err := os.Stat(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(files[0], fi.Size()/2); err != nil {
		t.Fatal(err)
	}

	src := tr.ReduceSource(0)
	defer src.Close()
	runs, err := src.Runs()
	if err != nil || len(runs) != 1 {
		t.Fatalf("Runs: %d runs, err %v", len(runs), err)
	}
	run := runs[0].(*LazyRun)
	errc := make(chan error, 1)
	go func() {
		for {
			if _, ok := run.Next(); !ok {
				break
			}
		}
		errc <- run.Err()
	}()
	select {
	case err := <-errc:
		_ = run.Close()
		if !errors.Is(err, codec.ErrCorrupt) {
			t.Fatalf("truncated wave: err = %v, want ErrCorrupt", err)
		}
	case <-time.After(time.Second):
		// A re-routing source retries the same cut section forever.
		t.Fatal("the truncated wave has not failed after 1 s: the in-process exchange re-routes")
	}
}

// TestTransportFailUnblocks: Fail must wake consumers blocked on the
// barrier and on batch delivery.
func TestTransportFailUnblocks(t *testing.T) {
	for _, kind := range []Kind{InProc, TCP} {
		dir, err := dfs.NewRunDir(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		tr, err := New(kind, Config{Maps: 2, Parts: 1, Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		errs := make(chan error, 2)
		go func() {
			_, err := tr.ReduceSource(0).Runs()
			errs <- err
		}()
		go func() {
			_, _, err := tr.ReduceSource(0).NextBatch()
			errs <- err
		}()
		boom := errors.New("boom")
		tr.Fail(boom)
		for i := 0; i < 2; i++ {
			if err := <-errs; !errors.Is(err, boom) {
				t.Fatalf("%v waiter %d: err=%v, want boom", kind, i, err)
			}
		}
		_ = tr.Close()
		_ = dir.Close()
	}
}
