package shuffle

// FuzzBLR2 feeds arbitrary bytes to both ends of the "BLR2" run-exchange
// protocol. The server reads them as the requests that follow the magic;
// the fetching side reads them as the responses to one pending section
// request. Neither end may panic. The server answers each request either
// with exactly the bytes asked for, or with an error response it owed, or
// severs the connection. The fetching side ends a section cleanly or with
// an error, and it burns a connection whose error length is past the cap.
// The committed corpus in testdata/fuzz/FuzzBLR2 holds well-formed requests
// and responses for the fixture's section: run-server file 1, 40 records
// sealed with None (173 bytes).

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"net"
	"os"
	"testing"
	"time"

	"blmr/internal/core"
	"blmr/internal/dfs"
)

func FuzzBLR2(f *testing.F) {
	dir, err := dfs.NewRunDir(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { dir.Close() })
	srv, err := NewServer()
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })
	recs := make([]core.Record, 40)
	for i := range recs {
		recs[i] = core.Record{Key: string(rune('a' + i%26)), Value: "v"}
	}
	w, _, ok, err := sealWave(dir, srv, "fuzz", [][]core.Record{recs}, nil)
	if err != nil || !ok {
		f.Fatalf("sealWave: ok=%v err=%v", ok, err)
	}
	seg, _ := w.SegmentOf(0)
	path, _ := srv.PathOf(seg.FileID)
	file, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	// A pool with parallel decode on: each response is fetched through it
	// too, so the run header's codec picks the decoder as in production.
	pool := NewFetchPool()
	pool.DecodeWorkers = 2
	f.Cleanup(func() { pool.Close() })
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzServe(t, srv, seg.FileID, file, data)
		fuzzFetch(t, nil, seg, data)
		fuzzFetch(t, pool, seg, data)
	})
}

// fuzzServe sends data after the magic to srv, which serves one file,
// fileID, holding file, and checks every response against the request it
// answers.
func fuzzServe(t *testing.T, srv *Server, fileID uint64, file, data []byte) {
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	got := make(chan []byte, 1)
	go func() {
		b, _ := io.ReadAll(conn)
		got <- b
	}()
	if _, err := conn.Write(append([]byte("BLR2"), data...)); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	resp := bytes.NewReader(<-got)
	reqs := bytes.NewReader(data)
	for resp.Len() > 0 {
		var req [4]uint64 // reqID | fileID | off | n
		for i := range req {
			if req[i], err = binary.ReadUvarint(reqs); err != nil {
				t.Fatalf("%d response bytes answer no request", resp.Len())
			}
		}
		id, err := binary.ReadUvarint(resp)
		if err != nil || id != req[0] {
			t.Fatalf("response id %d (err %v), want %d", id, err, req[0])
		}
		status, err := resp.ReadByte()
		if err != nil {
			t.Fatalf("request %d: response ends after its id", id)
		}
		off, n := req[2], req[3]
		valid := req[1] == fileID && off <= math.MaxInt64 && n <= math.MaxInt64
		switch status {
		case 0:
			if !valid {
				t.Fatalf("request %d (file %d, [%d, +%d)) served, want an error response", id, req[1], off, n)
			}
			// Past the end of the file the server sends what there is
			// and severs the connection.
			lo := min(off, uint64(len(file)))
			want := file[lo : lo+min(n, uint64(len(file))-lo)]
			body := make([]byte, min(n, uint64(resp.Len())))
			_, _ = io.ReadFull(resp, body)
			if uint64(len(want)) == n && !bytes.Equal(body, want) {
				t.Fatalf("request %d: served %d bytes that differ from the file's [%d, +%d)", id, len(body), off, n)
			}
			if uint64(len(want)) < n && (!bytes.Equal(body, want) || resp.Len() > 0) {
				t.Fatalf("request %d: short section of %d bytes, %d after it; want the file's %d then a close", id, len(body), resp.Len(), len(want))
			}
		case 1:
			if valid {
				t.Fatalf("request %d (file %d, [%d, +%d)) got an error response, want it served", id, req[1], off, n)
			}
			l, err := binary.ReadUvarint(resp)
			if err != nil || l > uint64(resp.Len()) {
				t.Fatalf("request %d: error message of %d bytes, %d left (err %v)", id, l, resp.Len(), err)
			}
			_, _ = resp.Seek(int64(l), io.SeekCurrent)
		default:
			t.Fatalf("request %d: status %d", id, status)
		}
	}
}

// scriptConn is a connection whose peer's bytes are script; what is written
// to it is dropped.
type scriptConn struct {
	net.Conn // nil: only Read, Write and Close are called
	script   *bytes.Reader
}

func (c *scriptConn) Read(p []byte) (int, error)  { return c.script.Read(p) }
func (c *scriptConn) Write(p []byte) (int, error) { return len(p), nil }
func (c *scriptConn) Close() error                { return nil }

// fuzzFetch reads data as the response to one request for seg on a
// connection of pool (nil: none, so decode stays serial), opening and
// draining the section.
func fuzzFetch(t *testing.T, pool *FetchPool, seg Segment, data []byte) {
	conn := &scriptConn{script: bytes.NewReader(data)}
	pc := &poolConn{pool: pool, addr: "fuzz", conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
	if err := pc.request(seg.FileID, seg.Off, seg.N); err != nil {
		t.Fatal(err)
	}
	run, err := pc.openSection()
	if err != nil {
		r := bytes.NewReader(data)
		id, err1 := binary.ReadUvarint(r)
		status, err2 := r.ReadByte()
		l, err3 := binary.ReadUvarint(r)
		if err1 == nil && id == pc.reqSeq && err2 == nil && status != 0 && err3 == nil && l > maxFetchErrorBytes && !pc.broken {
			t.Fatalf("error length %d past the %d-byte cap left the connection usable", l, maxFetchErrorBytes)
		}
		return
	}
	for {
		if _, ok := run.Next(); !ok {
			break
		}
	}
	if run.Err() == nil && (!run.done || len(pc.pending) > 0) {
		t.Fatalf("section ended with no error, done=%v, %d requests pending", run.done, len(pc.pending))
	}
	if run.Err() != nil && !pc.broken {
		t.Fatalf("section failed (%v) but the connection stays usable", run.Err())
	}
}
