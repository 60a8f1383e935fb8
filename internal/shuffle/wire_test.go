package shuffle

// Wire pins for the run exchange: the server speaks "BLR2" and nothing
// else, and neither side trusts a length or offset it reads off the wire.
// Each test plays the other end by hand.

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"blmr/internal/core"
	"blmr/internal/dfs"
)

// sealedSection starts a run-server holding one sealed 50-record section.
func sealedSection(t *testing.T) (*Server, Segment) {
	t.Helper()
	dir, err := dfs.NewRunDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dir.Close() })
	srv, err := NewServer()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	w, _, ok, err := sealWave(dir, srv, "t", [][]core.Record{sortedRecs("k", 50)}, nil)
	if err != nil || !ok {
		t.Fatalf("sealWave: ok=%v err=%v", ok, err)
	}
	seg, _ := w.SegmentOf(0)
	return srv, seg
}

// muxRequest frames one "BLR2" section request.
func muxRequest(reqID, fileID, off, n uint64) []byte {
	b := binary.AppendUvarint(nil, reqID)
	b = binary.AppendUvarint(b, fileID)
	b = binary.AppendUvarint(b, off)
	return binary.AppendUvarint(b, n)
}

// TestServerRejectsOtherMagics: a connection that opens with anything but
// "BLR2" — the retired one-request-per-connection "BLR1" included, even
// followed by a request that protocol would have served — gets zero
// response bytes and is closed.
func TestServerRejectsOtherMagics(t *testing.T) {
	srv, seg := sealedSection(t)
	blr1 := binary.AppendUvarint([]byte("BLR1"), seg.FileID) // fileID | off | n
	blr1 = binary.AppendUvarint(blr1, uint64(seg.Off))
	blr1 = binary.AppendUvarint(blr1, uint64(seg.N))
	for name, hello := range map[string][]byte{
		"BLR1":    blr1,
		"BLR3":    []byte("BLR3"),
		"garbage": []byte("GET / HTTP/1.1\r\n\r\n"),
	} {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(hello); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		got, err := io.ReadAll(conn)
		_ = conn.Close()
		if err != nil || len(got) != 0 {
			t.Fatalf("%s: server answered %d bytes (err=%v), want a silent close", name, len(got), err)
		}
	}
}

// TestServerRejectsOutOfRangeSection: an offset or length at or past 2^63
// would go negative as int64 and read as a successful empty section; the
// server must answer an error response instead, and the connection stays
// usable for the next request.
func TestServerRejectsOutOfRangeSection(t *testing.T) {
	srv, seg := sealedSection(t)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(conn)
	if _, err := conn.Write(serverMagicMux[:]); err != nil {
		t.Fatal(err)
	}
	reqID := uint64(0)
	for _, bad := range []struct{ off, n uint64 }{
		{uint64(seg.Off), 1 << 63},
		{uint64(seg.Off), 1<<64 - 1},
		{1 << 63, uint64(seg.N)},
	} {
		reqID++
		if _, err := conn.Write(muxRequest(reqID, seg.FileID, bad.off, bad.n)); err != nil {
			t.Fatal(err)
		}
		id, err := binary.ReadUvarint(br)
		if err != nil || id != reqID {
			t.Fatalf("off=%d n=%d: response id %d err %v, want %d", bad.off, bad.n, id, err, reqID)
		}
		if status, err := br.ReadByte(); err != nil || status != 1 {
			t.Fatalf("off=%d n=%d: status %d err %v, want an error response", bad.off, bad.n, status, err)
		}
		l, err := binary.ReadUvarint(br)
		if err != nil {
			t.Fatal(err)
		}
		msg := make([]byte, l)
		if _, err := io.ReadFull(br, msg); err != nil || !strings.Contains(string(msg), "out of range") {
			t.Fatalf("off=%d n=%d: message %q err %v", bad.off, bad.n, msg, err)
		}
	}
	// Same connection, well-formed request: served in full.
	reqID++
	if _, err := conn.Write(muxRequest(reqID, seg.FileID, uint64(seg.Off), uint64(seg.N))); err != nil {
		t.Fatal(err)
	}
	if id, err := binary.ReadUvarint(br); err != nil || id != reqID {
		t.Fatalf("follow-up response id %d err %v", id, err)
	}
	if status, err := br.ReadByte(); err != nil || status != 0 {
		t.Fatalf("follow-up status %d err %v", status, err)
	}
	if _, err := io.CopyN(io.Discard, br, seg.N); err != nil {
		t.Fatalf("follow-up section: %v", err)
	}
}

// TestFetchErrorLengthCapped: a peer whose error response claims an absurd
// message length must cost the fetcher neither the allocation nor a hang on
// bytes that never come — the fetch fails and the connection is burned.
func TestFetchErrorLengthCapped(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	peerDone := make(chan struct{})
	go func() { // the fake run-server: one connection, one poisoned reply
		defer close(peerDone)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		if _, err := io.ReadFull(br, make([]byte, len(serverMagicMux))); err != nil {
			return
		}
		reqID, _ := binary.ReadUvarint(br)
		for i := 0; i < 3; i++ { // fileID, off, n
			_, _ = binary.ReadUvarint(br)
		}
		resp := append(binary.AppendUvarint(nil, reqID), 1)
		resp = binary.AppendUvarint(resp, 1<<40) // "1 TiB of message follows"
		_, _ = conn.Write(append(resp, "boom"...))
		_, _ = io.Copy(io.Discard, br) // hold the conn until the fetcher hangs up
	}()

	pool := NewFetchPool()
	defer pool.Close()
	pc, err := pool.get(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	_ = pc.conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := pc.request(7, 0, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := pc.beginSection(); err == nil {
		t.Fatal("poisoned error response reported no error")
	}
	if !pc.broken {
		t.Fatal("conn not marked broken after an over-cap error length")
	}
	pool.put(pc) // broken: closed there, which releases the fake peer
	select {
	case <-peerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("burned conn was pooled, not closed")
	}
}
