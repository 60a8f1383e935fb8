package shuffle

// The run-server: sealed spill-run segment files served over loopback TCP.
// This is the wire half of the TCP transport and of the multi-process mode
// (internal/mpexec) — a worker seals runs into its local dfs.RunDir,
// registers each file with its Server, and any reduce task (same process or
// another worker) fetches a partition's byte section by (file ID, offset,
// length) through a FetchPool.
//
// Wire format, "BLR2" (all integers are unsigned varints). A connection
// opens with the 4-byte magic and then carries any number of
// request-id-framed section requests back to back, so a fetching peer dials
// each run-server once and pipelines its section requests:
//
//	request:  reqID | fileID | off | n
//	response: reqID | status byte (0 = ok, 1 = error)
//	          ok:    exactly n bytes of the sealed run file at [off, off+n)
//	          error: msgLen | msg bytes
//
// Any other opening magic — older protocol versions included — is answered
// with nothing and the connection is closed. Responses are served in request
// order per connection (an error response leaves the connection usable; a
// framing violation severs it). The section payload is the same sealed run
// dfs.OpenRunAt reads locally, so a truncated transfer (killed
// worker, reset connection) surfaces codec.ErrCorrupt or a short-section
// error from the fetching side's Err — never silent data loss.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"sync"
	"sync/atomic"
)

// serverMagicMux opens every run-server connection; it guards against stray
// connections to the run port.
var serverMagicMux = [4]byte{'B', 'L', 'R', '2'}

// zeroCopyMinBytes is the sendfile cutover: sections at least this large
// flush the response header and ship their payload with sendfileSection
// (no user-space copy); smaller ones ride the buffered path, where one
// flush carries header and payload together. A package variable so the
// microbenchmarks can force either path.
var zeroCopyMinBytes int64 = 64 << 10

// Server serves registered sealed run files over loopback TCP.
type Server struct {
	ln    net.Listener
	wg    sync.WaitGroup
	cache *fileCache
	zc    atomic.Int64 // sections shipped through the zero-copy path

	mu     sync.Mutex
	files  map[uint64]string
	nextID uint64
	conns  map[net.Conn]struct{}
	closed bool
}

// NewServer listens on an ephemeral loopback port and starts serving.
func NewServer() (*Server, error) { return NewServerOn("") }

// NewServerOn listens on bind (an address usable by net.Listen, e.g.
// ":0" to serve every interface for non-loopback clusters; "" defaults to
// an ephemeral loopback port) and starts serving. When the bound address
// has a wildcard host, pair it with an advertised host the peers can dial
// (internal/mpexec derives one from the control connection).
func NewServerOn(bind string) (*Server, error) {
	if bind == "" {
		bind = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", bind)
	if err != nil {
		return nil, fmt.Errorf("shuffle: start run-server: %w", err)
	}
	s := &Server{ln: ln, cache: newFileCache(fileCacheCap), files: make(map[uint64]string), conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.accept()
	return s, nil
}

// Addr returns the server's dialable address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Register makes the sealed file at path fetchable and returns its ID.
// Registered files must be immutable.
func (s *Server) Register(path string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	s.files[s.nextID] = path
	return s.nextID
}

// PathOf reports the on-disk path a file ID was registered under, ok=false
// for an unknown or withdrawn ID. The re-attach survival scan uses it to
// re-checksum sealed files a returning worker still serves.
func (s *Server) PathOf(fileID uint64) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	path, ok := s.files[fileID]
	return path, ok
}

// Unregister withdraws a registered file: later requests for the ID get
// an error response, and any cached handle is invalidated (closed once
// in-flight sections drain). Job teardown calls this so a long-lived
// worker's server neither accumulates dead routes nor holds deleted spill
// files open.
func (s *Server) Unregister(fileID uint64) {
	s.mu.Lock()
	delete(s.files, fileID)
	s.mu.Unlock()
	s.cache.invalidate(fileID)
}

// Opens reports how many times the serving path actually hit os.Open —
// with the handle cache this stays near the distinct-file count, far
// below the section-request count the old open-per-request path paid.
func (s *Server) Opens() int64 { return s.cache.Opens() }

// ZeroCopySections reports how many sections were shipped with the
// zero-copy send (header flushed, payload via sendfile — no user-space
// copy).
func (s *Server) ZeroCopySections() int64 { return s.zc.Load() }

// Close stops the listener, severs in-flight transfers, and waits for
// handlers to finish. In-flight fetchers observe a reset/short section.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	s.cache.closeAll()
	return err
}

func (s *Server) accept() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serve(conn)
	}
}

func (s *Server) serve(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()
	br := bufio.NewReader(conn)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return
	}
	if magic == serverMagicMux {
		s.serveMux(conn, br)
	}
}

// openRegistered resolves fileID to a (usually cached) open handle; the
// returned release must be called once the section send is done.
func (s *Server) openRegistered(fileID uint64) (*os.File, func(), error) {
	s.mu.Lock()
	path, ok := s.files[fileID]
	s.mu.Unlock()
	if !ok {
		return nil, nil, fmt.Errorf("unknown run file %d", fileID)
	}
	return s.cache.acquire(fileID, path)
}

// sendSectionBody ships file[off, off+n) after the already-buffered
// response header: large sections on TCP connections flush the header and
// go zero-copy (sendfileSection), everything else streams through the
// connection's write buffer. Returns the payload bytes actually sent.
func (s *Server) sendSectionBody(conn net.Conn, bw *bufio.Writer, f *os.File, off, n int64) (int64, error) {
	if n >= zeroCopyMinBytes {
		if tc, ok := conn.(*net.TCPConn); ok {
			if err := bw.Flush(); err != nil {
				return 0, err
			}
			s.zc.Add(1)
			return sendfileSection(tc, f, off, n)
		}
	}
	// bufio.Writer.ReadFrom fills the write buffer directly: no copy
	// buffer, no per-section allocation.
	return io.Copy(bw, io.NewSectionReader(f, off, n))
}

// serveMux serves "BLR2" section requests until the peer hangs up (or the
// server closes the connection). The write buffer and copy buffer are
// per-connection, so a pooled peer's whole fetch stream allocates once.
func (s *Server) serveMux(conn net.Conn, br *bufio.Reader) {
	bw := bufio.NewWriterSize(conn, 64<<10)
	var hdr []byte
	for {
		reqID, err := binary.ReadUvarint(br)
		if err != nil {
			return // peer done (pool reaped the conn) or server closing
		}
		fileID, err1 := binary.ReadUvarint(br)
		off, err2 := binary.ReadUvarint(br)
		n, err3 := binary.ReadUvarint(br)
		if err1 != nil || err2 != nil || err3 != nil {
			return
		}
		hdr = binary.AppendUvarint(hdr[:0], reqID)
		if off > math.MaxInt64 || n > math.MaxInt64 {
			// Would go negative as int64 and read as an empty section.
			if !writeMuxError(bw, hdr, fmt.Sprintf("run section [%d, +%d) out of range", off, n)) {
				return
			}
			continue
		}
		f, rel, err := s.openRegistered(fileID)
		if err != nil {
			if !writeMuxError(bw, hdr, err.Error()) {
				return
			}
			continue
		}
		hdr = append(hdr, 0)
		_, _ = bw.Write(hdr)
		copied, err := s.sendSectionBody(conn, bw, f, int64(off), int64(n))
		rel()
		if err != nil || copied < int64(n) {
			// Short copy (request past the file, truncated file, write
			// error): the stream is desynced — sever so the fetcher sees a
			// short section instead of hanging on bytes that never come.
			_ = bw.Flush()
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// writeMuxError sends one request-id-framed error response; false when the
// connection is no longer writable.
func writeMuxError(bw *bufio.Writer, hdr []byte, msg string) bool {
	buf := append(hdr, 1)
	buf = binary.AppendUvarint(buf, uint64(len(msg)))
	buf = append(buf, msg...)
	if _, err := bw.Write(buf); err != nil {
		return false
	}
	return bw.Flush() == nil
}
