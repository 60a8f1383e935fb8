package shuffle

// runExchange is the sealed-run transport behind the TCP kind: every wave a
// map task publishes — spill crossings and the final wave alike — is sealed
// as a multi-partition segment file in Config.Dir, and reduce tasks fetch
// partition sections back from the loopback run-server. Intermediate data
// therefore always leaves the mappers' heaps, the Hadoop-style
// materialization discipline that makes the exchange work across process
// boundaries.

import (
	"fmt"

	"blmr/internal/codec"
	"blmr/internal/core"
	"blmr/internal/dfs"
)

type runExchange struct {
	cfg  Config
	srv  *Server
	pool *FetchPool // the only way to a remote section
	fail *failState
	srcs []*PushSource // per partition; every closing map sink offers to each
}

func newRunExchange(cfg Config, srv *Server) *runExchange {
	t := &runExchange{cfg: cfg, srv: srv, pool: NewFetchPool(), fail: newFailState(), srcs: make([]*PushSource, cfg.Parts)}
	for r := range t.srcs {
		t.srcs[r] = newPushSource(cfg.Maps, t.pool, cfg.MergeFanIn, t.fail, false)
	}
	return t
}

// MapSink implements Transport. Closing the sink offers the task's waves to
// every partition's source as attempt 0, the way a coordinator push does.
func (t *runExchange) MapSink(m int) MapSink {
	s := NewRunSink(t.cfg.Dir, t.srv, fmt.Sprintf("m%d", m))
	s.failed = t.fail.failed
	s.onClose = func(waves []Wave) error {
		for r, src := range t.srcs {
			if err := src.Offer(m, 0, SegmentsOf(waves, r)); err != nil {
				return err
			}
		}
		return nil
	}
	return s
}

// ReduceSource implements Transport: partition r's one source — every call
// for r returns the same PushSource.
func (t *runExchange) ReduceSource(r int) ReduceSource { return t.srcs[r] }

// Fail implements Transport.
func (t *runExchange) Fail(err error) { t.fail.fail(err) }

// FetchDials reports how many run-server connections the transport's fetch
// pool dialed — surfaced as mr.Result.FetchDials.
func (t *runExchange) FetchDials() int64 { return t.pool.Dials() }

// ServerOpens reports how many os.Open calls the transport's run-server
// actually paid serving sections — with the handle cache this stays near
// the distinct sealed-file count, far below the served-section count.
// Surfaced as mr.Result.ServerOpens.
func (t *runExchange) ServerOpens() int64 { return t.srv.Opens() }

// Close implements Transport.
func (t *runExchange) Close() error {
	_ = t.pool.Close()
	return t.srv.Close()
}

// RunSink is the run-discipline MapSink shared by the run-exchange
// transport and the multi-process workers: every wave — sealed or final —
// is persisted as a segment file in dir, registered with the run-server
// when one is attached. Standalone users (internal/mpexec) read the sealed
// metadata back with Waves after Close.
type RunSink struct {
	dir     *dfs.RunDir
	srv     *Server
	tag     string
	enc     *codec.RunEncoder
	waves   []Wave
	failed  func() error       // optional transport abort check
	onClose func([]Wave) error // optional transport completion hook
}

// NewRunSink builds a standalone sink sealing waves into dir (registering
// each file with srv when non-nil).
func NewRunSink(dir *dfs.RunDir, srv *Server, tag string) *RunSink {
	return &RunSink{dir: dir, srv: srv, tag: tag}
}

// Batch implements MapSink.
func (s *RunSink) Batch() []core.Record { return make([]core.Record, 0, 256) }

// Send implements MapSink: the run exchange has no stream discipline —
// pipelined map tasks publish sorted waves instead.
func (s *RunSink) Send(int, []core.Record) error {
	return fmt.Errorf("shuffle: run exchange does not stream batches; publish waves")
}

// PublishWave implements MapSink. Both sealed and final waves persist: the
// exchange's whole point is that reducers read runs, not task memory. So a
// final wave's slices, which the sink owns, are dead once it is sealed: they
// go back to the record-buffer free list for the process's next map task,
// and parts' entries are cleared.
func (s *RunSink) PublishWave(parts [][]core.Record, sealed bool) error {
	if s.failed != nil {
		if err := s.failed(); err != nil {
			return err
		}
	}
	w, enc, ok, err := sealWave(s.dir, s.srv, s.tag, parts, s.enc)
	s.enc = enc
	if !sealed {
		for p, part := range parts {
			core.RecycleRecords(part)
			parts[p] = nil
		}
	}
	if err != nil {
		return err
	}
	if ok {
		s.waves = append(s.waves, w)
	}
	return nil
}

// Waves returns the sealed wave metadata (valid after Close).
func (s *RunSink) Waves() []Wave { return s.waves }

// Close implements MapSink: publish the task's wave metadata and signal
// completion to the barrier and to every partition's stream.
func (s *RunSink) Close() error {
	if s.onClose != nil {
		return s.onClose(s.waves)
	}
	return nil
}
