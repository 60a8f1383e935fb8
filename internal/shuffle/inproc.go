package shuffle

// inproc is the single-process transport: the batched channel shuffle (the
// engine's pipelined data plane, with its free-list of recycled batch
// buffers) plus shared-memory runs for barrier consumption. The channels are
// the only way a pipelined record reaches its reducer, and a mapper blocks
// on a full one. Barrier map tasks' sealed waves (Options.SpillBytes
// crossings) go to disk through Config.Dir; final waves stay in memory as
// record slices.

import (
	"fmt"
	"strconv"
	"sync"

	"blmr/internal/codec"
	"blmr/internal/core"
	"blmr/internal/sortx"
)

type inproc struct {
	cfg  Config
	fail *failState

	// Stream discipline: per-partition batch channels plus a shared free
	// list recycling drained batch buffers back to mappers, bounding
	// steady-state allocation to roughly the in-flight batch count.
	chans []chan []core.Record
	free  chan []core.Record

	// Published waves per map task, consumed through Runs() after the map
	// barrier (run discipline only; the stream discipline publishes none).
	mu       sync.Mutex
	waves    [][]inWave
	closed   int
	mapsDone chan struct{}
}

// inWave is one published wave: in-memory record slices (final waves) or a
// sealed segment file (spill crossings).
type inWave struct {
	mem  [][]core.Record
	disk Wave
}

func newInProc(cfg Config) *inproc {
	freeCap := cfg.Parts * QueueCap
	if freeCap > 1<<14 {
		freeCap = 1 << 14
	}
	t := &inproc{
		cfg:      cfg,
		fail:     newFailState(),
		chans:    make([]chan []core.Record, cfg.Parts),
		free:     make(chan []core.Record, freeCap),
		waves:    make([][]inWave, cfg.Maps),
		mapsDone: make(chan struct{}),
	}
	for r := range t.chans {
		t.chans[r] = make(chan []core.Record, QueueCap)
	}
	if cfg.Maps == 0 {
		t.finish()
	}
	return t
}

// finish closes the barrier and the stream channels once every map task is
// done (or there were none).
func (t *inproc) finish() {
	close(t.mapsDone)
	for _, ch := range t.chans {
		close(ch)
	}
}

// MapSink implements Transport.
func (t *inproc) MapSink(m int) MapSink { return &inprocSink{t: t, m: m} }

// ReduceSource implements Transport.
func (t *inproc) ReduceSource(r int) ReduceSource { return &inprocSource{t: t, r: r} }

// Fail implements Transport.
func (t *inproc) Fail(err error) { t.fail.fail(err) }

// Close implements Transport.
func (t *inproc) Close() error { return nil }

type inprocSink struct {
	t     *inproc
	m     int
	waves []inWave
	enc   *codec.RunEncoder
}

// Batch implements MapSink: hand back a recycled buffer when one is free.
func (s *inprocSink) Batch() []core.Record {
	select {
	case b := <-s.t.free:
		return b
	default:
		return make([]core.Record, 0, BatchSize)
	}
}

// Send implements MapSink: one channel operation per batch, blocking on
// backpressure until the transport is failed.
func (s *inprocSink) Send(p int, batch []core.Record) error {
	select {
	case s.t.chans[p] <- batch:
		return nil
	case <-s.t.fail.done:
		return s.t.fail.failed()
	}
}

// PublishWave implements MapSink: sealed waves go to disk (the map task
// needs its buffers back); final waves stay in memory by reference.
func (s *inprocSink) PublishWave(parts [][]core.Record, sealed bool) error {
	if err := s.t.fail.failed(); err != nil {
		return err
	}
	if !sealed {
		s.waves = append(s.waves, inWave{mem: parts})
		return nil
	}
	if s.t.cfg.Dir == nil {
		return fmt.Errorf("shuffle: in-proc transport has no run directory for sealed waves")
	}
	w, enc, ok, err := sealWave(s.t.cfg.Dir, nil, "m"+strconv.Itoa(s.m), parts, s.enc)
	s.enc = enc
	if err != nil {
		return err
	}
	if ok {
		s.waves = append(s.waves, inWave{disk: w})
	}
	return nil
}

// Close implements MapSink.
func (s *inprocSink) Close() error {
	t := s.t
	t.mu.Lock()
	t.waves[s.m] = s.waves
	t.closed++
	allDone := t.closed == t.cfg.Maps
	t.mu.Unlock()
	if allDone {
		t.finish()
	}
	return nil
}

type inprocSource struct {
	t *inproc
	r int
}

// NextBatch implements ReduceSource over the partition's channel, which
// closes once every map sink has closed.
func (s *inprocSource) NextBatch() ([]core.Record, bool, error) {
	select {
	case b, ok := <-s.t.chans[s.r]:
		return b, ok, nil
	case <-s.t.fail.done:
		return nil, false, s.t.fail.failed()
	}
}

// Recycle implements ReduceSource: drop the string references, then return
// the buffer to the free list (or let the GC take it when the list is full).
func (s *inprocSource) Recycle(batch []core.Record) {
	clear(batch)
	select {
	case s.t.free <- batch[:0]:
	default:
	}
}

// Runs implements ReduceSource: after the map barrier, the partition's runs
// in (map task, publish order) order — sealed waves as lazy file sections,
// final waves as shared slices.
func (s *inprocSource) Runs() ([]sortx.Run, error) {
	select {
	case <-s.t.mapsDone:
	case <-s.t.fail.done:
		return nil, s.t.fail.failed()
	}
	var runs []sortx.Run
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	for m := range s.t.waves {
		for _, w := range s.t.waves[m] {
			if w.mem != nil {
				if len(w.mem[s.r]) > 0 {
					runs = append(runs, sortx.NewSliceRun(w.mem[s.r]))
				}
				continue
			}
			if seg, ok := w.disk.SegmentOf(s.r); ok {
				runs = append(runs, NewLazyRun(seg))
			}
		}
	}
	return runs, nil
}

// Close implements ReduceSource.
func (s *inprocSource) Close() error { return nil }
