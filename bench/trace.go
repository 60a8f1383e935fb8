package main

// Tracing from outside the program: spans are recorded by wrappers this
// package puts around the engine's public layer boundaries (exec.Worker,
// shuffle.Transport, MapSink, ReduceSource and the sortx.Runs a source
// returns), kept in memory, and written out as Chrome-trace JSON when the
// benchmark ends. Spans inside the engine are a later issue.

import (
	"cmp"
	"encoding/json"
	"io"
	"os"
	"slices"
	"sync"
	"time"

	"blmr/internal/core"
	"blmr/internal/exec"
	"blmr/internal/shuffle"
	"blmr/internal/sortx"
)

// span is one timed interval. parent is the id of the span that caused it
// (0 for a job's root span); spans of one job share its job id.
type span struct {
	name       string
	start, end time.Duration // on the recorder's clock
	id, parent int
	job        int
	pid, lane  int // Chrome-trace process (workload) and thread (task) rows
	args       map[string]any
}

func (s span) interval() interval { return interval{s.start, s.end} }

// recorder collects the spans of one benchmark invocation.
type recorder struct {
	epoch time.Time

	mu      sync.Mutex
	spans   []span
	nextID  int
	nextJob int
	pids    map[int]string // Chrome-trace process rows: pid -> workload name
}

func newRecorder() *recorder { return &recorder{epoch: time.Now(), pids: map[int]string{}} }

func (r *recorder) now() time.Duration { return time.Since(r.epoch) }

// ids reserves n consecutive span ids and returns the first.
func (r *recorder) ids(n int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	first := r.nextID + 1
	r.nextID += n
	return first
}

// newJob starts a job on workload row pid and returns its id.
func (r *recorder) newJob(pid int, workload string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pids[pid] = workload
	r.nextJob++
	return r.nextJob
}

func (r *recorder) add(spans ...span) {
	r.mu.Lock()
	r.spans = append(r.spans, spans...)
	r.mu.Unlock()
}

// writeChromeTrace writes every span as a complete ("X") event in the
// Chrome trace-event format (load in chrome://tracing or ui.perfetto.dev):
// one process row per workload, one thread row per task lane, timestamps in
// microseconds.
func (r *recorder) writeChromeTrace(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	r.mu.Lock()
	spans := slices.Clone(r.spans)
	events := make([]event, 0, len(spans)+len(r.pids))
	for pid, name := range r.pids {
		events = append(events, event{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": name}})
	}
	r.mu.Unlock()
	slices.SortStableFunc(spans, func(a, b span) int { return cmp.Compare(a.start, b.start) })
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	for _, s := range spans {
		args := map[string]any{"id": s.id, "parent": s.parent, "job": s.job}
		for k, v := range s.args {
			args[k] = v
		}
		events = append(events, event{Name: s.name, Ph: "X", Ts: us(s.start), Dur: us(s.end - s.start),
			Pid: s.pid, Tid: s.lane, Args: args})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Span names the wrappers record under a task span.
const (
	spanMap       = "exec.map"
	spanReduce    = "exec.reduce"
	spanSend      = "shuffle.send"
	spanPublish   = "shuffle.publish_wave"
	spanSinkClose = "shuffle.sink_close"
	spanNextBatch = "shuffle.next_batch"
	spanRuns      = "shuffle.runs"
	spanRunRead   = "shuffle.run_read" // never drawn: one call per record
)

// drawThreshold is the shortest call that gets a span of its own. A
// pipelined job makes tens of thousands of sub-microsecond Send and
// NextBatch calls; drawing each would bury the blocking ones, so shorter
// calls are tallied on their task instead. Either way the time counts.
const drawThreshold = 50 * time.Microsecond

// tally accumulates calls too brief (or too many) to draw.
type tally struct {
	total time.Duration
	calls int64
}

// jobTrace records one in-process job: a root span, one span per task, and
// under each task one span per call the task makes into the shuffle.
type jobTrace struct {
	rec        *recorder
	pid, job   int
	root       int
	start, end time.Duration
	mappers    int

	mu    sync.Mutex
	live  map[taskKey]*taskTrace // running tasks, for the transport wrapper's parent lookup
	tasks []*taskTrace           // finished tasks
}

type taskKey struct {
	isMap bool
	index int
}

// taskTrace is one task's span plus what happened under it. Everything a
// task does runs on the task's own goroutine, so it needs no lock.
type taskTrace struct {
	rec        *recorder
	isMap      bool
	id, lane   int
	start, end time.Duration
	children   []span            // calls of at least drawThreshold
	brief      map[string]*tally // everything shorter, by span name
}

func (r *recorder) newJobTrace(pid int, workload string, mappers int) *jobTrace {
	return &jobTrace{rec: r, pid: pid, job: r.newJob(pid, workload), root: r.ids(1),
		start: r.now(), mappers: mappers, live: map[taskKey]*taskTrace{}}
}

func (jt *jobTrace) begin(isMap bool, index int) *taskTrace {
	lane := 1 + index
	if !isMap {
		lane += jt.mappers
	}
	tt := &taskTrace{rec: jt.rec, isMap: isMap, id: jt.rec.ids(1), lane: lane, start: jt.rec.now(),
		brief: map[string]*tally{}}
	jt.mu.Lock()
	jt.live[taskKey{isMap, index}] = tt
	jt.mu.Unlock()
	return tt
}

func (jt *jobTrace) finish(isMap bool, index int, tt *taskTrace) {
	tt.end = jt.rec.now()
	jt.mu.Lock()
	delete(jt.live, taskKey{isMap, index})
	jt.tasks = append(jt.tasks, tt)
	jt.mu.Unlock()
}

func (jt *jobTrace) task(isMap bool, index int) *taskTrace {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	return jt.live[taskKey{isMap, index}]
}

// child records one call the task made, from start until now.
func (tt *taskTrace) child(name string, start time.Duration) {
	end := tt.rec.now()
	if end-start >= drawThreshold {
		tt.children = append(tt.children, span{name: name, start: start, end: end})
		return
	}
	tt.tally(name).add(end - start)
}

func (tt *taskTrace) tally(name string) *tally {
	t := tt.brief[name]
	if t == nil {
		t = &tally{}
		tt.brief[name] = t
	}
	return t
}

func (t *tally) add(d time.Duration) {
	t.total += d
	t.calls++
}

// close ends the job and hands its spans to the recorder.
func (jt *jobTrace) close() {
	jt.end = jt.rec.now()
	spans := []span{{name: "job", start: jt.start, end: jt.end, id: jt.root, job: jt.job, pid: jt.pid}}
	for _, tt := range jt.tasks {
		name := spanReduce
		if tt.isMap {
			name = spanMap
		}
		args := map[string]any{}
		for call, t := range tt.brief {
			args[call+"_brief_us"] = float64(t.total) / float64(time.Microsecond)
			args[call+"_brief_calls"] = t.calls
		}
		spans = append(spans, span{name: name, start: tt.start, end: tt.end, id: tt.id, parent: jt.root,
			job: jt.job, pid: jt.pid, lane: tt.lane, args: args})
		first := jt.rec.ids(len(tt.children))
		for i, c := range tt.children {
			c.id, c.parent, c.job, c.pid, c.lane = first+i, tt.id, jt.job, jt.pid, tt.lane
			spans = append(spans, c)
		}
	}
	jt.rec.add(spans...)
}

// layerTimes is one traced job's time budget: per task kind the self time
// (span minus what its children cover), and per shuffle boundary the time
// tasks spent inside it.
type layerTimes struct {
	mapSelf, reduceSelf                 time.Duration
	sendWait, seal, sourceWait, runRead time.Duration
	taskTotal, accounted                time.Duration // Σ task spans; Σ self + waits
	unattributedFrac                    float64       // share of job wall no task span covers
}

func (jt *jobTrace) layerTimes() layerTimes {
	var lt layerTimes
	var taskIvs []interval
	for _, tt := range jt.tasks {
		taskIvs = append(taskIvs, interval{tt.start, tt.end})
		ivs := make([]interval, len(tt.children))
		var waits time.Duration
		wait := func(name string, d time.Duration) {
			waits += d
			switch name {
			case spanSend:
				lt.sendWait += d
			case spanPublish, spanSinkClose:
				lt.seal += d
			case spanNextBatch, spanRuns:
				lt.sourceWait += d
			case spanRunRead:
				lt.runRead += d
			}
		}
		for i, c := range tt.children {
			ivs[i] = c.interval()
			wait(c.name, c.end-c.start)
		}
		self := selfTime(tt.start, tt.end, ivs)
		for name, t := range tt.brief {
			wait(name, t.total)
			self -= t.total
		}
		if tt.isMap {
			lt.mapSelf += self
		} else {
			lt.reduceSelf += self
		}
		lt.taskTotal += tt.end - tt.start
		lt.accounted += self + waits
	}
	if wall := jt.end - jt.start; wall > 0 {
		lt.unattributedFrac = 1 - float64(covered(jt.start, jt.end, taskIvs))/float64(wall)
	}
	return lt
}

// tracedWorker records one span per task around the wrapped worker.
type tracedWorker struct {
	exec.Worker
	jt *jobTrace
}

func (w *tracedWorker) RunMap(t exec.MapTask) (exec.MapStats, error) {
	tt := w.jt.begin(true, t.Index)
	defer w.jt.finish(true, t.Index, tt)
	return w.Worker.RunMap(t)
}

func (w *tracedWorker) RunReduce(t exec.ReduceTask) (exec.ReduceResult, error) {
	tt := w.jt.begin(false, t.Partition)
	defer w.jt.finish(false, t.Partition, tt)
	return w.Worker.RunReduce(t)
}

// tracedTransport hands out sinks and sources that record under the span of
// the task asking for them (tasks ask from inside RunMap / RunReduce).
type tracedTransport struct {
	shuffle.Transport
	jt *jobTrace
}

func (t *tracedTransport) MapSink(m int) shuffle.MapSink {
	return &tracedSink{MapSink: t.Transport.MapSink(m), tt: t.jt.task(true, m)}
}

func (t *tracedTransport) ReduceSource(r int) shuffle.ReduceSource {
	return &tracedSource{ReduceSource: t.Transport.ReduceSource(r), tt: t.jt.task(false, r)}
}

// tracedSink times the blocking MapSink calls. It does not forward the
// in-proc sink's optional TrySend/SpillBatches (exec asks for them only
// under stream discipline with SpillBytes set, which no traced workload
// uses).
type tracedSink struct {
	shuffle.MapSink
	tt *taskTrace
}

func (s *tracedSink) Send(p int, batch []core.Record) error {
	t0 := s.tt.rec.now()
	err := s.MapSink.Send(p, batch)
	s.tt.child(spanSend, t0)
	return err
}

func (s *tracedSink) PublishWave(parts [][]core.Record, sealed bool) error {
	t0 := s.tt.rec.now()
	err := s.MapSink.PublishWave(parts, sealed)
	s.tt.child(spanPublish, t0)
	return err
}

func (s *tracedSink) Close() error {
	t0 := s.tt.rec.now()
	err := s.MapSink.Close()
	s.tt.child(spanSinkClose, t0)
	return err
}

// tracedSource times NextBatch and Runs, wraps the returned runs, and
// forwards the optional FetchBytes exec type-asserts on — without it a
// traced run would silently report zero fetch bytes.
type tracedSource struct {
	shuffle.ReduceSource
	tt *taskTrace
}

func (s *tracedSource) NextBatch() ([]core.Record, bool, error) {
	t0 := s.tt.rec.now()
	batch, ok, err := s.ReduceSource.NextBatch()
	s.tt.child(spanNextBatch, t0)
	return batch, ok, err
}

func (s *tracedSource) Runs() ([]sortx.Run, error) {
	t0 := s.tt.rec.now()
	runs, err := s.ReduceSource.Runs()
	s.tt.child(spanRuns, t0)
	for i, r := range runs {
		runs[i] = &tracedRun{Run: r, read: s.tt.tally(spanRunRead)}
	}
	return runs, err
}

func (s *tracedSource) FetchBytes() int64 {
	if fb, ok := s.ReduceSource.(interface{ FetchBytes() int64 }); ok {
		return fb.FetchBytes()
	}
	return 0
}

// tracedRun accumulates the time the merger spends inside Next — fetch, CRC
// and decompression as the consumer sees them — and forwards the optional
// Err and Close exec and sortx type-assert on, or a traced run would hide
// read errors and leak run handles.
type tracedRun struct {
	sortx.Run
	read *tally // the owning reduce task's run-read tally
}

func (r *tracedRun) Next() (core.Record, bool) {
	t0 := time.Now()
	rec, ok := r.Run.Next()
	r.read.add(time.Since(t0))
	return rec, ok
}

func (r *tracedRun) Err() error {
	if s, ok := r.Run.(sortx.Source); ok {
		return s.Err()
	}
	return nil
}

func (r *tracedRun) Close() error {
	if c, ok := r.Run.(io.Closer); ok {
		return c.Close()
	}
	return nil
}
