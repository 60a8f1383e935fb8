package mpexec

import (
	"bufio"
	"bytes"
	"net"
	"strings"
	"testing"

	"blmr/internal/codec"
	"blmr/internal/core"
	"blmr/internal/exec"
	"blmr/internal/store"
)

// TestWorkerReopenRetriesFailedOpen: a job whose open failed before it had a
// spill directory (here: no such job in the registry) stays failed across a
// re-open — the 'J' a restarted coordinator sends for a job the worker
// already holds. The re-open used to clear the failed open's latch, and the
// next map task dereferenced the nil spill directory; now the open is tried
// again, fails again, and the task errors back.
func TestWorkerReopenRetriesFailedOpen(t *testing.T) {
	coord, conn := net.Pipe()
	defer coord.Close()
	defer conn.Close()
	w := &workerState{name: "w-test", jobs: make(map[int]*wjob),
		resolve: func(string) (exec.Job, bool) { return exec.Job{}, false }}
	epoch := w.install(conn)
	open := encode(&jobStart{7, "no-such-app", exec.Options{Reducers: 1}})
	w.openJob(open)
	w.openJob(open)

	w.wg.Add(1)
	go w.runMap(epoch, encode(&mapTask{7, exec.MapTask{Index: 2, Attempt: 1, Split: []core.Record{{Key: "k", Value: "v"}}}}))
	typ, payload, err := readMsg(bufio.NewReader(coord))
	if err != nil || typ != msgError {
		t.Fatalf("map task on a job that never opened: frame %q err=%v, want an 'E'", typ, err)
	}
	var te taskError
	if err := decode(payload, &te); err != nil {
		t.Fatal(err)
	}
	if te.job != 7 || te.replyKind != msgMapDone || te.id != 2 || !strings.Contains(te.msg, "no-such-app") {
		t.Fatalf("error frame %+v, want map 2 of job 7 failing on the unresolved name", te)
	}
	w.wg.Wait()
}

// TestWorkerRejectsTruncatedControlFrames: a 'j' or an 'F' that does not
// decode is a protocol violation that ends the session with an error, like
// an unknown frame type. A truncated abort used to be dropped in silence,
// leaving the reducers it was meant to wake parked.
func TestWorkerRejectsTruncatedControlFrames(t *testing.T) {
	for _, tc := range []struct {
		name    string
		typ     byte
		payload []byte
	}{
		{"job end", msgJobEnd, nil},
		{"abort", msgAbort, encode(&abort{7, "task failed"})[:5]},
	} {
		var frames bytes.Buffer
		if err := writeMsg(&frames, tc.typ, tc.payload); err != nil {
			t.Fatal(err)
		}
		w := &workerState{jobs: make(map[int]*wjob)}
		bye, err := w.loop(bufio.NewReader(&frames), 0)
		if err == nil || bye {
			t.Fatalf("truncated %s frame: bye=%v err=%v, want a protocol error", tc.name, bye, err)
		}
	}
}

// TestWorkerRefusesHugeMapCount: an 'R' frame whose map count exceeds its
// job's Mappers is refused with an error reply. The count sizes the
// partition's reduce source, so 2^40 maps would have asked for terabytes.
func TestWorkerRefusesHugeMapCount(t *testing.T) {
	coord, conn := net.Pipe()
	defer coord.Close()
	defer conn.Close()
	job := exec.Job{Mapper: core.MapperFunc(func(k, v string, e core.Emitter) { e.Emit(k, v) })}
	w := &workerState{name: "w-test", jobs: make(map[int]*wjob),
		resolve: func(string) (exec.Job, bool) { return job, true }}
	epoch := w.install(conn)
	opts := exec.Options{Mappers: 4, Reducers: 2}
	opts.Normalize()
	w.openJob(encode(&jobStart{7, "identity", opts}))
	defer w.closeJob(7)

	done := make(chan struct{})
	go func() {
		defer close(done)
		w.startReduce(epoch, encode(&reduceTask{7, 1, 1 << 40, nil}))
	}()
	typ, payload, err := readMsg(bufio.NewReader(coord))
	<-done
	if err != nil || typ != msgError {
		t.Fatalf("reduce task for 2^40 maps: frame %q err=%v, want an 'E'", typ, err)
	}
	var te taskError
	if err := decode(payload, &te); err != nil {
		t.Fatal(err)
	}
	if te.job != 7 || te.replyKind != msgReduceDone || te.id != 1 || !strings.Contains(te.msg, "1099511627776 maps") {
		t.Fatalf("error frame %+v, want partition 1 of job 7 refused for its map count", te)
	}
	if jb := w.job(7); jb == nil || len(jb.reds) != 0 {
		t.Fatal("the refused reduce task left a reduce source registered")
	}
}

// TestWorkerRefusesUnnormalisedOptions: a 'J' whose options were never
// normalised (here Reducers 0, which exec.runMapRuns divides by) latches the
// job aborted, naming the field. Its map task errors back instead of
// panicking the worker with an integer divide by zero.
func TestWorkerRefusesUnnormalisedOptions(t *testing.T) {
	coord, conn := net.Pipe()
	defer coord.Close()
	defer conn.Close()
	job := exec.Job{Mapper: core.MapperFunc(func(k, v string, e core.Emitter) { e.Emit(k, v) })}
	w := &workerState{name: "w-test", jobs: make(map[int]*wjob),
		resolve: func(string) (exec.Job, bool) { return job, true }}
	epoch := w.install(conn)
	opts := exec.Options{Mappers: 4}
	opts.Normalize()
	opts.Reducers = 0
	w.openJob(encode(&jobStart{7, "identity", opts}))
	defer w.closeJob(7)

	w.wg.Add(1)
	go w.runMap(epoch, encode(&mapTask{7, exec.MapTask{Index: 1, Split: []core.Record{{Key: "k", Value: "v"}}}}))
	typ, payload, err := readMsg(bufio.NewReader(coord))
	if err != nil || typ != msgError {
		t.Fatalf("map task under Reducers 0: frame %q err=%v, want an 'E'", typ, err)
	}
	var te taskError
	if err := decode(payload, &te); err != nil {
		t.Fatal(err)
	}
	if te.job != 7 || te.replyKind != msgMapDone || te.id != 1 || !strings.Contains(te.msg, "Reducers") {
		t.Fatalf("error frame %+v, want map 1 of job 7 refused naming Reducers", te)
	}
	w.wg.Wait()
}

// TestCheckJobOptsNamesField: every count below its floor and every enum
// out of range is refused with an error naming the field; normalised
// options pass.
func TestCheckJobOptsNamesField(t *testing.T) {
	good := exec.Options{}
	good.Normalize()
	if err := checkJobOpts(good); err != nil {
		t.Fatalf("normalised options refused: %v", err)
	}
	for field, spoil := range map[string]func(*exec.Options){
		"Mappers":     func(o *exec.Options) { o.Mappers = 0 },
		"Reducers":    func(o *exec.Options) { o.Reducers = -1 },
		"BatchSize":   func(o *exec.Options) { o.BatchSize = 0 },
		"QueueCap":    func(o *exec.Options) { o.QueueCap = 0 },
		"MergeFanIn":  func(o *exec.Options) { o.MergeFanIn = 1 },
		"Mode":        func(o *exec.Options) { o.Mode = exec.Pipelined + 1 },
		"Store":       func(o *exec.Options) { o.Store = store.KV + 1 },
		"Compression": func(o *exec.Options) { o.Compression = codec.DeltaBlock + 1 },
	} {
		o := good
		spoil(&o)
		if err := checkJobOpts(o); err == nil || !strings.Contains(err.Error(), field+" = ") {
			t.Errorf("%s out of range: err %v, want one naming the field", field, err)
		}
	}
}
