package mpexec

import (
	"bufio"
	"bytes"
	"net"
	"strings"
	"testing"

	"blmr/internal/core"
	"blmr/internal/exec"
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
