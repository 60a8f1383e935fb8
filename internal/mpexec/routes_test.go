package mpexec

import (
	"bufio"
	"net"
	"strings"
	"testing"

	"blmr/internal/exec"
	"blmr/internal/shuffle"
)

// shortWave has one span where a two-partition job needs two: projected onto
// partition 1 it would route nothing, and that partition's records would be
// dropped without an error.
var shortWave = shuffle.Wave{FileID: 1, CRC: 11, Spans: []shuffle.Span{{Off: 0, N: 10}}}

// TestRunMapRejectsShortWaves: an 'm' reply whose waves do not each carry a
// span per partition fails the map task and installs no route.
func TestRunMapRejectsShortWaves(t *testing.T) {
	coordSide, workerSide := net.Pipe()
	defer workerSide.Close()
	c := &Coordinator{jobs: make(map[int]*jobRun)}
	w := &remoteWorker{c: c, name: "w1", addr: "127.0.0.1:1", conn: coordSide, br: bufio.NewReader(coordSide),
		pending: make(map[pendKey]chan asyncReply), dead: make(chan struct{})}
	go w.readLoop()
	jr := &jobRun{id: 7, c: c, nMaps: 1, nParts: 2, routes: make(map[int]*mapRoute), active: make(map[int]*jobWorker)}
	jw := &jobWorker{j: jr, w: w}

	go func() {
		br := bufio.NewReader(workerSide)
		if typ, _, err := readMsg(br); err != nil || typ != msgMapTask {
			return
		}
		_ = writeMsg(workerSide, msgMapDone, encode(&mapDone{job: 7, index: 0, attempt: 1, waves: []shuffle.Wave{shortWave}}))
	}()
	_, err := jw.RunMap(exec.MapTask{Index: 0, Attempt: 1})
	if err == nil || !strings.Contains(err.Error(), "1 spans") {
		t.Fatalf("RunMap over a one-span wave of a two-partition job: err = %v, want a span-count error", err)
	}
	if len(jr.routes) != 0 {
		t.Fatalf("the rejected reply installed routes %v", jr.routes)
	}
}

// TestReattachReexecutesShortWaves: a journaled map whose waves do not each
// carry a span per partition is not re-attached, even when a returning
// worker advertises its files intact; the map re-executes instead.
func TestReattachReexecutesShortWaves(t *testing.T) {
	full := shuffle.Wave{FileID: 2, CRC: 22, Spans: []shuffle.Span{{Off: 0, N: 10}, {Off: 10, N: 5}}}
	w := &remoteWorker{name: "w1", addr: "127.0.0.1:1", dead: make(chan struct{}),
		sealed: []sealedJob{{7, []sealedFile{{1, 11}, {2, 22}}}}}
	jr := &jobRun{id: 7, nMaps: 2, nParts: 2, routes: make(map[int]*mapRoute)}
	pre := jr.reattach([]*remoteWorker{w}, map[int]*journalMap{
		0: {attempt: 1, worker: "w1", waves: []shuffle.Wave{shortWave}},
		1: {attempt: 1, worker: "w1", waves: []shuffle.Wave{full}},
	})
	if len(pre) != 1 || pre[0] != 1 {
		t.Fatalf("re-attached maps %v, want only map 1 (map 0's wave is short)", pre)
	}
	if _, ok := jr.routes[0]; ok {
		t.Fatal("map 0 was routed from a short wave")
	}
}
