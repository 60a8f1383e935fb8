package main

import (
	"errors"
	"testing"
	"time"

	"blmr/internal/core"
	"blmr/internal/shuffle"
	"blmr/internal/sortx"
)

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, tc := range []struct{ p, want float64 }{{0, 1}, {50, 2.5}, {75, 3.25}, {100, 4}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, tc.p, got, tc.want)
		}
	}
	if xs[0] != 4 {
		t.Error("percentile sorted its argument in place")
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one sample = %v, want 7", got)
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{9, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90},
		{200, 95}, {400, 95}, {999, 95}, {1000, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	iv := func(a, b int) interval { return interval{ms(a), ms(b)} }
	for _, tc := range []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"no children", nil, ms(100)},
		{"disjoint siblings", []interval{iv(10, 20), iv(50, 80)}, ms(60)},
		{"nested child counts once", []interval{iv(10, 60), iv(20, 30)}, ms(50)},
		{"overlapping siblings count once", []interval{iv(10, 40), iv(30, 70)}, ms(40)},
		{"unsorted input", []interval{iv(50, 80), iv(10, 20)}, ms(60)},
		{"child clipped to the span", []interval{iv(-20, 10), iv(90, 150)}, ms(80)},
		{"child outside the span", []interval{iv(120, 150)}, ms(100)},
		{"children cover everything", []interval{iv(0, 50), iv(50, 100)}, 0},
	} {
		if got := selfTime(0, ms(100), tc.children); got != tc.want {
			t.Errorf("%s: self time = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestMultisetEqual(t *testing.T) {
	rec := func(k, v string) core.Record { return core.Record{Key: k, Value: v} }
	want := sortedRecords([]core.Record{rec("b", "1"), rec("a", "2"), rec("a", "1"), rec("a", "1")})
	if want[0] != rec("a", "1") || want[2] != rec("a", "2") || want[3] != rec("b", "1") {
		t.Fatalf("sortedRecords = %v", want)
	}
	for _, tc := range []struct {
		name string
		got  []core.Record
		same bool
	}{
		{"another order", []core.Record{rec("a", "1"), rec("b", "1"), rec("a", "1"), rec("a", "2")}, true},
		{"a duplicate missing", []core.Record{rec("a", "1"), rec("b", "1"), rec("a", "2")}, false},
		{"a duplicate traded for another", []core.Record{rec("a", "1"), rec("b", "1"), rec("a", "2"), rec("a", "2")}, false},
		{"a value changed", []core.Record{rec("a", "1"), rec("b", "2"), rec("a", "1"), rec("a", "2")}, false},
		{"empty", nil, false},
	} {
		if got := multisetEqual(tc.got, want); got != tc.same {
			t.Errorf("%s: multisetEqual = %v, want %v", tc.name, got, tc.same)
		}
	}
	if !multisetEqual(nil, nil) {
		t.Error("two empty outputs differ")
	}
}

// TestLayerTimesAccountsForEveryTaskNanosecond: self times plus the time
// inside child calls plus accumulated run reads add up to the task spans
// exactly, and time no task covers is unattributed.
func TestLayerTimesAccountsForEveryTaskNanosecond(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	jt := &jobTrace{start: 0, end: ms(100), tasks: []*taskTrace{
		{isMap: true, start: ms(10), end: ms(50), children: []span{
			{name: spanSend, start: ms(12), end: ms(20)},
			{name: spanSinkClose, start: ms(45), end: ms(50)},
		}},
		{start: ms(30), end: ms(90), brief: map[string]*tally{spanRunRead: {total: ms(7), calls: 70}, spanRuns: {total: ms(1), calls: 1}}, children: []span{
			{name: spanRuns, start: ms(30), end: ms(54)},
		}},
	}}
	lt := jt.layerTimes()
	if lt.mapSelf != ms(27) || lt.reduceSelf != ms(28) {
		t.Errorf("self times: map %v reduce %v, want 27ms and 28ms", lt.mapSelf, lt.reduceSelf)
	}
	if lt.sendWait != ms(8) || lt.seal != ms(5) || lt.sourceWait != ms(25) || lt.runRead != ms(7) {
		t.Errorf("waits: %+v", lt)
	}
	if lt.taskTotal != ms(100) || lt.accounted != lt.taskTotal {
		t.Errorf("accounted %v of %v task time", lt.accounted, lt.taskTotal)
	}
	// Tasks cover [10, 90) of a 100 ms job.
	if got := lt.unattributedFrac; got < 0.1999 || got > 0.2001 {
		t.Errorf("unattributed share = %v, want 0.2", got)
	}
}

type fakeRun struct {
	sortx.Run
	closed bool
}

func (r *fakeRun) Err() error   { return errors.New("read failed") }
func (r *fakeRun) Close() error { r.closed = true; return nil }

type fakeSource struct{ shuffle.ReduceSource }

func (fakeSource) FetchBytes() int64 { return 42 }

// TestWrappersForwardOptionalInterfaces: exec and sortx discover FetchBytes,
// Err and Close by type assertion, so a wrapper that hid them would lose
// fetch bytes and read errors and leak run handles without failing anything.
func TestWrappersForwardOptionalInterfaces(t *testing.T) {
	inner := &fakeRun{Run: sortx.NewSliceRun(nil)}
	var run sortx.Run = &tracedRun{Run: inner, read: &tally{}}
	if src, ok := run.(sortx.Source); !ok || src.Err() == nil {
		t.Error("traced run hides the inner run's Err")
	}
	if c, ok := run.(interface{ Close() error }); !ok || c.Close() != nil || !inner.closed {
		t.Error("traced run does not close the inner run")
	}
	plain := &tracedRun{Run: sortx.NewSliceRun(nil), read: &tally{}}
	if plain.Err() != nil || plain.Close() != nil {
		t.Error("traced run invents an error for a run with no Err / Close")
	}
	if got := (&tracedSource{ReduceSource: fakeSource{}}).FetchBytes(); got != 42 {
		t.Errorf("traced source reports %d fetch bytes, want 42", got)
	}
}

func TestDisagreements(t *testing.T) {
	timed := func(wall, rate float64) *report {
		return &report{workload: "wc_inproc", metrics: map[string]metricValue{
			"setup_s": {value: 1}, "job_wall_s": {value: wall}, "records_per_s": {value: rate}, "submit_p50_ms": {value: wall * 1e3},
		}}
	}
	traced := func(workload string, records float64) *report {
		r := &report{workload: workload, traced: true, metrics: map[string]metricValue{}}
		for _, name := range exactCounts {
			r.set(name, 5, 0)
		}
		r.set("shuffle.records", records, 0)
		return r
	}
	within := 1 + boundOf("job_wall_s")/2
	if bad := disagreements([]*report{timed(1, 100), traced("wc_inproc", 7)}, []*report{timed(within, 100/within), traced("wc_inproc", 7)}); len(bad) != 0 {
		t.Errorf("passes within the bounds disagree: %v", bad)
	}
	beyond := 1 + 2*boundOf("job_wall_s")
	if bad := disagreements([]*report{timed(1, 100)}, []*report{timed(beyond, 100)}); len(bad) != 2 {
		t.Errorf("want job_wall_s and submit_p50_ms flagged, got %v", bad)
	}
	if bad := disagreements([]*report{timed(1, 100)}, []*report{timed(1, 100/beyond)}); len(bad) != 1 {
		t.Errorf("want records_per_s flagged, got %v", bad)
	}
	if bad := disagreements([]*report{traced("sort_tcp_delta", 7)}, []*report{traced("sort_tcp_delta", 8)}); len(bad) != 1 {
		t.Errorf("want the differing exact count flagged, got %v", bad)
	}
	if bad := disagreements([]*report{traced("cluster_wc", 7)}, []*report{traced("cluster_wc", 8)}); len(bad) != 0 {
		t.Errorf("counts of a multi-process workload need not repeat, got %v", bad)
	}
}
