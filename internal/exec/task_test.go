package exec

import (
	"strconv"
	"testing"

	"blmr/internal/core"
)

// nopSink is a run-discipline MapSink that keeps nothing.
type nopSink struct{}

func (nopSink) Batch() []core.Record                    { return nil }
func (nopSink) Send(int, []core.Record) error           { return nil }
func (nopSink) PublishWave([][]core.Record, bool) error { return nil }
func (nopSink) Close() error                            { return nil }

// TestMapRunsPresizeFromProbe: a map task with no spill budget sizes its
// partitions from the split's own expansion, so a mapper emitting four
// records per input record grows each partition at most twice (the
// extrapolation, then at most one doubling) instead of re-copying it at
// append's 1.25x about six times. At sixteen records per input, doubling
// from the identity-shaped hint alone would take four steps; the probe
// still takes at most two. Growth is what the task allocates beyond the
// same task over an empty split.
func TestMapRunsPresizeFromProbe(t *testing.T) {
	const reducers, n = 4, 20000
	split := make([]core.Record, n)
	for i := range split {
		split[i] = core.Record{Key: strconv.Itoa(i), Value: "1"}
	}
	opts := Options{Reducers: reducers, Mode: Pipelined}
	for _, fan := range []int{4, 16} {
		job := Job{Mapper: core.MapperFunc(func(k, v string, e core.Emitter) {
			for range fan {
				e.Emit(k, v)
			}
		})}
		allocs := func(split []core.Record) float64 {
			return testing.AllocsPerRun(20, func() {
				if _, err := runMapRuns(job, opts, MapTask{Split: split}, nopSink{}); err != nil {
					t.Fatal(err)
				}
			})
		}
		if growth := allocs(split) - allocs(split[:0]); growth > 2*reducers {
			t.Errorf("a %dx-expanding map task made %.0f growth allocations over %d partitions, want at most 2 each",
				fan, growth, reducers)
		}
	}
}
