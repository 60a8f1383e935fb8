package mpexec_test

import (
	"testing"
	"time"

	"blmr/internal/apps"
	"blmr/internal/core"
	blexec "blmr/internal/exec"
	"blmr/internal/mpexec"
	"blmr/internal/mr"
	"blmr/internal/shuffle"
	"blmr/internal/workload"
)

// TestRecycledBuffersKeepOutputs: map tasks recycle record-header buffers
// through a process-wide free list — partition buffers handed back by the
// run exchange once a final wave is sealed, and on a worker each decoded
// split. Jobs of different shapes back to back on one process therefore
// reuse each other's buffers: barrier, pipelined and combining WordCount
// interleaved with Sort. Each must still match the single-process
// in-memory engine, through mr.Run over the TCP exchange (this process)
// and through a 2-worker LocalCluster: byte-identical in barrier mode, as
// a multiset in pipelined mode.
func TestRecycledBuffersKeepOutputs(t *testing.T) {
	lc, err := mpexec.SpawnLocal(nil, 2, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Teardown()
	text := workload.Text(51, 2000, 400, 6)
	keys := workload.UniformKeys(52, 4000, 1<<30)
	type jobCase struct {
		job   apps.App
		input []core.Record
		mode  blexec.Mode
		spill int64
	}
	var cases []jobCase
	for _, mode := range []blexec.Mode{blexec.Barrier, blexec.Pipelined} {
		cases = append(cases,
			jobCase{apps.WordCount(), text, mode, 0},
			jobCase{apps.Sort(), keys, mode, 0},
			jobCase{combinedWordCount(), text, mode, 0},
			jobCase{apps.Sort(), keys, mode, 16 << 10},
			jobCase{combinedWordCount(), text, mode, 16 << 10},
		)
	}
	for _, c := range cases {
		opts := blexec.Options{Mappers: 4, Reducers: 3, Mode: c.mode, SpillBytes: c.spill}
		ref, err := mr.Run(c.job, c.input, blexec.Options{Mappers: 4, Reducers: 3, Mode: c.mode})
		if err != nil {
			t.Fatalf("%s %v: in-proc reference: %v", c.job.Name, c.mode, err)
		}
		tcp := opts
		tcp.Transport, tcp.SpillDir = shuffle.TCP, t.TempDir()
		local, err := mr.Run(c.job, c.input, tcp)
		if err != nil {
			t.Fatalf("%s %v spill %d: mr.Run over TCP: %v", c.job.Name, c.mode, c.spill, err)
		}
		cluster, err := lc.Coord.Run(c.job, c.input, opts)
		if err != nil {
			t.Fatalf("%s %v spill %d: cluster: %v", c.job.Name, c.mode, c.spill, err)
		}
		for _, got := range []*mr.Result{local, cluster} {
			if c.mode == blexec.Pipelined {
				requireSameSorted(t, ref.Output, got.Output)
				continue
			}
			if len(got.Output) != len(ref.Output) {
				t.Fatalf("%s barrier spill %d: %d records vs %d", c.job.Name, c.spill, len(got.Output), len(ref.Output))
			}
			for i := range got.Output {
				if got.Output[i] != ref.Output[i] {
					t.Fatalf("%s barrier spill %d: record %d: %v vs %v", c.job.Name, c.spill, i, got.Output[i], ref.Output[i])
				}
			}
		}
	}
}
