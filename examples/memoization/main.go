// Memoization (the paper's DryadInc future-work extension): map outputs are
// cached across job runs keyed by chunk content, so re-running WordCount
// over an unchanged corpus skips every map task.
//
//	go run ./examples/memoization
package main

import (
	"fmt"

	"blmr/internal/apps"
	"blmr/internal/harness"
	"blmr/internal/simmr"
)

func main() {
	ds := harness.WordCountData(4)
	app := apps.WordCount()
	memo := simmr.NewMemoCache()

	run := func() *simmr.Result {
		e := simmr.NewEngine(simmr.Config{
			Cluster: harness.PaperCluster(), Replication: 3,
			ByteScale: ds.ByteScale, RecordScale: ds.RecordScale,
			Memo: memo,
		})
		f := e.Ingest("in", ds.Splits)
		return e.Run(simmr.JobSpec{
			Job: app, Reducers: 60, Mode: simmr.Pipelined, Costs: harness.CalibWordCount,
		}, f)
	}

	cold := run()
	warm := run()
	fmt.Printf("cold run: %6.1fs  (memo hits %d/%d)\n", cold.Completion, cold.MemoHits, cold.MapTasks)
	fmt.Printf("warm run: %6.1fs  (memo hits %d/%d)\n", warm.Completion, warm.MemoHits, warm.MapTasks)
	fmt.Printf("rerunning the unchanged job was %.1fx faster; outputs identical: %v\n",
		cold.Completion/warm.Completion, len(cold.Output) == len(warm.Output))
}
