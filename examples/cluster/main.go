// Multi-process cluster execution: the exec/shuffle split running across
// real OS processes. The demo re-executes itself as N worker processes
// (default 3); each worker registers with the coordinator over loopback
// TCP, receives map splits, seals its map output as codec-encoded spill
// runs, and serves them to the other workers' reduce tasks through its own
// run-server — the run-exchange discipline a real cluster shuffle uses.
// WordCount and Sort both run in barrier mode, and each output is checked
// byte-for-byte against the single-process in-memory engine.
//
//	go run ./examples/cluster
//	go run ./examples/cluster -workers 2
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"blmr/internal/apps"
	"blmr/internal/core"
	blexec "blmr/internal/exec"
	"blmr/internal/mpexec"
	"blmr/internal/mr"
	"blmr/internal/workload"
)

var (
	workers     = flag.Int("workers", 3, "worker subprocesses")
	workerCoord = flag.String("worker-coord", "", "internal: run as a worker, dialing this coordinator")
	workerApp   = flag.String("worker-app", "", "internal: app the worker executes")
)

func appByName(name string) apps.App {
	if name == "sort" {
		return apps.Sort()
	}
	return apps.WordCount()
}

func inputFor(name string) []core.Record {
	if name == "sort" {
		return workload.UniformKeys(7, 120_000, 1<<40)
	}
	return workload.Text(7, 20_000, 2_000, 10)
}

func opts() blexec.Options {
	return blexec.Options{Mappers: 6, Reducers: 4, Mode: mr.Barrier}
}

func main() {
	flag.Parse()
	if *workerCoord != "" {
		// Worker role: same binary, same job code, serve until released.
		if err := mpexec.Serve(*workerCoord, appByName(*workerApp), opts()); err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("=== %d-worker loopback-TCP cluster vs single process ===\n", *workers)
	for _, name := range []string{"wordcount", "sort"} {
		app := appByName(name)
		input := inputFor(name)

		ref, err := mr.Run(app, input, opts())
		fatal(err)

		res, err := runCluster(name, input)
		fatal(err)

		if len(res.Output) != len(ref.Output) {
			fatal(fmt.Errorf("%s: cluster produced %d records, single process %d",
				name, len(res.Output), len(ref.Output)))
		}
		for i := range res.Output {
			if res.Output[i] != ref.Output[i] {
				fatal(fmt.Errorf("%s: record %d differs: %v vs %v",
					name, i, res.Output[i], ref.Output[i]))
			}
		}
		fmt.Printf("%-10s %7d in / %7d out  %6.1fms wall  %5.1fMB sealed runs  output byte-identical\n",
			name, len(input), len(res.Output), res.Wall.Seconds()*1e3,
			float64(res.SpilledBytes)/(1<<20))
	}
	fmt.Println("every record crossed a process boundary as a sealed, codec-encoded spill run")
}

// runCluster spawns the workers, coordinates one job, and tears down.
func runCluster(appName string, input []core.Record) (*mr.Result, error) {
	cluster, err := mpexec.SpawnLocal([]string{"-worker-app", appName}, *workers, 60*time.Second)
	if err != nil {
		return nil, err
	}
	defer cluster.Teardown()
	return cluster.Coord.Run(appByName(appName), input, opts())
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
