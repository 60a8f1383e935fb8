package main

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"blmr/internal/apps"
	"blmr/internal/codec"
	"blmr/internal/harness"
	"blmr/internal/mpexec"
	"blmr/internal/mr"
	"blmr/internal/shuffle"
	"blmr/internal/simmr"
	"blmr/internal/store"
)

// The flag sets the table below runs: the CI cluster/chaos line with every
// real-engine flag set, the CI chaos-smoke serve line, and a simulator line
// with every simulator flag set.
const (
	batchArgs = "-app sort -size 0.5 -mode barrier -transport tcp -workers 3 -reducers 4 -map-tasks 6 " +
		"-spill-bytes 65536 -compress delta -merge-fan-in 8 -decode-workers 2 -store kv -staged " +
		"-speculative -combine -verify -chaos-kill 60ms"
	serveArgs = "-serve -workers 3 -policy least-loaded -max-concurrent 3 -max-queued 5 -state-dir /tmp/st " +
		"-map-tasks 6 -mode barrier -reducers 3 -spill-bytes 8192 -compress block"
	simArgs = "-app wordcount -size 1 -mode barrier -store spill -reducers 10 -heap 64 -spill 100 " +
		"-spill-bytes 2097152 -workers 4 -compress delta -speculative -combine -staged -snapshot 5"
)

// TestFlagForms pins what each form of the command builds from its flags:
// the batch and -worker-coord forms' mr.Options, the -serve form's
// ServiceConfig (and its workers' base mr.Options), the -submit form's
// request and the simulator form's RunSpec. A -worker-coord worker is its
// coordinator's command line plus that one flag, and must come out with the
// coordinator's mr.Options. On every engine -combine installs the combiner
// only for an aggregation-class app.
func TestFlagForms(t *testing.T) {
	yes, no := true, false
	batchOpts := mr.Options{
		Mappers: 6, Reducers: 4, Mode: mr.Barrier, Transport: shuffle.TCP, Store: store.KV,
		SpillBytes: 65536, MergeFanIn: 8, DecodeWorkers: 2, Compression: codec.DeltaBlock,
		Staged: true, Speculative: true,
	}
	serveOpts := mr.Options{Mappers: 6, Reducers: 3, Mode: mr.Barrier, SpillBytes: 8192, Compression: codec.Block}
	for _, tc := range []struct {
		name, args string
		mr         *mr.Options
		svc        *mpexec.ServiceConfig
		req        *submitRequest
		spec       *harness.RunSpec
		combiner   *bool
	}{
		{name: "batch, defaults", args: "-transport inproc",
			mr: &mr.Options{Reducers: 60, Mode: mr.Pipelined}},
		{name: "batch, every real-engine flag", args: batchArgs, mr: &batchOpts},
		{name: "batch worker", args: batchArgs + " -worker-coord 127.0.0.1:9", mr: &batchOpts},
		{name: "serve", args: serveArgs, mr: &serveOpts,
			svc: &mpexec.ServiceConfig{MaxQueued: 5, MaxConcurrent: 3, Policy: "least-loaded", StateDir: "/tmp/st"}},
		{name: "serve worker", args: serveArgs + " -worker-coord 127.0.0.1:9", mr: &serveOpts},
		{name: "serve, defaults", args: "-serve -workers 2",
			svc: &mpexec.ServiceConfig{MaxQueued: 16, MaxConcurrent: 2}},
		{name: "submit", args: "-submit -addr h:1 -app sort -size 2 -mode barrier -reducers 2 -spill-bytes 65536 -compress delta -verify -chaos-kill 150ms",
			req: &submitRequest{App: "sort", Size: 2, Mode: "barrier", Reducers: 2, SpillBytes: 65536,
				Compress: "delta", Verify: true, ChaosKillMs: 150}},
		{name: "submit, defaults", args: "-submit",
			req: &submitRequest{App: "wordcount", Size: 4, Mode: "pipelined", Reducers: 60, Compress: "none"}},
		{name: "simulator, every simulator flag", args: simArgs,
			spec: &harness.RunSpec{JobSpec: simmr.JobSpec{Mode: simmr.Barrier, Reducers: 10, Store: store.SpillMerge,
				HeapBudget: 64 << 20, SpillThreshold: 100 << 20, SpillBytes: 2097152, Workers: 4,
				Compression: codec.DeltaBlock, Speculative: true, SnapshotPeriod: 5}}},
		{name: "simulator, defaults", args: "",
			spec: &harness.RunSpec{JobSpec: simmr.JobSpec{Mode: simmr.Pipelined, Reducers: 60,
				SpillThreshold: 240 << 20}}},
		{name: "combine, aggregation class", args: "-app wordcount -size 0.01 -combine", combiner: &yes},
		{name: "combine, another class", args: "-app sort -size 0.01 -combine", combiner: &no},
		{name: "no combine", args: "-app wordcount -size 0.01", combiner: &no},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o, err := parseFlags(strings.Fields(tc.args))
			if err != nil {
				t.Fatal(err)
			}
			if tc.mr != nil && !reflect.DeepEqual(o.mrOptions(), *tc.mr) {
				t.Errorf("mr.Options:\n got %+v\nwant %+v", o.mrOptions(), *tc.mr)
			}
			if tc.svc != nil {
				got := o.serviceConfig()
				if got.Resolver == nil {
					t.Error("ServiceConfig.Resolver is nil: a resumed journal's job names could not be resolved")
				}
				got.Resolver = nil
				if !reflect.DeepEqual(got, *tc.svc) {
					t.Errorf("ServiceConfig:\n got %+v\nwant %+v", got, *tc.svc)
				}
			}
			if tc.req != nil && o.submitRequest() != *tc.req {
				t.Errorf("submitRequest:\n got %+v\nwant %+v", o.submitRequest(), *tc.req)
			}
			if tc.spec != nil {
				got := o.runSpec(apps.App{}, harness.Dataset{}, simmr.CostModel{})
				if !reflect.DeepEqual(got, *tc.spec) {
					t.Errorf("RunSpec:\n got %+v\nwant %+v", got, *tc.spec)
				}
			}
			if tc.combiner != nil {
				app, _, _, err := o.loadApp()
				if err != nil {
					t.Fatal(err)
				}
				if got := app.Combiner != nil; got != *tc.combiner {
					t.Errorf("%s job has a combiner: %v, want %v", app.Name, got, *tc.combiner)
				}
			}
		})
	}
}

// TestFlagSurface: 32 flags, a bad enumerated value is a usage error, and the
// two flags whose options became constants are gone rather than ignored.
func TestFlagSurface(t *testing.T) {
	n := 0
	(&options{}).flagSet().VisitAll(func(*flag.Flag) { n++ })
	if n != 32 {
		t.Errorf("%d flags, want 32", n)
	}
	for _, args := range []string{
		"-mode staged", "-store disk", "-compress zstd", "-transport udp",
		"-heartbeat 10ms", "-spec-threshold 0.5",
	} {
		fs := (&options{}).flagSet()
		fs.SetOutput(io.Discard)
		if err := fs.Parse(strings.Fields(args)); err == nil {
			t.Errorf("%q parsed", args)
		}
	}
}

// TestSubmissionInheritsServeFlags: a submission's zero fields take the
// serve process's own flags (not a hard-coded 4 reducers, pipelined, no
// budget, no codec), its set fields override them, and everything it cannot
// set stays the serve process's.
func TestSubmissionInheritsServeFlags(t *testing.T) {
	srv, err := parseFlags(strings.Fields("-serve -workers 3 -map-tasks 6 -mode barrier -reducers 7 -spill-bytes 4096 -compress delta"))
	if err != nil {
		t.Fatal(err)
	}
	inherited := mr.Options{Mappers: 6, Reducers: 7, Mode: mr.Barrier, SpillBytes: 4096, Compression: codec.DeltaBlock}
	o, err := srv.withRequest(submitRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if got := o.mrOptions(); !reflect.DeepEqual(got, inherited) || o.app != "wordcount" || o.size != 0.01 {
		t.Errorf("empty request runs %s at size %v under %+v, want wordcount at 0.01 under %+v", o.app, o.size, got, inherited)
	}
	o, err = srv.withRequest(submitRequest{App: "sort", Size: 2, Mode: "pipelined", Reducers: 2,
		SpillBytes: 65536, Compress: "none", Verify: true, ChaosKillMs: 150})
	if err != nil {
		t.Fatal(err)
	}
	set := mr.Options{Mappers: 6, Reducers: 2, Mode: mr.Pipelined, SpillBytes: 65536}
	if got := o.mrOptions(); !reflect.DeepEqual(got, set) || o.app != "sort" || o.size != 2 || !o.verify || o.chaosKill.Milliseconds() != 150 {
		t.Errorf("full request runs %s at size %v under %+v (verify %v, chaos %v), want sort at 2 under %+v",
			o.app, o.size, got, o.verify, o.chaosKill, set)
	}
	if !reflect.DeepEqual(srv.mrOptions(), inherited) {
		t.Errorf("a submission changed the serve process's own options: %+v", srv.mrOptions())
	}
	for _, req := range []submitRequest{{Mode: "staged"}, {Compress: "zstd"}} {
		if _, err := srv.withRequest(req); err == nil {
			t.Errorf("request %+v accepted", req)
		}
	}
}
