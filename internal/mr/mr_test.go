package mr

import (
	"strconv"
	"testing"

	"blmr/internal/apps"
	"blmr/internal/core"
	"blmr/internal/store"
	"blmr/internal/workload"
)

func runModes(t *testing.T, app apps.App, input []core.Record, opts Options) (b, p *Result) {
	t.Helper()
	ob := opts
	ob.Mode = Barrier
	b, err := Run(app, input, ob)
	if err != nil {
		t.Fatalf("barrier: %v", err)
	}
	op := opts
	op.Mode = Pipelined
	p, err = Run(app, input, op)
	if err != nil {
		t.Fatalf("pipelined: %v", err)
	}
	return b, p
}

func requireSame(t *testing.T, name string, a, b []core.Record) {
	t.Helper()
	sa := append([]core.Record(nil), a...)
	sb := append([]core.Record(nil), b...)
	SortOutput(sa)
	SortOutput(sb)
	if len(sa) != len(sb) {
		t.Fatalf("%s: %d vs %d records", name, len(sa), len(sb))
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("%s: record %d: %v vs %v", name, i, sa[i], sb[i])
		}
	}
}

func TestWordCountBothModes(t *testing.T) {
	input := workload.Text(1, 5000, 1000, 10)
	b, p := runModes(t, apps.WordCount(), input, Options{Mappers: 4, Reducers: 4})
	requireSame(t, "wordcount", b.Output, p.Output)
	total := 0
	for _, r := range p.Output {
		n, _ := strconv.Atoi(r.Value)
		total += n
	}
	if total != 5000*10 {
		t.Fatalf("total words %d, want %d", total, 50000)
	}
}

func TestSortBothModes(t *testing.T) {
	input := workload.UniformKeys(2, 10000, 1<<40)
	b, p := runModes(t, apps.Sort(), input, Options{Mappers: 4, Reducers: 3})
	requireSame(t, "sort", b.Output, p.Output)
	if len(b.Output) != len(input) {
		t.Fatalf("lost records: %d of %d", len(b.Output), len(input))
	}
}

func TestKNNBothModes(t *testing.T) {
	d := workload.KNN(3, 2000, 50, 1_000_000)
	app := apps.KNN(10, d.Experimental)
	b, p := runModes(t, app, workload.KNNRecords(d, 0), Options{Mappers: 4, Reducers: 4})
	requireSame(t, "knn", b.Output, p.Output)
	if len(b.Output) != 500 {
		t.Fatalf("knn output %d, want 500", len(b.Output))
	}
}

func TestLastFMBothModes(t *testing.T) {
	input := workload.Listens(4, 20000, 50, 500)
	b, p := runModes(t, apps.LastFM(), input, Options{Mappers: 4, Reducers: 4})
	requireSame(t, "lastfm", b.Output, p.Output)
}

func TestBlackScholesBothModes(t *testing.T) {
	params := apps.DefaultBSParams()
	params.Iterations = 5000
	params.Samples = 50
	input := workload.OptionSeeds(5, 8)
	b, p := runModes(t, apps.BlackScholes(params), input, Options{Mappers: 4, Reducers: 1})
	requireSame(t, "blackscholes", b.Output, p.Output)
}

func TestGACountsBothModes(t *testing.T) {
	input := workload.Individuals(6, 500, 64)
	b, p := runModes(t, apps.GA(50), input, Options{Mappers: 4, Reducers: 2})
	if len(b.Output) != len(input) || len(p.Output) != len(input) {
		t.Fatalf("GA offspring %d/%d, want %d", len(b.Output), len(p.Output), len(input))
	}
}

func TestPipelinedStores(t *testing.T) {
	input := workload.Text(7, 4000, 2000, 8)
	var ref []core.Record
	for _, kind := range []store.Kind{store.InMemory, store.SpillMerge, store.KV} {
		opts := Options{Mappers: 4, Reducers: 2, Mode: Pipelined, Store: kind}
		if kind == store.SpillMerge {
			opts.SpillBytes = 16 << 10 // the one settable budget; disk-backed
		}
		res, err := Run(apps.WordCount(), input, opts)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if kind == store.SpillMerge && res.Spills == 0 {
			t.Fatal("expected spills at a 16KB budget")
		}
		if ref == nil {
			ref = res.Output
			continue
		}
		requireSame(t, kind.String(), ref, res.Output)
	}
}

func TestValidation(t *testing.T) {
	if _, err := Run(Job{}, nil, Options{}); err == nil {
		t.Fatal("expected error for missing mapper")
	}
	app := apps.WordCount()
	j := app
	j.NewGroup = nil
	if _, err := Run(j, nil, Options{Mode: Barrier}); err == nil {
		t.Fatal("expected error for missing group reducer")
	}
	j = app
	j.NewStream = nil
	if _, err := Run(j, nil, Options{Mode: Pipelined}); err == nil {
		t.Fatal("expected error for missing stream reducer")
	}
	j = app
	j.Merger = nil
	if _, err := Run(j, nil, Options{Mode: Pipelined, Store: store.SpillMerge}); err == nil {
		t.Fatal("expected error for missing merger")
	}
}

func TestEmptyInput(t *testing.T) {
	b, p := runModes(t, apps.WordCount(), nil, Options{Mappers: 2, Reducers: 2})
	if len(b.Output) != 0 || len(p.Output) != 0 {
		t.Fatal("empty input must produce empty output")
	}
}

func TestSingleRecord(t *testing.T) {
	input := []core.Record{{Key: "d", Value: "hello hello"}}
	b, p := runModes(t, apps.WordCount(), input, Options{Mappers: 8, Reducers: 8})
	requireSame(t, "single", b.Output, p.Output)
	if len(b.Output) != 1 || b.Output[0].Value != "2" {
		t.Fatalf("output %v", b.Output)
	}
}

func TestManyReducersFewKeys(t *testing.T) {
	input := []core.Record{{Key: "d", Value: "a b c"}}
	_, p := runModes(t, apps.WordCount(), input, Options{Mappers: 2, Reducers: 16})
	if len(p.Output) != 3 {
		t.Fatalf("output %v", p.Output)
	}
}

func TestWallClockRecorded(t *testing.T) {
	input := workload.Text(8, 2000, 500, 8)
	res, err := Run(apps.WordCount(), input, Options{Mappers: 2, Reducers: 2, Mode: Pipelined})
	if err != nil {
		t.Fatal(err)
	}
	if res.Wall <= 0 {
		t.Fatal("wall clock not recorded")
	}
}
