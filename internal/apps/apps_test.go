package apps

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"

	"blmr/internal/core"
	"blmr/internal/sortx"
	"blmr/internal/store"
	"blmr/internal/workload"
)

type sink struct{ recs []core.Record }

func (s *sink) Write(k, v string) { s.recs = append(s.recs, core.Record{Key: k, Value: v}) }

// runApp executes app over input in both modes (in-process, no cluster) and
// returns (barrier output, stream output).
func runApp(app App, input []core.Record) (barrier, stream []core.Record) {
	var mapped []core.Record
	em := core.EmitterFunc(func(k, v string) { mapped = append(mapped, core.Record{Key: k, Value: v}) })
	for _, r := range input {
		app.Mapper.Map(r.Key, r.Value, em)
	}

	bSorted := append([]core.Record(nil), mapped...)
	sortx.ByKey(bSorted)
	bOut := &sink{}
	gr := app.NewGroup()
	sortx.Group(bSorted, func(k string, vs []string) { gr.Reduce(k, vs, bOut) })
	if c, ok := gr.(core.Cleanup); ok {
		c.Cleanup(bOut)
	}

	sOut := &sink{}
	st := store.NewSpillStore(2048, app.Merger, nil, nil) // tiny threshold: exercise spills
	sr := app.NewStream(st)
	for _, r := range mapped {
		sr.Consume(r, sOut)
	}
	sr.Finish(sOut)
	return bOut.recs, sOut.recs
}

func sortRecs(recs []core.Record) []core.Record {
	out := append([]core.Record(nil), recs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key != out[j].Key {
			return out[i].Key < out[j].Key
		}
		return out[i].Value < out[j].Value
	})
	return out
}

func requireSameMultiset(t *testing.T, name string, a, b []core.Record) {
	t.Helper()
	sa, sb := sortRecs(a), sortRecs(b)
	if len(sa) != len(sb) {
		t.Fatalf("%s: %d vs %d records", name, len(sa), len(sb))
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("%s: record %d: %q vs %q", name, i, sa[i], sb[i])
		}
	}
}

func TestGrepFiltersAndMatchesModes(t *testing.T) {
	input := []core.Record{
		{Key: "l1", Value: "error: disk failed"},
		{Key: "l2", Value: "all good"},
		{Key: "l3", Value: "another error here"},
	}
	app := Grep("error")
	b, s := runApp(app, input)
	requireSameMultiset(t, "grep", b, s)
	if len(b) != 2 {
		t.Fatalf("grep matched %d lines, want 2", len(b))
	}
}

func TestSortProducesSortedOutput(t *testing.T) {
	input := workload.UniformKeys(1, 2000, 1_000_000)
	app := Sort()
	b, s := runApp(app, input)
	requireSameMultiset(t, "sort", b, s)
	if len(s) != len(input) {
		t.Fatalf("sort emitted %d records, want %d", len(s), len(input))
	}
	for i := 1; i < len(s); i++ {
		if s[i].Key < s[i-1].Key {
			t.Fatal("stream sort output not in key order")
		}
	}
}

func TestWordCountCounts(t *testing.T) {
	input := []core.Record{
		{Key: "d1", Value: "the quick brown fox"},
		{Key: "d2", Value: "the lazy dog the end"},
	}
	app := WordCount()
	b, s := runApp(app, input)
	requireSameMultiset(t, "wordcount", b, s)
	counts := map[string]string{}
	for _, r := range b {
		counts[r.Key] = r.Value
	}
	if counts["the"] != "3" || counts["fox"] != "1" {
		t.Fatalf("counts = %v", counts)
	}
}

func TestWordCountLargeZipf(t *testing.T) {
	input := workload.Text(3, 2000, 500, 8)
	app := WordCount()
	b, s := runApp(app, input)
	requireSameMultiset(t, "wordcount-zipf", b, s)
	total := 0
	for _, r := range b {
		n, _ := strconv.Atoi(r.Value)
		total += n
	}
	if total != 2000*8 {
		t.Fatalf("total words = %d, want %d", total, 2000*8)
	}
}

func TestKNNFindsNearest(t *testing.T) {
	// Training values on a line; experimental point at 500: nearest 3 are
	// 498, 503, 510.
	training := []uint64{100, 498, 503, 900, 510, 2000}
	var input []core.Record
	for i, v := range training {
		input = append(input, core.Record{Key: fmt.Sprintf("t%d", i), Value: core.EncodeUint64(v)})
	}
	app := KNN(3, []uint64{500})
	b, s := runApp(app, input)
	requireSameMultiset(t, "knn", b, s)
	if len(b) != 3 {
		t.Fatalf("selected %d, want 3", len(b))
	}
	var got []uint64
	for _, r := range b {
		parts := core.SplitValues(r.Value)
		got = append(got, core.DecodeUint64(parts[1]))
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	want := []uint64{498, 503, 510}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("nearest = %v, want %v", got, want)
		}
	}
}

func TestKNNEquivalenceLarger(t *testing.T) {
	d := workload.KNN(4, 800, 50, 1_000_000)
	app := KNN(10, d.Experimental)
	b, s := runApp(app, workload.KNNRecords(d, 0))
	requireSameMultiset(t, "knn-large", b, s)
	if len(b) != 50*10 {
		t.Fatalf("output = %d records, want 500", len(b))
	}
}

func TestLastFMUniqueUsers(t *testing.T) {
	input := []core.Record{
		{Key: "e1", Value: core.JoinValues("trackA", "u1")},
		{Key: "e2", Value: core.JoinValues("trackA", "u2")},
		{Key: "e3", Value: core.JoinValues("trackA", "u1")},
		{Key: "e4", Value: core.JoinValues("trackB", "u1")},
	}
	app := LastFM()
	b, s := runApp(app, input)
	requireSameMultiset(t, "lastfm", b, s)
	m := map[string]string{}
	for _, r := range b {
		m[r.Key] = r.Value
	}
	if m["trackA"] != "2" || m["trackB"] != "1" {
		t.Fatalf("unique counts = %v", m)
	}
}

func TestLastFMGenerated(t *testing.T) {
	input := workload.Listens(6, 5000, 50, 200)
	b, s := runApp(LastFM(), input)
	requireSameMultiset(t, "lastfm-gen", b, s)
	for _, r := range b {
		n, _ := strconv.Atoi(r.Value)
		if n < 1 || n > 50 {
			t.Fatalf("track %s has %d unique users (max 50)", r.Key, n)
		}
	}
}

func TestGAEmitsOneOffspringPerIndividual(t *testing.T) {
	input := workload.Individuals(7, 100, 64)
	app := GA(20)
	b, s := runApp(app, input)
	// Window contents depend on arrival order, so outputs differ between
	// modes; the GA is stochastic by nature. Counts must match exactly.
	if len(b) != len(input) || len(s) != len(input) {
		t.Fatalf("offspring: barrier=%d stream=%d, want %d", len(b), len(s), len(input))
	}
	for _, r := range s {
		if len(r.Value) != 64 {
			t.Fatalf("child genome length %d", len(r.Value))
		}
		for _, c := range r.Value {
			if c != '0' && c != '1' {
				t.Fatal("invalid genome")
			}
		}
	}
}

func TestGASelectionPressure(t *testing.T) {
	// Offspring of a window should have average fitness >= the window's
	// average (parents are the fitter half).
	input := workload.Individuals(8, 50, 128)
	var mapped []core.Record
	em := core.EmitterFunc(func(k, v string) { mapped = append(mapped, core.Record{Key: k, Value: v}) })
	app := GA(50)
	for _, r := range input {
		app.Mapper.Map(r.Key, r.Value, em)
	}
	parentAvg := 0.0
	for _, r := range mapped {
		parentAvg += float64(core.DecodeUint64(core.SplitValues(r.Value)[0]))
	}
	parentAvg /= float64(len(mapped))
	out := &sink{}
	sr := app.NewStream(store.NewMemStore())
	for _, r := range mapped {
		sr.Consume(r, out)
	}
	sr.Finish(out)
	childAvg := 0.0
	for _, r := range out.recs {
		childAvg += float64(OneMax(r.Value))
	}
	childAvg /= float64(len(out.recs))
	if childAvg < parentAvg {
		t.Fatalf("no selection pressure: children %.2f < population %.2f", childAvg, parentAvg)
	}
}

func TestOneMax(t *testing.T) {
	if OneMax("0000") != 0 || OneMax("1111") != 4 || OneMax("1010") != 2 {
		t.Fatal("OneMax wrong")
	}
}

func TestBlackScholesConvergesToAnalytic(t *testing.T) {
	p := DefaultBSParams()
	p.Iterations = 50000
	p.Samples = 50
	app := BlackScholes(p)
	input := workload.OptionSeeds(9, 8)
	b, s := runApp(app, input)
	requireSameMultiset(t, "blackscholes", b, s)
	var mean float64
	found := false
	for _, r := range b {
		if r.Key == "mean" {
			mean, _ = strconv.ParseFloat(r.Value, 64)
			found = true
		}
	}
	if !found {
		t.Fatalf("no mean in output %v", b)
	}
	want := BSAnalytic(p)
	if math.Abs(mean-want) > 0.25 {
		t.Fatalf("MC price %.3f vs analytic %.3f", mean, want)
	}
}

func TestBlackScholesStddevPositive(t *testing.T) {
	app := BlackScholes(BSParams{Spot: 100, Strike: 100, Rate: 0.05, Volatility: 0.2, Maturity: 1, Iterations: 1000, Samples: 100})
	_, s := runApp(app, workload.OptionSeeds(10, 2))
	for _, r := range s {
		if r.Key == "stddev" {
			sd, _ := strconv.ParseFloat(r.Value, 64)
			if sd <= 0 {
				t.Fatalf("stddev = %v", sd)
			}
			return
		}
	}
	t.Fatal("no stddev emitted")
}

func TestClassesMatchTable1(t *testing.T) {
	cases := map[string]core.Class{
		"grep":         core.ClassIdentity,
		"sort":         core.ClassSorting,
		"wordcount":    core.ClassAggregation,
		"knn":          core.ClassSelection,
		"lastfm":       core.ClassPostReduction,
		"ga":           core.ClassCrossKey,
		"blackscholes": core.ClassSingleReducer,
	}
	apps := []App{
		Grep("x"), Sort(), WordCount(), KNN(10, []uint64{1}), LastFM(), GA(10),
		BlackScholes(DefaultBSParams()),
	}
	for _, a := range apps {
		if cases[a.Name] != a.Class {
			t.Errorf("%s classified as %v", a.Name, a.Class)
		}
	}
}

func TestCrossoverDeterministicAndValid(t *testing.T) {
	a := strings.Repeat("1", 32)
	b := strings.Repeat("0", 32)
	c1 := crossover(a, b, 7)
	c2 := crossover(a, b, 7)
	if c1 != c2 {
		t.Fatal("crossover not deterministic")
	}
	if len(c1) != 32 {
		t.Fatalf("child length %d", len(c1))
	}
	if OneMax(c1)+OneMax(crossover(b, a, 7)) != 32 {
		t.Fatal("complementary crossovers should cover all bits")
	}
}

// TestGroupReducersKeepNoValuesSlice is the contract test for
// core.GroupReducer's lifetime rule. The barrier merge refills one values
// buffer for every group, so every in-tree group reducer — the seven of
// internal/reducers, reached through the seven apps — is run twice over the
// same merged runs: once handed a fresh copy of each group (what the merge
// allocated before), once handed the merger's own buffer, which is
// scribbled over the moment Reduce returns. A reducer that kept the slice
// would emit the scribble; the outputs must be identical record for record.
func TestGroupReducersKeepNoValuesSlice(t *testing.T) {
	knn := workload.KNN(4, 600, 40, 1_000_000)
	bs := BSParams{Spot: 100, Strike: 100, Rate: 0.05, Volatility: 0.2, Maturity: 1, Iterations: 500, Samples: 50}
	cases := []struct {
		app   App
		input []core.Record
	}{
		{Grep("word0000"), workload.Text(1, 400, 100, 6)},
		{Sort(), workload.UniformKeys(2, 3000, 400)}, // ~7 duplicates per key
		{WordCount(), workload.Text(3, 400, 100, 8)},
		{KNN(5, knn.Experimental), workload.KNNRecords(knn, 0)},
		{LastFM(), workload.Listens(6, 3000, 40, 100)},
		{GA(20), workload.Individuals(7, 100, 64)},
		{BlackScholes(bs), workload.OptionSeeds(9, 4)},
	}
	const scribble = "scribbled after Reduce returned"
	for _, c := range cases {
		var mapped []core.Record
		em := core.EmitterFunc(func(k, v string) { mapped = append(mapped, core.Record{Key: k, Value: v}) })
		for _, r := range c.input {
			c.app.Mapper.Map(r.Key, r.Value, em)
		}
		// Three sorted runs, as three map tasks would publish them.
		var sorted [][]core.Record
		for _, chunk := range workload.SplitEvenly(mapped, 3) {
			chunk = append([]core.Record(nil), chunk...)
			sortx.ByKey(chunk)
			sorted = append(sorted, chunk)
		}
		reduce := func(reuse bool) []core.Record {
			runs := make([]sortx.Run, len(sorted))
			for i, run := range sorted {
				runs[i] = sortx.NewSliceRun(run)
			}
			m := sortx.NewMerger(runs)
			out := &sink{}
			gr := c.app.NewGroup()
			for key, values, ok := m.NextGroup(); ok; key, values, ok = m.NextGroup() {
				if reuse {
					gr.Reduce(key, values, out)
				} else {
					gr.Reduce(key, append([]string(nil), values...), out)
				}
				for i := range values {
					values[i] = scribble
				}
			}
			if cl, ok := gr.(core.Cleanup); ok {
				cl.Cleanup(out)
			}
			return out.recs
		}
		fresh, reused := reduce(false), reduce(true)
		if len(fresh) == 0 {
			t.Fatalf("%s: no output, the case tests nothing", c.app.Name)
		}
		if len(fresh) != len(reused) {
			t.Fatalf("%s: %d records with the reused buffer, %d with fresh slices", c.app.Name, len(reused), len(fresh))
		}
		for i := range fresh {
			if fresh[i] != reused[i] {
				t.Fatalf("%s: record %d = %q with the reused buffer, %q with fresh slices",
					c.app.Name, i, reused[i], fresh[i])
			}
		}
	}
}
