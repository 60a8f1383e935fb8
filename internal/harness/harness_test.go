package harness

import (
	"strings"
	"testing"
)

// The harness tests assert the paper's qualitative claims — who wins, by
// roughly what factor, and where the crossovers fall — on the reduced sweeps
// of goldenSweeps (golden_test.go), which TestSweepsGolden also pins to the
// digit. Full paper-sized sweeps run via cmd/experiments.

func TestFig6WordCountPipelinedWins(t *testing.T) {
	sw := goldenSweep(t, "fig6b")
	for i := range sw.Series[0].Y {
		if sw.Series[1].Y[i] >= sw.Series[0].Y[i] {
			t.Fatalf("pipelined (%.1f) should beat barrier (%.1f) at x=%v",
				sw.Series[1].Y[i], sw.Series[0].Y[i], sw.Series[0].X[i])
		}
	}
	imp := MeanImprovement(sw.Series[0], sw.Series[1])
	if imp < 5 || imp > 35 {
		t.Fatalf("wordcount improvement %.1f%% outside the paper's band (~15%%)", imp)
	}
}

func TestFig6SortBarrierWins(t *testing.T) {
	sw := goldenSweep(t, "fig6a")
	for i := range sw.Series[0].Y {
		if sw.Series[0].Y[i] >= sw.Series[1].Y[i] {
			t.Fatalf("barrier should win sort at x=%v: %.1f vs %.1f",
				sw.Series[0].X[i], sw.Series[0].Y[i], sw.Series[1].Y[i])
		}
	}
	// The gap narrows as the dataset grows (paper: 9%% at 8GB -> 2%% at 16GB).
	gap := func(i int) float64 {
		return (sw.Series[1].Y[i] - sw.Series[0].Y[i]) / sw.Series[0].Y[i]
	}
	if gap(1) >= gap(0) {
		t.Fatalf("sort slowdown should narrow with size: %.3f -> %.3f", gap(0), gap(1))
	}
}

func TestFig6KNNImprovementGrows(t *testing.T) {
	sw := goldenSweep(t, "fig6c")
	imps := Improvements(sw.Series[0], sw.Series[1])
	if imps[0] <= 0 || imps[1] <= 0 {
		t.Fatalf("knn should improve at all sizes: %v", imps)
	}
	if imps[1] <= imps[0] {
		t.Fatalf("knn improvement should grow with size: %v", imps)
	}
}

func TestFig6LastFMConsistentWin(t *testing.T) {
	sw := goldenSweep(t, "fig6d")
	imp := MeanImprovement(sw.Series[0], sw.Series[1])
	if imp < 8 || imp > 35 {
		t.Fatalf("lastfm improvement %.1f%% outside band (~20%%)", imp)
	}
}

func TestFig6GAModestConstantWin(t *testing.T) {
	sw := goldenSweep(t, "fig6e")
	imps := Improvements(sw.Series[0], sw.Series[1])
	for _, i := range imps {
		if i < 3 || i > 30 {
			t.Fatalf("GA improvements %v outside the ~15%% band", imps)
		}
	}
}

func TestFig6BlackScholesBestCase(t *testing.T) {
	sw := goldenSweep(t, "fig6f")
	imps := Improvements(sw.Series[0], sw.Series[1])
	if imps[1] <= imps[0] {
		t.Fatalf("BS improvement should grow with mappers: %v", imps)
	}
	if imps[1] < 70 || imps[1] > 95 {
		t.Fatalf("BS best-case improvement %.1f%% should approach the paper's 87%%", imps[1])
	}
}

func TestFig4MapperSlackAndOverlap(t *testing.T) {
	f := Fig4()
	if f.MapperSlack <= 0 {
		t.Fatalf("mapper slack = %.1f, want > 0", f.MapperSlack)
	}
	if f.Improvement <= 0 {
		t.Fatalf("fig4 improvement = %.1f%%", f.Improvement)
	}
	// The pipelined run must complete soon after its last map, well inside
	// the barrier's post-map tail (the paper observed 10s vs ~45s).
	pipeTail := f.Pipelined.Completion - f.Pipelined.MapDone
	barTail := f.Barrier.Completion - f.Barrier.MapDone
	if pipeTail >= barTail {
		t.Fatalf("pipelined tail %.1fs should be shorter than barrier tail %.1fs", pipeTail, barTail)
	}
	if !strings.Contains(f.Render(), "mapper slack") {
		t.Fatal("render missing mapper slack")
	}
}

func TestFig5OOMAndSpill(t *testing.T) {
	f := Fig5()
	if !f.InMemory.Failed {
		t.Fatal("in-memory 16GB/10-reducer run must OOM (Figure 5a)")
	}
	if f.Spill.Failed {
		t.Fatalf("spill run failed: %s", f.Spill.FailReason)
	}
	if f.Spill.Spills == 0 {
		t.Fatal("spill run never spilled")
	}
	// Spill keeps the heap near the threshold; in-memory grows to the cap.
	if p := peakMB(f.SpillSeries); p > 2*fig5SpillMB {
		t.Fatalf("spill heap peak %d MB far above threshold %d MB", p, fig5SpillMB)
	}
	if p := peakMB(f.InMemorySeries); p < fig5HeapMB-200 {
		t.Fatalf("in-memory heap peak %d MB never approached the cap", p)
	}
}

func TestFig8WaveEffect(t *testing.T) {
	sw := goldenSweep(t, "fig8")
	barrier := sw.Series[0]
	if barrier.Y[1] <= barrier.Y[0] {
		t.Fatalf("70 reducers on 60 slots must cost a second wave: %.1f vs %.1f",
			barrier.Y[1], barrier.Y[0])
	}
	pip := sw.Series[1]
	for i := range pip.Y {
		if pip.Y[i] >= barrier.Y[i] {
			t.Fatalf("pipelined should win GA at %v reducers", barrier.X[i])
		}
	}
}

func TestFig9MemoryTechniques(t *testing.T) {
	sw := goldenSweep(t, "fig9")
	byLabel := map[string]Series{}
	for _, s := range sw.Series {
		byLabel[s.Label] = s
	}
	if byLabel["in-memory"].Note[0] != "OOM" {
		t.Fatal("in-memory must OOM at 10 reducers (paper: below 25)")
	}
	if byLabel["in-memory"].Note[1] == "OOM" {
		t.Fatal("in-memory must survive at 60 reducers")
	}
	if byLabel["spill merge"].Note[0] == "OOM" || byLabel["spill merge"].Note[1] == "OOM" {
		t.Fatal("spill merge must never OOM")
	}
	// Spill-merge beats the barrier; the KV store is far slower than both.
	if byLabel["spill merge"].Y[1] >= byLabel["with barrier"].Y[1] {
		t.Fatal("spill merge should beat the barrier at 60 reducers")
	}
	if byLabel["berkeleydb-style kv"].Y[1] < 1.5*byLabel["with barrier"].Y[1] {
		t.Fatal("KV store should be dramatically slower (paper: cannot keep up)")
	}
}

func TestFig10SizeSweep(t *testing.T) {
	sw := goldenSweep(t, "fig10")
	byLabel := map[string]Series{}
	for _, s := range sw.Series {
		byLabel[s.Label] = s
	}
	if byLabel["in-memory"].Note[1] != "OOM" {
		t.Fatal("in-memory should OOM at 24GB with 30 reducers")
	}
	if byLabel["spill merge"].Y[1] >= byLabel["with barrier"].Y[1] {
		t.Fatal("spill merge should beat barrier as data grows")
	}
	if byLabel["berkeleydb-style kv"].Y[0] <= byLabel["with barrier"].Y[0] {
		t.Fatal("KV store should trail at every size")
	}
}

func TestTable1MatchesPaperClassification(t *testing.T) {
	rows := Table1()
	if len(rows) != 7 {
		t.Fatalf("table1 rows = %d, want 7", len(rows))
	}
	want := map[string]string{
		"grep":         "O(1)",
		"sort":         "grows with records",
		"wordcount":    "bounded (keys/window fixed)",
		"knn":          "bounded (keys/window fixed)",
		"lastfm":       "grows with records",
		"ga":           "O(1)",
		"blackscholes": "O(1)",
	}
	for _, r := range rows {
		if want[r.App] != r.MeasuredClass {
			t.Errorf("%s measured %q, want %q", r.App, r.MeasuredClass, want[r.App])
		}
	}
	// Only sorting requires key order (paper Table 1).
	for _, r := range rows {
		if r.SortRequired != (r.App == "sort") {
			t.Errorf("%s sort-required = %v", r.App, r.SortRequired)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	rows, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	byApp := map[string]Table2Row{}
	for _, r := range rows {
		if r.OriginalLoC <= 0 || r.BarrierlessLoC <= 0 {
			t.Fatalf("%s has zero LoC: %+v", r.App, r)
		}
		byApp[r.App] = r
	}
	// The paper's qualitative claims: Sort needs the largest conversion;
	// GA and Black-Scholes need none.
	if byApp["Genetic Algorithm"].IncreasePercent != 0 {
		t.Error("GA conversion should be free")
	}
	if byApp["Black-Scholes"].IncreasePercent != 0 {
		t.Error("Black-Scholes conversion should be free")
	}
	if byApp["Sort"].IncreasePercent <= byApp["WordCount"].IncreasePercent {
		t.Error("Sort should need the largest relative conversion")
	}
	if !strings.Contains(RenderTable2(rows), "% increase") {
		t.Error("render broken")
	}
}

func TestSweepRender(t *testing.T) {
	sw := Sweep{
		ID: "x", Title: "T", XLabel: "size",
		Series: []Series{
			{Label: "a", X: []float64{1, 2}, Y: []float64{10, 20}, Note: []string{"", "OOM"}},
			{Label: "b", X: []float64{1, 2}, Y: []float64{11, 21}, Note: []string{"", ""}},
		},
	}
	out := sw.Render()
	if !strings.Contains(out, "OOM") || !strings.Contains(out, "size") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestMeanImprovementSkipsFailures(t *testing.T) {
	base := Series{Y: []float64{100, 100}, Note: []string{"", ""}}
	with := Series{Y: []float64{50, 999}, Note: []string{"", "OOM"}}
	if got := MeanImprovement(base, with); got != 50 {
		t.Fatalf("improvement = %v, want 50 (failed point skipped)", got)
	}
}

func TestHeterogeneityExperiment(t *testing.T) {
	sw := goldenSweep(t, "hetero")
	// The barrier-less framework keeps winning at every spread, and its
	// absolute savings hold up (the relative improvement dilutes because
	// the stretched map phase affects both modes — see EXPERIMENTS.md).
	saved0 := sw.Series[0].Y[0] - sw.Series[1].Y[0]
	saved45 := sw.Series[0].Y[1] - sw.Series[1].Y[1]
	if saved0 <= 0 || saved45 <= 0 {
		t.Fatalf("pipelined must win at all spreads: saved %v / %v", saved0, saved45)
	}
	if saved45 < 0.5*saved0 {
		t.Fatalf("absolute savings collapsed under heterogeneity: %.1fs -> %.1fs", saved0, saved45)
	}
	if !strings.Contains(RenderHetero(sw), "improvement per spread") {
		t.Fatal("render broken")
	}
}

func TestSpillTradeoffSweep(t *testing.T) {
	sw := goldenSweep(t, "spill")
	if len(sw.Series) != 2 {
		t.Fatalf("series = %d, want barrier + pipelined", len(sw.Series))
	}
	for _, ser := range sw.Series {
		// Unlimited must be fastest; an 8MB budget must cost more than 64MB
		// (more runs, more seeks) and must actually have sealed runs.
		if !(ser.Y[0] < ser.Y[1] && ser.Y[1] < ser.Y[2]) {
			t.Fatalf("%s: completion not monotone in budget pressure: %v", ser.Label, ser.Y)
		}
		if ser.Note[2] == "" {
			t.Fatalf("%s: tightest budget sealed no spill runs", ser.Label)
		}
	}
	if !strings.Contains(sw.Render(), "SpillTradeoff") {
		t.Fatal("render broken")
	}
}
