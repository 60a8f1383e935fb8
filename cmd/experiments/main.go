// Command experiments regenerates every table and figure of the paper's
// evaluation on the simulated cluster and prints the textual equivalents,
// followed by the sweeps of this reproduction's own extensions (overlap,
// spill, workers, transport, compress, kill, policy) and the DESIGN §9
// ablations.
//
// Usage:
//
//	experiments            # run everything
//	experiments -only fig6b,fig9,table2
//	experiments -only ablations
//	experiments -quick     # smaller sweeps for a fast smoke run
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"blmr/internal/apps"
	"blmr/internal/harness"
)

func main() {
	only := flag.String("only", "", "comma-separated experiment ids (fig4, fig5, fig6a..fig6f, fig7, fig8, fig9, fig10, hetero, table1, table2, overlap, spill, workers, transport, compress, kill, policy, ablations)")
	quick := flag.Bool("quick", false, "use reduced sweeps")
	flag.Parse()

	selected := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			selected[strings.TrimSpace(id)] = true
		}
	}
	want := func(id string) bool { return len(selected) == 0 || selected[id] }

	sizes := harness.PaperSizesGB()
	gaMappers := harness.PaperGAMappers()
	bsMappers := harness.PaperBSMappers()
	fig8R := harness.PaperFig8Reducers()
	fig9R := harness.PaperFig9Reducers()
	fig10S := harness.PaperFig10Sizes()
	pools := []int{2, 4, 8, 15}
	budgetsMB := []float64{0, 256, 64, 8}
	killFracs := []float64{0, 0.2, 0.4, 0.6, 0.8}
	skews := []int{1, 2, 4, 8}
	if *quick {
		pools = []int{4, 10}
		budgetsMB = []float64{0, 64, 8}
		killFracs = []float64{0, 0.3, 0.6}
		skews = []int{1, 2, 4}
		sizes = []float64{2, 8}
		gaMappers = []float64{50, 150}
		bsMappers = []float64{25, 100}
		fig8R = []float64{40, 60, 70}
		fig9R = []float64{10, 30, 60}
		fig10S = []float64{4, 16, 24}
	}

	section := func(id string, fn func() string) {
		if !want(id) {
			return
		}
		fmt.Println(strings.Repeat("=", 78))
		fmt.Println(fn())
	}

	section("fig4", func() string { return harness.Fig4().Render() })
	section("fig5", func() string { return harness.Fig5().Render() })
	section("fig6a", func() string { return report(harness.Fig6Sort(sizes)) })
	section("fig6b", func() string { return report(harness.Fig6WordCount(sizes)) })
	section("fig6c", func() string { return report(harness.Fig6KNN(sizes)) })
	section("fig6d", func() string { return report(harness.Fig6LastFM(sizes)) })
	section("fig6e", func() string { return report(harness.Fig6GA(gaMappers)) })
	section("fig6f", func() string { return report(harness.Fig6BlackScholes(bsMappers)) })
	section("fig7", func() string { return harness.Fig7().Render() })
	section("fig8", func() string { return report(harness.Fig8(fig8R)) })
	section("fig9", func() string { return report(harness.Fig9(fig9R)) })
	section("fig10", func() string { return report(harness.Fig10(fig10S)) })
	section("hetero", func() string { return harness.RenderHetero(harness.ExpHeterogeneity(harness.HeteroSpreads())) })
	section("table1", func() string { return harness.RenderTable1(harness.Table1()) })
	section("table2", func() string {
		rows, err := harness.Table2()
		if err != nil {
			fmt.Fprintln(os.Stderr, "table2:", err)
			os.Exit(1)
		}
		return harness.RenderTable2(rows)
	})
	section("overlap", func() string {
		return harness.OverlapSweep(apps.WordCount(), 4, pools).Render() +
			harness.OverlapSweep(apps.Sort(), 2, pools).Render()
	})
	section("spill", func() string { return harness.SpillTradeoff(budgetsMB).Render() })
	section("workers", func() string { return harness.WorkerScaling(pools).Render() })
	section("transport", func() string { return harness.TransportOverhead(8).Render() })
	section("compress", func() string { return harness.CompressionTradeoff().Render() })
	section("kill", func() string {
		return harness.KillSweep(harness.KillWorker, 1, harness.ParityWorkers, killFracs).Render() +
			harness.KillSweep(harness.KillCoordinator, 1, harness.ParityWorkers, killFracs).Render()
	})
	section("policy", func() string { return harness.PolicySweep(harness.ParityWorkers, skews).Render() })
	section("ablations", func() string {
		var out string
		for _, sw := range harness.Ablations() {
			out += sw.Render()
		}
		return out
	})
}

// report renders a sweep plus its mean improvement line.
func report(sw harness.Sweep) string {
	out := sw.Render()
	if len(sw.Series) == 2 {
		out += fmt.Sprintf("mean improvement of %s over %s: %.1f%%\n",
			sw.Series[1].Label, sw.Series[0].Label,
			harness.MeanImprovement(sw.Series[0], sw.Series[1]))
	}
	return out
}
