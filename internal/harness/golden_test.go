package harness

import (
	"flag"
	"os"
	"strings"
	"sync"
	"testing"

	"blmr/internal/apps"
)

var update = flag.Bool("update", false, "rewrite testdata/sweeps.golden from this build's sweeps")

// goldenSweeps is every reduced sweep the package's tests run, each computed
// once per test binary: the shape tests assert on the same Sweep values
// TestSweepsGolden pins, so the pin costs no second simulation.
var goldenSweeps = []struct {
	id  string
	run func() Sweep
}{
	{"fig6a", sync.OnceValue(func() Sweep { return Fig6Sort([]float64{2, 16}) })},
	{"fig6b", sync.OnceValue(func() Sweep { return Fig6WordCount([]float64{2, 8}) })},
	{"fig6c", sync.OnceValue(func() Sweep { return Fig6KNN([]float64{2, 16}) })},
	{"fig6d", sync.OnceValue(func() Sweep { return Fig6LastFM([]float64{4, 16}) })},
	{"fig6e", sync.OnceValue(func() Sweep { return Fig6GA([]float64{50, 200}) })},
	{"fig6f", sync.OnceValue(func() Sweep { return Fig6BlackScholes([]float64{25, 200}) })},
	{"fig8", sync.OnceValue(func() Sweep { return Fig8([]float64{60, 70}) })},
	{"fig9", sync.OnceValue(func() Sweep { return Fig9([]float64{10, 60}) })},
	{"fig10", sync.OnceValue(func() Sweep { return Fig10([]float64{4, 24}) })},
	{"hetero", sync.OnceValue(func() Sweep { return ExpHeterogeneity([]float64{0, 0.45}) })},
	{"overlap-wordcount", sync.OnceValue(func() Sweep { return OverlapSweep(apps.WordCount(), 4, []int{4, 10}) })},
	{"overlap-sort", sync.OnceValue(func() Sweep { return OverlapSweep(apps.Sort(), 2, []int{4, 10}) })},
	{"spill", sync.OnceValue(func() Sweep { return SpillTradeoff([]float64{0, 64, 8}) })},
	{"workers", sync.OnceValue(func() Sweep { return WorkerScaling([]int{2, 8, 15}) })},
	{"transport", sync.OnceValue(func() Sweep { return TransportOverhead(8) })},
	{"compress", sync.OnceValue(func() Sweep { return CompressionTradeoff() })},
	{"kill-worker", sync.OnceValue(func() Sweep { return KillSweep(KillWorker, 1, 3, []float64{0, 0.3, 0.6}) })},
	{"kill-coordinator", sync.OnceValue(func() Sweep { return KillSweep(KillCoordinator, 1, 3, []float64{0, 0.3, 0.6, 0.9}) })},
	{"policy", sync.OnceValue(func() Sweep { return PolicySweep(3, []int{1, 2, 4}) })},
}

// goldenSweep returns the named entry of goldenSweeps. The Sweep is shared:
// read it, do not modify it.
func goldenSweep(t *testing.T, id string) Sweep {
	t.Helper()
	for _, g := range goldenSweeps {
		if g.id == id {
			return g.run()
		}
	}
	t.Fatalf("no golden sweep %q", id)
	return Sweep{}
}

// TestSweepsGolden pins the rendered text of every sweep against
// testdata/sweeps.golden. The simulator is deterministic, so any difference
// is a behaviour change: a refactor must leave the file alone, and a
// calibration change regenerates it on purpose with
// `go test ./internal/harness -run TestSweepsGolden -update`.
func TestSweepsGolden(t *testing.T) {
	var b strings.Builder
	for _, g := range goldenSweeps {
		b.WriteString(g.run().Render())
	}
	const path = "testdata/sweeps.golden"
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := b.String()
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s line %d:\n got %q\nwant %q", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: got %d lines, want %d", path, len(gl), len(wl))
}
