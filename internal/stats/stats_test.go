package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeKnown(t *testing.T) {
	b := Summarize([]float64{1, 2, 3, 4, 5})
	if b.Min != 1 || b.Max != 5 || b.Median != 3 || b.Q1 != 2 || b.Q3 != 4 || b.N != 5 {
		t.Fatalf("box = %+v", b)
	}
}

func TestSummarizeSingle(t *testing.T) {
	b := Summarize([]float64{7})
	if b.Min != 7 || b.Max != 7 || b.Median != 7 || b.Q1 != 7 || b.Q3 != 7 {
		t.Fatalf("box = %+v", b)
	}
}

func TestSummarizeDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("input mutated")
	}
}

func TestQuantileInterpolation(t *testing.T) {
	s := []float64{0, 10}
	if q := Quantile(s, 0.5); q != 5 {
		t.Fatalf("median of {0,10} = %v", q)
	}
	if q := Quantile(s, 0.25); q != 2.5 {
		t.Fatalf("q1 = %v", q)
	}
	if Quantile(s, 0) != 0 || Quantile(s, 1) != 10 {
		t.Fatal("extremes wrong")
	}
}

func TestBoxOrderingProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		b := Summarize(xs)
		return b.Min <= b.Q1 && b.Q1 <= b.Median && b.Median <= b.Q3 && b.Q3 <= b.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantileWithinRangeProperty(t *testing.T) {
	f := func(raw []float64, q float64) bool {
		var xs []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		sort.Float64s(xs)
		qq := math.Mod(math.Abs(q), 1)
		v := Quantile(xs, qq)
		return v >= xs[0] && v <= xs[len(xs)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRenderBoxes(t *testing.T) {
	out := RenderBoxes([]string{"WC", "BS"}, []Box{
		{Min: 10, Q1: 12, Median: 15, Q3: 20, Max: 30, N: 4},
		{Min: 40, Q1: 50, Median: 60, Q3: 70, Max: 87, N: 4},
	}, 40)
	if !strings.Contains(out, "WC") || !strings.Contains(out, "BS") {
		t.Fatalf("labels missing:\n%s", out)
	}
	if !strings.Contains(out, "M") {
		t.Fatal("median marker missing")
	}
	if !strings.Contains(out, "max=  87.0") {
		t.Fatalf("stats missing:\n%s", out)
	}
}
