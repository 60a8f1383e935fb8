package harness

import (
	"fmt"
	"strings"

	"blmr/internal/apps"
	"blmr/internal/metrics"
	"blmr/internal/simmr"
)

// Fig4Result reproduces Figure 4: system-wide progress of WordCount on a
// 3GB dataset, with and without the barrier.
type Fig4Result struct {
	Barrier, Pipelined             *simmr.Result
	BarrierRender, PipelinedRender string
	// MapperSlack is the gap between first mapper completion and shuffle
	// completion in barrier mode (the paper's "mapper slack").
	MapperSlack float64
	// Improvement is the percent reduction in completion time.
	Improvement float64
}

// Fig4 runs the 3GB WordCount progress experiment.
func Fig4() Fig4Result {
	ds := WordCountData(3)
	run := func(mode simmr.Mode) *simmr.Result {
		spec := baseSpec(apps.WordCount(), ds, CalibWordCount, fig6Reducers)
		spec.Mode = mode
		return Run(spec)
	}
	b := run(simmr.Barrier)
	p := run(simmr.Pipelined)

	step := b.Completion / 40
	if step <= 0 {
		step = 1
	}
	out := Fig4Result{Barrier: b, Pipelined: p}
	out.BarrierRender = "(a) With barrier\n" + metrics.RenderTimeline(
		b.Metrics, []metrics.Stage{metrics.StageMap, metrics.StageShuffle, metrics.StageSort, metrics.StageReduce}, step)
	out.PipelinedRender = "(b) Without barrier (Shuffle+Reduce combined)\n" + metrics.RenderTimeline(
		p.Metrics, []metrics.Stage{metrics.StageMap, metrics.StageReduce, metrics.StageOutput}, step)

	// Mapper slack: first map completion to end of shuffle, barrier mode.
	var firstMapEnd float64 = -1
	for _, s := range b.Metrics.Spans() {
		if s.Stage == metrics.StageMap && (firstMapEnd < 0 || s.End < firstMapEnd) {
			firstMapEnd = s.End
		}
	}
	_, shuffleEnd, _ := b.Metrics.StageBounds(metrics.StageShuffle)
	out.MapperSlack = shuffleEnd - firstMapEnd
	out.Improvement = 100 * (b.Completion - p.Completion) / b.Completion
	return out
}

// Render formats the full Figure 4 report.
func (f Fig4Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fig4: WordCount progress, 3GB dataset\n")
	fmt.Fprintf(&b, "barrier completion:    %.1fs (last map %.1fs)\n", f.Barrier.Completion, f.Barrier.MapDone)
	fmt.Fprintf(&b, "pipelined completion:  %.1fs (last map %.1fs)\n", f.Pipelined.Completion, f.Pipelined.MapDone)
	fmt.Fprintf(&b, "mapper slack:          %.1fs\n", f.MapperSlack)
	fmt.Fprintf(&b, "improvement:           %.1f%%\n\n", f.Improvement)
	b.WriteString(f.BarrierRender)
	b.WriteByte('\n')
	b.WriteString(f.PipelinedRender)
	return b.String()
}
