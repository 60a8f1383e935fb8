package reducers

import (
	"math"
	"strconv"

	"blmr/internal/core"
)

// Single reducer aggregation (Section 4.7): one reducer computes global
// statistics (mean and standard deviation) over every mapped value, using
// the paper's running-sums identity
//
//	sigma = sqrt( (1/N) * sum(x_i^2) - mean^2 )
//
// so only O(1) partial state is kept. Mappers emit the value and its square
// joined into one record value.

// MomentsValue encodes x for consumption by Moments (the mapper-side half
// of the paper's trick: emit the square along with the value).
func MomentsValue(x float64) string {
	return core.JoinValues(
		strconv.FormatFloat(x, 'g', 17, 64),
		strconv.FormatFloat(x*x, 'g', 17, 64),
	)
}

// Moments accumulates count, sum and sum-of-squares, and emits mean and
// standard deviation at the end. It implements both reduce contracts plus
// Cleanup so it can run under either engine.
type Moments struct {
	n     int64
	sum   float64
	sumSq float64
}

// NewMoments creates an empty accumulator.
func NewMoments() *Moments { return &Moments{} }

// Consume implements core.StreamReducer.
func (m *Moments) Consume(rec core.Record, out core.Output) { m.add(rec.Value) }

// Reduce implements core.GroupReducer.
func (m *Moments) Reduce(key string, values []string, out core.Output) {
	for _, v := range values {
		m.add(v)
	}
}

func (m *Moments) add(v string) {
	a, b := core.SplitPair(v)
	x, _ := strconv.ParseFloat(a, 64)
	x2, _ := strconv.ParseFloat(b, 64)
	m.n++
	m.sum += x
	m.sumSq += x2
}

// Finish implements core.StreamReducer.
func (m *Moments) Finish(out core.Output) {
	if m.n == 0 {
		return
	}
	mean := m.sum / float64(m.n)
	variance := m.sumSq/float64(m.n) - mean*mean
	if variance < 0 {
		variance = 0 // guard tiny negative from floating-point cancellation
	}
	out.Write("count", strconv.FormatInt(m.n, 10))
	out.Write("mean", strconv.FormatFloat(mean, 'g', 12, 64))
	out.Write("stddev", strconv.FormatFloat(math.Sqrt(variance), 'g', 12, 64))
}

// Cleanup implements core.Cleanup for the barrier engine.
func (m *Moments) Cleanup(out core.Output) { m.Finish(out) }
