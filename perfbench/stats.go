package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 < p < 100) of the samples
// by linear interpolation between the two nearest ranks; 0 for no
// samples. The input is not modified.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(samples []float64) float64 { return percentile(samples, 50) }

// rateWindows is how many windows of equal length throughput_ops_s
// cuts the timed phase into.
const rateWindows = 10

// interval is when one operation ran, from the start of the timed phase.
type interval struct{ start, end time.Duration }

// windowedRate is the completion rate of the timed phase as the median
// over rateWindows windows of equal length of the operations per second
// completed in each. An operation counts in each window by the share of
// its duration that falls inside it, so a window's figure does not jump
// by whole operations. A stall of the machine that covers fewer than
// half the windows leaves the median alone, where operations ÷ wall time
// would take it in whole.
func windowedRate(ops []interval, wall time.Duration) float64 {
	if wall <= 0 || len(ops) == 0 {
		return 0
	}
	w := float64(wall) / rateWindows
	done := make([]float64, rateWindows)
	window := func(t float64) int { return min(max(int(t/w), 0), rateWindows-1) }
	for _, op := range ops {
		s, e := float64(op.start), float64(op.end)
		if e <= s {
			done[window(e)]++
			continue
		}
		for j := window(s); j <= window(e); j++ {
			lo, hi := max(s, float64(j)*w), min(e, float64(j+1)*w)
			done[j] += (hi - lo) / (e - s)
		}
	}
	rates := make([]float64, rateWindows)
	for j, d := range done {
		rates[j] = d / (w / float64(time.Second))
	}
	return median(rates)
}

// tailLadder are the percentiles a tail may be reported at.
var tailLadder = []float64{50, 75, 90, 95, 98, 99, 99.5, 99.8, 99.9}

// tailPercentile returns the highest percentile of tailLadder that
// leaves at least ten of n samples beyond it, so the reported tail is
// set by ten or more operations rather than by one outlier. Below 21
// samples no percentile does, and it returns the median.
func tailPercentile(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if beyond(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// beyond counts the samples of n ranked above the p-th percentile's
// interpolation position; with distinct samples, each lies beyond it.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - int(math.Floor(p/100*float64(n-1)))
}

// tail is a percentile of the samples at the rule of tailPercentile.
func tail(samples []float64) float64 {
	return percentile(samples, tailPercentile(len(samples)))
}

// gmean is the geometric mean of positive values; 0 for none.
func gmean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range values {
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(values)))
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// failedShare is the share of attempted operations that failed, floored
// at one in a million so that it is never 0 and a relative bound applies
// to it. With no failure it reads the floor whatever the throughput, and
// one failed operation in a run lifts it far above the floor.
func failedShare(failed, attempted int) float64 {
	return max(ratio(float64(failed), float64(attempted)), 1e-6)
}
