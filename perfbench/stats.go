package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie strictly above a percentile's
// nearest-rank position before that percentile is reported: with fewer, the
// "percentile" is really the maximum of a handful of samples.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of samples and
// whether it may be reported: at least minBeyond samples must lie beyond it,
// for the median as for the tail. samples need not be sorted; they are not
// modified.
func percentile(samples []float64, p float64) (float64, bool) {
	n := len(samples)
	if n == 0 || p <= 0 || p > 1 {
		return 0, false
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	i := rank(n, p)
	if n-1-i < minBeyond {
		return sorted[i], false
	}
	return sorted[i], true
}

// rank is the zero-based nearest-rank index of the p-quantile of n samples.
func rank(n int, p float64) int {
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// ratio is num/den with a zero denominator mapped to 0: every ratio the
// benchmark prints goes through it, so an idle counter never prints NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// qerror is max(est/actual, actual/est), the symmetric estimation error. A
// pair with a non-positive side has no defined q-error; ok is false then.
func qerror(est, actual float64) (float64, bool) {
	if est <= 0 || actual <= 0 || math.IsNaN(est) || math.IsNaN(actual) {
		return 0, false
	}
	return math.Max(est/actual, actual/est), true
}

// lateness is how far behind its schedule an open-loop send started: zero
// when it went out on time, never negative.
func lateness(due, sent time.Time) time.Duration {
	if d := sent.Sub(due); d > 0 {
		return d
	}
	return 0
}

// span is one timed call into a layer. Parent names the span of the rung
// above, whose work logically contains this one; Request groups the spans
// of one replayed request. Reps counts the identical calls the span covers
// (sub-microsecond rungs are timed in bursts), so Duration()/Reps is one
// call.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Reps    int    `json:"reps"`
}

// perCall is the span's duration per covered call, in nanoseconds.
func (s span) perCall() float64 {
	reps := s.Reps
	if reps < 1 {
		reps = 1
	}
	return float64(s.EndNs-s.StartNs) / float64(reps)
}

// selfTimes returns, for every span called name, its per-call time minus the
// per-call time of its child rung (the span called child whose Parent is
// it). Spans without such a child are skipped: a self time needs both rungs.
func selfTimes(spans []span, name, child string) []float64 {
	childOf := make(map[int]span)
	for _, s := range spans {
		if s.Name == child {
			childOf[s.Parent] = s
		}
	}
	var out []float64
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		if c, ok := childOf[s.ID]; ok {
			out = append(out, s.perCall()-c.perCall())
		}
	}
	return out
}

// durations returns the per-call times of every span called name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.perCall())
		}
	}
	return out
}
