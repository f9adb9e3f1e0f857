package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"knncost/internal/service"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(n - i) // descending: percentile must sort
	}
	return out
}

func TestPercentileBeyondRule(t *testing.T) {
	cases := []struct {
		n      int
		p      float64
		want   float64
		report bool
	}{
		{1000, 0.99, 990, true}, // rank 990: exactly ten samples beyond
		{999, 0.99, 990, false}, // rank 990 of 999: nine beyond
		{1100, 0.99, 1089, true},
		{20, 0.5, 10, true}, // the median needs ten beyond too
		{19, 0.5, 10, false},
		{100, 0.9, 90, true},
		{99, 0.9, 90, false}, // rank 90 of 99: nine beyond
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.report {
			t.Errorf("percentile(n=%d, p=%v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.report)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples is reportable")
	}
	in := []float64{3, 1, 2}
	percentile(in, 0.5)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("percentile modified its input: %v", in)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 2, Request: 1, Name: "core.select", StartNs: 0, EndNs: 3200, Reps: 32},     // 100 per call
		{ID: 2, Parent: 3, Request: 1, Name: "engine.select", StartNs: 0, EndNs: 12800, Reps: 32},  // 400 per call
		{ID: 3, Parent: 0, Request: 1, Name: "service.select", StartNs: 100, EndNs: 5100, Reps: 1}, // 5000
		{ID: 4, Parent: 5, Request: 2, Name: "core.select", StartNs: 0, EndNs: 50, Reps: 0},        // reps 0 counts as 1
		{ID: 5, Parent: 0, Request: 2, Name: "engine.select", StartNs: 0, EndNs: 80, Reps: 1},
		{ID: 6, Parent: 0, Request: 3, Name: "engine.select", StartNs: 0, EndNs: 90, Reps: 1}, // no child rung
	}
	got := selfTimes(spans, "engine.select", "core.select")
	if len(got) != 2 || got[0] != 300 || got[1] != 30 {
		t.Errorf("engine self times = %v, want [300 30]", got)
	}
	got = selfTimes(spans, "service.select", "engine.select")
	if len(got) != 1 || got[0] != 4600 {
		t.Errorf("service self times = %v, want [4600]", got)
	}
	if d := durations(spans, "core.select"); len(d) != 2 || d[0] != 100 || d[1] != 50 {
		t.Errorf("core durations = %v, want [100 50]", d)
	}
}

func TestLateness(t *testing.T) {
	due := time.Unix(100, 0)
	if got := lateness(due, due.Add(-time.Millisecond)); got != 0 {
		t.Errorf("early send is %v late, want 0", got)
	}
	if got := lateness(due, due); got != 0 {
		t.Errorf("on-time send is %v late, want 0", got)
	}
	if got := lateness(due, due.Add(3*time.Millisecond)); got != 3*time.Millisecond {
		t.Errorf("late send is %v late, want 3ms", got)
	}
	// An open-loop request is timed from when it was due, not when it left.
	r := result{due: due, start: due.Add(5 * time.Millisecond), end: due.Add(7 * time.Millisecond)}
	if r.latency() != 7*time.Millisecond {
		t.Errorf("latency = %v, want 7ms from the due time", r.latency())
	}
}

func TestQError(t *testing.T) {
	cases := []struct {
		est, actual, want float64
		ok                bool
	}{
		{10, 10, 1, true},
		{20, 10, 2, true},
		{10, 40, 4, true},
		{0, 10, 0, false},
		{10, 0, 0, false},
		{-1, 10, 0, false},
		{math.NaN(), 10, 0, false},
	}
	for _, c := range cases {
		got, ok := qerror(c.est, c.actual)
		if got != c.want || ok != c.ok {
			t.Errorf("qerror(%v, %v) = %v, %v; want %v, %v", c.est, c.actual, got, ok, c.want, c.ok)
		}
	}
}

func TestRatioZeroDenominator(t *testing.T) {
	if got := ratio(5, 0); got != 0 {
		t.Errorf("ratio(5, 0) = %v, want 0", got)
	}
	if got := ratio(0, 0); got != 0 {
		t.Errorf("ratio(0, 0) = %v, want 0", got)
	}
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %v, want 0.75", got)
	}
	// Steal over an interval with no CPU time, or without readings.
	same := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	if got := stealPct(same, same); got != 0 {
		t.Errorf("stealPct over no time = %v, want 0", got)
	}
	if got := stealPct(nil, same); got != 0 {
		t.Errorf("stealPct without a reading = %v, want 0", got)
	}
	later := []float64{91, 2, 3, 4, 5, 6, 7, 18}
	if got := stealPct(same, later); got != 10 {
		t.Errorf("stealPct = %v, want 10", got)
	}
}

// Every ratio among the per-layer metrics goes through the zero guard: with
// idle counters and no spans they all print 0, never NaN or Inf.
func TestPerLayerMetricsWithoutSamples(t *testing.T) {
	rep := &report{}
	(&ladderReport{workload: "select_hot"}).addMetrics(rep, map[string]any{}, nil, []*appender{{}})
	if len(rep.metrics) != 25 {
		t.Errorf("got %d per-layer metrics, want 25", len(rep.metrics))
	}
	for _, m := range rep.metrics {
		if !m.layer {
			t.Errorf("%s is not marked per-layer", m.name)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			t.Errorf("%s = %v without samples", m.name, m.value)
		}
	}
}

// Instances without samples of a kind do not pull its median toward 0.
func TestMedianOfMedians(t *testing.T) {
	if v, n := medianOfMedians(nil); v != 0 || n != 0 {
		t.Errorf("no groups: %v over %d samples, want 0 over 0", v, n)
	}
	v, n := medianOfMedians([][]float64{{5, 1, 3}, nil, {10}, {7, 7}})
	if v != 7 || n != 6 {
		t.Errorf("got %v over %d samples, want 7 over 6", v, n)
	}
}

func TestPlanClassIgnoresCoordinates(t *testing.T) {
	a := &service.PlanRequest{Selects: []service.PlanSelect{{Relation: "r", X: 1, Y: 2, K: 3}},
		Join: &service.PlanJoin{Outer: "r", Inner: "s", K: 4}}
	b := &service.PlanRequest{Selects: []service.PlanSelect{{Relation: "r", X: 9, Y: 8, K: 3}},
		Join: &service.PlanJoin{Outer: "r", Inner: "s", K: 4}}
	if planClass(a) != planClass(b) {
		t.Errorf("classes differ: %q vs %q", planClass(a), planClass(b))
	}
	b.Selects[0].K = 5
	if planClass(a) == planClass(b) {
		t.Error("different k share a class")
	}
	if a.Selects[0].X != 1 {
		t.Error("planClass modified its request")
	}
}

// The appender marks an append visible once acked − delta_ops reaches its
// position: the store folds pending mutations as a log-order prefix.
func TestAppenderVisibility(t *testing.T) {
	var deltaOps atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(service.RelationInfo{Name: "r", DeltaOps: int(deltaOps.Load())})
	}))
	defer srv.Close()
	a := &appender{c: &client{hc: srv.Client(), base: srv.URL}, rel: &relation{name: "r"}}
	now := time.Now()
	for i := 0; i < 4; i++ {
		a.acked = append(a.acked, len(a.results))
		a.results = append(a.results, result{end: now})
	}
	ctx := context.Background()
	deltaOps.Store(4)
	if err := a.pollOnce(ctx); err != nil || a.folded != 0 || !a.pending() {
		t.Fatalf("nothing folded: folded=%d err=%v", a.folded, err)
	}
	deltaOps.Store(1)
	if err := a.pollOnce(ctx); err != nil || a.folded != 3 || len(a.visibleMs) != 3 {
		t.Fatalf("three folded: folded=%d visible=%v err=%v", a.folded, a.visibleMs, err)
	}
	deltaOps.Store(0)
	if err := a.pollOnce(ctx); err != nil || a.folded != 4 || a.pending() {
		t.Fatalf("all folded: folded=%d err=%v", a.folded, err)
	}
	for _, v := range a.visibleMs {
		if v < 0 {
			t.Errorf("negative visibility %v", v)
		}
	}
}
