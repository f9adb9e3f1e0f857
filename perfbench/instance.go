package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"knncost/internal/geom"
	"knncost/internal/service"
)

// instance is what one daemon instance of a run measured.
type instance struct {
	setup     float64
	completed int     // window requests completed within the window
	seconds   float64 // window length
	window    phase   // the timed window's closed-loop requests
	sent      []phase // everything sent to the daemon, warm-up included
	app       *appender
	appPhase  phase
	qerrs     []float64
	// counters and memory after the timed run
	vars    map[string]any
	listing []service.RelationInfo
	rss     float64
}

// traceAppends is how many closed-loop appends a traced run sends after the
// window when the workload itself sends none: the ladder replays the write
// path from them (ladderAppends + ladderCompacts), and they time the append
// and visibility figures of the traced run.
const traceAppends = 100

// runInstance sets up one daemon, drives the workload's share of the timed
// window against it, checks every answer and stops the daemon. With trace
// set it also runs the layer ladder before the stop.
func (e *runEnv) runInstance(ctx context.Context, i int, trace bool) (*instance, error) {
	cfg, wl, rels, rep := e.cfg, e.wl, e.rels, e.rep
	small := &rels[0]
	// Each instance draws its own request streams from the run's seed, so
	// the pooled figures cover three times the inputs.
	seed := cfg.seed + int64(i)*instanceStride
	dir := filepath.Join(cfg.work, fmt.Sprintf("cache-%d-%d", os.Getpid(), i))
	os.RemoveAll(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rep.env["cache_dir_fs"] = fsType(dir)

	// The load generator runs on one processor, so that its goroutines do
	// not spread over both cores the daemon also uses; checking, which runs
	// while the daemon is idle, gets them all back.
	runtime.GOMAXPROCS(1)
	logf("instance %d: setting up", i+1)
	setup, d, list, err := setUp(ctx, cfg, e.hc, e.bodies, dir)
	if err != nil {
		return nil, err
	}
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	if err := checkListing(list, rels); err != nil {
		return nil, err
	}
	inst := &instance{setup: setup}
	c := &client{hc: e.hc, base: d.base}

	logf("instance %d: timed window", i+1)
	share := time.Duration(cfg.seconds) * time.Second / instances
	// A collection now, with the generator's GC percent raised, keeps its
	// collector out of the window.
	runtime.GC()
	start := time.Now().Add(warmUp)
	win := window{start: start, end: start.Add(share)}
	app := &appender{c: c, rel: small, stream: appendStream, seed: seed}
	inst.app = app
	appErr := make(chan error, 1)
	if wl.appendRate > 0 {
		go func() {
			time.Sleep(time.Until(win.start))
			appErr <- app.run(ctx, win.start, win.end, wl.appendRate, 0)
		}()
	}
	streams := make([]int, wl.streams)
	for s := range streams {
		streams[s] = s
	}
	warm, timed := runClosed(ctx, c, streams, seed, rels, wl.mix, win)
	var windowResults, warmResults []result
	for s := range timed {
		windowResults = append(windowResults, timed[s]...)
		warmResults = append(warmResults, warm[s]...)
	}
	for _, r := range windowResults {
		if !r.end.After(win.end) {
			inst.completed++
		}
	}
	inst.seconds = win.seconds()
	warmPhase := phase{name: "warmup", results: warmResults}
	inst.window = phase{name: "window", results: windowResults}
	inst.appPhase = phase{name: "window"}
	mutatedDuringWindow := func(req request) bool { return false }
	if wl.appendRate > 0 {
		if err := <-appErr; err != nil {
			return nil, fmt.Errorf("appender: %w", err)
		}
		mutatedDuringWindow = func(req request) bool { return involves(req, small.name) }
	} else if trace {
		inst.appPhase.name = "trace appends"
		if err := app.run(ctx, time.Now(), time.Now().Add(time.Hour), 0, traceAppends); err != nil {
			return nil, fmt.Errorf("trace appends: %w", err)
		}
	}
	if err := app.settle(ctx, settleTimeout); err != nil {
		return nil, err
	}
	inst.appPhase.results = app.results

	// Check the window's answers against the base reference.
	logf("instance %d: checking", i+1)
	runtime.GOMAXPROCS(e.procs)
	var plans []*service.PlanRequest
	for _, ph := range []phase{warmPhase, inst.window} {
		for _, r := range ph.results {
			if r.req.kind == opPlan {
				plans = append(plans, r.req.plan)
			}
		}
	}
	chk0 := newChecker(e.v0, e.joins, plans, mutatedDuringWindow)
	chk0.checkAll([]phase{warmPhase, inst.appPhase, inst.window})
	checkers := []*checker{chk0}
	inst.sent = []phase{warmPhase, inst.appPhase, inst.window}

	// After appends, the settled relation must hold exactly the base points
	// followed by every acknowledged batch, and answer like a from-scratch
	// registration of them.
	settledRels := rels
	if len(app.acked) > 0 {
		settledPts, err := settledPoints(ctx, c, small, app)
		if err != nil {
			rep.wrongAnswer(err.Error())
		}
		if _, err := e.ref.Register(small.name, settledPts); err != nil {
			return nil, err
		}
		if err := e.ref.WaitReady(ctx); err != nil {
			return nil, err
		}
		settledRels = append([]relation{}, rels...)
		settledRels[0].pts = settledPts
		runtime.GOMAXPROCS(1)
		late := phase{name: "check", results: runSettledCheck(ctx, c, seed, settledRels)}
		runtime.GOMAXPROCS(e.procs)
		var latePlans []*service.PlanRequest
		for _, r := range late.results {
			if r.req.kind == opPlan {
				latePlans = append(latePlans, r.req.plan)
			}
		}
		chk1 := newChecker(e.ref.View(), e.joins, latePlans, nil)
		chk1.checkAll([]phase{late})
		checkers = append(checkers, chk1)
		inst.sent = append(inst.sent, late)
	}

	// Counters and memory after the timed run.
	inst.vars = map[string]any{}
	if err := getJSON(ctx, e.hc, d.base+"/debug/vars", &inst.vars); err != nil {
		return nil, err
	}
	if err := getJSON(ctx, e.hc, d.base+"/relations", &inst.listing); err != nil {
		return nil, err
	}
	if inst.rss, err = d.vmHWM(); err != nil {
		return nil, err
	}

	for _, ph := range inst.sent {
		for _, r := range ph.results {
			rep.attempted++
			if r.err != nil {
				rep.failed++
				if len(rep.messages) < 10 {
					rep.messages = append(rep.messages, r.err.Error())
				}
			}
		}
	}
	for _, chk := range checkers {
		rep.failed += chk.failed
		rep.wrong += chk.failed
		rep.messages = append(rep.messages, chk.messages...)
	}

	// The q-error sample: the first requests of every stream, fixed by the
	// seed, with ground truth on the base schema they saw.
	logf("instance %d: q-error ground truth", i+1)
	inst.qerrs = qerrorSample(e.truth0, []phase{inst.window}, mutatedDuringWindow)

	if trace {
		logf("instance %d: traced ladder", i+1)
		trc, err := runLadder(ctx, cfg, c, e.ref, rels, settledRels, inst.sent, app)
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		rep.ladder = trc
		rep.failed += trc.mismatches
		rep.wrong += trc.mismatches
		rep.messages = append(rep.messages, trc.messages...)
		rep.attempted += trc.requests
	}

	logf("instance %d: stopping the daemon", i+1)
	e.hc.CloseIdleConnections()
	stopErr := d.stop(30 * time.Second)
	d = nil
	rep.attempted++ // the graceful shutdown is checked like an answer
	if stopErr != nil {
		rep.wrongAnswer(stopErr.Error())
	}
	return inst, nil
}

func involves(req request, rel string) bool {
	switch req.kind {
	case opSelect, opAppend:
		return req.rel == rel
	case opBatch:
		return req.batch.Relation == rel
	case opJoin:
		return req.outer == rel || req.inner == rel
	case opPlan:
		if j := req.plan.Join; j != nil && (j.Outer == rel || j.Inner == rel) {
			return true
		}
		for _, s := range req.plan.Selects {
			if s.Relation == rel {
				return true
			}
		}
	}
	return false
}

// qerrorSample computes the q-error of the first qerrSelects selects and
// qerrJoins joins in phases, taken in phase, stream and send order — a
// sample fixed by the seed, whatever the run's timing.
func qerrorSample(t *truth, phases []phase, skip func(request) bool) []float64 {
	var rs []*result
	for _, ph := range phases {
		for i := range ph.results {
			rs = append(rs, &ph.results[i])
		}
	}
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].stream < rs[j].stream })
	want := map[opKind]int{opSelect: qerrSelects, opJoin: qerrJoins}
	var out []float64
	for _, r := range rs {
		if r.err != nil || want[r.req.kind] == 0 || (skip != nil && skip(r.req)) {
			continue
		}
		want[r.req.kind]--
		if actual, ok := t.of(r.req); ok {
			if q, ok := qerror(r.blocks, actual); ok {
				out = append(out, q)
			}
		}
	}
	return out
}

// checkListing verifies the listing at readiness: every relation ready with
// its full point count.
func checkListing(list []service.RelationInfo, rels []relation) error {
	byName := map[string]service.RelationInfo{}
	for _, r := range list {
		byName[r.Name] = r
	}
	for _, r := range rels {
		got, ok := byName[r.name]
		if !ok || got.State != "ready" || got.NumPoints != len(r.pts) {
			return fmt.Errorf("relation %s at readiness: %+v", r.name, got)
		}
	}
	return nil
}

// settledPoints fetches the mutated relation's logical points and verifies
// they are its base points followed by every acknowledged batch in order.
// It returns the daemon's sequence even when the check fails, so the rest
// of the run can go on.
func settledPoints(ctx context.Context, c *client, rel *relation, app *appender) ([]geom.Point, error) {
	var dump service.RegisterRequest
	if err := getJSON(ctx, c.hc, c.base+"/relations/"+rel.name+"/points", &dump); err != nil {
		return nil, err
	}
	pts := make([]geom.Point, len(dump.Points))
	for i, p := range dump.Points {
		pts[i] = geom.Point{X: p[0], Y: p[1]}
	}
	want := append([]geom.Point(nil), rel.pts...)
	for _, i := range app.acked {
		for _, p := range app.results[i].req.points {
			want = append(want, geom.Point{X: p[0], Y: p[1]})
		}
	}
	if len(pts) != len(want) {
		return pts, fmt.Errorf("settled %s holds %d points, want %d", rel.name, len(pts), len(want))
	}
	for i := range pts {
		if pts[i] != want[i] {
			return pts, fmt.Errorf("settled %s point %d is %v, want %v", rel.name, i, pts[i], want[i])
		}
	}
	return pts, nil
}

// runSettledCheck sends a fixed set of requests touching the settled
// relation: selects, batches, joins and plans, answered by the daemon and
// later compared with the from-scratch reference.
func runSettledCheck(ctx context.Context, c *client, seed int64, rels []relation) []result {
	g := newGen(seed+checkStream, rels)
	want := [numOps]int{opSelect: 48, opBatch: 4, opJoin: 24, opPlan: 16}
	var out []result
	for seq := 0; ctx.Err() == nil; seq++ {
		done := true
		for k := opKind(0); k < opAppend; k++ {
			if want[k] > 0 {
				done = false
			}
		}
		if done {
			break
		}
		k := opKind(g.rng.Intn(int(opAppend)))
		if want[k] == 0 {
			continue
		}
		req := genOf[k](g)
		if !involves(req, rels[0].name) {
			continue
		}
		want[k]--
		res := c.send(ctx, req)
		res.stream, res.seq = checkStream, seq
		out = append(out, res)
	}
	return out
}
