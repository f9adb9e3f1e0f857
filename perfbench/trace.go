package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"knncost/internal/aknn"
	"knncost/internal/core"
	"knncost/internal/engine"
	"knncost/internal/geom"
	"knncost/internal/optimizer"
	"knncost/internal/service"
	"knncost/internal/shard"
	"knncost/internal/store"
	"knncost/internal/wal"
)

// Ladder sample sizes per request kind.
const (
	ladderSelects  = 200
	ladderBatches  = 24
	ladderJoins    = 48 // catalog-merge and virtual-grid
	ladderAknn     = 24
	ladderPlans    = 48
	ladderAppends  = 64
	ladderCompacts = 7
	allocRuns      = 200
)

// ladderReport holds the spans of a traced run and what it checked.
type ladderReport struct {
	workload   string
	spans      []span
	requests   int // requests the ladder sent to the daemon
	mismatches int
	messages   []string

	// untracedSelectUs are loopback select latencies taken next to each
	// replayed select's loopback rung, the same way but without a span.
	untracedSelectUs []float64
	allocsPerReq     float64
	stairMs          float64
	aknnMs           float64
	nextID           int
}

// recorder is a reusable http.ResponseWriter for the in-process rungs.
type recorder struct {
	h    http.Header
	code int
	buf  bytes.Buffer
}

func newRecorder() *recorder { return &recorder{h: http.Header{}} }

func (r *recorder) Header() http.Header { return r.h }
func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}
func (r *recorder) Write(b []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.buf.Write(b)
}
func (r *recorder) reset() {
	clear(r.h)
	r.code = 0
	r.buf.Reset()
}

// rung is one layer's way of answering a request: call performs it once and
// returns the answer in canonical text form, so that answers from every
// rung compare exactly.
type rung struct {
	name string
	reps int
	call func() (string, error)
	// timed, when set, reports the interval of the last call instead of the
	// span's own clock (the loopback rung times only the wire exchange).
	timed func() (time.Time, time.Time)
}

func batchText(blocks []float64) string {
	parts := make([]string, len(blocks))
	for i, b := range blocks {
		parts[i] = floatText(b)
	}
	return strings.Join(parts, ",")
}

// httpAnswer decodes a JSON response body of req's kind to canonical text.
func httpAnswer(kind opKind, code int, body []byte) (string, error) {
	if code/100 != 2 {
		return "", fmt.Errorf("status %d: %s", code, bytes.TrimSpace(body))
	}
	res := result{req: request{kind: kind}}
	if err := decode(&res, body); err != nil {
		return "", err
	}
	return resultText(&res), nil
}

func resultText(r *result) string {
	switch r.req.kind {
	case opBatch:
		blocks := make([]float64, len(r.batch.Results))
		for i, x := range r.batch.Results {
			blocks[i] = x.Blocks
		}
		return batchText(blocks)
	case opPlan:
		return planText(r.plan)
	}
	return floatText(r.blocks)
}

// ladder replays requests up the rungs and keeps the spans.
type ladder struct {
	rep    *ladderReport
	ctx    context.Context
	ref    *store.Store
	srv    *service.Server
	router *shard.Router
	c      *client
	// planners of the optimizer and store rungs: fresh, so that every
	// replayed plan is a miss at every in-process rung, like at the daemon.
	optPlanner, storePlanner *optimizer.Planner
}

// replay runs req through every rung, records one span per rung (parent: the
// rung above) and checks that all rungs answered identically.
func (l *ladder) replay(req request, reqID int) {
	rungs, err := l.rungs(req)
	if err != nil {
		l.mismatch("request %d (%s): %v", reqID, req.kind, err)
		return
	}
	// The untraced twin of a replayed select is what the traced loopback
	// rung is compared with. It goes out next to that rung, over the same
	// connection, before it on even requests and after it on odd ones, so
	// that neither side always follows the in-process rungs.
	var untraced *result
	twin := func() {
		r := l.c.send(l.ctx, req)
		l.rep.requests++
		untraced = &r
	}
	// One untimed call of every in-process rung timed in bursts first: the
	// request's index nodes and the registry are then in cache for every
	// rung alike, instead of for each rung more than for the one before.
	for _, r := range rungs {
		if r.reps > 1 {
			r.call()
		}
	}
	base := l.rep.nextID
	l.rep.nextID += len(rungs)
	var first string
	for i, r := range rungs {
		loopback := req.kind == opSelect && r.name == "knncostd.select"
		if loopback && reqID%2 == 0 {
			twin()
		}
		var ans string
		var err error
		t0 := time.Now()
		for n := 0; n < r.reps; n++ {
			ans, err = r.call()
		}
		t1 := time.Now()
		if r.timed != nil {
			t0, t1 = r.timed()
		}
		if loopback && reqID%2 == 1 {
			twin()
		}
		parent := 0
		if i+1 < len(rungs) {
			parent = base + i + 2
		}
		l.rep.spans = append(l.rep.spans, span{ID: base + i + 1, Parent: parent, Request: reqID,
			Name: r.name, StartNs: t0.UnixNano(), EndNs: t1.UnixNano(), Reps: r.reps})
		switch {
		case err != nil:
			l.mismatch("request %d rung %s: %v", reqID, r.name, err)
			return
		case i == 0:
			first = ans
		case ans != first:
			l.mismatch("request %d (%s): rung %s answered %.120s, rung %s %.120s", reqID, req.kind, r.name, ans, rungs[0].name, first)
			return
		}
	}
	if untraced != nil {
		if untraced.err != nil || resultText(untraced) != first {
			l.mismatch("request %d (%s): untraced loopback answered %v (%v), ladder %.120s", reqID, req.kind,
				untraced.blocks, untraced.err, first)
			return
		}
		l.rep.untracedSelectUs = append(l.rep.untracedSelectUs, float64(untraced.latency())/1e3)
	}
}

func (l *ladder) mismatch(format string, args ...any) {
	l.rep.mismatches++
	if len(l.rep.messages) < 10 {
		l.rep.messages = append(l.rep.messages, fmt.Sprintf("ladder: "+format, args...))
	}
}

// httpRungs returns the service, knncostd and shard rungs of req.
func (l *ladder) httpRungs(req request, prefix string) ([]rung, error) {
	method, path, body, err := encode(req)
	if err != nil {
		return nil, err
	}
	w := newRecorder()
	inProcess := func(h http.Handler) func() (string, error) {
		return func() (string, error) {
			w.reset()
			var rd io.Reader
			if body != nil {
				rd = bytes.NewReader(body)
			}
			hr := httptest.NewRequest(method, path, rd)
			if body != nil {
				hr.Header.Set("Content-Type", "application/json")
			}
			h.ServeHTTP(w, hr)
			return httpAnswer(req.kind, w.code, w.buf.Bytes())
		}
	}
	var last result
	loopback := rung{name: "knncostd." + prefix, reps: 1,
		call: func() (string, error) {
			last = l.c.send(l.ctx, req)
			l.rep.requests++
			if last.err != nil {
				return "", last.err
			}
			return resultText(&last), nil
		},
		timed: func() (time.Time, time.Time) { return last.start, last.end }}
	serviceReps := 1
	if body == nil {
		serviceReps = 4
	}
	return []rung{
		{name: "service." + prefix, reps: serviceReps, call: inProcess(l.srv)},
		loopback,
		{name: "shard." + prefix, reps: 1, call: func() (string, error) {
			l.rep.requests++
			return inProcess(l.router)()
		}},
	}, nil
}

func (l *ladder) rungs(req request) ([]rung, error) {
	v := l.ref.View()
	var low []rung
	var prefix string
	switch req.kind {
	case opSelect:
		prefix = "select"
		snap := v.Relation(req.rel)
		if snap == nil {
			return nil, fmt.Errorf("no relation %q", req.rel)
		}
		est, err := selectEstimator(snap, req.technique)
		if err != nil {
			return nil, err
		}
		q := geom.Point{X: req.x, Y: req.y}
		engineCall := func(snap *store.Snapshot) (string, error) {
			b, err := refSelect(snap, req.technique, req.x, req.y, req.k)
			return floatText(b), err
		}
		low = []rung{
			{name: "core.select", reps: 32, call: func() (string, error) {
				b, err := est.EstimateSelect(q, req.k)
				return floatText(b), err
			}},
			{name: "engine.select", reps: 32, call: func() (string, error) { return engineCall(snap) }},
			{name: "store.select", reps: 32, call: func() (string, error) {
				s := l.ref.View().Relation(req.rel)
				s.Touch()
				return engineCall(s)
			}},
		}
	case opBatch:
		prefix = "batch"
		b := req.batch
		snap := v.Relation(b.Relation)
		if snap == nil {
			return nil, fmt.Errorf("no relation %q", b.Relation)
		}
		queries := make([]core.SelectQuery, len(b.Queries))
		for i, q := range b.Queries {
			queries[i] = core.SelectQuery{Point: geom.Point{X: q.X, Y: q.Y}, K: q.K}
		}
		batch := func(est core.SelectEstimator) (string, error) {
			res, err := core.EstimateSelectBatchContext(l.ctx, est, queries, 0)
			if err != nil {
				return "", err
			}
			blocks := make([]float64, len(res))
			for i, r := range res {
				if r.Err != nil {
					return "", r.Err
				}
				blocks[i] = r.Blocks
			}
			return batchText(blocks), nil
		}
		engineCall := func(snap *store.Snapshot) (string, error) {
			est, err := selectEstimator(snap, b.Technique)
			if err != nil {
				return "", err
			}
			return batch(est)
		}
		est, err := selectEstimator(snap, b.Technique)
		if err != nil {
			return nil, err
		}
		low = []rung{
			{name: "core.batch", reps: 1, call: func() (string, error) { return batch(est) }},
			{name: "engine.batch", reps: 1, call: func() (string, error) { return engineCall(snap) }},
			{name: "store.batch", reps: 1, call: func() (string, error) {
				s := l.ref.View().Relation(b.Relation)
				s.TouchN(len(queries))
				return engineCall(s)
			}},
		}
	case opJoin:
		prefix = "join"
		o, i := v.Relation(req.outer), v.Relation(req.inner)
		if o == nil || i == nil {
			return nil, fmt.Errorf("no pair %q⋉%q", req.outer, req.inner)
		}
		est, err := joinEstimator(o, i, req.technique)
		if err != nil {
			return nil, err
		}
		engineCall := func(o, i *store.Snapshot) (string, error) {
			b, err := refJoin(o, i, req.technique, req.k)
			return floatText(b), err
		}
		coreName, reps := "core.join", 16
		if req.technique == engine.TechAknnBounds {
			coreName, reps = "aknn.join", 1
		}
		low = []rung{
			{name: coreName, reps: reps, call: func() (string, error) {
				b, err := est.EstimateJoin(req.k)
				return floatText(b), err
			}},
			{name: "engine.join", reps: reps, call: func() (string, error) { return engineCall(o, i) }},
			{name: "store.join", reps: reps, call: func() (string, error) {
				v := l.ref.View()
				o, i := v.Relation(req.outer), v.Relation(req.inner)
				o.Touch()
				i.Touch()
				return engineCall(o, i)
			}},
		}
	case opPlan:
		prefix = "plan"
		q := planQuery(req.plan)
		low = []rung{
			{name: "optimizer.plan", reps: 1, call: func() (string, error) {
				d, err := l.optPlanner.Plan(v, q)
				if err != nil {
					return "", err
				}
				return planText(planResponseOf(d)), nil
			}},
			{name: "store.plan", reps: 1, call: func() (string, error) {
				d, err := l.storePlanner.Plan(l.ref.View(), q)
				if err != nil {
					return "", err
				}
				return planText(planResponseOf(d)), nil
			}},
		}
	default:
		return nil, fmt.Errorf("no ladder for %s", req.kind)
	}
	high, err := l.httpRungs(req, prefix)
	if err != nil {
		return nil, err
	}
	return append(low, high...), nil
}

// ladderSample picks the replayed requests: the first requests of each kind
// the run sent, in stream order, topped up from a ladder stream where the
// run sent too few (aknn-bounds joins are one in twenty). Plans come from the
// ladder stream only, restricted to cache classes the run never sent, so
// every rung — the daemon's cache included — prices the replayed binding.
func ladderSample(seed int64, rels []relation, sent []phase) []request {
	var out []request
	want := map[string]int{"select": ladderSelects, "batch": ladderBatches, "join": ladderJoins, "aknn": ladderAknn}
	classOf := func(r request) string {
		if r.kind == opJoin && r.technique == engine.TechAknnBounds {
			return "aknn"
		}
		return r.kind.String()
	}
	sentPlans := map[string]bool{}
	take := func(r request) {
		if c := classOf(r); want[c] > 0 {
			want[c]--
			out = append(out, r)
		}
	}
	for _, ph := range sent {
		for _, r := range ph.results {
			if r.req.kind == opPlan {
				sentPlans[planClass(r.req.plan)] = true
			} else if r.err == nil {
				take(r.req)
			}
		}
	}
	g := newGen(seed+ladderStream, rels)
	for want["select"]+want["batch"]+want["join"]+want["aknn"] > 0 {
		take(genOf[opKind(g.rng.Intn(int(opPlan)))](g))
	}
	for n := 0; n < ladderPlans; {
		r := g.planReq()
		if c := planClass(r.plan); !sentPlans[c] {
			sentPlans[c] = true
			out = append(out, r)
			n++
		}
	}
	return out
}

// runLadder is the traced run: it replays a sample of requests up the
// ladder, times the ingest path and the artifact builds in-process, and
// measures the dominant route's allocations in the handler.
func runLadder(ctx context.Context, cfg *config, c *client, ref *store.Store, baseRels, rels []relation,
	sent []phase, app *appender) (*ladderReport, error) {
	rep := &ladderReport{workload: cfg.workload}
	opt := storeOptions()
	srv := service.NewWithStore(ref, service.Options{MaxK: opt.MaxK, SampleSize: opt.SampleSize, GridSize: opt.GridSize})
	rt, err := shard.New([]shard.Shard{{ID: "knncostd", BaseURL: c.base}}, shard.Options{Replicas: 1, Client: c.hc})
	if err != nil {
		return nil, err
	}
	l := &ladder{rep: rep, ctx: ctx, ref: ref, srv: srv, router: rt, c: c,
		optPlanner: optimizer.NewPlanner(0), storePlanner: optimizer.NewPlanner(0)}
	for i, req := range ladderSample(cfg.seed, rels, sent) {
		l.replay(req, i+1)
	}

	// Allocations per request of the workload's dominant route, in the
	// handler alone.
	allocReq := request{kind: opSelect, rel: rels[1].name, x: rels[1].pts[0].X, y: rels[1].pts[0].Y, k: 25, technique: "staircase-cc"}
	if cfg.workload == "join_plan" {
		allocReq = newGen(cfg.seed+ladderStream+1, rels).planReq()
	}
	method, path, body, err := encode(allocReq)
	if err != nil {
		return nil, err
	}
	w := newRecorder()
	rd := bytes.NewReader(body)
	hr := httptest.NewRequest(method, path, rd)
	hr.Header.Set("Content-Type", "application/json")
	rep.allocsPerReq = testing.AllocsPerRun(allocRuns, func() {
		w.reset()
		rd.Reset(body)
		srv.ServeHTTP(w, hr)
	})
	if w.code != http.StatusOK {
		return nil, fmt.Errorf("allocation probe answered %d: %s", w.code, w.buf.Bytes())
	}

	if err := l.ingest(cfg, baseRels[0], app); err != nil {
		return nil, err
	}
	if err := l.builds(); err != nil {
		return nil, err
	}

	f, err := os.Create(filepath.Join(cfg.work, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed)))
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range rep.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return nil, err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	return rep, f.Close()
}

// ingest times the write path in-process: store.Append over a store with
// knncostd's default options and a WAL (its child rung: wal Append+Commit
// of the same record on a bare log), then Flush → WaitSettled compactions.
func (l *ladder) ingest(cfg *config, small relation, app *appender) error {
	dir := filepath.Join(cfg.work, fmt.Sprintf("ingest-%d", os.Getpid()))
	walDir := filepath.Join(cfg.work, fmt.Sprintf("wal-%d", os.Getpid()))
	os.RemoveAll(dir)
	os.RemoveAll(walDir)
	defer os.RemoveAll(dir)
	defer os.RemoveAll(walDir)
	opt := storeOptions()
	opt.CacheDir = dir
	st, err := buildReference(l.ctx, []relation{small}, opt)
	if err != nil {
		return err
	}
	defer st.Close(l.ctx)
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		return err
	}
	log, _, err := wal.Open(wal.Options{Dir: walDir})
	if err != nil {
		return err
	}
	defer log.Close()

	var batches [][]geom.Point
	for _, i := range app.acked {
		pts := make([]geom.Point, len(app.results[i].req.points))
		for j, p := range app.results[i].req.points {
			pts[j] = geom.Point{X: p[0], Y: p[1]}
		}
		batches = append(batches, pts)
	}
	if len(batches) < ladderAppends+ladderCompacts {
		return fmt.Errorf("only %d acknowledged appends to replay", len(batches))
	}
	for n, pts := range batches[:ladderAppends] {
		id := l.rep.nextID + 1
		l.rep.nextID += 2
		t0 := time.Now()
		if _, err := st.Append(small.name, pts); err != nil {
			return err
		}
		t1 := time.Now()
		lsn, err := log.Append(wal.Record{Kind: wal.KindAppend, Relation: small.name, Points: pts})
		if err == nil {
			err = log.Commit(lsn)
		}
		t2 := time.Now()
		if err != nil {
			return err
		}
		reqID := -(n + 1)
		l.rep.spans = append(l.rep.spans,
			span{ID: id, Request: reqID, Name: "store.append", StartNs: t0.UnixNano(), EndNs: t1.UnixNano(), Reps: 1},
			span{ID: id + 1, Parent: id, Request: reqID, Name: "wal.commit", StartNs: t1.UnixNano(), EndNs: t2.UnixNano(), Reps: 1})
	}
	if err := st.WaitSettled(l.ctx, small.name); err != nil {
		return err
	}
	for n, pts := range batches[ladderAppends : ladderAppends+ladderCompacts] {
		if _, err := st.Append(small.name, pts); err != nil {
			return err
		}
		t0 := time.Now()
		if err := st.Flush(small.name); err != nil {
			return err
		}
		if err := st.WaitSettled(l.ctx, small.name); err != nil {
			return err
		}
		t1 := time.Now()
		l.rep.nextID++
		l.rep.spans = append(l.rep.spans, span{ID: l.rep.nextID, Request: -(ladderAppends + n + 1),
			Name: "store.compact", StartNs: t0.UnixNano(), EndNs: t1.UnixNano(), Reps: 1})
	}
	return nil
}

// builds times the staircase and aknn summary builds of every relation of
// the reference and checks that the rebuilt artifacts answer like the
// published ones.
func (l *ladder) builds() error {
	v := l.ref.View()
	for _, name := range v.Names() {
		snap := v.Relation(name)
		t0 := time.Now()
		stair, err := core.BuildStaircase(snap.Tree, core.StaircaseOptions{
			MaxK: snap.Resolution.MaxK, Mode: snap.Resolution.StaircaseMode(), Fallback: snap.Density})
		if err != nil {
			return err
		}
		t1 := time.Now()
		sum := aknn.BuildSummaryCapacity(snap.Count, snap.Resolution.AknnCapacity)
		t2 := time.Now()
		l.rep.stairMs += float64(t1.Sub(t0)) / 1e6
		l.rep.aknnMs += float64(t2.Sub(t1)) / 1e6
		for _, p := range snap.Points[:16] {
			a, errA := stair.EstimateSelect(p, 25)
			b, errB := snap.Staircase.EstimateSelect(p, 25)
			if errA != nil || errB != nil || a != b {
				l.mismatch("rebuilt staircase of %s answers %v at %v, published %v", name, a, p, b)
				break
			}
		}
		if sum.StorageBytes() != snap.Aknn.StorageBytes() {
			l.mismatch("rebuilt aknn summary of %s has %d bytes, published %d", name, sum.StorageBytes(), snap.Aknn.StorageBytes())
		}
	}
	return nil
}

// addMetrics adds every per-layer metric of the traced run.
func (r *ladderReport) addMetrics(rep *report, vars map[string]any, listing []service.RelationInfo, apps []*appender) {
	first := len(rep.metrics)
	defer func() {
		for i := first; i < len(rep.metrics); i++ {
			rep.metrics[i].layer = true
		}
	}()
	us := func(ns []float64) []float64 {
		out := make([]float64, len(ns))
		for i, v := range ns {
			out[i] = v / 1e3
		}
		return out
	}
	ms := func(ns []float64) []float64 {
		out := make([]float64, len(ns))
		for i, v := range ns {
			out[i] = v / 1e6
		}
		return out
	}
	median := func(name, unit string, samples []float64) {
		rep.add(metric{name: name, unit: unit, value: p50(samples), samples: len(samples), source: "ladder"})
	}
	dominant := "select"
	if r.workload == "join_plan" {
		dominant = "plan"
	}
	median("knncostd.http_us_p50", "us", us(selfTimes(r.spans, "knncostd.select", "service.select")))
	median("service.handler_us_p50", "us", us(selfTimes(r.spans, "service."+dominant, "store."+dominant)))
	rep.add(metric{name: "service.allocs_per_req", unit: "allocs", value: r.allocsPerReq, samples: allocRuns, source: "ladder"})
	median("store.resolve_ns_p50", "ns", selfTimes(r.spans, "store.select", "engine.select"))
	median("engine.resolve_ns_p50", "ns", selfTimes(r.spans, "engine.select", "core.select"))
	median("core.select_ns_p50", "ns", durations(r.spans, "core.select"))
	median("core.batch_us_p50", "us", us(durations(r.spans, "core.batch")))
	median("core.join_ns_p50", "ns", durations(r.spans, "core.join"))
	median("aknn.join_us_p50", "us", us(durations(r.spans, "aknn.join")))
	median("optimizer.plan_us_p50", "us", us(durations(r.spans, "optimizer.plan")))

	hits, misses := varInt(vars, "knncost_plan_cache_hits"), varInt(vars, "knncost_plan_cache_misses")
	counter := func(name, unit string, v float64) {
		rep.add(metric{name: name, unit: unit, value: v, samples: 1, source: "counters"})
	}
	counter("optimizer.cache_hit_ratio", "ratio", ratio(hits, hits+misses))
	counter("optimizer.cache_evictions", "count", varInt(vars, "knncost_plan_cache_evictions"))
	counter("optimizer.cache_invalidations", "count", varInt(vars, "knncost_plan_cache_invalidations"))
	median("store.append_us_p50", "us", us(durations(r.spans, "store.append")))
	median("wal.commit_us_p50", "us", us(durations(r.spans, "wal.commit")))
	counter("wal.fsyncs_per_append", "ratio", ratio(varInt(vars, "knncost_wal_fsyncs"), varInt(vars, "knncost_wal_appends")))
	median("store.compact_ms_p50", "ms", ms(durations(r.spans, "store.compact")))
	counter("store.compactions", "count", varInt(vars, "knncost_compactions"))
	counter("store.catalog_builds", "count", varInt(vars, "knncost_catalog_builds"))
	rep.add(metric{name: "core.staircase_build_ms", unit: "ms", value: r.stairMs, samples: len(schemaSizes), source: "ladder"})
	rep.add(metric{name: "aknn.summary_build_ms", unit: "ms", value: r.aknnMs, samples: len(schemaSizes), source: "ladder"})
	artifactBytes := 0
	for _, rel := range listing {
		artifactBytes += rel.ArtifactBytes
	}
	counter("store.artifact_bytes", "bytes", float64(artifactBytes))
	median("shard.router_hop_us_p50", "us", us(selfTimes(r.spans, "shard.select", "knncostd.select")))

	var late []float64
	for _, app := range apps {
		for _, res := range app.results {
			late = append(late, float64(lateness(res.due, res.start))/1e6)
		}
	}
	v, _ := percentile(late, 0.99)
	rep.add(metric{name: "bench.generator_late_ms_p99", unit: "ms", value: v, samples: len(late), source: "appender"})
	traced := p50(us(durations(r.spans, "knncostd.select")))
	untraced := p50(r.untracedSelectUs)
	rep.add(metric{name: "bench.trace_overhead_pct", unit: "%", value: 100 * ratio(traced-untraced, untraced),
		samples: len(r.untracedSelectUs), source: "ladder"})
}
