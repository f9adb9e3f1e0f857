package main

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"knncost/internal/aknn"
	"knncost/internal/core"
	"knncost/internal/datagen"
	"knncost/internal/engine"
	"knncost/internal/geom"
	"knncost/internal/knn"
	"knncost/internal/knnjoin"
	"knncost/internal/optimizer"
	"knncost/internal/service"
	"knncost/internal/store"
)

// storeOptions are the store options knncostd runs with at its default
// flags. The reference store and the traced ladder use them so that their
// answers can be compared with the daemon's bit for bit.
func storeOptions() store.Options {
	return store.Options{
		MaxK:          maxK,
		SampleSize:    200,
		GridSize:      10,
		IndexCapacity: 256,
		Bounds:        datagen.WorldBounds,
	}
}

// buildReference registers rels in a fresh in-process store and waits until
// every catalog is built.
func buildReference(ctx context.Context, rels []relation, opt store.Options) (*store.Store, error) {
	st, err := store.New(opt)
	if err != nil {
		return nil, err
	}
	for _, r := range rels {
		if _, err := st.Register(r.name, r.pts); err != nil {
			st.Close(ctx)
			return nil, err
		}
	}
	if err := st.WaitReady(ctx); err != nil {
		st.Close(ctx)
		return nil, err
	}
	return st, nil
}

// selectEstimator resolves technique on snap through the engine's registry,
// as the service does per request.
func selectEstimator(snap *store.Snapshot, technique string) (core.SelectEstimator, error) {
	t, err := engine.LookupSelect(technique)
	if err != nil {
		return nil, err
	}
	return t.Estimator(snap.Engine)
}

// joinEstimator resolves technique on the ordered pair (o ⋉ i).
func joinEstimator(o, i *store.Snapshot, technique string) (core.JoinEstimator, error) {
	t, err := engine.LookupJoin(technique)
	if err != nil {
		return nil, err
	}
	return t.Estimator(o.Engine, i.Engine)
}

// refSelect is the reference select estimate on snap.
func refSelect(snap *store.Snapshot, technique string, x, y float64, k int) (float64, error) {
	est, err := selectEstimator(snap, technique)
	if err != nil {
		return 0, err
	}
	return est.EstimateSelect(geom.Point{X: x, Y: y}, k)
}

// refJoin is the reference join estimate on the ordered pair (o ⋉ i).
func refJoin(o, i *store.Snapshot, technique string, k int) (float64, error) {
	est, err := joinEstimator(o, i, technique)
	if err != nil {
		return 0, err
	}
	return est.EstimateJoin(k)
}

// viewSelect and viewJoin look the relations up in v first.
func viewSelect(v *store.View, rel, technique string, x, y float64, k int) (float64, error) {
	snap := v.Relation(rel)
	if snap == nil {
		return 0, fmt.Errorf("reference has no relation %q", rel)
	}
	return refSelect(snap, technique, x, y, k)
}

func viewJoin(v *store.View, outer, inner, technique string, k int) (float64, error) {
	o, i := v.Relation(outer), v.Relation(inner)
	if o == nil || i == nil {
		return 0, fmt.Errorf("reference lacks %q or %q", outer, inner)
	}
	return refJoin(o, i, technique, k)
}

// planQuery converts a POST /plan body to the optimizer's query.
func planQuery(p *service.PlanRequest) optimizer.Query {
	q := optimizer.Query{Selectivity: p.FilterSelectivity}
	for _, s := range p.Selects {
		q.Selects = append(q.Selects, optimizer.SelectPredicate{
			Relation: s.Relation, Query: geom.Point{X: s.X, Y: s.Y}, K: s.K, Technique: s.Technique})
	}
	if j := p.Join; j != nil {
		q.Join = &optimizer.JoinPredicate{Outer: j.Outer, Inner: j.Inner, K: j.K, Technique: j.Technique}
	}
	return q
}

// planResponseOf shapes an optimizer decision like the /plan handler does:
// the chosen plan with its cost terms, then every alternative in order.
func planResponseOf(d *optimizer.Decision) *service.PlanResponse {
	alt := func(p *optimizer.Plan) service.PlanAlternative {
		return service.PlanAlternative{Description: p.Description, EstimatedBlocks: p.EstimatedCost}
	}
	resp := &service.PlanResponse{Chosen: alt(d.Chosen), Cached: d.Cached}
	for _, t := range d.Chosen.Terms {
		resp.Chosen.Terms = append(resp.Chosen.Terms, service.PlanTerm{Kind: string(t.Kind), Relation: t.Relation,
			Inner: t.Inner, K: t.K, Technique: t.Technique, Count: t.Count, Blocks: t.Blocks})
	}
	for _, p := range d.Alternatives {
		resp.Alternatives = append(resp.Alternatives, alt(p))
	}
	return resp
}

// planText is a /plan answer in canonical text form — every description,
// cost and term, with floats in their shortest exact form — so that two
// answers compare bit for bit. The cache flag and timing are left out.
func planText(p *service.PlanResponse) string {
	var b strings.Builder
	for _, t := range p.Chosen.Terms {
		fmt.Fprintf(&b, "[%s %s %s %d %s %s %s]", t.Kind, t.Relation, t.Inner, t.K, t.Technique,
			floatText(t.Count), floatText(t.Blocks))
	}
	for _, a := range append([]service.PlanAlternative{p.Chosen}, p.Alternatives...) {
		fmt.Fprintf(&b, "%s=%s;", a.Description, floatText(a.EstimatedBlocks))
	}
	return b.String()
}

func floatText(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// planClass is a plan request's cache class: the request with its
// coordinates cleared. The plan cache keys on everything else, so a cached
// answer was priced for some request of the same class.
func planClass(p *service.PlanRequest) string {
	c := *p
	c.Selects = append([]service.PlanSelect(nil), p.Selects...)
	for i := range c.Selects {
		c.Selects[i].X, c.Selects[i].Y = 0, 0
	}
	if p.Join != nil {
		j := *p.Join
		c.Join = &j
	}
	return fmt.Sprintf("%+v|%+v", c.Selects, c.Join)
}

// checker compares daemon answers with the in-process reference. The plan
// cache prices a class at its first binding, so a plan answer is accepted
// when it equals the reference plan of any request of its class that was
// sent.
type checker struct {
	view     *store.View
	classes  map[string][]*service.PlanRequest
	planMemo map[*service.PlanRequest]string
	joins    *joinMemo
	// skip reports requests whose answer depends on a relation mutated
	// while they ran; those get the structural checks only.
	skip func(request) bool

	failed   int
	messages []string
}

func newChecker(view *store.View, joins *joinMemo, plans []*service.PlanRequest, skip func(request) bool) *checker {
	c := &checker{view: view, joins: joins, classes: map[string][]*service.PlanRequest{}, skip: skip}
	for _, p := range plans {
		k := planClass(p)
		c.classes[k] = append(c.classes[k], p)
	}
	return c
}

// checkAll checks every result of phases, split over checkWorkers
// goroutines that each keep their own memo tables.
func (c *checker) checkAll(phases []phase) {
	var all []*result
	for _, ph := range phases {
		for i := range ph.results {
			all = append(all, &ph.results[i])
		}
	}
	workers := make([]*checker, checkWorkers)
	var wg sync.WaitGroup
	for w := range workers {
		cw := &checker{view: c.view, joins: c.joins, classes: c.classes, skip: c.skip,
			planMemo: map[*service.PlanRequest]string{}}
		workers[w] = cw
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(all); i += checkWorkers {
				cw.check(all[i])
			}
		}(w)
	}
	wg.Wait()
	for _, cw := range workers {
		c.failed += cw.failed
		for _, m := range cw.messages {
			if len(c.messages) < 10 {
				c.messages = append(c.messages, m)
			}
		}
	}
}

// checkWorkers is the checking parallelism: one worker per core of the
// reference machine (the daemon is idle while answers are checked).
const checkWorkers = 2

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.messages) < 10 {
		c.messages = append(c.messages, fmt.Sprintf(format, args...))
	}
}

// plan returns the canonical text of the reference plan for p.
func (c *checker) plan(p *service.PlanRequest) (string, error) {
	if d, ok := c.planMemo[p]; ok {
		return d, nil
	}
	d, err := optimizer.PlanOnce(c.view, planQuery(p))
	if err != nil {
		return "", err
	}
	c.planMemo[p] = planText(planResponseOf(d))
	return c.planMemo[p], nil
}

// joinMemo memoizes reference join estimates across checkers, per view:
// aknn-bounds estimates cost milliseconds, and skewed k values repeat.
type joinMemo struct {
	mu sync.Mutex
	m  map[joinKey]float64
}

type joinKey struct {
	view                    *store.View
	outer, inner, technique string
	k                       int
}

func (jm *joinMemo) estimate(v *store.View, req request) (float64, error) {
	key := joinKey{v, req.outer, req.inner, req.technique, req.k}
	jm.mu.Lock()
	want, ok := jm.m[key]
	jm.mu.Unlock()
	if ok {
		return want, nil
	}
	want, err := viewJoin(v, req.outer, req.inner, req.technique, req.k)
	if err == nil {
		jm.mu.Lock()
		jm.m[key] = want
		jm.mu.Unlock()
	}
	return want, err
}

func finiteNonNeg(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) && f >= 0 }

// check verifies one successful result; transport and status failures were
// counted when the request ran.
func (c *checker) check(r *result) {
	if r.err != nil {
		return
	}
	exact := c.skip == nil || !c.skip(r.req)
	req := r.req
	switch req.kind {
	case opSelect:
		if !finiteNonNeg(r.blocks) {
			c.fail("select %+v: blocks %v", req, r.blocks)
		} else if exact {
			want, err := viewSelect(c.view, req.rel, req.technique, req.x, req.y, req.k)
			if err != nil || want != r.blocks {
				c.fail("select %s (%v,%v) k=%d %s: got %v, reference %v (%v)",
					req.rel, req.x, req.y, req.k, req.technique, r.blocks, want, err)
			}
		}
	case opJoin:
		if !finiteNonNeg(r.blocks) {
			c.fail("join %+v: blocks %v", req, r.blocks)
		} else if exact {
			want, err := c.joins.estimate(c.view, req)
			if err != nil || want != r.blocks {
				c.fail("join %s⋉%s k=%d %s: got %v, reference %v (%v)",
					req.outer, req.inner, req.k, req.technique, r.blocks, want, err)
			}
		}
	case opBatch:
		if len(r.batch.Results) != len(req.batch.Queries) {
			c.fail("batch on %s: %d results for %d queries", req.batch.Relation, len(r.batch.Results), len(req.batch.Queries))
			return
		}
		for i, q := range req.batch.Queries {
			got := r.batch.Results[i]
			if got.Error != "" || !finiteNonNeg(got.Blocks) {
				c.fail("batch on %s query %d: %+v", req.batch.Relation, i, got)
				return
			}
			if !exact {
				continue
			}
			want, err := viewSelect(c.view, req.batch.Relation, req.batch.Technique, q.X, q.Y, q.K)
			if err != nil || want != got.Blocks {
				c.fail("batch on %s query %d: got %v, reference %v (%v)", req.batch.Relation, i, got.Blocks, want, err)
				return
			}
		}
	case opPlan:
		if len(r.plan.Alternatives) == 0 || !finiteNonNeg(r.plan.Chosen.EstimatedBlocks) {
			c.fail("plan %+v: malformed answer %+v", req.plan, r.plan)
			return
		}
		if !exact {
			return
		}
		got := planText(r.plan)
		if want, err := c.plan(req.plan); err == nil && got == want {
			return
		}
		// A cache hit, or a lookup coalesced with a concurrent build of the
		// same class (which reports cached: false), carries another
		// binding's plan.
		for _, other := range c.classes[planClass(req.plan)] {
			if want, err := c.plan(other); err == nil && got == want {
				return
			}
		}
		c.fail("plan %+v: answer %+v matches no reference plan of its class", req.plan, r.plan.Chosen)
	case opAppend:
		if r.info.Name != req.rel {
			c.fail("append to %s acknowledged for %q", req.rel, r.info.Name)
		}
	}
}

// truth memoizes ground-truth costs: distance-browsing blocks for selects,
// locality blocks for the locality join techniques and candidate points for
// aknn-bounds, all computed in-process on the reference snapshots.
type truth struct {
	view *store.View
	memo map[string]float64
}

func (t *truth) of(req request) (float64, bool) {
	switch req.kind {
	case opSelect:
		snap := t.view.Relation(req.rel)
		if snap == nil {
			return 0, false
		}
		return float64(knn.SelectCost(snap.Tree, geom.Point{X: req.x, Y: req.y}, req.k)), true
	case opJoin:
		o, i := t.view.Relation(req.outer), t.view.Relation(req.inner)
		if o == nil || i == nil {
			return 0, false
		}
		aknnTruth := req.technique == engine.TechAknnBounds
		key := fmt.Sprintf("%s|%s|%d|%v", req.outer, req.inner, req.k, aknnTruth)
		if v, ok := t.memo[key]; ok {
			return v, true
		}
		var v float64
		if aknnTruth {
			v = float64(aknn.Cost(o.Count, i.Count, req.k))
		} else {
			v = float64(knnjoin.Cost(o.Count, i.Count, req.k))
		}
		t.memo[key] = v
		return v, true
	}
	return 0, false
}
