package main

import (
	"fmt"
	"math"
	"math/rand"

	"knncost/internal/datagen"
	"knncost/internal/geom"
	"knncost/internal/service"
)

// maxK is knncostd's default -maxk: the largest catalog-maintained k.
const maxK = 1000

// batchSize is the query count of every POST /estimate/select/batch.
const batchSize = 256

// appendSize is the point count of every POST /relations/{name}/points.
const appendSize = 32

// relation is one relation of the shared schema: its seeded name and its
// points in registration order.
type relation struct {
	name string
	pts  []geom.Point
}

// schemaSizes are the point counts of the three OSM-like relations.
var schemaSizes = []struct {
	role string
	n    int
}{{"small", 20000}, {"mid", 50000}, {"large", 200000}}

// datasetSeed fixes the points of the schema. The workload seed varies the
// relation names, k values and query points only, so that runs with
// different seeds measure the same data.
const datasetSeed = 20150323

// makeSchema generates the three relations: names from the workload seed,
// points from datasetSeed.
func makeSchema(seed int64) []relation {
	rng := rand.New(rand.NewSource(seed))
	rels := make([]relation, len(schemaSizes))
	for i, s := range schemaSizes {
		rels[i] = relation{
			name: fmt.Sprintf("%s_%04x", s.role, rng.Intn(1<<16)),
			pts:  datagen.OSMLike(s.n, datasetSeed+int64(i)),
		}
	}
	return rels
}

// opKind names the request kinds the load generator sends.
type opKind int

const (
	opSelect opKind = iota
	opBatch
	opJoin
	opPlan
	opAppend
	numOps
)

var opNames = [numOps]string{"select", "batch", "join", "plan", "append"}

func (k opKind) String() string { return opNames[k] }

// request is one generated HTTP request. Exactly the fields of its kind are
// set.
type request struct {
	kind opKind
	// select
	rel       string
	x, y      float64
	k         int
	technique string
	// batch
	batch *service.BatchSelectRequest
	// join
	outer, inner string
	// plan
	plan *service.PlanRequest
	// append
	points [][2]float64
}

// gen draws requests of every kind from one seeded stream. Each client owns
// its own gen, so the sequence a client sends depends only on the seed. The
// seed draws the values — k, query points, appended points — while the
// shape of the traffic — which relation, pair, technique and plan shape —
// cycles through a fixed pattern, so every seed sends the same mix.
type gen struct {
	rng  *rand.Rand
	rels []relation
	zipf *rand.Zipf
	// n counts the requests drawn per kind (aknn-bounds joins apart), the
	// position in each kind's pattern.
	n    [numOps]int
	aknn int
}

func newGen(seed int64, rels []relation) *gen {
	rng := rand.New(rand.NewSource(seed))
	// s = 1.3 keeps a popular head of small k values (plan-cache hits) over
	// a long tail of distinct ones (more fingerprints than the cache holds).
	return &gen{rng: rng, rels: rels, zipf: rand.NewZipf(rng, 1.3, 1, maxK-1)}
}

// next advances kind's pattern position.
func (g *gen) next(kind opKind) int {
	i := g.n[kind]
	g.n[kind]++
	return i
}

// logUniformK draws k log-uniformly from [1, 2·maxK]: about 9% of draws
// exceed maxK and take the staircase's density fallback.
func (g *gen) logUniformK() int {
	k := int(math.Exp(g.rng.Float64() * math.Log(2*maxK)))
	return max(1, min(k, 2*maxK))
}

// zipfK draws k in [1, maxK] with a Zipf-like skew toward small values.
func (g *gen) zipfK() int { return int(g.zipf.Uint64()) + 1 }

// point draws a query point for rel: half uniform over the world, half at
// one of rel's data points.
func (g *gen) point(rel *relation) (float64, float64) {
	if g.rng.Intn(2) == 0 {
		b := datagen.WorldBounds
		return b.Min.X + g.rng.Float64()*b.Width(), b.Min.Y + g.rng.Float64()*b.Height()
	}
	p := rel.pts[g.rng.Intn(len(rel.pts))]
	return p.X, p.Y
}

// pair returns the i-th ordered pair of distinct relations, cycling through
// all of them.
func (g *gen) pair(i int) (*relation, *relation) {
	n := len(g.rels)
	i %= n * (n - 1)
	outer, j := i/(n-1), i%(n-1)
	if j >= outer {
		j++
	}
	return &g.rels[outer], &g.rels[j]
}

// selectReq is one GET /estimate/select, cycling through the relations:
// staircase-cc, or density one time in eight.
func (g *gen) selectReq() request {
	i := g.next(opSelect)
	rel := &g.rels[i%len(g.rels)]
	x, y := g.point(rel)
	tech := "staircase-cc"
	if i%8 == 7 {
		tech = "density"
	}
	return request{kind: opSelect, rel: rel.name, x: x, y: y, k: g.logUniformK(), technique: tech}
}

// batchReq is one POST /estimate/select/batch of batchSize staircase-cc
// queries on one relation.
func (g *gen) batchReq() request {
	rel := &g.rels[g.next(opBatch)%len(g.rels)]
	b := &service.BatchSelectRequest{Relation: rel.name, Technique: "staircase-cc",
		Queries: make([]service.BatchSelectQuery, batchSize)}
	for i := range b.Queries {
		x, y := g.point(rel)
		b.Queries[i] = service.BatchSelectQuery{X: x, Y: y, K: g.logUniformK()}
	}
	return request{kind: opBatch, batch: b}
}

// joinReq is one GET /estimate/join over an ordered pair: catalog-merge
// mostly, virtual-grid one time in five, aknn-bounds one time in twenty.
// Each technique cycles through the pairs on its own.
func (g *gen) joinReq() request {
	i := g.next(opJoin)
	tech := "catalog-merge"
	var outer, inner *relation
	switch r := i % 20; {
	case r == 0:
		tech = "aknn-bounds"
		outer, inner = g.pair(g.aknn)
		g.aknn++
	case r <= 4:
		tech = "virtual-grid"
		outer, inner = g.pair(i / 5)
	default:
		outer, inner = g.pair(i)
	}
	return request{kind: opJoin, outer: outer.name, inner: inner.name, k: g.zipfK(), technique: tech}
}

// planReq is one POST /plan, cycling through the pairs and four shapes: two
// selects, or a join with a select on its outer or inner side; each with
// and without a filter selectivity.
func (g *gen) planReq() request {
	i := g.next(opPlan)
	p := &service.PlanRequest{}
	a, b := g.pair(i)
	sel := func(rel *relation) service.PlanSelect {
		x, y := g.point(rel)
		return service.PlanSelect{Relation: rel.name, X: x, Y: y, K: g.zipfK()}
	}
	switch shape := (i / 6) % 4; shape {
	case 0, 1:
		p.Selects = []service.PlanSelect{sel(a), sel(b)}
	default:
		p.Join = &service.PlanJoin{Outer: a.name, Inner: b.name, K: g.zipfK()}
		side := a
		if shape == 3 {
			side = b
		}
		p.Selects = []service.PlanSelect{sel(side)}
	}
	if (i/24)%2 == 1 {
		p.FilterSelectivity = 0.5
	}
	return request{kind: opPlan, plan: p}
}

// appendReq is one POST /relations/{rel}/points of appendSize points, each
// a jittered copy of one of rel's base points, kept inside the world bounds.
func (g *gen) appendReq(rel *relation) request {
	b := datagen.WorldBounds
	pts := make([][2]float64, appendSize)
	for i := range pts {
		p := rel.pts[g.rng.Intn(len(rel.pts))]
		x := p.X + g.rng.NormFloat64()*0.05
		y := p.Y + g.rng.NormFloat64()*0.05
		pts[i] = [2]float64{clamp(x, b.Min.X, b.Max.X), clamp(y, b.Min.Y, b.Max.Y)}
	}
	return request{kind: opAppend, rel: rel.name, points: pts}
}

func clamp(v, lo, hi float64) float64 { return math.Max(lo, math.Min(hi, v)) }
