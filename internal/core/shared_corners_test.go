package core

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"knncost/internal/catalog"
	"knncost/internal/geom"
	"knncost/internal/grid"
	"knncost/internal/index"
	"knncost/internal/oracle"
	"knncost/internal/quadtree"
	"knncost/internal/rtree"
)

// perBlockStaircase is the reference for the shared-corner build: every
// block runs Procedure 1 at its own center and at its own four corners, and
// the corners-catalog is their max-merge, exactly as §3 describes it.
func perBlockStaircase(t *testing.T, data *index.Tree, opt StaircaseOptions) *Staircase {
	t.Helper()
	aux := data
	if !data.Partitioning() {
		aux = auxiliaryIndex(data, opt.AuxCapacity)
	}
	n := aux.NumBlocks()
	s := &Staircase{aux: aux, mode: opt.Mode, maxK: opt.MaxK, center: make([]*catalog.Catalog, n)}
	switch opt.Mode {
	case ModeCenterCorners:
		s.corners = make([]*catalog.Catalog, n)
	case ModeCenterQuadrant:
		s.quads = make([][4]*catalog.Catalog, n)
	}
	for _, b := range aux.Blocks() {
		s.center[b.ID] = BuildSelectCatalog(data, b.Bounds.Center(), opt.MaxK)
		if opt.Mode == ModeCenterOnly {
			continue
		}
		var four [4]*catalog.Catalog
		for j, c := range b.Bounds.Corners() {
			four[j] = BuildSelectCatalog(data, c, opt.MaxK)
		}
		if opt.Mode == ModeCenterQuadrant {
			s.quads[b.ID] = four
			continue
		}
		merged, err := catalog.MergeMax(four[:])
		if err != nil {
			t.Fatal(err)
		}
		s.corners[b.ID] = merged
	}
	return s
}

// distinctCorners counts the bit-distinct corner points over the blocks.
func distinctCorners(tree *index.Tree) int {
	seen := map[[2]uint64]bool{}
	for _, b := range tree.Blocks() {
		for _, c := range b.Bounds.Corners() {
			seen[[2]uint64{math.Float64bits(c.X), math.Float64bits(c.Y)}] = true
		}
	}
	return len(seen)
}

func sameCatalog(t *testing.T, what string, block int, got, want *catalog.Catalog) {
	t.Helper()
	if !slices.Equal(got.Entries(), want.Entries()) {
		t.Fatalf("block %d %s catalog: got %v, want %v", block, what, got.Entries(), want.Entries())
	}
}

// Browsing each shared corner once must leave every catalog, its storage
// size and the serialized artifact exactly as a per-block build makes them,
// while running Procedure 1 only once per center and per distinct corner.
func TestStaircaseSharedCornersMatchPerBlockBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	bounds := geom.NewRect(0, 0, 100, 100)
	pts := clusteredPoints(rng, 3000, bounds)
	rt, err := rtree.Build(pts, rtree.Options{LeafCapacity: 48, Fanout: 8})
	if err != nil {
		t.Fatal(err)
	}
	type fixture struct {
		name string
		data *index.Tree
	}
	fixtures := []fixture{
		{"quadtree", buildIx(pts, bounds, 48)},
		{"grid", grid.Build(pts, bounds, 9, 7).Index()},
		{"rtree", rt.Index()},
	}
	for _, w := range oracle.Corpus(3, 600, 1) {
		if w.Name == "duplicates" || w.Name == "collinear" {
			fixtures = append(fixtures, fixture{w.Name, quadtree.Build(w.Points, quadtree.Options{Capacity: 16}).Index()})
		}
	}

	var runs atomic.Int64
	t.Cleanup(func() { procedure1 = BuildSelectCatalog })
	procedure1 = func(data *index.Tree, q geom.Point, maxK int) *catalog.Catalog {
		runs.Add(1)
		return BuildSelectCatalog(data, q, maxK)
	}

	for _, f := range fixtures {
		for _, mode := range []StaircaseMode{ModeCenterCorners, ModeCenterOnly, ModeCenterQuadrant} {
			t.Run(f.name+"/"+mode.String(), func(t *testing.T) {
				opt := StaircaseOptions{MaxK: 150, Mode: mode, AuxCapacity: 48, Parallelism: 4}
				runs.Store(0)
				got, err := BuildStaircase(f.data, opt)
				if err != nil {
					t.Fatal(err)
				}
				blocks := got.aux.NumBlocks()
				wantRuns := blocks
				if mode != ModeCenterOnly {
					corners := distinctCorners(got.aux)
					if blocks > 1 && corners >= 4*blocks {
						t.Fatalf("%d blocks share no corner (%d distinct)", blocks, corners)
					}
					wantRuns += corners
				}
				if n := runs.Load(); n != int64(wantRuns) {
					t.Fatalf("Procedure 1 ran %d times, want %d (blocks + distinct corners)", n, wantRuns)
				}

				want := perBlockStaircase(t, f.data, opt)
				if got.NumBlocks() != want.NumBlocks() {
					t.Fatalf("blocks: got %d, want %d", got.NumBlocks(), want.NumBlocks())
				}
				for i := range want.center {
					sameCatalog(t, "center", i, got.center[i], want.center[i])
					switch mode {
					case ModeCenterCorners:
						sameCatalog(t, "corners", i, got.corners[i], want.corners[i])
					case ModeCenterQuadrant:
						for j := range want.quads[i] {
							sameCatalog(t, "quadrant", i, got.quads[i][j], want.quads[i][j])
						}
					}
				}
				if got.StorageBytes() != want.StorageBytes() {
					t.Fatalf("StorageBytes: got %d, want %d", got.StorageBytes(), want.StorageBytes())
				}
				var gotBuf, wantBuf bytes.Buffer
				if _, err := got.WriteTo(&gotBuf); err != nil {
					t.Fatal(err)
				}
				if _, err := want.WriteTo(&wantBuf); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gotBuf.Bytes(), wantBuf.Bytes()) {
					t.Fatalf("WriteTo bytes differ (%d vs %d bytes)", gotBuf.Len(), wantBuf.Len())
				}
			})
		}
	}
}
