package core

import (
	"sync"

	"knncost/internal/catalog"
	"knncost/internal/geom"
	"knncost/internal/index"
	"knncost/internal/knn"
)

// browserPool recycles distance-browsing state across Procedure 1 runs: the
// blocks-queue and tuples-queue a browser grows while simulating one anchor
// are reused for the next anchor instead of being reallocated. Staircase
// builds run Procedure 1 once per block center plus once per distinct block
// corner across many goroutines, so the pool is what makes preprocessing
// allocation-light.
//
// Pooling invariant: a Browser taken from the pool is used by exactly one
// goroutine and returned before the building function exits — it must never
// escape into a returned value or another goroutine.
var browserPool = sync.Pool{New: func() any { return new(knn.Browser) }}

// BuildSelectCatalog runs Procedure 1 of the paper: it simulates distance
// browsing from q over the data index and records, for every k in
// [1, maxK], the number of blocks scanned by the time the k-th neighbor is
// returned. Runs of equal cost collapse into intervals — the staircase of
// Figure 4.
//
// When the index holds fewer than maxK points, the remaining k range is
// assigned the cost of scanning the whole index (distance browsing will
// have consumed every block by then).
func BuildSelectCatalog(data *index.Tree, q geom.Point, maxK int) *catalog.Catalog {
	cat := &catalog.Catalog{}
	if maxK < 1 {
		return cat
	}
	browser := browserPool.Get().(*knn.Browser)
	defer browserPool.Put(browser)
	browser.Reset(data, q)
	startK := 1
	currentCost := -1
	k := 0
	for k < maxK {
		_, ok := browser.Next()
		if !ok {
			break
		}
		k++
		cost := browser.Stats().BlocksScanned
		if currentCost == -1 {
			currentCost = cost
			continue
		}
		if cost != currentCost {
			// appendInterval cannot fail: intervals are contiguous
			// by construction.
			mustAppend(cat, startK, k-1, currentCost)
			startK = k
			currentCost = cost
		}
	}
	if currentCost != -1 {
		mustAppend(cat, startK, k, currentCost)
		startK = k + 1
	}
	if startK <= maxK {
		// Fewer than maxK points: every block has been scanned.
		mustAppend(cat, startK, maxK, data.NumBlocks())
	}
	return cat
}

// mustAppend appends an interval that is contiguous by construction; a
// failure indicates a bug in the builder, not bad input.
func mustAppend(cat *catalog.Catalog, startK, endK, cost int) {
	if err := cat.Append(startK, endK, cost); err != nil {
		panic("core: non-contiguous catalog build: " + err.Error())
	}
}
