// Package catalog implements the interval catalogs at the heart of the
// paper's estimation techniques: sorted lists of entries
// ([kstart, kend], cost) stating that a k-NN operator costs `cost` block
// scans for any k in the interval (Figures 4 and 7). Catalogs support
// logarithmic lookup, the plane-sweep merge of Figure 8 (sum across
// catalogs, driven by a min-heap), the max-merge used for the staircase
// corners-catalog, and a compact binary encoding used to account for catalog
// storage exactly as §5 does.
package catalog

import (
	"encoding/binary"
	"errors"
	"fmt"

	"knncost/internal/pqueue"
)

// Entry states that the operator costs Cost block scans for every
// k in [StartK, EndK].
type Entry struct {
	StartK, EndK int
	Cost         int
}

// Catalog is a sorted, contiguous list of entries covering [1, MaxK()].
// Build it with Append; entries must be appended in ascending k order with
// no gaps. Adjacent entries with equal cost are coalesced automatically —
// the "stability" compression that keeps catalogs small (§3.1).
type Catalog struct {
	entries []Entry
}

// Append adds the entry ([startK, endK], cost). startK must continue the
// catalog contiguously (equal 1 for the first entry). Appending an entry
// with the same cost as the last extends it instead of growing the list.
func (c *Catalog) Append(startK, endK, cost int) error {
	if startK > endK {
		return fmt.Errorf("catalog: inverted interval [%d,%d]", startK, endK)
	}
	want := 1
	if n := len(c.entries); n > 0 {
		want = c.entries[n-1].EndK + 1
	}
	if startK != want {
		return fmt.Errorf("catalog: interval [%d,%d] does not continue at k=%d", startK, endK, want)
	}
	if n := len(c.entries); n > 0 && c.entries[n-1].Cost == cost {
		c.entries[n-1].EndK = endK
		return nil
	}
	c.entries = append(c.entries, Entry{StartK: startK, EndK: endK, Cost: cost})
	return nil
}

// Lookup returns the cost for the interval containing k using binary search.
// The boolean is false when k is outside [1, MaxK()] — the caller decides
// how to handle out-of-catalog values (the paper routes k > MAX_K to the
// density-based technique, Figure 5). Lookup performs no allocations; it is
// the innermost operation of every estimate the service answers.
func (c *Catalog) Lookup(k int) (int, bool) {
	if k < 1 || len(c.entries) == 0 || k > c.MaxK() {
		return 0, false
	}
	// Hand-rolled binary search for the first entry with EndK >= k: unlike
	// sort.Search there is no function value on the hot path.
	lo, hi := 0, len(c.entries)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.entries[mid].EndK < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return c.entries[lo].Cost, true
}

// Reset empties the catalog, retaining the allocated entry capacity. It is
// the reuse primitive for scratch catalogs (e.g. the per-corner temporaries
// of the staircase builder) that live in a pool.
func (c *Catalog) Reset() { c.entries = c.entries[:0] }

// Reserve ensures capacity for at least n entries, so that a builder that
// knows an upper bound on interval count avoids incremental growth.
func (c *Catalog) Reserve(n int) {
	if n > cap(c.entries) {
		grown := make([]Entry, len(c.entries), n)
		copy(grown, c.entries)
		c.entries = grown
	}
}

// Entries returns the underlying entries. The slice is shared; callers must
// not modify it.
func (c *Catalog) Entries() []Entry { return c.entries }

// Len returns the number of intervals.
func (c *Catalog) Len() int { return len(c.entries) }

// MaxK returns the largest k the catalog covers, zero when empty.
func (c *Catalog) MaxK() int {
	if len(c.entries) == 0 {
		return 0
	}
	return c.entries[len(c.entries)-1].EndK
}

// sweepSource tracks one catalog's cursor during a plane-sweep merge.
type sweepSource struct {
	entries []Entry
	pos     int
}

// merge sweeps the interval boundaries of cats (all covering [1, maxK]) in
// ascending order — a min-heap yields the next boundary, as §4.2.1
// prescribes — and combines the per-catalog costs of each elementary
// interval with combine.
func merge(cats []*Catalog, combine func(costs []int) int) (*Catalog, error) {
	if len(cats) == 0 {
		return nil, errors.New("catalog: merge of zero catalogs")
	}
	maxK := cats[0].MaxK()
	for i, c := range cats {
		if c.Len() == 0 || c.entries[0].StartK != 1 {
			return nil, fmt.Errorf("catalog: merge input %d does not start at k=1", i)
		}
		if c.MaxK() != maxK {
			return nil, fmt.Errorf("catalog: merge input %d covers up to %d, want %d", i, c.MaxK(), maxK)
		}
	}
	sources := make([]sweepSource, len(cats))
	costs := make([]int, len(cats))
	var boundaries pqueue.Queue[int] // indexes into sources, keyed by current EndK
	boundaries.Grow(len(cats))
	for i, c := range cats {
		sources[i] = sweepSource{entries: c.entries}
		costs[i] = c.entries[0].Cost
		boundaries.Push(i, float64(c.entries[0].EndK))
	}
	out := &Catalog{}
	start := 1
	for start <= maxK {
		endF, _ := boundaries.PeekPriority()
		end := int(endF)
		if err := out.Append(start, end, combine(costs)); err != nil {
			return nil, err
		}
		// Advance every catalog whose current interval ends here.
		for {
			p, ok := boundaries.PeekPriority()
			if !ok || int(p) != end {
				break
			}
			i, _ := boundaries.Pop()
			s := &sources[i]
			s.pos++
			if s.pos < len(s.entries) {
				costs[i] = s.entries[s.pos].Cost
				boundaries.Push(i, float64(s.entries[s.pos].EndK))
			}
		}
		start = end + 1
	}
	return out, nil
}

// MergeSum produces the aggregate catalog of Figure 8: for every k the cost
// is the sum of the input catalogs' costs at k. All inputs must cover the
// same [1, maxK] domain.
func MergeSum(cats []*Catalog) (*Catalog, error) {
	return merge(cats, func(costs []int) int {
		total := 0
		for _, c := range costs {
			total += c
		}
		return total
	})
}

// MergeMax produces the corners-catalog of §3.2: for every k the maximum
// cost across the inputs. All inputs must cover the same [1, maxK] domain.
func MergeMax(cats []*Catalog) (*Catalog, error) {
	return merge(cats, func(costs []int) int {
		m := costs[0]
		for _, c := range costs[1:] {
			if c > m {
				m = c
			}
		}
		return m
	})
}

// marshal format: uvarint entry count, then per entry uvarint(EndK delta
// from previous EndK) and uvarint(Cost). StartK values are implied by
// contiguity, so each entry costs only a few bytes — this is the storage the
// experiments of §5 account for. It is a size metric, not a file format:
// persisted catalogs use the aligned encoding (aligned.go), and nothing
// decodes this one.
const marshalHeader = byte(0x01) // format version

// MarshalBinary encodes the catalog compactly; StorageBytes is its length.
func (c *Catalog) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 1, 1+10*len(c.entries))
	buf[0] = marshalHeader
	buf = binary.AppendUvarint(buf, uint64(len(c.entries)))
	prevEnd := 0
	for _, e := range c.entries {
		buf = binary.AppendUvarint(buf, uint64(e.EndK-prevEnd))
		buf = binary.AppendUvarint(buf, uint64(e.Cost))
		prevEnd = e.EndK
	}
	return buf, nil
}

// StorageBytes returns the size of the binary encoding — the storage
// overhead metric of the paper's Figures 14, 20 and 22.
func (c *Catalog) StorageBytes() int {
	b, err := c.MarshalBinary()
	if err != nil {
		// MarshalBinary cannot fail on a well-formed catalog.
		panic(err)
	}
	return len(b)
}
