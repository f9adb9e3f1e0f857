package catalog

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func mustAppend(t *testing.T, c *Catalog, startK, endK, cost int) {
	t.Helper()
	if err := c.Append(startK, endK, cost); err != nil {
		t.Fatalf("Append(%d,%d,%d): %v", startK, endK, cost, err)
	}
}

// paperCatalog reproduces Figure 4(b) of the paper.
func paperCatalog(t *testing.T) *Catalog {
	t.Helper()
	c := &Catalog{}
	mustAppend(t, c, 1, 520, 3)
	mustAppend(t, c, 521, 675, 7)
	mustAppend(t, c, 676, 3496, 8)
	mustAppend(t, c, 3497, 4699, 12)
	mustAppend(t, c, 4700, 5837, 13)
	mustAppend(t, c, 5838, 10000, 14)
	return c
}

func TestLookupFigure4(t *testing.T) {
	c := paperCatalog(t)
	cases := []struct {
		k, want int
	}{
		{1, 3}, {520, 3}, {521, 7}, {675, 7}, {676, 8},
		{3496, 8}, {3497, 12}, {4699, 12}, {4700, 13}, {5838, 14}, {10000, 14},
	}
	for _, cse := range cases {
		got, ok := c.Lookup(cse.k)
		if !ok || got != cse.want {
			t.Errorf("Lookup(%d) = %d (%v), want %d", cse.k, got, ok, cse.want)
		}
	}
	if _, ok := c.Lookup(0); ok {
		t.Error("Lookup(0) should fail")
	}
	if _, ok := c.Lookup(10001); ok {
		t.Error("Lookup beyond MaxK should fail")
	}
	if c.MaxK() != 10000 {
		t.Errorf("MaxK = %d, want 10000", c.MaxK())
	}
	if c.Len() != 6 {
		t.Errorf("Len = %d, want 6", c.Len())
	}
}

func TestAppendValidation(t *testing.T) {
	c := &Catalog{}
	if err := c.Append(2, 5, 1); err == nil {
		t.Error("first entry must start at 1")
	}
	mustAppend(t, c, 1, 5, 1)
	if err := c.Append(7, 9, 2); err == nil {
		t.Error("gap should be rejected")
	}
	if err := c.Append(6, 5, 2); err == nil {
		t.Error("inverted interval should be rejected")
	}
}

func TestAppendCoalesces(t *testing.T) {
	c := &Catalog{}
	mustAppend(t, c, 1, 10, 4)
	mustAppend(t, c, 11, 20, 4)
	mustAppend(t, c, 21, 30, 5)
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (equal-cost entries must coalesce)", c.Len())
	}
	if got, _ := c.Lookup(15); got != 4 {
		t.Errorf("Lookup(15) = %d, want 4", got)
	}
}

func TestEmptyCatalog(t *testing.T) {
	c := &Catalog{}
	if _, ok := c.Lookup(1); ok {
		t.Error("Lookup on empty catalog should fail")
	}
	if c.MaxK() != 0 || c.Len() != 0 {
		t.Error("empty catalog should have MaxK 0 and Len 0")
	}
}

// TestMergeSumFigure8 reproduces the worked example of Figure 8: four
// temporary catalogs with boundaries k1 < k2 < k3 merge into the aggregate
// catalog 17, 25, 29, 32.
func TestMergeSumFigure8(t *testing.T) {
	// Using k1=100, k2=200, k3=300, maxK=400.
	// Block 1: cost 2 until k1... the figure shows per-block catalogs with
	// one boundary each: block1: (2 -> 13 at k2), block2: (5 -> 13? ...).
	// The figure's arithmetic: [1,k1]=2+5+6+4=17; [k1,k2]=17-5+13=25;
	// [k2,k3]=25-4+8=29; [k3,..]=29-6+9=32. So block2 changes 5->13 at k1,
	// block4 changes 4->8 at k2, block3 changes 6->9 at k3.
	c1 := &Catalog{}
	mustAppend(t, c1, 1, 400, 2)
	c2 := &Catalog{}
	mustAppend(t, c2, 1, 100, 5)
	mustAppend(t, c2, 101, 400, 13)
	c3 := &Catalog{}
	mustAppend(t, c3, 1, 300, 6)
	mustAppend(t, c3, 301, 400, 9)
	c4 := &Catalog{}
	mustAppend(t, c4, 1, 200, 4)
	mustAppend(t, c4, 201, 400, 8)

	m, err := MergeSum([]*Catalog{c1, c2, c3, c4})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ k, want int }{
		{1, 17}, {100, 17}, {101, 25}, {200, 25}, {201, 29}, {300, 29}, {301, 32}, {400, 32},
	}
	for _, cse := range cases {
		got, ok := m.Lookup(cse.k)
		if !ok || got != cse.want {
			t.Errorf("merged Lookup(%d) = %d (%v), want %d", cse.k, got, ok, cse.want)
		}
	}
}

func TestMergeErrors(t *testing.T) {
	a := &Catalog{}
	mustAppend(t, a, 1, 100, 1)
	b := &Catalog{}
	mustAppend(t, b, 1, 50, 1)

	// Both merge flavors share the validation, and the messages are load
	// bearing: the store surfaces them verbatim when a mixed-resolution
	// fleet hands mismatched-MaxK catalogs to a pairwise merge.
	merges := []struct {
		name  string
		merge func([]*Catalog) (*Catalog, error)
	}{
		{"MergeSum", MergeSum},
		{"MergeMax", MergeMax},
	}
	for _, m := range merges {
		if _, err := m.merge(nil); err == nil || err.Error() != "catalog: merge of zero catalogs" {
			t.Errorf("%s(nil) error = %v, want 'catalog: merge of zero catalogs'", m.name, err)
		}
		if _, err := m.merge([]*Catalog{}); err == nil || err.Error() != "catalog: merge of zero catalogs" {
			t.Errorf("%s(empty) error = %v, want 'catalog: merge of zero catalogs'", m.name, err)
		}
		if _, err := m.merge([]*Catalog{a, b}); err == nil ||
			err.Error() != "catalog: merge input 1 covers up to 50, want 100" {
			t.Errorf("%s(mismatched MaxK) error = %v, want 'catalog: merge input 1 covers up to 50, want 100'", m.name, err)
		}
		if _, err := m.merge([]*Catalog{a, {}}); err == nil ||
			!strings.Contains(err.Error(), "merge input 1") {
			t.Errorf("%s(empty input catalog) error = %v, want a 'merge input 1' validation error", m.name, err)
		}
	}
}

func TestMergeMax(t *testing.T) {
	a := &Catalog{}
	mustAppend(t, a, 1, 10, 3)
	mustAppend(t, a, 11, 20, 9)
	b := &Catalog{}
	mustAppend(t, b, 1, 15, 5)
	mustAppend(t, b, 16, 20, 6)
	m, err := MergeMax([]*Catalog{a, b})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ k, want int }{{1, 5}, {10, 5}, {11, 9}, {15, 9}, {16, 9}, {20, 9}}
	for _, cse := range cases {
		if got, _ := m.Lookup(cse.k); got != cse.want {
			t.Errorf("max Lookup(%d) = %d, want %d", cse.k, got, cse.want)
		}
	}
}

// randomCatalog builds a valid random catalog over [1, maxK].
func randomCatalog(rng *rand.Rand, maxK int) *Catalog {
	c := &Catalog{}
	start := 1
	for start <= maxK {
		end := start + rng.Intn(maxK/3+1)
		if end > maxK {
			end = maxK
		}
		// Errors are impossible by construction.
		_ = c.Append(start, end, rng.Intn(50))
		start = end + 1
	}
	return c
}

// Property: MergeSum equals naive per-k summation; MergeMax equals naive
// per-k max.
func TestMergeMatchesNaiveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		maxK := 20 + local.Intn(200)
		n := 1 + local.Intn(6)
		cats := make([]*Catalog, n)
		for i := range cats {
			cats[i] = randomCatalog(local, maxK)
		}
		sum, err := MergeSum(cats)
		if err != nil {
			return false
		}
		mx, err := MergeMax(cats)
		if err != nil {
			return false
		}
		for k := 1; k <= maxK; k++ {
			wantSum, wantMax := 0, 0
			for _, c := range cats {
				v, ok := c.Lookup(k)
				if !ok {
					return false
				}
				wantSum += v
				if v > wantMax {
					wantMax = v
				}
			}
			if got, _ := sum.Lookup(k); got != wantSum {
				return false
			}
			if got, _ := mx.Lookup(k); got != wantMax {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// Property: the aligned encoding round-trips the catalog exactly, both
// when the entries are borrowed in place and when a misaligned input forces
// the decoding fallback; StorageBytes is the length of the varint encoding.
func TestMarshalRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		c := randomCatalog(local, 10+local.Intn(5000))
		data, err := c.MarshalBinary()
		if err != nil || c.StorageBytes() != len(data) {
			return false
		}
		enc := c.AppendAligned(make([]byte, 1, 1+c.AlignedSize()))
		for _, raw := range [][]byte{enc[1:], append([]byte(nil), enc[1:]...)} {
			var back Catalog
			if n, err := back.BorrowAligned(raw); err != nil || n != c.AlignedSize() {
				return false
			}
			if back.Len() != c.Len() || back.MaxK() != c.MaxK() {
				return false
			}
			for i, e := range c.Entries() {
				if back.Entries()[i] != e {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestStorageBytesCompact(t *testing.T) {
	c := paperCatalog(t)
	// 6 entries should take only tens of bytes thanks to varint deltas.
	if got := c.StorageBytes(); got > 40 {
		t.Errorf("StorageBytes = %d, expected compact (< 40) encoding", got)
	}
}
