package knncost_test

import (
	"bytes"
	"io"
	"runtime"
	"testing"

	"knncost"
)

// TestFacadeLoadedEstimatorsOutliveTheirBytes: the facade loaders read the
// stream into one heap buffer and the loaded catalogs borrow it in place.
// Once the caller's buffer is gone and the collector has run (with the
// freed memory recycled into fresh garbage), every estimate must still be
// bit-identical to the estimator the file was written from — the borrowed
// slices alone keep the buffer alive.
func TestFacadeLoadedEstimatorsOutliveTheirBytes(t *testing.T) {
	pts := knncost.GenerateOSMLike(8000, 21)
	ix := knncost.BuildQuadtreeIndex(pts, knncost.IndexOptions{Capacity: 64})
	other := knncost.BuildQuadtreeIndex(
		knncost.GenerateOSMLike(6000, 22), knncost.IndexOptions{Capacity: 64})
	const maxK = 120

	stair, err := knncost.NewStaircaseEstimator(ix, knncost.StaircaseOptions{MaxK: maxK})
	if err != nil {
		t.Fatal(err)
	}
	cm, err := knncost.NewCatalogMergeEstimator(ix, other, 50, maxK)
	if err != nil {
		t.Fatal(err)
	}
	vg, err := knncost.NewVirtualGridEstimator(other, 5, 5, maxK)
	if err != nil {
		t.Fatal(err)
	}

	// Each load gets its own buffer, dropped as soon as the helper returns.
	load := func(w io.WriterTo, read func(io.Reader) error) {
		t.Helper()
		buf := new(bytes.Buffer)
		if _, err := w.WriteTo(buf); err != nil {
			t.Fatal(err)
		}
		if err := read(buf); err != nil {
			t.Fatal(err)
		}
	}
	var (
		stairL *knncost.StaircaseEstimator
		cmL    *knncost.CatalogMergeEstimator
		vgL    *knncost.VirtualGridEstimator
	)
	load(stair, func(r io.Reader) (err error) {
		stairL, err = knncost.LoadStaircaseEstimator(ix, r, knncost.StaircaseOptions{})
		return err
	})
	load(cm, func(r io.Reader) (err error) {
		cmL, err = knncost.LoadCatalogMergeEstimator(r)
		return err
	})
	load(vg, func(r io.Reader) (err error) {
		vgL, err = knncost.LoadVirtualGridEstimator(r)
		return err
	})

	var garbage [][]byte
	for i := 0; i < 5; i++ {
		runtime.GC()
		for j := 0; j < 64; j++ {
			g := make([]byte, 64<<10)
			for b := range g {
				g[b] = 0xFF
			}
			garbage = append(garbage, g)
		}
		garbage = nil
	}

	for i, q := range pts[:200] {
		k := 1 + i%maxK
		a, errA := stair.EstimateSelect(q, k)
		b, errB := stairL.EstimateSelect(q, k)
		if (errA == nil) != (errB == nil) || a != b {
			t.Fatalf("staircase q=%v k=%d: built %g,%v loaded %g,%v", q, k, a, errA, b, errB)
		}
	}
	for k := 1; k <= maxK; k++ {
		a, errA := cm.EstimateJoin(k)
		b, errB := cmL.EstimateJoin(k)
		if (errA == nil) != (errB == nil) || a != b {
			t.Fatalf("catalog-merge k=%d: built %g,%v loaded %g,%v", k, a, errA, b, errB)
		}
		a, errA = vg.EstimateJoin(ix, k)
		b, errB = vgL.EstimateJoin(ix, k)
		if (errA == nil) != (errB == nil) || a != b {
			t.Fatalf("virtual-grid k=%d: built %g,%v loaded %g,%v", k, a, errA, b, errB)
		}
	}
}

// TestFacadeLoadersRejectVarintFormat: a stream in the retired varint
// format (four-byte magic, uvarint version 1, varint fields) is an error
// from every facade loader, never a panic.
func TestFacadeLoadersRejectVarintFormat(t *testing.T) {
	ix := knncost.BuildQuadtreeIndex(
		knncost.GenerateOSMLike(2000, 23), knncost.IndexOptions{Capacity: 64})
	old := func(magic string) io.Reader {
		// magic, version 1, then a few plausible varint header fields.
		return bytes.NewReader(append([]byte(magic), 0x01, 0x00, 0x78, 0x20, 0x90, 0x0F))
	}
	if _, err := knncost.LoadStaircaseEstimator(ix, old("KNCS"), knncost.StaircaseOptions{}); err == nil {
		t.Error("staircase: varint-format stream loaded without error")
	}
	if _, err := knncost.LoadCatalogMergeEstimator(old("KNCM")); err == nil {
		t.Error("catalog-merge: varint-format stream loaded without error")
	}
	if _, err := knncost.LoadVirtualGridEstimator(old("KNVG")); err == nil {
		t.Error("virtual-grid: varint-format stream loaded without error")
	}
}
