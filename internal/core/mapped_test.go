package core

import (
	"bytes"
	"math/rand"
	"testing"

	"knncost/internal/geom"
	"knncost/internal/rtree"
)

// TestStaircaseMappedRoundTrip: the mapped (zero-copy) format must be
// estimate-for-estimate identical to the builder, in every mode, and the
// loaded artifact's Resolution must reflect the persisted MaxK and mode —
// that round trip is what lets a warm restart rebuild resolution-keyed
// artifact caches without consulting the registry.
func TestStaircaseMappedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	bounds := geom.NewRect(0, 0, 100, 100)
	data := buildIx(clusteredPoints(rng, 3000, bounds), bounds, 64)
	for _, mode := range []StaircaseMode{ModeCenterCorners, ModeCenterOnly, ModeCenterQuadrant} {
		orig, err := BuildStaircase(data, StaircaseOptions{MaxK: 150, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		n, err := orig.WriteTo(&buf)
		if err != nil {
			t.Fatalf("%v WriteTo: %v", mode, err)
		}
		if n != int64(buf.Len()) {
			t.Errorf("%v: WriteTo reported %d bytes, wrote %d", mode, n, buf.Len())
		}
		loaded, err := LoadStaircase(data, buf.Bytes(), StaircaseOptions{})
		if err != nil {
			t.Fatalf("%v LoadStaircase: %v", mode, err)
		}
		if got, want := loaded.Resolution(), orig.Resolution(); got != want {
			t.Fatalf("%v: resolution round trip: got %+v, want %+v", mode, got, want)
		}
		if loaded.SizeBytes() != orig.SizeBytes() {
			t.Fatalf("%v: SizeBytes round trip: got %d, want %d", mode, loaded.SizeBytes(), orig.SizeBytes())
		}
		for i := 0; i < 300; i++ {
			q := geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
			k := 1 + rng.Intn(150)
			a, err := orig.EstimateSelect(q, k)
			if err != nil {
				t.Fatal(err)
			}
			b, err := loaded.EstimateSelect(q, k)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Fatalf("%v: estimates diverge at q=%v k=%d: %g vs %g", mode, q, k, a, b)
			}
		}
	}
}

func TestCatalogMergeMappedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	bounds := geom.NewRect(0, 0, 100, 100)
	outer := buildIx(clusteredPoints(rng, 1500, bounds), bounds, 32).CountTree()
	inner := buildIx(clusteredPoints(rng, 2000, bounds), bounds, 32).CountTree()
	orig, err := BuildCatalogMerge(outer, inner, 20, 120)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCatalogMerge(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := loaded.Resolution(), orig.Resolution(); got.MaxK != want.MaxK {
		t.Fatalf("resolution round trip: got %+v, want %+v", got, want)
	}
	for k := 1; k <= 120; k++ {
		a, errA := orig.EstimateJoin(k)
		b, errB := loaded.EstimateJoin(k)
		if (errA == nil) != (errB == nil) || a != b {
			t.Fatalf("k=%d: estimates diverge: %g,%v vs %g,%v", k, a, errA, b, errB)
		}
	}
}

func TestVirtualGridMappedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	bounds := geom.NewRect(0, 0, 100, 100)
	outer := buildIx(clusteredPoints(rng, 1200, bounds), bounds, 32).CountTree()
	inner := buildIx(clusteredPoints(rng, 1800, bounds), bounds, 32).CountTree()
	orig, err := BuildVirtualGrid(inner, 6, 4, 90)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadVirtualGrid(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := loaded.Resolution(), orig.Resolution(); got != want {
		t.Fatalf("resolution round trip: got %+v, want %+v", got, want)
	}
	bo, bl := orig.Bind(outer), loaded.Bind(outer)
	for k := 1; k <= 90; k++ {
		a, errA := bo.EstimateJoin(k)
		b, errB := bl.EstimateJoin(k)
		if (errA == nil) != (errB == nil) || a != b {
			t.Fatalf("k=%d: estimates diverge: %g,%v vs %g,%v", k, a, errA, b, errB)
		}
	}
}

// TestMappedLoadersRejectCorruptInput: every truncation of a valid mapped
// file, and a few byte corruptions, must produce an error — never a panic
// and never a silently wrong artifact. This is the property the store's
// rebuild-on-miss fallback relies on.
func TestMappedLoadersRejectCorruptInput(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	bounds := geom.NewRect(0, 0, 50, 50)
	data := buildIx(clusteredPoints(rng, 600, bounds), bounds, 32)
	stair, err := BuildStaircase(data, StaircaseOptions{MaxK: 40})
	if err != nil {
		t.Fatal(err)
	}
	vg, err := BuildVirtualGrid(data.CountTree(), 3, 3, 40)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := BuildCatalogMerge(data.CountTree(), data.CountTree(), 10, 40)
	if err != nil {
		t.Fatal(err)
	}

	var sb, vb, cb bytes.Buffer
	if _, err := stair.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if _, err := vg.WriteTo(&vb); err != nil {
		t.Fatal(err)
	}
	if _, err := cm.WriteTo(&cb); err != nil {
		t.Fatal(err)
	}

	loaders := []struct {
		name string
		full []byte
		load func([]byte) error
	}{
		{"staircase", sb.Bytes(), func(raw []byte) error {
			_, err := LoadStaircase(data, raw, StaircaseOptions{})
			return err
		}},
		{"virtual-grid", vb.Bytes(), func(raw []byte) error {
			_, err := LoadVirtualGrid(raw)
			return err
		}},
		{"catalog-merge", cb.Bytes(), func(raw []byte) error {
			_, err := LoadCatalogMerge(raw)
			return err
		}},
	}
	for _, l := range loaders {
		if err := l.load(l.full); err != nil {
			t.Fatalf("%s: valid file rejected: %v", l.name, err)
		}
		for cut := 0; cut < len(l.full); cut += 1 + len(l.full)/97 {
			if err := l.load(l.full[:cut]); err == nil {
				t.Fatalf("%s: truncation to %d/%d bytes loaded without error", l.name, cut, len(l.full))
			}
		}
		if err := l.load(append(append([]byte{}, l.full...), 0, 0, 0, 0, 0, 0, 0, 0)); err == nil {
			t.Fatalf("%s: trailing garbage loaded without error", l.name)
		}
		flipped := append([]byte{}, l.full...)
		flipped[3] ^= 0xFF // corrupt the magic
		if err := l.load(flipped); err == nil {
			t.Fatalf("%s: corrupt magic loaded without error", l.name)
		}
	}
}

// TestLoadCorruptData: empty input, a foreign magic, the header of the
// retired varint format (four-byte magic + uvarint version) and a
// truncated staircase file all fail to load.
func TestLoadCorruptData(t *testing.T) {
	if _, err := LoadCatalogMerge(nil); err == nil {
		t.Error("empty input should fail")
	}
	if _, err := LoadCatalogMerge([]byte("XXXX\x01")); err == nil {
		t.Error("bad magic should fail")
	}
	if _, err := LoadVirtualGrid([]byte("KNVG\x02")); err == nil {
		t.Error("bad version should fail")
	}
	rng := rand.New(rand.NewSource(36))
	bounds := geom.NewRect(0, 0, 10, 10)
	data := buildIx(randPoints(rng, 200, bounds), bounds, 16)
	if _, err := LoadStaircase(data, []byte("KNCS\x01"), StaircaseOptions{}); err == nil {
		t.Error("varint-format staircase header should fail")
	}
	if _, err := LoadCatalogMerge([]byte("KNCM\x01")); err == nil {
		t.Error("varint-format catalog-merge header should fail")
	}
	s, err := BuildStaircase(data, StaircaseOptions{MaxK: 30})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := LoadStaircase(data, trunc, StaircaseOptions{}); err == nil {
		t.Error("truncated staircase file should fail")
	}
}

func TestStaircaseLoadRejectsWrongIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	bounds := geom.NewRect(0, 0, 50, 50)
	data := buildIx(randPoints(rng, 1000, bounds), bounds, 32)
	other := buildIx(randPoints(rng, 1500, bounds), bounds, 32)
	s, err := BuildStaircase(data, StaircaseOptions{MaxK: 50})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadStaircase(other, buf.Bytes(), StaircaseOptions{}); err == nil {
		t.Error("loading against a different index must fail the fingerprint check")
	}
}

func TestStaircaseRoundTripOnRTree(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	bounds := geom.NewRect(0, 0, 100, 100)
	pts := clusteredPoints(rng, 2000, bounds)
	rt, err := rtree.Build(pts, rtree.Options{LeafCapacity: 64, Fanout: 8})
	if err != nil {
		t.Fatal(err)
	}
	data := rt.Index()
	orig, err := BuildStaircase(data, StaircaseOptions{MaxK: 80, AuxCapacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// The auxiliary quadtree is deterministic, so loading with the same
	// AuxCapacity reproduces the estimator.
	loaded, err := LoadStaircase(data, buf.Bytes(), StaircaseOptions{AuxCapacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	q := pts[17]
	a, err := orig.EstimateSelect(q, 40)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.EstimateSelect(q, 40)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("estimates diverge: %g vs %g", a, b)
	}
}
