package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"

	"knncost/internal/geom"
	"knncost/internal/index"
)

// The loaders read header fields and catalog counts from untrusted bytes (a
// shared catalog cache, a copied file). These fuzz targets pin the
// hardening contract on the loaders production runs: on any input they
// either return an error or produce an estimator whose methods do not
// panic — never a crash, and never an allocation sized by a hostile field
// (every count is validated against the payload before anything is sized
// by it). Each input is loaded twice, once as given and once from a copy
// shifted off 8-byte alignment, so the zero-copy borrow and the decode
// fallback of catalog.BorrowAligned must agree on the verdict and on every
// estimate.

// fuzzFixture is the shared small index (and serialized artifacts as seed
// corpus) for all three targets, built once per process.
var fuzzFixture struct {
	once      sync.Once
	data      *index.Tree
	staircase []byte
	merge     []byte
	vgrid     []byte
}

func fuzzSetup(tb testing.TB) {
	fuzzFixture.once.Do(func() {
		rng := rand.New(rand.NewSource(99))
		bounds := geom.NewRect(0, 0, 64, 64)
		fuzzFixture.data = buildIx(clusteredPoints(rng, 600, bounds), bounds, 32)
		other := buildIx(clusteredPoints(rng, 400, bounds), bounds, 32)

		s, err := BuildStaircase(fuzzFixture.data, StaircaseOptions{MaxK: 40})
		if err != nil {
			panic(err)
		}
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			panic(err)
		}
		fuzzFixture.staircase = append([]byte(nil), buf.Bytes()...)

		cm, err := BuildCatalogMerge(fuzzFixture.data.CountTree(), other.CountTree(), 20, 40)
		if err != nil {
			panic(err)
		}
		buf.Reset()
		if _, err := cm.WriteTo(&buf); err != nil {
			panic(err)
		}
		fuzzFixture.merge = append([]byte(nil), buf.Bytes()...)

		vg, err := BuildVirtualGrid(fuzzFixture.data.CountTree(), 4, 4, 40)
		if err != nil {
			panic(err)
		}
		buf.Reset()
		if _, err := vg.WriteTo(&buf); err != nil {
			panic(err)
		}
		fuzzFixture.vgrid = append([]byte(nil), buf.Bytes()...)
	})
}

// seedMutations adds the valid encoding plus systematic corruptions:
// truncations at several depths, trailing bytes, a corrupt magic, the
// header of the retired varint format, every header word set to all ones,
// and a hostile entry count in the first catalog. header is the byte
// offset of the first catalog (magic plus header words).
func seedMutations(f *testing.F, valid []byte, header int) {
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:1])
	for _, frac := range []int{8, 4, 2} {
		f.Add(valid[:len(valid)/frac])
	}
	f.Add(valid[:len(valid)-8])
	f.Add(append(append([]byte(nil), valid...), make([]byte, 8)...))
	for _, pos := range []int{3, len(valid) / 2} {
		mut := append([]byte(nil), valid...)
		mut[pos] ^= 0xFF
		f.Add(mut)
	}
	f.Add(append(append([]byte(nil), valid[:4]...), 0x01))
	for off := len(mappedMagicStaircase); off <= header; off += 8 {
		mut := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint64(mut[off:], ^uint64(0))
		f.Add(mut)
	}
}

// misaligned returns a copy of data that starts one byte past an 8-byte
// boundary, forcing catalog.BorrowAligned onto its decode fallback.
func misaligned(data []byte) []byte {
	buf := make([]byte, len(data)+1)
	copy(buf[1:], data)
	return buf[1:]
}

// sameVerdict fails t unless both loads accepted or both rejected, and
// reports whether they accepted.
func sameVerdict(t *testing.T, errA, errB error) bool {
	t.Helper()
	if (errA == nil) != (errB == nil) {
		t.Fatalf("aligned and misaligned loads disagree: %v vs %v", errA, errB)
	}
	return errA == nil
}

// sameEstimate fails t unless two estimates are bit-identical, errors
// included.
func sameEstimate(t *testing.T, what string, a float64, errA error, b float64, errB error) {
	t.Helper()
	if (errA == nil) != (errB == nil) || a != b {
		t.Fatalf("%s: aligned %g,%v vs misaligned %g,%v", what, a, errA, b, errB)
	}
}

func FuzzLoadStaircase(f *testing.F) {
	fuzzSetup(f)
	seedMutations(f, fuzzFixture.staircase, len(mappedMagicStaircase)+4*8)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, errA := LoadStaircase(fuzzFixture.data, data, StaircaseOptions{})
		m, errB := LoadStaircase(fuzzFixture.data, misaligned(data), StaircaseOptions{})
		if !sameVerdict(t, errA, errB) {
			return // rejection is always acceptable
		}
		// Accepted input must yield a usable estimator: estimates may fail
		// with an error (sparse hostile catalogs) but must never panic.
		for _, q := range []geom.Point{{X: 1, Y: 1}, {X: 32, Y: 32}, {X: 63, Y: 63}} {
			for _, k := range []int{1, 7, 40} {
				a, errA := s.EstimateSelect(q, k)
				b, errB := m.EstimateSelect(q, k)
				sameEstimate(t, "select", a, errA, b, errB)
			}
		}
	})
}

func FuzzLoadCatalogMerge(f *testing.F) {
	fuzzSetup(f)
	seedMutations(f, fuzzFixture.merge, len(mappedMagicCatalogMrg)+2*8)
	f.Fuzz(func(t *testing.T, data []byte) {
		cm, errA := LoadCatalogMerge(data)
		mm, errB := LoadCatalogMerge(misaligned(data))
		if !sameVerdict(t, errA, errB) {
			return
		}
		for _, k := range []int{1, 7, 40, 1000} {
			a, errA := cm.EstimateJoin(k)
			b, errB := mm.EstimateJoin(k)
			sameEstimate(t, "join", a, errA, b, errB)
		}
		_ = cm.StorageBytes()
	})
}

func FuzzLoadVirtualGrid(f *testing.F) {
	fuzzSetup(f)
	seedMutations(f, fuzzFixture.vgrid, len(mappedMagicVirtualGrid)+7*8)
	f.Fuzz(func(t *testing.T, data []byte) {
		vg, errA := LoadVirtualGrid(data)
		vm, errB := LoadVirtualGrid(misaligned(data))
		if !sameVerdict(t, errA, errB) {
			return
		}
		for _, k := range []int{1, 7, 40} {
			a, errA := vg.EstimateJoin(fuzzFixture.data, k)
			b, errB := vm.EstimateJoin(fuzzFixture.data, k)
			sameEstimate(t, "join", a, errA, b, errB)
		}
		_ = vg.StorageBytes()
	})
}
