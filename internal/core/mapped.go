package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"knncost/internal/catalog"
	"knncost/internal/geom"
	"knncost/internal/grid"
	"knncost/internal/index"
	"knncost/internal/ptloc"
)

// Catalog persistence: a query optimizer builds its statistics once and
// keeps them across restarts. Staircase, CatalogMerge and VirtualGrid
// serialize to one aligned format (magics KNCSMAP, KNCMMAP, KNVGMAP):
// every header field is a fixed-width little-endian uint64 and every
// catalog is stored in the aligned encoding of catalog.AppendAligned, so a
// loader handed the file bytes borrows the catalogs in place instead of
// decoding them onto the heap. All sections are multiples of 8 bytes,
// keeping each catalog 8-byte aligned relative to the start of the bytes
// (page-aligned for an mmap'd file, 8-aligned for a Go heap buffer).
// Loading a Staircase requires the same data index (its catalogs attach to
// that index's blocks, and the file records a fingerprint to catch
// mismatches); CatalogMerge and VirtualGrid load standalone.
//
// Lifetime: loaded artifacts alias the input bytes. A heap buffer stays
// alive through the borrowed slices; an mmap'd file must be pinned on the
// artifact (see Pin and internal/mmapfile).

const (
	mappedMagicStaircase   = "KNCSMAP\x01"
	mappedMagicCatalogMrg  = "KNCMMAP\x01"
	mappedMagicVirtualGrid = "KNVGMAP\x01"

	// maxSaneK bounds the MaxK a loader accepts. Catalog-maintained k values
	// are "a practically large constant" (the paper uses 10,000); 2^32 is far
	// beyond any of them while still rejecting hostile header fields early.
	maxSaneK = 1 << 32
)

// Pin attaches ref (typically the *mmapfile.File whose bytes the artifact's
// catalogs borrow) to the artifact. Borrowed slices do not keep a mapping
// reachable by themselves, so the loader pins the mapping on the artifact:
// as long as the artifact is reachable the mapping cannot be unmapped by
// its finalizer. Pin is for loaders; it is not safe concurrently with use.
func (s *Staircase) Pin(ref any) { s.pin = ref }

// Pin attaches ref to the merge; see (*Staircase).Pin.
func (c *CatalogMerge) Pin(ref any) { c.pin = ref }

// Pin attaches ref to the grid; see (*Staircase).Pin.
func (v *VirtualGrid) Pin(ref any) { v.pin = ref }

// mappedWriter accumulates fixed-width sections and flushes them through
// one buffered writer.
type mappedWriter struct {
	w   io.Writer
	buf []byte
	n   int64
	err error
}

func (m *mappedWriter) u64(v uint64) {
	m.buf = binary.LittleEndian.AppendUint64(m.buf, v)
}

func (m *mappedWriter) catalog(c *catalog.Catalog) {
	m.buf = c.AppendAligned(m.buf)
	if len(m.buf) >= 1<<16 {
		m.flush()
	}
}

func (m *mappedWriter) flush() {
	if m.err != nil || len(m.buf) == 0 {
		return
	}
	n, err := m.w.Write(m.buf)
	m.n += int64(n)
	m.buf = m.buf[:0]
	m.err = err
}

// mappedReader parses fixed-width sections from the raw (typically
// mmap'd) file bytes without copying them.
type mappedReader struct {
	data []byte
	off  int
	err  error
}

func (m *mappedReader) magic(want string) {
	if m.err != nil {
		return
	}
	if len(m.data) < len(want) || string(m.data[:len(want)]) != want {
		m.err = fmt.Errorf("core: bad mapped magic, want %q", want)
		return
	}
	m.off = len(want)
}

func (m *mappedReader) u64() uint64 {
	if m.err != nil {
		return 0
	}
	if m.off+8 > len(m.data) {
		m.err = errors.New("core: truncated mapped header")
		return 0
	}
	v := binary.LittleEndian.Uint64(m.data[m.off:])
	m.off += 8
	return v
}

func (m *mappedReader) catalog() *catalog.Catalog {
	if m.err != nil {
		return nil
	}
	c := &catalog.Catalog{}
	n, err := c.BorrowAligned(m.data[m.off:])
	if err != nil {
		m.err = err
		return nil
	}
	m.off += n
	return c
}

func (m *mappedReader) done() error {
	if m.err != nil {
		return m.err
	}
	if m.off != len(m.data) {
		return fmt.Errorf("core: %d trailing bytes in mapped file", len(m.data)-m.off)
	}
	return nil
}

// WriteTo serializes the staircase catalogs. The companion LoadStaircase
// must be given the same data index.
func (s *Staircase) WriteTo(w io.Writer) (int64, error) {
	m := &mappedWriter{w: w, buf: make([]byte, 0, 1<<16)}
	m.buf = append(m.buf, mappedMagicStaircase...)
	m.u64(uint64(s.mode))
	m.u64(uint64(s.maxK))
	m.u64(uint64(s.aux.NumBlocks()))
	m.u64(uint64(s.aux.NumPoints()))
	for i := range s.center {
		m.catalog(s.center[i])
		switch s.mode {
		case ModeCenterCorners:
			m.catalog(s.corners[i])
		case ModeCenterQuadrant:
			for _, c := range s.quads[i] {
				m.catalog(c)
			}
		}
	}
	m.flush()
	return m.n, m.err
}

// LoadStaircase reconstructs a staircase from the raw bytes of a WriteTo
// file against the same data index it was built on, borrowing the
// catalogs in place. raw must stay alive (unmapped last) as long as the
// staircase serves estimates. opt supplies only AuxCapacity (to rebuild
// the auxiliary index for a non-partitioning data index) and Fallback;
// mode and MaxK come from the file. Mode, MaxK and the block/point
// fingerprints are checked before anything is sized by them, and a
// fingerprint that does not match the index is an error.
func LoadStaircase(data *index.Tree, raw []byte, opt StaircaseOptions) (*Staircase, error) {
	m := &mappedReader{data: raw}
	m.magic(mappedMagicStaircase)
	mode := StaircaseMode(m.u64())
	maxK := int(m.u64())
	numBlocks := int(m.u64())
	numPoints := int(m.u64())
	if m.err != nil {
		return nil, m.err
	}
	// An unknown mode would leave the corners/quads slices nil and panic at
	// estimation time, and a hostile maxK or block count must not drive
	// allocations.
	switch mode {
	case ModeCenterCorners, ModeCenterOnly, ModeCenterQuadrant:
	default:
		return nil, fmt.Errorf("core: unknown staircase mode %d", mode)
	}
	if maxK < 1 || maxK > maxSaneK {
		return nil, fmt.Errorf("core: unreasonable staircase MaxK %d", maxK)
	}
	if numBlocks < 1 || numPoints < 0 {
		return nil, fmt.Errorf("core: unreasonable staircase shape: %d blocks, %d points", numBlocks, numPoints)
	}
	aux := data
	if !data.Partitioning() {
		aux = auxiliaryIndex(data, opt.AuxCapacity)
	}
	if aux.NumBlocks() != numBlocks || aux.NumPoints() != numPoints {
		return nil, fmt.Errorf("core: staircase file built for %d blocks/%d points, index has %d/%d",
			numBlocks, numPoints, aux.NumBlocks(), aux.NumPoints())
	}
	s := &Staircase{
		aux:      aux,
		loc:      ptloc.Build(aux),
		mode:     mode,
		maxK:     maxK,
		fallback: opt.Fallback,
		center:   make([]*catalog.Catalog, numBlocks),
	}
	if s.fallback == nil {
		s.fallback = NewDensityBased(data.CountTree())
	}
	switch mode {
	case ModeCenterCorners:
		s.corners = make([]*catalog.Catalog, numBlocks)
	case ModeCenterQuadrant:
		s.quads = make([][4]*catalog.Catalog, numBlocks)
	}
	for i := 0; i < numBlocks; i++ {
		s.center[i] = m.catalog()
		switch mode {
		case ModeCenterCorners:
			s.corners[i] = m.catalog()
		case ModeCenterQuadrant:
			for j := 0; j < 4; j++ {
				s.quads[i][j] = m.catalog()
			}
		}
		if m.err != nil {
			return nil, m.err
		}
	}
	if err := m.done(); err != nil {
		return nil, err
	}
	return s, nil
}

// WriteTo serializes the merged pair catalog and its scale factor.
func (c *CatalogMerge) WriteTo(w io.Writer) (int64, error) {
	m := &mappedWriter{w: w, buf: make([]byte, 0, 1<<12)}
	m.buf = append(m.buf, mappedMagicCatalogMrg...)
	m.u64(uint64(c.maxK))
	m.u64(math.Float64bits(c.scale))
	m.catalog(c.merged)
	m.flush()
	return m.n, m.err
}

// LoadCatalogMerge reconstructs a CatalogMerge from the raw bytes of a
// WriteTo file, borrowing the catalog in place. It is fully standalone: no
// index is needed at estimation time. raw must stay alive as long as the
// estimator serves estimates.
func LoadCatalogMerge(raw []byte) (*CatalogMerge, error) {
	m := &mappedReader{data: raw}
	m.magic(mappedMagicCatalogMrg)
	maxK := int(m.u64())
	scale := math.Float64frombits(m.u64())
	if m.err == nil && (maxK < 1 || maxK > maxSaneK) {
		return nil, fmt.Errorf("core: unreasonable catalog-merge MaxK %d", maxK)
	}
	if m.err == nil && (math.IsNaN(scale) || math.IsInf(scale, 0) || scale < 0) {
		return nil, fmt.Errorf("core: invalid catalog-merge scale %v", scale)
	}
	merged := m.catalog()
	if err := m.done(); err != nil {
		return nil, err
	}
	return &CatalogMerge{merged: merged, scale: scale, maxK: maxK}, nil
}

// WriteTo serializes the virtual grid: dimensions, MaxK, bounds and the
// per-cell catalogs.
func (v *VirtualGrid) WriteTo(w io.Writer) (int64, error) {
	m := &mappedWriter{w: w, buf: make([]byte, 0, 1<<16)}
	m.buf = append(m.buf, mappedMagicVirtualGrid...)
	m.u64(uint64(v.nx))
	m.u64(uint64(v.ny))
	m.u64(uint64(v.maxK))
	m.u64(math.Float64bits(v.bounds.Min.X))
	m.u64(math.Float64bits(v.bounds.Min.Y))
	m.u64(math.Float64bits(v.bounds.Max.X))
	m.u64(math.Float64bits(v.bounds.Max.Y))
	for _, c := range v.catalogs {
		m.catalog(c)
	}
	m.flush()
	return m.n, m.err
}

// LoadVirtualGrid reconstructs a VirtualGrid from the raw bytes of a
// WriteTo file, borrowing the per-cell catalogs in place. It is fully
// standalone: estimation needs only the outer relation. raw must stay
// alive as long as the estimator serves estimates.
func LoadVirtualGrid(raw []byte) (*VirtualGrid, error) {
	m := &mappedReader{data: raw}
	m.magic(mappedMagicVirtualGrid)
	nx := int(m.u64())
	ny := int(m.u64())
	maxK := int(m.u64())
	bounds := geom.Rect{
		Min: geom.Point{X: math.Float64frombits(m.u64()), Y: math.Float64frombits(m.u64())},
		Max: geom.Point{X: math.Float64frombits(m.u64()), Y: math.Float64frombits(m.u64())},
	}
	if m.err != nil {
		return nil, m.err
	}
	if nx < 1 || ny < 1 || nx > 1<<20 || ny > 1<<20 || nx*ny > 1<<20 {
		return nil, fmt.Errorf("core: unreasonable grid %dx%d", nx, ny)
	}
	if maxK < 1 || maxK > maxSaneK {
		return nil, fmt.Errorf("core: unreasonable virtual-grid MaxK %d", maxK)
	}
	if !bounds.Valid() || bounds.Width() <= 0 || bounds.Height() <= 0 {
		return nil, fmt.Errorf("core: invalid grid bounds %v", bounds)
	}
	v := &VirtualGrid{
		cells:    grid.Cells(bounds, nx, ny),
		catalogs: make([]*catalog.Catalog, nx*ny),
		bounds:   bounds,
		nx:       nx,
		ny:       ny,
		maxK:     maxK,
	}
	for i := range v.catalogs {
		v.catalogs[i] = m.catalog()
		if m.err != nil {
			return nil, m.err
		}
	}
	if err := m.done(); err != nil {
		return nil, err
	}
	return v, nil
}
