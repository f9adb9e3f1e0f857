package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"knncost/internal/aknn"
	"knncost/internal/core"
	"knncost/internal/engine"
	"knncost/internal/geom"
	"knncost/internal/index"
	"knncost/internal/mmapfile"
)

// The disk cache gives the store warm restarts: catalogs are persisted in
// the internal/core binary formats, content-addressed by a fingerprint of
// the point data and the build options, so a restarted process loads in
// milliseconds what a cold one computes in seconds. Layout under the cache
// directory:
//
//	registry.json                        name → fingerprint + resolution of live relations
//	cat/<fp>/manifest.json               versioned build-parameter manifest
//	cat/<fp>/points.bin                  the relation's points (rebuilds the index)
//	cat/<fp>/staircase-{cc,c,cq}.bin     core.Staircase (KNCSMAP mapped format;
//	                                     one file, named by the resolution's mode)
//	cat/<fp>/virtual-grid.bin            core.VirtualGrid (KNVGMAP mapped format)
//	cat/<fp>/aknn-bounds.bin             aknn.Summary (KNAB format)
//	merge/<fpOuter>-<fpInner>-catalog-merge.bin  core.CatalogMerge (KNCMMAP mapped format)
//
// Per-relation artifact files are named after the engine technique that
// produced them (see internal/engine), so adding a cached technique is a
// new file, never a layout change. The staircase and grid artifacts use the
// aligned mapped encodings: the loaders mmap the file and borrow the
// catalogs zero-copy, pinning the mapping on the artifact. Techniques a
// resolution does not precompute have no file and build lazily in the
// snapshot's engine relation.
//
// Everything is written atomically (temp file + rename) and every load
// failure is treated as a cache miss, never an error: the worst corrupt
// cache can do is force a rebuild.

// cacheFormat is the manifest/registry format version; bump on any change
// to the layout or to what a fingerprint covers. Format 2 renamed the
// artifact files to technique names (staircase.bin → staircase-cc.bin,
// vgrid.bin → virtual-grid.bin) and keyed merge files by technique.
// Format 3 added the aknn-bounds summary artifact. Format 4 switched the
// staircase, virtual-grid and merge artifacts to the aligned mapped
// encodings (the core WriteTo methods) served zero-copy from an mmap'd
// file, made every fingerprint per-relation-resolution, and named the
// staircase file after the mode the resolution selects. The version is
// part of every fingerprint, so entries of older formats all miss and
// rebuild complete — a format bump costs one rebuild, never an error.
const cacheFormat = 4

// manifest records the parameters a cached relation was built with. A
// manifest that does not match the relation's resolution is a miss (the
// fingerprint covers the same fields, so in practice mismatch means a
// hand-edited cache).
type manifest struct {
	Format       int `json:"format"`
	NumPoints    int `json:"num_points"`
	NumBlocks    int `json:"num_blocks"`
	MaxK         int `json:"max_k"`
	Corners      int `json:"corners"`
	SampleSize   int `json:"sample_size"`
	GridSize     int `json:"grid_size"`
	AknnCapacity int `json:"aknn_capacity"`
	Capacity     int `json:"capacity"`
}

// registryEntry names one live relation, its cached fingerprint, and its
// resolutions: Resolution is the effective (possibly tuner-coarsened)
// resolution the fingerprint was built at — a restart must recompute the
// identical fingerprint to warm-load — and Declared is what the user asked
// for, so the tuner can grow the relation back after a restart.
type registryEntry struct {
	Name        string          `json:"name"`
	Fingerprint string          `json:"fingerprint"`
	Resolution  core.Resolution `json:"resolution"`
	Declared    core.Resolution `json:"declared"`
}

type registryFile struct {
	Format    int             `json:"format"`
	Relations []registryEntry `json:"relations"`
}

// diskCache serializes registry writes internally; catalog files are
// content-addressed and idempotent, so concurrent workers writing the same
// fingerprint converge on identical bytes.
type diskCache struct {
	dir          string
	registryName string
	mu           sync.Mutex // guards registry read-modify-write
}

// openDiskCache opens (creating if needed) the cache at dir. scope selects
// the registry file: several stores can share one content-addressed cache —
// that sharing is what turns a shard handoff into a warm restore — but each
// must restore only its own relations, so each scope gets its own registry.
func openDiskCache(dir, scope string) (*diskCache, error) {
	for _, sub := range []string{"cat", "merge"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, err
		}
	}
	name := "registry.json"
	if scope != "" {
		for _, r := range scope {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
				r == '_', r == '-', r == '.':
			default:
				return nil, fmt.Errorf("registry scope %q contains %q (allowed: letters, digits, '_', '-', '.')", scope, r)
			}
		}
		name = "registry-" + scope + ".json"
	}
	return &diskCache{dir: dir, registryName: name}, nil
}

// fingerprint hashes the point data together with every build parameter
// that shapes the catalogs — including the relation's resolution, so the
// same points built at two resolutions are two independent cache entries.
// Two relations with the same fingerprint produce bit-identical catalogs;
// any change to points, resolution or options changes it.
func (s *Store) fingerprint(pts []geom.Point, res core.Resolution) string {
	res = res.Canon()
	h := sha256.New()
	var hdr [128]byte
	n := binary.PutVarint(hdr[:], int64(cacheFormat))
	for _, v := range []int{
		res.MaxK, res.Corners, res.GridSize, res.AknnCapacity,
		s.opt.SampleSize, s.opt.IndexCapacity, len(pts),
	} {
		n += binary.PutVarint(hdr[n:], int64(v))
	}
	h.Write(hdr[:n])
	for _, f := range []float64{s.opt.Bounds.Min.X, s.opt.Bounds.Min.Y, s.opt.Bounds.Max.X, s.opt.Bounds.Max.Y} {
		binary.LittleEndian.PutUint64(hdr[:8], math.Float64bits(f))
		h.Write(hdr[:8])
	}
	// Hash points in 4 KiB batches; one Write per point would dominate.
	buf := make([]byte, 0, 4096)
	for _, p := range pts {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.X))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.Y))
		if len(buf) >= 4096-16 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

func shortFP(fp string) string {
	if len(fp) > 12 {
		return fp[:12]
	}
	return fp
}

func (c *diskCache) catDir(fp string) string { return filepath.Join(c.dir, "cat", fp) }

// artifactPath is the per-technique artifact file of one cached relation.
func (c *diskCache) artifactPath(fp, technique string) string {
	return filepath.Join(c.catDir(fp), technique+".bin")
}

func (c *diskCache) mergePath(fpOuter, fpInner string) string {
	return filepath.Join(c.dir, "merge", fpOuter+"-"+fpInner+"-"+engine.TechCatalogMerge+".bin")
}

// writeAtomic writes data to path via a temp file + rename, so readers
// never observe a partial file and a crash never corrupts an entry.
func writeAtomic(path string, write func(f *os.File) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// --- relation artifacts ----------------------------------------------------

func (c *diskCache) loadManifest(fp string) (manifest, bool) {
	data, err := os.ReadFile(filepath.Join(c.catDir(fp), "manifest.json"))
	if err != nil {
		return manifest{}, false
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return manifest{}, false
	}
	return m, true
}

// staircaseFile returns the staircase artifact file stem for the mode the
// resolution selects. The quadrant mode has no registered technique name;
// its stem follows the same convention.
func staircaseFile(res core.Resolution) string {
	switch res.StaircaseMode() {
	case core.ModeCenterOnly:
		return engine.TechStaircaseC
	case core.ModeCenterQuadrant:
		return "staircase-cq"
	default:
		return engine.TechStaircaseCC
	}
}

// loadRelation loads the staircase, virtual grid, and aknn summary for fp
// against the given (freshly rebuilt) data index. The staircase and grid
// files are mmap'd and their catalogs borrowed in place — the mapping is
// pinned on the artifact, so it stays valid as long as the artifact is
// reachable and is unmapped by its finalizer afterwards. The aknn summary
// is tiny and heap-decodes as before.
func (c *diskCache) loadRelation(fp string, tree *index.Tree, opt core.StaircaseOptions, res core.Resolution) (*core.Staircase, *core.VirtualGrid, *aknn.Summary, error) {
	sm, err := mmapfile.Open(c.artifactPath(fp, staircaseFile(res)))
	if err != nil {
		return nil, nil, nil, err
	}
	stair, err := core.LoadStaircase(tree, sm.Data(), opt)
	if err != nil {
		sm.Close()
		return nil, nil, nil, fmt.Errorf("staircase: %w", err)
	}
	stair.Pin(sm)
	vm, err := mmapfile.Open(c.artifactPath(fp, engine.TechVirtualGrid))
	if err != nil {
		return nil, nil, nil, err
	}
	vg, err := core.LoadVirtualGrid(vm.Data())
	if err != nil {
		vm.Close()
		return nil, nil, nil, fmt.Errorf("virtual grid: %w", err)
	}
	vg.Pin(vm)
	af, err := os.Open(c.artifactPath(fp, engine.TechAknnBounds))
	if err != nil {
		return nil, nil, nil, err
	}
	defer af.Close()
	sum, err := aknn.LoadSummary(af)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("aknn summary: %w", err)
	}
	return stair, vg, sum, nil
}

// storeRelation persists every artifact of one relation build. The manifest
// is written last: its presence marks the entry complete.
func (c *diskCache) storeRelation(fp string, m manifest, pts []geom.Point, stair *core.Staircase, vg *core.VirtualGrid, sum *aknn.Summary, res core.Resolution) error {
	dir := c.catDir(fp)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeAtomic(filepath.Join(dir, "points.bin"), func(f *os.File) error {
		return writePoints(f, pts)
	}); err != nil {
		return fmt.Errorf("points: %w", err)
	}
	if err := writeAtomic(c.artifactPath(fp, staircaseFile(res)), func(f *os.File) error {
		_, err := stair.WriteTo(f)
		return err
	}); err != nil {
		return fmt.Errorf("staircase: %w", err)
	}
	if err := writeAtomic(c.artifactPath(fp, engine.TechVirtualGrid), func(f *os.File) error {
		_, err := vg.WriteTo(f)
		return err
	}); err != nil {
		return fmt.Errorf("virtual grid: %w", err)
	}
	if err := writeAtomic(c.artifactPath(fp, engine.TechAknnBounds), func(f *os.File) error {
		_, err := sum.WriteTo(f)
		return err
	}); err != nil {
		return fmt.Errorf("aknn summary: %w", err)
	}
	if err := writeAtomic(filepath.Join(dir, "manifest.json"), func(f *os.File) error {
		return json.NewEncoder(f).Encode(m)
	}); err != nil {
		return fmt.Errorf("manifest: %w", err)
	}
	return nil
}

func (c *diskCache) loadMerge(fpOuter, fpInner string) (*core.CatalogMerge, error) {
	mf, err := mmapfile.Open(c.mergePath(fpOuter, fpInner))
	if err != nil {
		return nil, err
	}
	m, err := core.LoadCatalogMerge(mf.Data())
	if err != nil {
		mf.Close()
		return nil, err
	}
	m.Pin(mf)
	return m, nil
}

func (c *diskCache) storeMerge(fpOuter, fpInner string, m *core.CatalogMerge) error {
	return writeAtomic(c.mergePath(fpOuter, fpInner), func(f *os.File) error {
		_, err := m.WriteTo(f)
		return err
	})
}

// --- points file -----------------------------------------------------------

const pointsMagic = "KNPT\x01"

// maxCachedPoints bounds what loadPoints will allocate for a hostile or
// corrupt count field (64 MiB of points).
const maxCachedPoints = 4 << 20

func writePoints(f *os.File, pts []geom.Point) error {
	buf := make([]byte, 0, 1<<16)
	buf = append(buf, pointsMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(pts)))
	for _, p := range pts {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.X))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.Y))
		if len(buf) >= 1<<16-16 {
			if _, err := f.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	_, err := f.Write(buf)
	return err
}

func (c *diskCache) loadPoints(fp string) ([]geom.Point, error) {
	data, err := os.ReadFile(filepath.Join(c.catDir(fp), "points.bin"))
	if err != nil {
		return nil, err
	}
	if len(data) < len(pointsMagic) || string(data[:len(pointsMagic)]) != pointsMagic {
		return nil, errors.New("points file: bad magic")
	}
	data = data[len(pointsMagic):]
	n, sz := binary.Uvarint(data)
	if sz <= 0 {
		return nil, errors.New("points file: truncated count")
	}
	data = data[sz:]
	if n > maxCachedPoints || uint64(len(data)) != 16*n {
		return nil, fmt.Errorf("points file: %d points does not match %d payload bytes", n, len(data))
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i].X = math.Float64frombits(binary.LittleEndian.Uint64(data[16*i:]))
		pts[i].Y = math.Float64frombits(binary.LittleEndian.Uint64(data[16*i+8:]))
	}
	return pts, nil
}

// --- registry --------------------------------------------------------------

func (c *diskCache) registryPath() string { return filepath.Join(c.dir, c.registryName) }

// registry returns the recorded live relations, sorted by name. A missing
// or corrupt registry is an empty one.
func (c *diskCache) registry() []registryEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.readRegistryLocked()
}

func (c *diskCache) readRegistryLocked() []registryEntry {
	data, err := os.ReadFile(c.registryPath())
	if err != nil {
		return nil
	}
	var r registryFile
	if err := json.Unmarshal(data, &r); err != nil || r.Format != cacheFormat {
		return nil
	}
	sort.Slice(r.Relations, func(i, j int) bool { return r.Relations[i].Name < r.Relations[j].Name })
	return r.Relations
}

// remember records name → (fp, effective resolution, declared resolution)
// in the registry, replacing any previous entry for name.
func (c *diskCache) remember(name, fp string, res, declared core.Resolution) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	entries := c.readRegistryLocked()
	out := entries[:0]
	for _, e := range entries {
		if e.Name != name {
			out = append(out, e)
		}
	}
	out = append(out, registryEntry{Name: name, Fingerprint: fp, Resolution: res.Canon(), Declared: declared.Canon()})
	return c.writeRegistryLocked(out)
}

// forget removes name from the registry. Cached artifacts stay: the cache
// is content-addressed and re-registering the same data warm-loads.
func (c *diskCache) forget(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	entries := c.readRegistryLocked()
	out := entries[:0]
	changed := false
	for _, e := range entries {
		if e.Name == name {
			changed = true
			continue
		}
		out = append(out, e)
	}
	if !changed {
		return nil
	}
	return c.writeRegistryLocked(out)
}

func (c *diskCache) writeRegistryLocked(entries []registryEntry) error {
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	return writeAtomic(c.registryPath(), func(f *os.File) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(registryFile{Format: cacheFormat, Relations: entries})
	})
}
