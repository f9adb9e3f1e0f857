// Package store owns the full lifecycle of the relation catalogs the
// estimation service serves: registration, background catalog construction,
// atomic hot swap of rebuilt versions, dropping, and a warm-restart disk
// cache.
//
// The paper's deployment scenario is a long-running optimizer answering
// "thousands of queries per second"; at that rate the relation schema cannot
// be frozen at boot. The store makes relations dynamic without ever blocking
// the estimate hot path:
//
//   - Every relation is published as an immutable, versioned Snapshot
//     (data index, Count-Index, staircase, density, Virtual-Grid). Snapshots
//     never change after publication.
//   - All published snapshots — plus the per-ordered-pair Catalog-Merge
//     estimators and the listing metadata — live in a single immutable View
//     swapped in with one atomic pointer store (RCU, the same model an
//     inference server uses for hot model swaps). An in-flight estimate that
//     loaded a View keeps a fully consistent schema for its whole lifetime;
//     a rebuild, drop or registration never mutates anything a reader can
//     see. View resolution is one atomic load plus a map lookup and performs
//     zero heap allocations (a test pins this).
//   - Catalog construction runs on a bounded background worker pool. Builds
//     for the same relation are deduplicated: re-registering a queued
//     relation supersedes the queued build in place, and re-registering one
//     that is mid-build cancels the running build's context and schedules a
//     fresh one. Every build carries a status (queued → building →
//     ready | failed) observable per relation and in listings.
//   - With a cache directory configured, built catalogs are persisted in the
//     internal/core binary formats keyed by a fingerprint of the point data
//     and build options, next to a small versioned manifest and the points
//     themselves. A restarted store re-registers the cached relations and
//     loads their catalogs instead of rebuilding — warm restarts cost
//     index-rebuild milliseconds, not catalog-build seconds.
package store

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"knncost/internal/aknn"
	"knncost/internal/core"
	"knncost/internal/engine"
	"knncost/internal/geom"
	"knncost/internal/index"
	"knncost/internal/quadtree"
	"knncost/internal/wal"
)

// State is the build status of a relation.
type State int32

const (
	// StateQueued means a build is waiting for a worker. A previously
	// published snapshot (if any) keeps serving meanwhile.
	StateQueued State = iota + 1
	// StateBuilding means a worker is constructing the catalogs.
	StateBuilding
	// StateReady means the latest registered version is published.
	StateReady
	// StateFailed means the latest build errored; Error carries the cause.
	// A previously published snapshot (if any) keeps serving.
	StateFailed
)

// String implements fmt.Stringer; the values are the wire strings of the
// service's status endpoints.
func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateBuilding:
		return "building"
	case StateReady:
		return "ready"
	case StateFailed:
		return "failed"
	default:
		return fmt.Sprintf("State(%d)", int32(s))
	}
}

// Options configure a Store.
type Options struct {
	// MaxK is the largest catalog-maintained k. Zero means core.DefaultMaxK.
	MaxK int
	// SampleSize is the Catalog-Merge sample size. Zero means 200.
	SampleSize int
	// GridSize is the Virtual-Grid dimension. Zero means 10.
	GridSize int
	// IndexCapacity is the quadtree leaf capacity used when a relation is
	// registered from raw points. Zero means 256.
	IndexCapacity int
	// Bounds is the index bounds for point-registered relations. The zero
	// rectangle means "compute from the points".
	Bounds geom.Rect
	// Workers is the build-pool size. Zero means GOMAXPROCS.
	Workers int
	// QueueLen bounds pending build signals; registrations beyond it fail
	// with ErrQueueFull. Zero means 256.
	QueueLen int
	// CacheDir enables the warm-restart disk cache. Empty disables it.
	CacheDir string
	// RegistryScope names this store's slice of a shared cache directory.
	// Catalog artifacts are content-addressed and safely shared between
	// stores (that sharing is what makes a shard handoff a warm restore),
	// but the registry of live relations is per store: scope "a" restores
	// only what scope "a" registered. Empty means the unscoped
	// registry.json.
	RegistryScope string
	// CompactThreshold is the pending-delta point count at which a
	// relation's mutations are compacted into fresh artifacts. Zero means
	// 512.
	CompactThreshold int
	// CompactInterval bounds delta staleness: a background pass compacts
	// any relation with pending mutations this often. Zero means 2s;
	// negative disables the timer (compaction then happens only via the
	// threshold, Flush, or WaitSettled — useful in deterministic tests).
	CompactInterval time.Duration
	// WALSegmentBytes is the write-ahead-log segment rotation threshold.
	// Zero means 4 MiB. The WAL is enabled whenever CacheDir is set.
	WALSegmentBytes int
	// WALSyncInterval selects the mutation fsync policy: zero means group
	// commit (every mutation is fsynced before it is acknowledged,
	// batching concurrent mutators into one fsync); a positive value
	// trades a bounded loss window for throughput by fsyncing on a timer
	// instead.
	WALSyncInterval time.Duration
	// CatalogBudgetBytes is the space-budget auto-tuner's global target for
	// the summed artifact bytes of every published relation. While the
	// total exceeds it, the tuner rebuilds the coldest relations (by
	// estimate traffic) one resolution step coarser; with headroom it grows
	// tuned relations back toward their declared resolution. Zero (the
	// default) disables the tuner entirely.
	CatalogBudgetBytes int64
	// TunerInterval is the cadence of the background tuner pass. Zero
	// means 5s; negative disables the background loop (passes then happen
	// only via TunerTick — useful in deterministic tests).
	TunerInterval time.Duration
	// TunerQErrorTolerance bounds the estimate degradation a tuner shrink
	// may cause: after a coarsened rebuild publishes, the tuner probes its
	// q-error against ground-truth distance browsing and reverts the step
	// (and refuses to repeat it) when the worst probe exceeds this factor.
	// Zero means 2.0.
	TunerQErrorTolerance float64
	// Logger receives cache warnings and build logs. Nil means the standard
	// logger.
	Logger *log.Logger
	// crashHook, when set, is passed to the WAL as its OpHook: the
	// crash-injection tests snapshot the cache directory at every
	// durability-critical operation.
	crashHook func(op string)
}

func (o Options) withDefaults() Options {
	if o.MaxK == 0 {
		o.MaxK = core.DefaultMaxK
	}
	if o.SampleSize == 0 {
		o.SampleSize = 200
	}
	if o.GridSize == 0 {
		o.GridSize = 10
	}
	if o.IndexCapacity == 0 {
		o.IndexCapacity = 256
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueLen <= 0 {
		o.QueueLen = 256
	}
	if o.CompactThreshold <= 0 {
		o.CompactThreshold = 512
	}
	if o.CompactInterval == 0 {
		o.CompactInterval = 2 * time.Second
	}
	if o.TunerInterval == 0 {
		o.TunerInterval = 5 * time.Second
	}
	if o.TunerQErrorTolerance == 0 {
		o.TunerQErrorTolerance = 2.0
	}
	return o
}

// resolveResolution maps a requested per-relation resolution to its
// canonical effective form: axes left zero inherit the store-wide options
// (so Register without a resolution behaves exactly as before), everything
// else canonicalizes per core.Resolution.
func (o Options) resolveResolution(r core.Resolution) core.Resolution {
	if r.MaxK == 0 {
		r.MaxK = o.MaxK
	}
	if r.GridSize == 0 {
		r.GridSize = o.GridSize
	}
	return r.Canon()
}

func (o Options) logger() *log.Logger {
	if o.Logger != nil {
		return o.Logger
	}
	return log.Default()
}

// Snapshot is one immutable published version of a relation: the data index
// and every per-relation estimator, built together from the same points.
// All fields are read-only after publication; sharing a Snapshot across any
// number of goroutines is safe.
type Snapshot struct {
	// Name is the relation name.
	Name string
	// Version counts publications of this relation, starting at 1.
	Version uint64
	// Fingerprint identifies the point data + build options; empty for
	// relations registered from a pre-built index (not cacheable).
	Fingerprint string
	// Points are the relation's points in registration order — the exact
	// input that produced this snapshot, served by the points endpoint so a
	// peer shard can re-register them and arrive at a bit-identical build
	// (same fingerprint, same tree, same catalogs). Nil for index-registered
	// relations, which have no reproducible point source.
	Points []geom.Point
	// Tree is the data index (points included).
	Tree *index.Tree
	// Count is the Count-Index derived from Tree.
	Count *index.Tree
	// Staircase is the paper's k-NN-Select estimator (§3).
	Staircase *core.Staircase
	// Density is the density-based baseline estimator.
	Density *core.DensityBased
	// VGrid is the Virtual-Grid join estimator built over Count (§4.3).
	VGrid *core.VirtualGrid
	// Aknn is the bounds-only AkNN join summary built over Count
	// (internal/aknn) — the inner-relation artifact of the aknn-bounds
	// technique.
	Aknn *aknn.Summary
	// Engine is the relation's engine.Relation, seeded at publication with
	// the artifacts above so that technique resolution by name serves the
	// exact same estimator objects. Techniques the store does not precompute
	// (e.g. staircase-c) build lazily inside Engine, once per snapshot.
	Engine *engine.Relation
	// Resolution is the canonical artifact resolution this snapshot was
	// built at — the declared resolution, or a coarser rung when the
	// space-budget tuner shrank the relation.
	Resolution core.Resolution
	// StaircaseBytes and VGridBytes are the serialized catalog sizes,
	// computed once at publication. AknnBytes is the aknn summary's;
	// ArtifactBytes is the total the tuner accounts against the budget
	// (staircase + virtual grid + aknn summary).
	StaircaseBytes int
	VGridBytes     int
	AknnBytes      int
	ArtifactBytes  int

	// hits is the estimate-traffic counter shared with the relation's
	// store entry across republishes; Touch increments it.
	hits *atomic.Int64
}

// Touch records one estimate served from this snapshot. The count is the
// tuner's per-relation traffic signal: hot relations keep (or regain)
// their declared resolution, cold ones are shrunk first when the store is
// over its catalog byte budget. Safe for concurrent use; a no-op on
// snapshots that predate the store (zero value) or tests that build
// snapshots by hand.
func (sn *Snapshot) Touch() {
	if sn.hits != nil {
		sn.hits.Add(1)
	}
}

// TouchN records n estimates served from this snapshot in one call (the
// batch endpoint's accounting).
func (sn *Snapshot) TouchN(n int) {
	if sn.hits != nil && n > 0 {
		sn.hits.Add(int64(n))
	}
}

// RelationStatus is the externally visible state of one relation, as served
// by listings and status endpoints. It is a value type copied out of the
// store, never a live reference.
type RelationStatus struct {
	Name    string `json:"name"`
	State   string `json:"state"`
	Version uint64 `json:"version"`
	Error   string `json:"error,omitempty"`
	// The remaining fields describe the published snapshot and are zero
	// until the first publication.
	NumPoints        int `json:"num_points"`
	NumBlocks        int `json:"num_blocks"`
	StaircaseBytes   int `json:"staircase_bytes"`
	VirtualGridBytes int `json:"virtual_grid_bytes"`
	AknnBytes        int `json:"aknn_bytes"`
	ArtifactBytes    int `json:"artifact_bytes"`
	// Resolution is the published snapshot's effective resolution;
	// DeclaredResolution is what registration asked for. They differ only
	// while the space-budget tuner holds the relation at a coarser rung.
	Resolution         core.Resolution `json:"resolution"`
	DeclaredResolution core.Resolution `json:"declared_resolution"`
	// Delta overlay depth: mutations acknowledged but not yet compacted
	// into the published snapshot. All zero when the relation is settled.
	DeltaOps    int   `json:"delta_ops,omitempty"`
	DeltaPoints int   `json:"delta_points,omitempty"`
	DeltaAgeMs  int64 `json:"delta_age_ms,omitempty"`
}

// View is an immutable snapshot of the whole store: every published
// relation, every per-ordered-pair Catalog-Merge, and the listing. A View
// loaded once stays internally consistent forever; later registrations,
// rebuilds and drops produce new Views without touching old ones.
type View struct {
	relations map[string]*Snapshot
	merges    map[[2]string]*core.CatalogMerge
	names     []string         // sorted names of published relations
	statuses  []RelationStatus // sorted listing incl. unpublished relations
}

var emptyView = &View{
	relations: map[string]*Snapshot{},
	merges:    map[[2]string]*core.CatalogMerge{},
}

// Relation returns the published snapshot for name, or nil. It performs no
// heap allocations.
func (v *View) Relation(name string) *Snapshot { return v.relations[name] }

// Merge returns the Catalog-Merge estimator for the ordered pair
// (outer, inner), or nil. Every ordered pair of relations published in the
// same View has an entry.
func (v *View) Merge(outer, inner string) *core.CatalogMerge {
	return v.merges[[2]string{outer, inner}]
}

// Names returns the sorted names of the published relations. The slice is
// shared; callers must not modify it.
func (v *View) Names() []string { return v.names }

// List returns the status of every relation known when the View was
// published (including queued, building and failed ones), sorted by name.
// The slice is shared; callers must not modify it.
func (v *View) List() []RelationStatus { return v.statuses }

// NumRelations returns the number of published relations.
func (v *View) NumRelations() int { return len(v.relations) }

// entry is the store's mutable bookkeeping for one relation, guarded by
// Store.mu. The published Snapshot itself is immutable; entry tracks which
// build generation is wanted, which is published, and the build status.
type entry struct {
	name string
	// gen counts registrations; a finished build publishes only if its
	// generation is still current (stale builds are discarded silently).
	gen uint64
	// state is the externally visible build status.
	state State
	err   string
	// pendingPts / pendingTree is the source of the wanted generation.
	pendingPts  []geom.Point
	pendingTree *index.Tree
	// snap is the currently published snapshot, nil before first publish.
	snap *Snapshot
	// cancel aborts the in-flight build when superseded or dropped.
	cancel context.CancelFunc

	// fromPoints marks relations whose wanted generation came from raw
	// points — the only kind the mutation API and points endpoint serve.
	fromPoints bool
	// res is the effective resolution of the wanted generation;
	// declaredRes is what registration asked for. They diverge only while
	// the space-budget tuner holds the relation tunerSteps rungs down the
	// coarsening ladder.
	res         core.Resolution
	declaredRes core.Resolution
	tunerSteps  int
	// tunerFloor caps tunerSteps: a shrink whose published q-error blew
	// the tolerance sets the floor one step back and is never repeated.
	tunerFloor int
	// tunerProbed is the snapshot version the q-error probe last checked,
	// so each published rebuild is probed at most once.
	tunerProbed uint64
	// hits counts estimates served from this relation's snapshots
	// (Snapshot.Touch); the tuner swaps it to zero every pass, making the
	// value per-pass traffic. Shared with every published snapshot.
	hits *atomic.Int64
	// pending is the delta overlay: durably logged mutations not yet
	// folded into the published snapshot, in LSN order.
	pending []mutation
	// ckptLSN is the mutation watermark the wanted generation folds in;
	// the publish step writes it into the WAL checkpoint and drops the
	// covered prefix of pending.
	ckptLSN uint64
	// isCompact marks the wanted generation as a delta compaction (for
	// the compaction counter; compactions also re-trigger on leftovers).
	isCompact bool
	// restoredFP is the registry fingerprint this entry was warm-restored
	// from; WAL checkpoints are effective on replay only if they match.
	restoredFP string
	// replayDropped is set while replay scans a KindDrop record; if no
	// later effective checkpoint revives the name, the drop is finished.
	replayDropped bool
	// durableCovered / rememberFailed track how much of the log the
	// registry has absorbed, pinning WAL trim when a registry write fails.
	durableCovered uint64
	rememberFailed bool
}

// ErrQueueFull is returned by Register when the build queue is saturated.
var ErrQueueFull = errors.New("store: build queue full")

// ErrClosed is returned by Register after Close.
var ErrClosed = errors.New("store: closed")

// Store is a concurrent, versioned relation store. The zero value is not
// usable; call New.
type Store struct {
	opt   Options
	cache *diskCache // nil without CacheDir
	wal   *wal.WAL   // nil without CacheDir

	view atomic.Pointer[View]

	mu      sync.Mutex
	entries map[string]*entry
	closed  bool
	seq     uint64 // mutation sequence when the WAL is disabled
	// publishHooks run under s.mu whenever a relation's published snapshot
	// changes (hot swap, compaction publish, drop); see AddPublishHook.
	publishHooks []func(relation string)

	jobs   chan string // build signals; one per Queued transition
	wg     sync.WaitGroup
	ctx    context.Context
	cancel context.CancelFunc

	stopCompact   chan struct{} // nil when the interval compactor is off
	compactorDone chan struct{}

	stopTuner chan struct{} // nil when the background tuner is off
	tunerDone chan struct{}

	// catalogBuilds counts catalogs actually constructed (staircase,
	// virtual grid, catalog-merge); warm restarts that load everything from
	// the disk cache leave it at zero — the soak smoke asserts exactly that.
	catalogBuilds atomic.Int64
	// cacheHits counts catalogs loaded from the disk cache instead of built.
	cacheHits atomic.Int64
	// walReplayed counts mutation records replayed from the WAL at startup;
	// walTruncated counts torn tails (and dropped follow-on segments)
	// repaired; compactions counts published delta compactions.
	walReplayed  atomic.Int64
	walTruncated atomic.Int64
	compactions  atomic.Int64

	// Tuner counters (see tuner.go): passes run, shrink/grow rebuilds
	// scheduled, q-error reverts, shrinks refused by a q-error floor, and
	// the artifact-byte total measured by the latest pass.
	tunerPasses  atomic.Int64
	tunerShrinks atomic.Int64
	tunerGrows   atomic.Int64
	tunerReverts atomic.Int64
	tunerBlocked atomic.Int64
	tunerBytes   atomic.Int64
}

// New creates a Store and starts its build workers. When CacheDir is set,
// the write-ahead log in <CacheDir>/wal[-scope] is replayed and relations
// recorded in the cache registry are re-registered immediately with their
// unflushed deltas pending (their builds resolve from the cache, so they
// become ready without any catalog construction, and leftover deltas
// compact right after the first publish).
func New(opt Options) (*Store, error) {
	opt = opt.withDefaults()
	s := &Store{
		opt:     opt,
		entries: map[string]*entry{},
		jobs:    make(chan string, opt.QueueLen),
	}
	s.view.Store(emptyView)
	s.ctx, s.cancel = context.WithCancel(context.Background())
	var replay wal.Replay
	if opt.CacheDir != "" {
		c, err := openDiskCache(opt.CacheDir, opt.RegistryScope)
		if err != nil {
			return nil, fmt.Errorf("store: opening cache: %w", err)
		}
		s.cache = c
		walDir := "wal"
		if opt.RegistryScope != "" {
			walDir = "wal-" + opt.RegistryScope
		}
		w, rep, err := wal.Open(wal.Options{
			Dir:          filepath.Join(opt.CacheDir, walDir),
			SegmentBytes: opt.WALSegmentBytes,
			SyncInterval: opt.WALSyncInterval,
			Logger:       opt.Logger,
			OpHook:       opt.crashHook,
		})
		if err != nil {
			return nil, fmt.Errorf("store: opening wal: %w", err)
		}
		s.wal = w
		replay = rep
		s.walTruncated.Store(int64(rep.TruncatedTails + rep.DroppedSegments))
		if rep.TruncatedTails > 0 || rep.DroppedSegments > 0 {
			s.opt.logger().Printf("store: wal repaired on replay: %d torn tails truncated, %d segments dropped", rep.TruncatedTails, rep.DroppedSegments)
		}
	}
	// Hold the lock across worker startup and recovery: a worker grabs the
	// lock before building, so no build can publish until every restored
	// relation carries its replayed deltas.
	s.mu.Lock()
	for i := 0; i < opt.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if s.cache != nil {
		s.recoverLocked(replay.Records)
	}
	s.mu.Unlock()
	if opt.CompactInterval > 0 {
		s.stopCompact = make(chan struct{})
		s.compactorDone = make(chan struct{})
		go s.compactor()
	}
	if opt.CatalogBudgetBytes > 0 && opt.TunerInterval > 0 {
		s.stopTuner = make(chan struct{})
		s.tunerDone = make(chan struct{})
		go s.tuner()
	}
	return s, nil
}

// Options returns the store's effective (defaulted) options.
func (s *Store) Options() Options { return s.opt }

// View returns the current immutable view. The returned pointer is safe to
// use for any number of lookups; it never blocks and never observes a
// half-published schema.
func (s *Store) View() *View { return s.view.Load() }

// AddPublishHook registers fn to be called with a relation's name every
// time that relation's published snapshot changes: a first publication, a
// hot swap (re-registration rebuild), a compaction publish, or a drop. The
// call happens after the new View is swapped in, so fn observes the
// post-change schema through View(). Hooks run synchronously under the
// store's lock: they must be fast and must not call back into the store.
//
// The plan cache hangs its invalidation off this hook — firing after the
// View swap means a plan keyed by the old snapshot version is invalidated
// only once lookups can no longer resolve that version, so there is no
// window in which a stale plan is both resolvable and uninvalidated.
func (s *Store) AddPublishHook(fn func(relation string)) {
	s.mu.Lock()
	s.publishHooks = append(s.publishHooks, fn)
	s.mu.Unlock()
}

// notifyPublishLocked fires the publish hooks for name. Caller holds s.mu.
func (s *Store) notifyPublishLocked(name string) {
	for _, fn := range s.publishHooks {
		fn(name)
	}
}

// CatalogBuilds returns the number of catalogs constructed so far (cache
// hits excluded).
func (s *Store) CatalogBuilds() int64 { return s.catalogBuilds.Load() }

// CacheHits returns the number of catalogs loaded from the disk cache.
func (s *Store) CacheHits() int64 { return s.cacheHits.Load() }

// validateName rejects names that would be unusable in URLs or cache paths.
func validateName(name string) error {
	if name == "" || len(name) > 64 {
		return fmt.Errorf("store: relation name must be 1-64 characters, got %d", len(name))
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '_', r == '-', r == '.':
		default:
			return fmt.Errorf("store: relation name %q contains %q (allowed: letters, digits, '_', '-', '.')", name, r)
		}
	}
	return nil
}

// Register schedules a (re)build of name from the given points and returns
// the resulting status (queued). If name is already registered, the new
// points supersede the old ones: a queued build picks them up in place, a
// running build is cancelled and re-scheduled, and a published snapshot
// keeps serving until the new version is ready. The call never waits for
// the build; use WaitReady or Status to observe completion.
func (s *Store) Register(name string, pts []geom.Point) (RelationStatus, error) {
	return s.RegisterResolution(name, pts, core.Resolution{})
}

// RegisterResolution is Register with a per-relation artifact resolution:
// catalog depth (MaxK), staircase corner budget, virtual-grid granularity
// and aknn partition capacity. Zero axes inherit the store-wide options,
// so the zero resolution is exactly Register. The resolution is the
// relation's declared accuracy; the space-budget tuner may serve it
// coarser under memory pressure, but never refuses the registration.
func (s *Store) RegisterResolution(name string, pts []geom.Point, res core.Resolution) (RelationStatus, error) {
	if err := validateName(name); err != nil {
		return RelationStatus{}, err
	}
	if len(pts) == 0 {
		return RelationStatus{}, fmt.Errorf("store: relation %q has no points", name)
	}
	for i, p := range pts {
		if !finite(p.X) || !finite(p.Y) {
			return RelationStatus{}, fmt.Errorf("store: relation %q point %d is not finite: %v", name, i, p)
		}
	}
	res = s.opt.resolveResolution(res)
	if err := res.Validate(); err != nil {
		return RelationStatus{}, fmt.Errorf("store: relation %q: %w", name, err)
	}
	return s.submit(name, pts, nil, res)
}

// RegisterIndex schedules a build of name over a pre-built data index. The
// index is used as-is (any index.Tree works, including non-partitioning
// ones); because the store cannot reproduce an arbitrary index from disk,
// index-registered relations bypass the warm-restart cache.
func (s *Store) RegisterIndex(name string, tree *index.Tree) (RelationStatus, error) {
	if err := validateName(name); err != nil {
		return RelationStatus{}, err
	}
	if tree == nil || tree.NumBlocks() == 0 {
		return RelationStatus{}, fmt.Errorf("store: relation %q has no blocks", name)
	}
	return s.submit(name, nil, tree, s.opt.resolveResolution(core.Resolution{}))
}

func (s *Store) submit(name string, pts []geom.Point, tree *index.Tree, res core.Resolution) (RelationStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return RelationStatus{}, ErrClosed
	}
	e := s.entries[name]
	isNew := e == nil
	if isNew {
		e = &entry{name: name, hits: &atomic.Int64{}}
	}
	if err := s.enqueueLocked(e, pts, tree); err != nil {
		return RelationStatus{}, err
	}
	if isNew {
		s.entries[name] = e
	}
	// A user registration replaces base and deltas wholesale: pending
	// mutations are obsolete, and the publish checkpoint covers everything
	// logged so far for this relation. The declared resolution resets the
	// tuner state too — a re-registration is a fresh accuracy contract.
	e.pending = nil
	e.ckptLSN = s.lastLSNLocked()
	e.isCompact = false
	e.fromPoints = pts != nil
	e.res, e.declaredRes = res, res
	e.tunerSteps, e.tunerFloor, e.tunerProbed = 0, math.MaxInt, 0
	s.republishLocked()
	return e.statusLocked(), nil
}

// enqueueLocked stages pts/tree as e's wanted generation and ensures a
// build signal is queued, superseding any in-flight build. On ErrQueueFull
// the entry is untouched. Caller holds s.mu.
func (s *Store) enqueueLocked(e *entry, pts []geom.Point, tree *index.Tree) error {
	// Close sets s.closed and closes s.jobs under the same lock, so this
	// check is what keeps late enqueues — a finishing build's follow-up
	// compaction, a racing Flush — from sending on the closed channel.
	if s.closed {
		return ErrClosed
	}
	if e.state != StateQueued {
		// Reserve the queue slot before mutating anything, so a saturated
		// queue leaves the store untouched.
		select {
		case s.jobs <- e.name:
		default:
			return ErrQueueFull
		}
	}
	e.gen++
	e.pendingPts, e.pendingTree = pts, tree
	if e.state == StateBuilding && e.cancel != nil {
		e.cancel() // supersede the in-flight build
	}
	e.state = StateQueued
	e.err = ""
	return nil
}

// lastLSNLocked returns the newest assigned mutation sequence number.
func (s *Store) lastLSNLocked() uint64 {
	if s.wal != nil {
		return s.wal.LastLSN()
	}
	return s.seq
}

// Drop removes a relation: pending and running builds are cancelled, the
// published snapshot (if any) leaves the next View, and the cache registry
// forgets the name (cached artifacts stay on disk — the cache is
// content-addressed and a re-registration of the same data warm-loads).
// In-flight estimates holding an older View keep working on the snapshot
// they resolved. It reports whether the relation existed.
func (s *Store) Drop(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[name]
	if e == nil {
		return false
	}
	// Log the drop and make it durable before the registry forgets the
	// name: a crash in between then replays the drop instead of
	// resurrecting the relation from the still-registered fingerprint.
	if s.wal != nil {
		if _, err := s.wal.Append(wal.Record{Kind: wal.KindDrop, Relation: name}); err != nil {
			s.opt.logger().Printf("store: logging drop of %q: %v", name, err)
		} else if err := s.wal.Sync(); err != nil {
			s.opt.logger().Printf("store: syncing drop of %q: %v", name, err)
		}
	}
	if e.cancel != nil {
		e.cancel()
	}
	delete(s.entries, name)
	s.republishLocked()
	s.notifyPublishLocked(name)
	if s.cache != nil {
		if err := s.cache.forget(name); err != nil {
			s.opt.logger().Printf("store: updating cache registry after dropping %q: %v", name, err)
		}
	}
	s.trimWALLocked()
	return true
}

// Status returns the current status of name.
func (s *Store) Status(name string) (RelationStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[name]
	if e == nil {
		return RelationStatus{}, false
	}
	return e.statusLocked(), true
}

// WaitReady blocks until every named relation is ready, any of them fails
// (the first failure is returned as an error), or ctx expires. With no
// names it waits for every relation known at call time.
func (s *Store) WaitReady(ctx context.Context, names ...string) error {
	if len(names) == 0 {
		s.mu.Lock()
		for name := range s.entries {
			names = append(names, name)
		}
		s.mu.Unlock()
	}
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		done := true
		s.mu.Lock()
		var failed error
		for _, name := range names {
			e := s.entries[name]
			if e == nil {
				failed = fmt.Errorf("store: relation %q is not registered", name)
				break
			}
			switch e.state {
			case StateReady:
			case StateFailed:
				failed = fmt.Errorf("store: building %q: %s", name, e.err)
			default:
				done = false
			}
			if failed != nil {
				break
			}
		}
		s.mu.Unlock()
		if failed != nil {
			return failed
		}
		if done {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// Close drains the build pool: no new registrations are accepted, queued
// builds are skipped, and in-flight builds get until ctx expires to finish
// before being cancelled. Close always waits for the workers to exit.
func (s *Store) Close(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	close(s.jobs)
	s.mu.Unlock()

	if s.stopCompact != nil {
		close(s.stopCompact)
		<-s.compactorDone
	}
	if s.stopTuner != nil {
		close(s.stopTuner)
		<-s.tunerDone
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.cancel() // hard-cancel in-flight builds; they abort between stages
		<-done
	}
	s.cancel()
	// Workers are done publishing (and checkpointing); seal the log. Any
	// deltas still pending stay in the WAL and replay on the next start.
	if s.wal != nil {
		if werr := s.wal.Close(); werr != nil {
			s.opt.logger().Printf("store: closing wal: %v", werr)
		}
	}
	return err
}

func (s *Store) worker() {
	defer s.wg.Done()
	for name := range s.jobs {
		s.runJob(name)
	}
}

// runJob consumes one build signal. The signal's relation may have been
// dropped, superseded or already picked up by another worker; the
// generation check at publish time makes any stale outcome a silent no-op.
func (s *Store) runJob(name string) {
	s.mu.Lock()
	e := s.entries[name]
	if e == nil || s.closed || e.state != StateQueued {
		s.mu.Unlock()
		return
	}
	gen := e.gen
	pts, tree := e.pendingPts, e.pendingTree
	res := e.res
	ctx, cancel := context.WithCancel(s.ctx)
	e.cancel = cancel
	e.state = StateBuilding
	s.republishLocked()
	s.mu.Unlock()

	built, err := s.buildCatalogs(ctx, name, pts, tree, res)
	cancel()

	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.entries[name]
	if cur == nil || cur.gen != gen {
		return // dropped or superseded while building; discard
	}
	cur.cancel = nil
	if err != nil {
		if ctx.Err() != nil {
			err = fmt.Errorf("build cancelled: %w", err)
		}
		cur.state = StateFailed
		cur.err = err.Error()
		s.republishLocked()
		s.opt.logger().Printf("store: building %q: %v", name, err)
		return
	}
	s.publishLocked(cur, built)
	// Deltas that arrived while this build ran (or were replayed at
	// startup) are still pending: fold them in the next round.
	if cur.state == StateReady && len(cur.pending) > 0 {
		s.compactLocked(cur)
	}
}

// builtRelation carries a finished per-relation build from the worker into
// the publish step.
type builtRelation struct {
	tree      *index.Tree
	count     *index.Tree
	staircase *core.Staircase
	density   *core.DensityBased
	vgrid     *core.VirtualGrid
	aknn      *aknn.Summary
	pts       []geom.Point    // registration-order source points; nil for index builds
	fp        string          // empty when not cacheable
	res       core.Resolution // the resolution the artifacts were built at
	fromCache bool
}

// buildCatalogs constructs (or cache-loads) every per-relation estimator
// at the given resolution. It runs without any store lock; ctx aborts it
// between stages.
func (s *Store) buildCatalogs(ctx context.Context, name string, pts []geom.Point, tree *index.Tree, res core.Resolution) (*builtRelation, error) {
	res = res.Canon()
	b := &builtRelation{tree: tree, res: res}
	if tree == nil {
		b.pts = pts
		bounds := s.opt.Bounds
		if !bounds.Valid() || bounds.Width() <= 0 || bounds.Height() <= 0 {
			bounds = boundsOf(pts)
		}
		b.tree = quadtree.Build(pts, quadtree.Options{
			Capacity: s.opt.IndexCapacity,
			Bounds:   bounds,
		}).Index()
		b.fp = s.fingerprint(pts, res)
	}
	if b.tree.NumBlocks() == 0 {
		return nil, fmt.Errorf("relation %q indexed to zero blocks", name)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b.count = b.tree.CountTree()
	b.density = core.NewDensityBased(b.count)

	if b.fp != "" && s.cache != nil {
		if s.loadCachedCatalogs(b) {
			b.fromCache = true
			return b, nil
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	stair, err := core.BuildStaircase(b.tree, core.StaircaseOptions{
		MaxK:     res.MaxK,
		Mode:     res.StaircaseMode(),
		Fallback: b.density,
	})
	if err != nil {
		return nil, fmt.Errorf("staircase: %w", err)
	}
	s.catalogBuilds.Add(1)
	b.staircase = stair
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	vg, err := core.BuildVirtualGrid(b.count, res.GridSize, res.GridSize, res.MaxK)
	if err != nil {
		return nil, fmt.Errorf("virtual grid: %w", err)
	}
	s.catalogBuilds.Add(1)
	b.vgrid = vg
	b.aknn = aknn.BuildSummaryCapacity(b.count, res.AknnCapacity)
	s.catalogBuilds.Add(1)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if b.fp != "" && s.cache != nil {
		if err := s.cache.storeRelation(b.fp, s.manifestFor(b, pts), pts, stair, vg, b.aknn, res); err != nil {
			s.opt.logger().Printf("store: caching %q: %v (continuing uncached)", name, err)
		}
	}
	return b, nil
}

// loadCachedCatalogs tries to satisfy a build from the disk cache. Any
// mismatch or corruption is a miss, never an error: the caller rebuilds.
func (s *Store) loadCachedCatalogs(b *builtRelation) bool {
	m, ok := s.cache.loadManifest(b.fp)
	if !ok || !s.manifestMatches(m, b) {
		return false
	}
	stair, vg, sum, err := s.cache.loadRelation(b.fp, b.tree, core.StaircaseOptions{Fallback: b.density}, b.res)
	if err != nil {
		s.opt.logger().Printf("store: cache load %s: %v (rebuilding)", shortFP(b.fp), err)
		return false
	}
	b.staircase, b.vgrid, b.aknn = stair, vg, sum
	s.cacheHits.Add(3) // staircase + virtual grid + aknn summary
	return true
}

func (s *Store) manifestFor(b *builtRelation, pts []geom.Point) manifest {
	return manifest{
		Format:       cacheFormat,
		NumPoints:    len(pts),
		NumBlocks:    b.tree.NumBlocks(),
		MaxK:         b.res.MaxK,
		Corners:      b.res.Corners,
		SampleSize:   s.opt.SampleSize,
		GridSize:     b.res.GridSize,
		AknnCapacity: b.res.AknnCapacity,
		Capacity:     s.opt.IndexCapacity,
	}
}

func (s *Store) manifestMatches(m manifest, b *builtRelation) bool {
	return m.Format == cacheFormat &&
		m.NumPoints == b.tree.NumPoints() &&
		m.NumBlocks == b.tree.NumBlocks() &&
		m.MaxK == b.res.MaxK &&
		m.Corners == b.res.Corners &&
		m.SampleSize == s.opt.SampleSize &&
		m.GridSize == b.res.GridSize &&
		m.AknnCapacity == b.res.AknnCapacity &&
		m.Capacity == s.opt.IndexCapacity
}

// publishLocked turns a finished build into the next published version:
// the relation's snapshot, the Catalog-Merge estimators pairing it with
// every other published relation, and a fresh View. It runs under s.mu —
// publication is serialized, which is what guarantees every View carries a
// merge for every ordered pair of its relations. Readers never block on it.
func (s *Store) publishLocked(e *entry, b *builtRelation) {
	version := uint64(1)
	if e.snap != nil {
		version = e.snap.Version + 1
	}
	eng := engine.NewRelationWithCount(e.name, b.tree, b.count,
		engine.BuildOptions{SampleSize: s.opt.SampleSize}.WithResolution(b.res))
	// Seed the engine with the artifacts this build already produced (or
	// cache-loaded), so technique resolution never rebuilds what the store
	// has: the engine serves these exact objects, bit for bit. The
	// staircase seeds under the technique its mode (the resolution's corner
	// budget) selects; artifacts key by their own reported resolution.
	eng.Seed(engine.TechDensity, b.density)
	eng.Seed(engine.StaircaseTechnique(b.staircase.Mode()), b.staircase)
	eng.Seed(engine.TechVirtualGrid, b.vgrid)
	eng.Seed(engine.TechAknnBounds, b.aknn)
	if e.hits == nil {
		e.hits = &atomic.Int64{}
	}
	stairBytes, vgBytes, aknnBytes := b.staircase.SizeBytes(), b.vgrid.SizeBytes(), b.aknn.SizeBytes()
	snap := &Snapshot{
		Name:           e.name,
		Version:        version,
		Fingerprint:    b.fp,
		Points:         b.pts,
		Tree:           b.tree,
		Count:          b.count,
		Staircase:      b.staircase,
		Density:        b.density,
		VGrid:          b.vgrid,
		Aknn:           b.aknn,
		Engine:         eng,
		Resolution:     b.res,
		StaircaseBytes: stairBytes,
		VGridBytes:     vgBytes,
		AknnBytes:      aknnBytes,
		ArtifactBytes:  stairBytes + vgBytes + aknnBytes,
		hits:           e.hits,
	}
	e.snap = snap
	e.state = StateReady
	e.err = ""
	e.pendingPts, e.pendingTree = nil, nil
	covered := e.ckptLSN
	wasCompact := e.isCompact
	e.isCompact = false
	// Deltas this build folded in are acknowledged by the snapshot now;
	// anything logged after the fold stays pending for the next round.
	e.pending = filterCovered(e.pending, covered)
	s.republishLocked()
	s.notifyPublishLocked(e.name)
	if wasCompact {
		s.compactions.Add(1)
	}
	if s.cache == nil || b.fp == "" {
		return
	}
	// Durability order: artifacts are on disk (buildCatalogs wrote them),
	// so checkpoint the fold in the WAL, fsync it, and only then let the
	// registry adopt the new fingerprint. Replay treats a checkpoint whose
	// fingerprint the registry never adopted as ineffective, so a crash
	// anywhere in this sequence recovers a consistent base + delta state.
	if s.wal != nil {
		_, err := s.wal.Append(wal.Record{Kind: wal.KindCheckpoint, Relation: e.name, Covered: covered, Fingerprint: b.fp})
		if err == nil {
			err = s.wal.Sync()
		}
		if err != nil {
			// Without a durable checkpoint the registry must keep the old
			// fingerprint: adopting the new one would double-apply the
			// covered deltas on replay.
			s.opt.logger().Printf("store: checkpointing %q: %v (registry not updated)", e.name, err)
			e.rememberFailed = true
			return
		}
	}
	if err := s.cache.remember(e.name, b.fp, b.res, e.declaredRes); err != nil {
		s.opt.logger().Printf("store: updating cache registry for %q: %v", e.name, err)
		e.rememberFailed = true
	} else {
		e.rememberFailed = false
		e.durableCovered = covered
	}
	s.trimWALLocked()
}

// republishLocked rebuilds and atomically swaps in the View from the
// current entries. Merges for pairs whose snapshots are unchanged are
// carried over from the previous View; missing pairs (a newly published or
// republished relation) are built or cache-loaded here, under the lock, so
// that concurrent publishes cannot each miss the other's relation.
func (s *Store) republishLocked() {
	old := s.view.Load()
	v := &View{
		relations: make(map[string]*Snapshot, len(s.entries)),
		merges:    make(map[[2]string]*core.CatalogMerge, len(old.merges)),
		names:     make([]string, 0, len(s.entries)),
		statuses:  make([]RelationStatus, 0, len(s.entries)),
	}
	for name, e := range s.entries {
		v.statuses = append(v.statuses, e.statusLocked())
		if e.snap != nil {
			v.relations[name] = e.snap
			v.names = append(v.names, name)
		}
	}
	sort.Strings(v.names)
	sort.Slice(v.statuses, func(i, j int) bool { return v.statuses[i].Name < v.statuses[j].Name })
	for _, outer := range v.names {
		for _, inner := range v.names {
			if outer == inner {
				continue
			}
			pair := [2]string{outer, inner}
			// Reuse the previous merge only if both endpoints are the very
			// same snapshots it was built for.
			if old.relations[outer] == v.relations[outer] && old.relations[inner] == v.relations[inner] {
				if m := old.merges[pair]; m != nil {
					v.merges[pair] = m
					continue
				}
			}
			m, err := s.mergeFor(v.relations[outer], v.relations[inner])
			if err != nil {
				// A merge failure must not unpublish the relations; the
				// pair is simply absent and the join endpoint reports it.
				s.opt.logger().Printf("store: catalog-merge %s⋉%s: %v", outer, inner, err)
				continue
			}
			v.merges[pair] = m
		}
	}
	// Drop the pair artifacts the engines cached for inner relations this
	// View retires; otherwise every compaction would leave its predecessor
	// snapshot reachable from each other relation's engine.
	live := make(map[*engine.Relation]bool, len(v.relations))
	for _, snap := range v.relations {
		live[snap.Engine] = true
	}
	for _, snap := range v.relations {
		snap.Engine.DropPairsExcept(live)
	}
	// Seed every pair merge into the outer relation's engine so join
	// technique resolution by name returns the store's merge object.
	// SeedPair is first-value-wins, so re-seeding a carried-over pair on a
	// later republish is a no-op.
	for pair, m := range v.merges {
		v.relations[pair[0]].Engine.SeedPair(engine.TechCatalogMerge, v.relations[pair[1]].Engine, m)
	}
	s.view.Store(v)
}

// mergeFor builds or cache-loads the Catalog-Merge for one ordered pair.
func (s *Store) mergeFor(outer, inner *Snapshot) (*core.CatalogMerge, error) {
	cacheable := s.cache != nil && outer.Fingerprint != "" && inner.Fingerprint != ""
	if cacheable {
		if m, err := s.cache.loadMerge(outer.Fingerprint, inner.Fingerprint); err == nil {
			s.cacheHits.Add(1)
			return m, nil
		}
	}
	// The merge's catalog depth follows the outer relation's effective
	// resolution, matching the engine's CatalogMerge accessor.
	m, err := core.BuildCatalogMerge(outer.Count, inner.Count, s.opt.SampleSize, outer.Resolution.MaxK)
	if err != nil {
		return nil, err
	}
	s.catalogBuilds.Add(1)
	if cacheable {
		if err := s.cache.storeMerge(outer.Fingerprint, inner.Fingerprint, m); err != nil {
			s.opt.logger().Printf("store: caching merge: %v (continuing uncached)", err)
		}
	}
	return m, nil
}

// statusLocked snapshots the externally visible state of e.
func (e *entry) statusLocked() RelationStatus {
	st := RelationStatus{
		Name:  e.name,
		State: e.state.String(),
		Error: e.err,
	}
	if e.snap != nil {
		st.Version = e.snap.Version
		st.NumPoints = e.snap.Tree.NumPoints()
		st.NumBlocks = e.snap.Tree.NumBlocks()
		st.StaircaseBytes = e.snap.StaircaseBytes
		st.VirtualGridBytes = e.snap.VGridBytes
		st.AknnBytes = e.snap.AknnBytes
		st.ArtifactBytes = e.snap.ArtifactBytes
		st.Resolution = e.snap.Resolution
		st.DeclaredResolution = e.declaredRes
	}
	if len(e.pending) > 0 {
		st.DeltaOps = len(e.pending)
		st.DeltaPoints = pendingPoints(e)
		st.DeltaAgeMs = time.Since(e.pending[0].at).Milliseconds()
		if st.DeltaAgeMs < 1 {
			st.DeltaAgeMs = 1 // a fresh delta is still a visible one
		}
	}
	return st
}

// boundsOf returns the bounding rectangle of pts, slightly inflated so
// every point is strictly inside (a quadtree needs open upper edges).
func boundsOf(pts []geom.Point) geom.Rect {
	r := geom.NewRect(pts[0].X, pts[0].Y, pts[0].X, pts[0].Y)
	for _, p := range pts[1:] {
		if p.X < r.Min.X {
			r.Min.X = p.X
		}
		if p.Y < r.Min.Y {
			r.Min.Y = p.Y
		}
		if p.X > r.Max.X {
			r.Max.X = p.X
		}
		if p.Y > r.Max.Y {
			r.Max.Y = p.Y
		}
	}
	w, h := r.Width(), r.Height()
	if w == 0 {
		w = 1
	}
	if h == 0 {
		h = 1
	}
	r.Min.X -= w * 0.001
	r.Min.Y -= h * 0.001
	r.Max.X += w * 0.001
	r.Max.Y += h * 0.001
	return r
}

func finite(f float64) bool {
	return !math.IsNaN(f) && !math.IsInf(f, 0)
}
