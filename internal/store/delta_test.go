package store

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"knncost/internal/engine"
	"knncost/internal/geom"
	"knncost/internal/quadtree"
	"knncost/internal/wal"
)

func settle(t *testing.T, s *Store, names ...string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.WaitSettled(ctx, names...); err != nil {
		t.Fatalf("WaitSettled(%v): %v", names, err)
	}
}

func closeStore(t *testing.T, s *Store) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func samePoints(a, b []geom.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// assertBitExact pins that two snapshots are the same build: identical
// fingerprints (same points, same options) and bit-identical estimates.
func assertBitExact(t *testing.T, got, want *Snapshot) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("nil snapshot: got=%v want=%v", got != nil, want != nil)
	}
	if got.Fingerprint != want.Fingerprint {
		t.Fatalf("fingerprints differ: %s vs %s", shortFP(got.Fingerprint), shortFP(want.Fingerprint))
	}
	probes := []geom.Point{{X: 10.5, Y: 20.5}, {X: 50.2, Y: 3.3}, {X: 98.7, Y: 99.1}}
	for _, q := range probes {
		for _, k := range []int{1, 7, 33, 64} {
			a, err1 := got.Staircase.EstimateSelect(q, k)
			b, err2 := want.Staircase.EstimateSelect(q, k)
			if err1 != nil || err2 != nil {
				t.Fatalf("EstimateSelect(%v, %d): %v / %v", q, k, err1, err2)
			}
			if a != b {
				t.Fatalf("EstimateSelect(%v, %d) not bit-exact: %v vs %v", q, k, a, b)
			}
		}
	}
	if got.StaircaseBytes != want.StaircaseBytes || got.VGridBytes != want.VGridBytes {
		t.Fatalf("catalog sizes differ: staircase %d/%d vgrid %d/%d",
			got.StaircaseBytes, want.StaircaseBytes, got.VGridBytes, want.VGridBytes)
	}
}

// fromScratch builds the reference snapshot: a fresh store, same options,
// registered once with the final point sequence.
func fromScratch(t *testing.T, pts []geom.Point) *Snapshot {
	t.Helper()
	s := newTestStore(t, testOptions(t))
	if _, err := s.Register("scratch", pts); err != nil {
		t.Fatalf("Register scratch: %v", err)
	}
	waitReady(t, s, "scratch")
	return s.View().Relation("scratch")
}

func TestReadYourWritesAfterFlush(t *testing.T) {
	opt := testOptions(t)
	opt.CompactThreshold = 1 << 20 // only explicit flushes compact
	opt.CompactInterval = -1
	s := newTestStore(t, opt)
	base := gridPoints(200, 11)
	if _, err := s.Register("live", base); err != nil {
		t.Fatal(err)
	}
	waitReady(t, s, "live")
	v1 := s.View().Relation("live")

	add := gridPoints(30, 12)
	st, err := s.Append("live", add)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if st.DeltaOps != 1 || st.DeltaPoints != 30 || st.DeltaAgeMs < 1 {
		t.Fatalf("delta status after append = %+v", st)
	}
	if st.NumPoints != 200 || st.Version != 1 {
		t.Fatalf("published snapshot changed before compaction: %+v", st)
	}
	// Bounded staleness: the snapshot is the old one, but the logical view
	// already includes the write.
	if got := s.View().Relation("live"); got != v1 {
		t.Fatal("snapshot pointer changed without compaction")
	}
	logical, err := s.LogicalPoints("live")
	if err != nil {
		t.Fatal(err)
	}
	if !samePoints(logical, append(append([]geom.Point{}, base...), add...)) {
		t.Fatal("logical points do not include the pending append")
	}

	// Read-your-writes after flush: the new snapshot covers the delta and
	// matches a from-scratch build bit for bit.
	if err := s.Flush("live"); err != nil {
		t.Fatal(err)
	}
	settle(t, s, "live")
	st, _ = s.Status("live")
	if st.DeltaOps != 0 || st.DeltaPoints != 0 || st.DeltaAgeMs != 0 {
		t.Fatalf("delta not drained: %+v", st)
	}
	if st.NumPoints != 230 || st.Version != 2 {
		t.Fatalf("post-flush status = %+v", st)
	}
	assertBitExact(t, s.View().Relation("live"), fromScratch(t, logical))
	if s.Compactions() != 1 {
		t.Fatalf("Compactions = %d, want 1", s.Compactions())
	}
}

func TestDeleteSemantics(t *testing.T) {
	opt := testOptions(t)
	opt.CompactThreshold = 1 << 20
	opt.CompactInterval = -1
	s := newTestStore(t, opt)
	dup := geom.Point{X: 41.5, Y: 41.5}
	base := append(gridPoints(40, 5), dup, dup) // the duplicate appears twice
	if _, err := s.Register("live", base); err != nil {
		t.Fatal(err)
	}
	waitReady(t, s, "live")

	// Append another occurrence, then delete the coordinate: every
	// occurrence — base duplicates and the appended one — must go.
	if _, err := s.Append("live", []geom.Point{dup, {X: 77, Y: 77}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Delete("live", []geom.Point{dup}); err != nil {
		t.Fatal(err)
	}
	// Deleting an absent coordinate is a no-op, not an error.
	if _, err := s.Delete("live", []geom.Point{{X: -1000, Y: -1000}}); err != nil {
		t.Fatal(err)
	}
	logical, err := s.LogicalPoints("live")
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]geom.Point{}, gridPoints(40, 5)...), geom.Point{X: 77, Y: 77})
	if !samePoints(logical, want) {
		t.Fatalf("logical after delete = %d points, want %d (order-preserving, all occurrences removed)", len(logical), len(want))
	}
	if err := s.Flush("live"); err != nil {
		t.Fatal(err)
	}
	settle(t, s, "live")
	st, _ := s.Status("live")
	if st.NumPoints != len(want) {
		t.Fatalf("NumPoints = %d, want %d", st.NumPoints, len(want))
	}
	assertBitExact(t, s.View().Relation("live"), fromScratch(t, want))
}

func TestVersionsMonotonicAcrossCompaction(t *testing.T) {
	opt := testOptions(t)
	opt.CompactThreshold = 1 << 20
	opt.CompactInterval = -1
	s := newTestStore(t, opt)
	if _, err := s.Register("live", gridPoints(150, 9)); err != nil {
		t.Fatal(err)
	}
	waitReady(t, s, "live")
	last := s.View().Relation("live").Version
	if last != 1 {
		t.Fatalf("first version = %d", last)
	}
	for round := 0; round < 4; round++ {
		if _, err := s.Append("live", gridPoints(10, int64(100+round))); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush("live"); err != nil {
			t.Fatal(err)
		}
		settle(t, s, "live")
		v := s.View().Relation("live").Version
		if v != last+1 {
			t.Fatalf("round %d: version %d after %d (must increase by exactly one per compaction)", round, v, last)
		}
		last = v
	}
}

// Compacting one relation must let its retired snapshots go. Every other
// relation's engine caches a pair artifact keyed by the inner relation, so
// a stale entry would keep each predecessor reachable and the heap would
// grow with every compaction.
func TestCompactionReleasesRetiredSnapshots(t *testing.T) {
	opt := testOptions(t)
	opt.CompactThreshold = 1 << 20
	opt.CompactInterval = -1
	s := newTestStore(t, opt)
	for i, name := range []string{"outer", "live"} {
		if _, err := s.Register(name, gridPoints(150, int64(40+i))); err != nil {
			t.Fatal(err)
		}
	}
	waitReady(t, s, "outer", "live")
	const rounds = 4
	var freed atomic.Int64
	for round := 0; round < rounds; round++ {
		runtime.SetFinalizer(s.View().Relation("live").Engine, func(*engine.Relation) { freed.Add(1) })
		if _, err := s.Append("live", gridPoints(10, int64(50+round))); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush("live"); err != nil {
			t.Fatal(err)
		}
		settle(t, s, "live")
	}
	deadline := time.Now().Add(5 * time.Second)
	for freed.Load() < rounds && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if n := freed.Load(); n < rounds {
		t.Fatalf("%d of %d retired engines of a compacted relation were collected", n, rounds)
	}
}

func TestThresholdTriggersCompaction(t *testing.T) {
	opt := testOptions(t)
	opt.CompactThreshold = 25
	opt.CompactInterval = -1
	s := newTestStore(t, opt)
	if _, err := s.Register("live", gridPoints(150, 21)); err != nil {
		t.Fatal(err)
	}
	waitReady(t, s, "live")
	if _, err := s.Append("live", gridPoints(10, 22)); err != nil {
		t.Fatal(err)
	}
	if st, _ := s.Status("live"); st.DeltaPoints != 10 {
		t.Fatalf("below-threshold append compacted early: %+v", st)
	}
	// Crossing the threshold compacts without any explicit flush.
	if _, err := s.Append("live", gridPoints(20, 23)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, _ := s.Status("live")
		if st.DeltaOps == 0 && st.NumPoints == 180 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("threshold compaction never drained: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if s.Compactions() == 0 {
		t.Fatal("compaction counter still zero")
	}
}

func TestIntervalCompactorDrainsTrickle(t *testing.T) {
	opt := testOptions(t)
	opt.CompactThreshold = 1 << 20
	opt.CompactInterval = 10 * time.Millisecond
	s := newTestStore(t, opt)
	if _, err := s.Register("live", gridPoints(150, 31)); err != nil {
		t.Fatal(err)
	}
	waitReady(t, s, "live")
	if _, err := s.Append("live", gridPoints(5, 32)); err != nil {
		t.Fatal(err)
	}
	// No flush, no threshold: the interval compactor is the staleness bound.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, _ := s.Status("live")
		if st.DeltaOps == 0 && st.NumPoints == 155 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("interval compactor never drained the trickle: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestInterleavedDeltasConvergeToFromScratch(t *testing.T) {
	opt := testOptions(t)
	opt.CacheDir = t.TempDir()
	opt.CompactThreshold = 40 // compactions interleave with the mutation stream
	opt.CompactInterval = -1
	s := newTestStore(t, opt)
	base := gridPoints(300, 7)
	if _, err := s.Register("live", base); err != nil {
		t.Fatal(err)
	}
	waitReady(t, s, "live")

	rng := rand.New(rand.NewSource(42))
	logical := append([]geom.Point{}, base...)
	for i := 0; i < 25; i++ {
		if rng.Intn(3) == 0 && len(logical) > 50 {
			n := 1 + rng.Intn(4)
			del := make([]geom.Point, 0, n)
			for j := 0; j < n; j++ {
				del = append(del, logical[rng.Intn(len(logical))])
			}
			if _, err := s.Delete("live", del); err != nil {
				t.Fatalf("delete %d: %v", i, err)
			}
			logical = applyMutations(logical, []mutation{{kind: wal.KindDelete, pts: del}})
		} else {
			n := 1 + rng.Intn(20)
			add := make([]geom.Point, n)
			for j := range add {
				add[j] = geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
			}
			if _, err := s.Append("live", add); err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
			logical = append(logical, add...)
		}
	}
	settle(t, s, "live")
	if s.Compactions() == 0 {
		t.Fatal("the interleaved stream never compacted; the test exercised nothing")
	}
	got, err := s.LogicalPoints("live")
	if err != nil {
		t.Fatal(err)
	}
	if !samePoints(got, logical) {
		t.Fatalf("settled sequence has %d points, expected %d", len(got), len(logical))
	}
	// The differential gate: after any interleaved delta sequence, the
	// compacted relation equals a from-scratch build of the final point
	// set, bit for bit.
	assertBitExact(t, s.View().Relation("live"), fromScratch(t, logical))
}

func TestUnflushedDeltasReplayOnRestart(t *testing.T) {
	opt := testOptions(t)
	opt.CacheDir = t.TempDir()
	opt.CompactThreshold = 1 << 20
	opt.CompactInterval = -1
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	base := gridPoints(250, 17)
	if _, err := s.Register("live", base); err != nil {
		t.Fatal(err)
	}
	waitReady(t, s, "live")
	add := gridPoints(20, 18)
	if _, err := s.Append("live", add); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Delete("live", []geom.Point{base[3], base[77]}); err != nil {
		t.Fatal(err)
	}
	want := applyMutations(base, []mutation{
		{kind: wal.KindAppend, pts: add},
		{kind: wal.KindDelete, pts: []geom.Point{base[3], base[77]}},
	})
	closeStore(t, s) // deltas never compacted: they live only in the WAL

	s2 := newTestStore(t, opt)
	if n := s2.WALReplayed(); n != 2 {
		t.Fatalf("WALReplayed = %d, want 2", n)
	}
	if n := s2.WALTruncatedTails(); n != 0 {
		t.Fatalf("clean shutdown replayed %d truncated tails", n)
	}
	settle(t, s2, "live")
	got, err := s2.LogicalPoints("live")
	if err != nil {
		t.Fatal(err)
	}
	if !samePoints(got, want) {
		t.Fatalf("replayed sequence has %d points, want %d", len(got), len(want))
	}
	assertBitExact(t, s2.View().Relation("live"), fromScratch(t, want))
}

func TestRestartAfterDropDoesNotResurrect(t *testing.T) {
	opt := testOptions(t)
	opt.CacheDir = t.TempDir()
	opt.CompactInterval = -1
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register("stay", gridPoints(120, 41)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register("gone", gridPoints(120, 42)); err != nil {
		t.Fatal(err)
	}
	waitReady(t, s, "stay", "gone")
	if _, err := s.Append("gone", gridPoints(5, 43)); err != nil {
		t.Fatal(err)
	}
	if !s.Drop("gone") {
		t.Fatal("Drop returned false")
	}
	closeStore(t, s)

	s2 := newTestStore(t, opt)
	if _, ok := s2.Status("gone"); ok {
		t.Fatal("dropped relation resurrected by warm restart")
	}
	waitReady(t, s2, "stay")
	if s2.View().Relation("stay") == nil {
		t.Fatal("surviving relation not restored")
	}
	if s2.View().Relation("gone") != nil {
		t.Fatal("dropped relation present in restored view")
	}
}

func TestMutateValidation(t *testing.T) {
	s := newTestStore(t, testOptions(t))
	if _, err := s.Register("pts", gridPoints(100, 1)); err != nil {
		t.Fatal(err)
	}
	tree := quadtree.Build(gridPoints(100, 2), quadtree.Options{Capacity: 32}).Index()
	if _, err := s.RegisterIndex("idx", tree); err != nil {
		t.Fatal(err)
	}
	waitReady(t, s, "pts", "idx")

	one := []geom.Point{{X: 1, Y: 2}}
	if _, err := s.Append("nope", one); !errors.Is(err, ErrUnknownRelation) {
		t.Fatalf("append to unknown: %v", err)
	}
	if _, err := s.Delete("nope", one); !errors.Is(err, ErrUnknownRelation) {
		t.Fatalf("delete on unknown: %v", err)
	}
	if _, err := s.Append("idx", one); !errors.Is(err, ErrNoPointSource) {
		t.Fatalf("append to index-registered: %v", err)
	}
	if _, err := s.Append("pts", nil); err == nil {
		t.Fatal("empty append accepted")
	}
	if _, err := s.Append("pts", []geom.Point{{X: math.NaN(), Y: 0}}); err == nil {
		t.Fatal("NaN append accepted")
	}
	if _, err := s.Append("bad name!", one); err == nil {
		t.Fatal("invalid name accepted")
	}
	if _, err := s.LogicalPoints("idx"); !errors.Is(err, ErrNoPointSource) {
		t.Fatalf("LogicalPoints on index-registered: %v", err)
	}
	if _, err := s.LogicalPoints("nope"); !errors.Is(err, ErrUnknownRelation) {
		t.Fatalf("LogicalPoints on unknown: %v", err)
	}
	if err := s.Flush("nope"); !errors.Is(err, ErrUnknownRelation) {
		t.Fatalf("Flush on unknown: %v", err)
	}
	st, _ := s.Status("pts")
	if st.DeltaOps != 0 {
		t.Fatalf("rejected mutations left deltas behind: %+v", st)
	}
}

// TestCloseWithInFlightCompaction pins the shutdown race: Close marks the
// store closed and closes the build-signal channel while a compaction build
// is still in flight; when that build lands with more deltas pending, runJob
// re-triggers compaction — which must refuse to enqueue instead of sending
// on the closed channel (a panic before the fix). Flush and WaitSettled on a
// closed store must likewise return ErrClosed rather than reaching the
// channel or spinning forever.
func TestCloseWithInFlightCompaction(t *testing.T) {
	for i := 0; i < 3; i++ {
		opt := testOptions(t)
		opt.CompactThreshold = 1 << 30 // compaction only via explicit Flush
		s := newTestStore(t, opt)
		if _, err := s.Register("live", gridPoints(20000, int64(i))); err != nil {
			t.Fatal(err)
		}
		settle(t, s, "live")
		if _, err := s.Append("live", gridPoints(4, 100+int64(i))); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush("live"); err != nil { // compaction build starts
			t.Fatalf("Flush: %v", err)
		}
		// Wait until a worker has actually picked the build up: Close must
		// land while the build is in flight for the landing build to take
		// the re-compaction path on a closed store.
		for deadline := time.Now().Add(10 * time.Second); ; {
			s.mu.Lock()
			state := s.entries["live"].state
			s.mu.Unlock()
			if state == StateBuilding {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("compaction build never started")
			}
			time.Sleep(100 * time.Microsecond)
		}
		// New deltas arrive while the build runs, so the landing build sees
		// a non-empty overlay and takes the re-compaction path under Close.
		if _, err := s.Append("live", gridPoints(4, 200+int64(i))); err != nil {
			t.Fatal(err)
		}
		closeStore(t, s)
		if err := s.Flush("live"); !errors.Is(err, ErrClosed) {
			t.Fatalf("Flush after Close: %v, want ErrClosed", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		err := s.WaitSettled(ctx, "live")
		cancel()
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("WaitSettled after Close: %v, want ErrClosed", err)
		}
	}
}

// TestRollbackMutationUncapturedDelta pins the failed-commit rollback
// helper: a pending mutation no fold covers is removed from the overlay,
// one a compaction already captured is not.
func TestRollbackMutationUncapturedDelta(t *testing.T) {
	opt := testOptions(t)
	opt.CompactThreshold = 1 << 30
	s := newTestStore(t, opt)
	if _, err := s.Register("live", gridPoints(500, 1)); err != nil {
		t.Fatal(err)
	}
	settle(t, s, "live")
	lastPendingLSN := func() uint64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		pending := s.entries["live"].pending
		return pending[len(pending)-1].lsn
	}
	if _, err := s.Append("live", gridPoints(3, 2)); err != nil {
		t.Fatal(err)
	}
	if !s.rollbackMutation("live", lastPendingLSN()) {
		t.Fatal("uncaptured mutation not rolled back")
	}
	if lp, err := s.LogicalPoints("live"); err != nil || len(lp) != 500 {
		t.Fatalf("overlay after rollback: %d points, err %v", len(lp), err)
	}
	// Once a compaction captures the delta, rollback must refuse.
	if _, err := s.Append("live", gridPoints(3, 3)); err != nil {
		t.Fatal(err)
	}
	captured := lastPendingLSN()
	if err := s.Flush("live"); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if s.rollbackMutation("live", captured) {
		t.Fatal("rolled back a mutation a scheduled fold already covers")
	}
	settle(t, s, "live")
}
