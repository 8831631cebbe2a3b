package qxmap

import (
	"context"
	"os"
	"strings"
	"sync"
	"testing"
)

// TestMapperStorePersistence is the restart-survival acceptance test: a
// Mapper with a store solves an instance once, and after a full
// close/reopen cycle — a fresh Mapper, empty LRU, same store directory —
// the identical request is served from disk with zero SAT work and the
// identical cost.
func TestMapperStorePersistence(t *testing.T) {
	dir := t.TempDir()
	c := Figure1a()
	a := QX4()

	m1, err := NewMapper(WithStore(dir))
	if err != nil {
		t.Fatal(err)
	}
	first, err := m1.Map(context.Background(), c, a)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Fatal("first map reported a cache hit on an empty store")
	}
	cs := m1.CacheStats()
	if !cs.DiskEnabled || cs.DiskWrites == 0 {
		t.Fatalf("no write-through recorded: %+v", cs)
	}
	tot := m1.Totals()
	if tot.Maps != 1 || tot.MemoryHits != 0 || tot.DiskHits != 0 {
		t.Fatalf("totals after solve = %+v", tot)
	}
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": new process state, same directory.
	m2, err := NewMapper(WithStore(dir))
	if err != nil {
		t.Fatalf("reopening store: %v", err)
	}
	defer m2.Close()
	second, err := m2.Map(context.Background(), c, a)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit || second.CacheTier != "disk" {
		t.Fatalf("restart map = hit=%v tier=%q, want disk hit", second.CacheHit, second.CacheTier)
	}
	if second.Cost != first.Cost || second.Swaps != first.Swaps || second.Switches != first.Switches {
		t.Fatalf("disk-served cost F=%d differs from solved F=%d", second.Cost, first.Cost)
	}
	if second.Stats.SATEncodes != 0 || second.Stats.SATSolves != 0 {
		t.Fatalf("disk hit did SAT work: %+v", second.Stats)
	}
	if !second.Minimal {
		t.Fatal("disk-served exact result lost its minimality claim")
	}
	if tot := m2.Totals(); tot.DiskHits != 1 {
		t.Fatalf("restart totals = %+v, want DiskHits=1", tot)
	}

	// The promoted entry now serves from memory within the process.
	third, err := m2.Map(context.Background(), c, a)
	if err != nil {
		t.Fatal(err)
	}
	if !third.CacheHit || third.CacheTier != "memory" {
		t.Fatalf("third map = hit=%v tier=%q, want memory hit", third.CacheHit, third.CacheTier)
	}
}

// TestMapperMemoryHitReportsNoWork: a memory-tier hit did no solving, so
// its Stats carry zero SAT counters and Totals keep only the one real
// solve's work — the same as a disk hit after a restart.
func TestMapperMemoryHitReportsNoWork(t *testing.T) {
	m, err := NewMapper(WithStore(t.TempDir()), WithWorkers(1), WithEngine(EngineSAT))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	c, a := Figure1a(), QX4()

	first, err := m.Map(context.Background(), c, a)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit || first.Stats.SATEncodes != 1 || first.Stats.SATSolves == 0 {
		t.Fatalf("first map = hit=%v %+v, want a SAT solve", first.CacheHit, first.Stats.SolveCounters)
	}
	solved := m.Totals()
	for i := 0; i < 2; i++ {
		r, err := m.Map(context.Background(), c, a)
		if err != nil {
			t.Fatal(err)
		}
		if r.CacheTier != "memory" || r.Cost != first.Cost {
			t.Fatalf("repeat %d: tier=%q cost=%d, want memory hit at F=%d", i, r.CacheTier, r.Cost, first.Cost)
		}
		if r.Stats.SolveCounters != (SolveCounters{}) {
			t.Fatalf("repeat %d: memory hit reports solve work %+v", i, r.Stats.SolveCounters)
		}
	}
	tot := m.Totals()
	if tot.MemoryHits != 2 || tot.SATSolves != solved.SATSolves || tot.SATEncodes != 1 ||
		tot.SATConflicts != solved.SATConflicts || tot.BoundProbes != solved.BoundProbes {
		t.Fatalf("totals after two memory hits = %+v, want the solve's alone (%+v)", tot, solved)
	}
}

// TestMapperStoreConcurrent hammers one store-backed mapper with identical
// and distinct instances from many goroutines (run under -race in CI): the
// two-tier write-through path must be data-race free and every response
// cost-consistent.
func TestMapperStoreConcurrent(t *testing.T) {
	m, err := NewMapper(WithStore(t.TempDir()), WithEngine(EngineDP))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	a := QX4()
	circuits := []*Circuit{Figure1a(), randomElementary(3, 4, 6), randomElementary(9, 4, 6)}
	want := make([]int, len(circuits))
	for i, c := range circuits {
		r, err := m.Map(context.Background(), c, a)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r.Cost
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				k := (w + i) % len(circuits)
				r, err := m.Map(context.Background(), circuits[k], a)
				if err != nil {
					errs <- err
					return
				}
				if r.Cost != want[k] {
					t.Errorf("concurrent map cost %d, want %d", r.Cost, want[k])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if cs := m.CacheStats(); cs.DiskRecords != len(circuits) {
		t.Fatalf("store holds %d records, want %d", cs.DiskRecords, len(circuits))
	}
}

// TestWithStoreValidation: an empty directory is rejected at construction,
// and a path that cannot be a store directory fails NewMapper rather than
// building a mapper with a silently dead tier.
func TestWithStoreValidation(t *testing.T) {
	if _, err := NewMapper(WithStore("")); err == nil {
		t.Fatal("NewMapper accepted an empty store directory")
	}
	bad := t.TempDir() + "/file"
	if err := os.WriteFile(bad, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewMapper(WithStore(bad)); err == nil {
		t.Fatal("NewMapper accepted a file as store directory")
	} else if !strings.Contains(err.Error(), "store") {
		t.Fatalf("unexpected error: %v", err)
	}
}
