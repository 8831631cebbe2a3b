package portfolio

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/exact"
	"repro/internal/perm"
)

// mapStore is an in-memory ResultStore double. failGets/failPuts make
// every operation error, to prove store failures read as misses.
type mapStore struct {
	mu       sync.Mutex
	m        map[string][]byte
	failGets bool
	failPuts bool
	gets     int
	puts     int
}

func newMapStore() *mapStore { return &mapStore{m: make(map[string][]byte)} }

func (s *mapStore) Get(key []byte) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gets++
	if s.failGets {
		return nil, false, errors.New("injected get failure")
	}
	v, ok := s.m[string(key)]
	return v, ok, nil
}

func (s *mapStore) Put(key, value []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.puts++
	if s.failPuts {
		return errors.New("injected put failure")
	}
	s.m[string(key)] = append([]byte(nil), value...)
	return nil
}

// solveOnce produces a real exact result for the codec tests.
func solveOnce(t *testing.T) (*exact.Result, *arch.Arch) {
	t.Helper()
	a := arch.QX4()
	sk := mkSkeleton(4, [2]int{0, 1}, [2]int{2, 3}, [2]int{0, 2}, [2]int{1, 3}, [2]int{0, 3}, [2]int{1, 2})
	r, err := exact.Solve(bg, sk, a, exact.Options{Engine: exact.EngineDP})
	if err != nil {
		t.Fatal(err)
	}
	return r, a
}

func TestPersistRoundTrip(t *testing.T) {
	r, _ := solveOnce(t)
	data, err := EncodeResult(r)
	if err != nil {
		t.Fatalf("EncodeResult: %v", err)
	}
	got, err := DecodeResult(data)
	if err != nil {
		t.Fatalf("DecodeResult: %v", err)
	}
	if got.Cost != r.Cost || got.Engine != r.Engine || got.Minimal != r.Minimal || got.PermPoints != r.PermPoints {
		t.Fatalf("decoded scalars diverge: %+v vs %+v", got, r)
	}
	if !reflect.DeepEqual(got.Solution.FrameMappings, r.Solution.FrameMappings) ||
		!reflect.DeepEqual(got.Solution.GateFrame, r.Solution.GateFrame) ||
		!reflect.DeepEqual(got.Solution.PermSwaps, r.Solution.PermSwaps) ||
		!reflect.DeepEqual(got.Solution.Switched, r.Solution.Switched) {
		t.Fatal("decoded solution diverges")
	}
	if got.WorkArch.Name() != r.WorkArch.Name() || got.WorkArch.NumQubits() != r.WorkArch.NumQubits() {
		t.Fatalf("decoded arch %v, want %v", got.WorkArch, r.WorkArch)
	}
	// The decoded result must materialize the exact same op stream — the
	// property the whole persistent tier rests on.
	sk := mkSkeleton(4, [2]int{0, 1}, [2]int{2, 3}, [2]int{0, 2}, [2]int{1, 3}, [2]int{0, 3}, [2]int{1, 2})
	wantOps, err := r.Ops(sk)
	if err != nil {
		t.Fatal(err)
	}
	gotOps, err := got.Ops(sk)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotOps, wantOps) {
		t.Fatal("decoded result materializes different ops")
	}
	// Work counters are never persisted: a disk hit did no solving.
	if got.SATSolves != 0 || got.SATEncodes != 0 || got.SATConflicts != 0 || got.BoundProbes != 0 {
		t.Fatalf("decoded result carries work counters: %+v", got)
	}
}

func TestDecodeResultRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{nil, {0x01}, []byte("not a gob stream at all")} {
		if _, err := DecodeResult(data); err == nil {
			t.Fatalf("DecodeResult(%q) succeeded", data)
		}
	}
}

// TestDecodeResultRejectsInvalidFrames: a record whose frame mappings are
// not injective placements on its architecture decodes as an error, so
// the disk tier reports a miss instead of handing Result.Ops a mapping
// outside its space.
func TestDecodeResultRejectsInvalidFrames(t *testing.T) {
	r, a := solveOnce(t)
	sk := mkSkeleton(4, [2]int{0, 1}, [2]int{2, 3}, [2]int{0, 2}, [2]int{1, 3}, [2]int{0, 3}, [2]int{1, 2})
	fp := Fingerprint(sk, a, exact.Options{})
	for name, bad := range map[string][]int{
		"out of range": {7, 7, 7, 7},
		"repeated":     {0, 0, 1, 2},
		"negative":     {-1, 0, 1, 2},
		"short":        {0, 1, 2},
	} {
		c := *r
		sol := *r.Solution
		sol.FrameMappings = append([]perm.Mapping(nil), r.Solution.FrameMappings...)
		sol.FrameMappings[len(sol.FrameMappings)-1] = bad
		c.Solution = &sol
		data, err := EncodeResult(&c)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeResult(data); err == nil {
			t.Errorf("%s frame %v: DecodeResult succeeded", name, bad)
		}
		disk := newMapStore()
		disk.m[string(StoreKey(fp))] = data
		if _, _, ok := (Tiered{Mem: NewCache(0), Disk: disk}).Lookup(fp); ok {
			t.Errorf("%s frame %v: corrupted record served as a hit", name, bad)
		}
	}
}

func TestStoreKeySchemaTagged(t *testing.T) {
	k := string(StoreKey("abc123"))
	if k != SchemaVersion+"/abc123" {
		t.Fatalf("StoreKey = %q, want schema-tagged key", k)
	}
}

func TestTieredDiskHitPromotesAndZeroCounters(t *testing.T) {
	r, a := solveOnce(t)
	sk := mkSkeleton(4, [2]int{0, 1}, [2]int{2, 3}, [2]int{0, 2}, [2]int{1, 3}, [2]int{0, 3}, [2]int{1, 2})
	fp := Fingerprint(sk, a, exact.Options{})

	disk := newMapStore()
	warm := Tiered{Mem: NewCache(0), Disk: disk}
	warm.Store(fp, r)
	if disk.puts != 1 {
		t.Fatalf("write-through puts = %d, want 1", disk.puts)
	}

	// Fresh memory tier, same disk: first lookup hits disk and promotes,
	// second is a memory hit without touching the store again.
	cold := Tiered{Mem: NewCache(0), Disk: disk}
	got, tier, ok := cold.Lookup(fp)
	if !ok || tier != TierDisk {
		t.Fatalf("Lookup = ok=%v tier=%q, want disk hit", ok, tier)
	}
	if got.Cost != r.Cost || got.SATEncodes != 0 {
		t.Fatalf("disk hit cost=%d encodes=%d, want cost=%d encodes=0", got.Cost, got.SATEncodes, r.Cost)
	}
	gets := disk.gets
	if _, tier, ok := cold.Lookup(fp); !ok || tier != TierMemory {
		t.Fatalf("second lookup tier=%q ok=%v, want memory hit", tier, ok)
	}
	if disk.gets != gets {
		t.Fatal("memory hit still touched the disk tier")
	}
}

// TestTieredMemoryHitZeroCounters: a memory hit hands back its own copy
// with zero work counters, and the cached entry keeps the solve's counters
// untouched for the next reader.
func TestTieredMemoryHitZeroCounters(t *testing.T) {
	a := arch.QX4()
	sk := mkSkeleton(4, [2]int{0, 1}, [2]int{2, 3}, [2]int{0, 2}, [2]int{1, 3}, [2]int{0, 3}, [2]int{1, 2})
	r, err := exact.Solve(bg, sk, a, exact.Options{Engine: exact.EngineSAT})
	if err != nil {
		t.Fatal(err)
	}
	solved := r.Counters
	if solved.SATEncodes != 1 || solved.SATSolves == 0 {
		t.Fatalf("SAT solve counters = %+v, want real work", solved)
	}
	fp := Fingerprint(sk, a, exact.Options{Engine: exact.EngineSAT})
	tiers := Tiered{Mem: NewCache(0)}
	tiers.Store(fp, r)
	for i := 0; i < 2; i++ {
		got, tier, ok := tiers.Lookup(fp)
		if !ok || tier != TierMemory {
			t.Fatalf("lookup %d = ok=%v tier=%q, want memory hit", i, ok, tier)
		}
		if got == r || got.Cost != r.Cost || got.Solution != r.Solution {
			t.Fatalf("lookup %d: want a copy of the cached result", i)
		}
		if got.Counters != (exact.Counters{}) {
			t.Fatalf("lookup %d: memory hit carries work counters %+v", i, got.Counters)
		}
	}
	if r.Counters != solved {
		t.Fatalf("lookup mutated the cached entry's counters: %+v, want %+v", r.Counters, solved)
	}
}

func TestTieredStoreFailuresAreMisses(t *testing.T) {
	r, a := solveOnce(t)
	sk := mkSkeleton(4, [2]int{0, 1}, [2]int{2, 3}, [2]int{0, 2}, [2]int{1, 3}, [2]int{0, 3}, [2]int{1, 2})
	fp := Fingerprint(sk, a, exact.Options{})

	// Failing Get: miss, not an error.
	failing := newMapStore()
	failing.failGets = true
	tiers := Tiered{Disk: failing}
	if _, _, ok := tiers.Lookup(fp); ok {
		t.Fatal("failing store produced a hit")
	}
	// Failing Put: Store must not panic or propagate.
	failing.failPuts = true
	tiers.Store(fp, r)

	// Corrupt bytes under the right key: decode failure is a miss too.
	corrupt := newMapStore()
	if err := corrupt.Put(StoreKey(fp), []byte("garbage bytes")); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := (Tiered{Disk: corrupt}).Lookup(fp); ok {
		t.Fatal("corrupt record produced a hit")
	}

	// A record written under a different schema version must not be found.
	stale := newMapStore()
	data, err := EncodeResult(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := stale.Put([]byte("qxr-v0/"+fp), data); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := (Tiered{Disk: stale}).Lookup(fp); ok {
		t.Fatal("stale-schema record produced a hit")
	}
}

// TestSolveUsesDiskTier drives the full portfolio path: solve once with a
// disk tier, then resolve the same instance with a fresh memory cache —
// the result must come from disk, cost-identical, flagged CacheHit with
// Tier "disk".
func TestSolveUsesDiskTier(t *testing.T) {
	a := arch.QX4()
	sk := mkSkeleton(4, [2]int{0, 1}, [2]int{2, 3}, [2]int{0, 2}, [2]int{1, 3}, [2]int{0, 3}, [2]int{1, 2})
	disk := newMapStore()

	first, err := Solve(bg, sk, a, Options{Cache: NewCache(0), Store: disk})
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit || first.Tier != "" {
		t.Fatalf("first solve reported a cache hit (%+v)", first)
	}
	if disk.puts == 0 {
		t.Fatal("solve did not write through to the store")
	}

	second, err := Solve(bg, sk, a, Options{Cache: NewCache(0), Store: disk})
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit || second.Tier != TierDisk || second.Winner != "cache" {
		t.Fatalf("second solve = hit=%v tier=%q winner=%q, want disk-tier cache hit", second.CacheHit, second.Tier, second.Winner)
	}
	if second.Cost != first.Cost {
		t.Fatalf("disk-tier cost %d, solved cost %d", second.Cost, first.Cost)
	}
	if second.SATEncodes != 0 || second.BoundProbes != 0 {
		t.Fatalf("disk-tier hit carries work counters: %+v", second.Result)
	}

	// Conflict-budgeted solves bypass both tiers entirely.
	puts := disk.puts
	budgeted := Options{Cache: NewCache(0), Store: disk}
	budgeted.Exact.SAT.MaxConflicts = 1 << 30
	if _, err := Solve(bg, sk, a, budgeted); err != nil {
		t.Fatal(err)
	}
	if disk.puts != puts {
		t.Fatal("budgeted solve wrote to the persistent tier")
	}
}
