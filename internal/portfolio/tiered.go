package portfolio

import (
	"time"

	"repro/internal/exact"
)

// Transient persistent-tier failures are retried with exponential backoff
// before Lookup reads them as a miss or Store drops the write: disk I/O
// under pressure (or an injected chaos fault) often clears within
// milliseconds, and a retry is far cheaper than re-solving the instance.
// Corruption is NOT transient — a record that reads but fails CRC or
// decode stays a miss with no retry, since rereading corrupt bytes cannot
// help. Package variables rather than constants so chaos tests can shrink
// the waits.
var (
	storeAttempts  = 3
	storeRetryBase = 2 * time.Millisecond
)

// retryStore runs op up to storeAttempts times, sleeping storeRetryBase,
// then twice that, … between attempts, and returns the last error.
func retryStore(op func() error) error {
	var err error
	for a := 0; a < storeAttempts; a++ {
		if a > 0 {
			time.Sleep(storeRetryBase << (a - 1))
		}
		if err = op(); err == nil {
			return nil
		}
	}
	return err
}

// Cache tier names, reported up the stack (solver.Plan.CacheTier,
// qxmap.Stats.CacheTier, the cache_tier wire field).
const (
	// TierMemory marks a hit in the in-process LRU.
	TierMemory = "memory"
	// TierDisk marks a hit in the persistent store, promoted into the LRU.
	TierDisk = "disk"
)

// ResultStore is the persistent tier's contract: a byte-oriented key-value
// store with durable Put. *store.Store satisfies it; the indirection keeps
// this package free of the store's file-format concerns and lets tests
// substitute fakes (including failing ones — every store error must read
// as a miss, never as an answer).
type ResultStore interface {
	Get(key []byte) ([]byte, bool, error)
	Put(key, value []byte) error
}

// Tiered is the two-tier result cache: a fast in-process LRU over a
// persistent fingerprint-keyed store. Either tier may be nil. Lookups go
// memory → disk (with promotion into the LRU); stores write through to
// both, so identical requests are served from memory within a process and
// from disk across restarts and replicas.
type Tiered struct {
	Mem  *Cache
	Disk ResultStore
}

// Lookup consults the tiers in order for the fingerprint and returns the
// result, the tier that served it (TierMemory or TierDisk) and whether it
// hit. A disk hit is decoded, validated and promoted into the memory tier.
// Disk errors — I/O failures, schema-stale bytes, decode violations — are
// misses: the caller re-solves and overwrites the record. Transient I/O
// errors get storeAttempts tries with backoff before the miss; corrupt
// bytes are never retried.
//
// The returned result is the caller's own copy with zero Counters: a hit
// did no solving, whichever tier served it, and the shared cached entry is
// never handed out for mutation.
func (t Tiered) Lookup(fp string) (*exact.Result, string, bool) {
	if t.Mem != nil {
		if res, ok := t.Mem.Get(fp); ok {
			return hit(res), TierMemory, true
		}
	}
	if t.Disk == nil {
		return nil, "", false
	}
	var (
		data []byte
		ok   bool
	)
	err := retryStore(func() error {
		var e error
		data, ok, e = t.Disk.Get(StoreKey(fp))
		return e
	})
	if err != nil || !ok {
		return nil, "", false
	}
	res, err := DecodeResult(data)
	if err != nil {
		return nil, "", false
	}
	if t.Mem != nil {
		t.Mem.Put(fp, res)
	}
	return hit(res), TierDisk, true
}

// hit returns a copy of a cached result with its work counters cleared.
func hit(res *exact.Result) *exact.Result {
	cp := *res
	cp.Counters = exact.Counters{}
	return &cp
}

// Store writes the result through both tiers under the fingerprint. The
// persistent write is best-effort: a full disk must not fail a solve that
// already succeeded, so errors are dropped (after bounded retries) and the
// record is simply re-attempted on the next solve of the same instance.
func (t Tiered) Store(fp string, res *exact.Result) {
	if t.Mem != nil {
		t.Mem.Put(fp, res)
	}
	if t.Disk == nil {
		return
	}
	data, err := EncodeResult(res)
	if err != nil {
		return
	}
	_ = retryStore(func() error { return t.Disk.Put(StoreKey(fp), data) })
}

// Enabled reports whether any tier is configured.
func (t Tiered) Enabled() bool { return t.Mem != nil || t.Disk != nil }
