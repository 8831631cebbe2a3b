package main

import (
	"errors"
	"reflect"
	"testing"
)

// TestCounterMismatches checks the service's /metrics deltas against the
// responses: hits by tier, and one store write per solved exact answer.
func TestCounterMismatches(t *testing.T) {
	hot := &svcRequest{kind: kindHot}
	dp := &svcRequest{kind: kindDP}
	sabre := &svcRequest{kind: kindSabre}
	phases := []svcPhase{{results: []svcResult{
		{req: hot, resp: svcResponse{CacheHit: true, CacheTier: "memory"}},
		{req: hot, resp: svcResponse{CacheHit: true, CacheTier: "disk"}},
		{req: hot, resp: svcResponse{CacheHit: true, CacheTier: "memory"}},
		{req: dp},
		{req: dp, err: errors.New("HTTP 500")},
		{req: sabre},
	}}}
	counters := map[string]float64{memHitsKey: 2, diskHitsKey: 1, storeWritesKey: 1, "qxmapd_maps_total": 6}
	if bad := counterMismatches(phases, counters); len(bad) != 0 {
		t.Errorf("consistent counters reported as mismatches: %v", bad)
	}
	counters[diskHitsKey], counters[storeWritesKey] = 2, 0
	want := map[string]bool{diskHitsKey: true, storeWritesKey: true}
	if bad := counterMismatches(phases, counters); !reflect.DeepEqual(bad, want) {
		t.Errorf("mismatches %v, want %v", bad, want)
	}
}
