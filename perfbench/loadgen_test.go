package main

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

func TestTimingArithmetic(t *testing.T) {
	t0 := time.Unix(0, 0)
	ms := func(n int) time.Time { return t0.Add(time.Duration(n) * time.Millisecond) }
	// Request 1 was due at 10 ms; the generator handed it out at 12 ms, a
	// connection sent it at 30 ms (after the previous request) and its
	// response was read at 45 ms.
	ts := []timing{
		{due: ms(0), dispatched: ms(1), sent: ms(1), done: ms(30)},
		{due: ms(10), dispatched: ms(12), sent: ms(30), done: ms(45)},
	}
	if got := ts[1].dueLatency(); got != 35*time.Millisecond {
		t.Errorf("due latency %v, want 35ms", got)
	}
	if got := ts[1].sendLatency(); got != 15*time.Millisecond {
		t.Errorf("send latency %v, want 15ms", got)
	}
	if got := maxLateness(ts); got != 2*time.Millisecond {
		t.Errorf("max lateness %v, want 2ms", got)
	}
	if got := dueLatencies(ts); got[0] != 30*time.Millisecond || got[1] != 35*time.Millisecond {
		t.Errorf("due latencies %v", got)
	}
}

// TestOpenLoopChargesQueueing drives one connection faster than it can
// serve: every request is due before the previous one finishes, so its
// latency from the due time includes the wait behind earlier requests.
func TestOpenLoopChargesQueueing(t *testing.T) {
	const n = 10
	var served atomic.Int64
	ts, backlog := openLoop(context.Background(), n, 10000, 1, func(int) {
		time.Sleep(2 * time.Millisecond)
		served.Add(1)
	})
	if len(ts) != n || served.Load() != n {
		t.Fatalf("%d timings, %d served; want %d", len(ts), served.Load(), n)
	}
	for i, x := range ts {
		if x.dispatched.Before(x.due) || x.sent.Before(x.dispatched) || x.done.Before(x.sent) {
			t.Errorf("request %d: out-of-order timing %+v", i, x)
		}
		if x.sendLatency() < 2*time.Millisecond {
			t.Errorf("request %d: send latency %v below the service time", i, x.sendLatency())
		}
	}
	// The last request waited for the nine before it on the one connection.
	if last := ts[n-1].dueLatency(); last < 2*n*time.Millisecond-time.Millisecond {
		t.Errorf("last request's due latency %v does not include its queueing", last)
	}
	if backlog < 1 {
		t.Errorf("backlog %d at the last due time; the connection cannot have kept up", backlog)
	}
}

func TestOpenLoopStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ts, _ := openLoop(ctx, 100, 1, 2, func(int) {})
	if len(ts) > 1 {
		t.Errorf("%d requests dispatched after cancellation", len(ts))
	}
}

func TestClosedLoop(t *testing.T) {
	var seen [20]atomic.Int32
	ts, wall := closedLoop(context.Background(), len(seen), 3, func(i int) { seen[i].Add(1) })
	for i := range seen {
		if seen[i].Load() != 1 {
			t.Errorf("request %d issued %d times", i, seen[i].Load())
		}
		if ts[i].done.Before(ts[i].sent) {
			t.Errorf("request %d: done before sent", i)
		}
	}
	if wall <= 0 {
		t.Errorf("wall %v", wall)
	}
}

// TestClosedLoopStopsOnCancel cancels a closed loop part-way: the timings
// cover exactly the requests that were issued, each of them finished.
func TestClosedLoopStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var issued atomic.Int32
	ts, _ := closedLoop(ctx, 100, 2, func(i int) {
		if issued.Add(1) == 5 {
			cancel()
		}
	})
	if len(ts) != int(issued.Load()) || len(ts) < 5 || len(ts) > 6 {
		t.Fatalf("%d timings for %d issued requests", len(ts), issued.Load())
	}
	for i, x := range ts {
		if x.sent.IsZero() || x.done.Before(x.sent) {
			t.Errorf("request %d: timing %+v", i, x)
		}
	}
}
