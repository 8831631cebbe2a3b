package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// timing is one request's life in a load run: when it was due, when the
// generator handed it to a connection's queue, when a connection sent it,
// and when its response had been read.
type timing struct {
	due, dispatched, sent, done time.Time
}

// dueLatency is what the user waits in an open loop: from when the request
// was due, so a stall also charges the requests queued behind it.
func (t timing) dueLatency() time.Duration { return t.done.Sub(t.due) }

// sendLatency is the time from sending to the full response.
func (t timing) sendLatency() time.Duration { return t.done.Sub(t.sent) }

// lateness is how far the generator fell behind its schedule for this
// request.
func (t timing) lateness() time.Duration { return t.dispatched.Sub(t.due) }

// maxLateness returns the largest lateness over the timings.
func maxLateness(ts []timing) time.Duration {
	var worst time.Duration
	for _, t := range ts {
		if l := t.lateness(); l > worst {
			worst = l
		}
	}
	return worst
}

// openLoop issues n requests on a fixed schedule, request i due at
// start + i/rate whether or not earlier ones have finished, over conns
// connections; do(i) performs request i. It returns every request's timing
// and the backlog (requests handed out but unfinished) when the last one
// was due. Cancelling ctx stops the schedule; requests never dispatched
// keep zero timings.
func openLoop(ctx context.Context, n int, rate float64, conns int, do func(i int)) ([]timing, int) {
	ts := make([]timing, n)
	// Sized to the number of sends, so the generator never blocks on busy
	// connections and its lateness reflects its own schedule only.
	queue := make(chan int, n)
	var finished atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				ts[i].sent = time.Now()
				do(i)
				ts[i].done = time.Now()
				finished.Add(1)
			}
		}()
	}
	start := time.Now()
	period := time.Duration(float64(time.Second) / rate)
	timer := time.NewTimer(0)
	<-timer.C
	backlog, dispatched := 0, 0
schedule:
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * period)
		if d := time.Until(due); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
				break schedule
			}
		}
		ts[i].due, ts[i].dispatched = due, time.Now()
		queue <- i
		dispatched++
	}
	backlog = dispatched - int(finished.Load())
	close(queue)
	wg.Wait()
	return ts[:dispatched], backlog
}

// closedLoop issues n requests over conns connections, each sending its
// next request as soon as the previous response is read. It returns the
// timings (due = dispatched = sent) and the wall time of the whole run.
// Cancelling ctx stops the loop; the timings then cover the requests
// issued, which are always the first ones.
func closedLoop(ctx context.Context, n, conns int, do func(i int)) ([]timing, time.Duration) {
	ts := make([]timing, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				now := time.Now()
				ts[i] = timing{due: now, dispatched: now, sent: now}
				do(i)
				ts[i].done = time.Now()
			}
		}()
	}
	wg.Wait()
	return ts[:min(int(next.Load()), n)], time.Since(start)
}
