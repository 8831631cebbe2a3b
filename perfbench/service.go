package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	qxmap "repro"
	"repro/internal/revlib"
)

// Service-mix parameters, fixed in the benchmark.
const (
	svcConns    = 2    // client connections (the container's core count)
	svcCache    = 16   // qxmapd -cache: fewer entries than the hot set
	svcHotSize  = 40   // hot-set circuits, solved once during set-up
	svcClosedN  = 3000 // requests of one closed-loop pass
	svcPasses   = 3    // closed-loop passes; wall_s is the median
	svcRate     = 100  // requests/s of the fixed-rate phase
	svcRestarts = 5    // timed restarts before each load segment; setup_s is their median
	svcLimitMS  = 50   // p99 latency limit of a ladder step, ms
	svcStepSecs = 1.5  // length of one ladder step
)

// svcLadder is the fixed rate ladder, in requests/s, for svc_max_rps.
var svcLadder = []float64{150, 200, 250, 300, 350, 400}

// Request kinds of the mix.
const (
	kindHot   = "hot"   // portfolio read of a hot-set circuit
	kindDP    = "dp"    // fresh 4–5-qubit circuit, exact DP on ibmqx4
	kindSabre = "sabre" // fresh 8–12-qubit circuit, sabre on tokyo
)

// svcRequest is one prepared request: its kind, circuit, architecture and
// encoded body.
type svcRequest struct {
	id      string
	kind    string
	circuit *qxmap.Circuit
	arch    string
	body    []byte
}

// svcResponse is the part of a qxmapd map response the benchmark checks.
type svcResponse struct {
	Cost      int    `json:"cost"`
	Swaps     int    `json:"swaps"`
	Switches  int    `json:"switches"`
	Minimal   bool   `json:"minimal"`
	CacheHit  bool   `json:"cache_hit"`
	CacheTier string `json:"cache_tier"`
	Stats     struct {
		SkeletonNS    int64 `json:"skeleton_ns"`
		SolveNS       int64 `json:"solve_ns"`
		MaterializeNS int64 `json:"materialize_ns"`
		VerifyNS      int64 `json:"verify_ns"`
		OptimizeNS    int64 `json:"optimize_ns"`
	} `json:"stats"`
}

func (r svcResponse) stageNS() []time.Duration {
	s := r.Stats
	return []time.Duration{time.Duration(s.SkeletonNS), time.Duration(s.SolveNS),
		time.Duration(s.MaterializeNS), time.Duration(s.VerifyNS), time.Duration(s.OptimizeNS)}
}

func (r svcResponse) serverTime() time.Duration {
	var sum time.Duration
	for _, d := range r.stageNS() {
		sum += d
	}
	return sum
}

// svcResult is one request's outcome.
type svcResult struct {
	req    *svcRequest
	status int
	resp   svcResponse
	err    error
}

// serviceInputs builds the hot set and a request stream of n requests from
// the seed: about 60% hot-set reads, 25% fresh DP circuits and 15% fresh
// sabre circuits.
func serviceInputs(seed int64, n int) (hot []*svcRequest, stream []*svcRequest, err error) {
	suite := revlib.Suite()
	for k := 0; k < svcHotSize; k++ {
		id, c := rowCircuit(suite[k%len(suite)], seed, k/len(suite))
		r, err := newSvcRequest(id, kindHot, c, "ibmqx4", map[string]any{"method": "exact", "portfolio": true})
		if err != nil {
			return nil, nil, err
		}
		hot = append(hot, r)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		u := rng.Float64()
		var r *svcRequest
		switch {
		case u < 0.60:
			r = hot[rng.Intn(len(hot))]
		case u < 0.85:
			q := 4 + rng.Intn(2)
			id := fmt.Sprintf("dp%d#%d.%d", q, seed, i)
			r, err = newSvcRequest(id, kindDP, revlib.RandomCircuit(id, q, 10, 12), "ibmqx4", map[string]any{"method": "exact", "engine": "dp"})
		default:
			q := 8 + rng.Intn(5)
			id := fmt.Sprintf("sabre%d#%d.%d", q, seed, i)
			r, err = newSvcRequest(id, kindSabre, revlib.RandomCircuit(id, q, 3*q, 4*q), "tokyo", map[string]any{"method": "sabre"})
		}
		if err != nil {
			return nil, nil, err
		}
		stream = append(stream, r)
	}
	return hot, stream, nil
}

func newSvcRequest(id, kind string, c *qxmap.Circuit, arch string, fields map[string]any) (*svcRequest, error) {
	src, err := qxmap.WriteQASM(c)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", id, err)
	}
	fields["name"], fields["qasm"], fields["arch"] = id, src, arch
	body, err := json.Marshal(fields)
	if err != nil {
		return nil, err
	}
	return &svcRequest{id: id, kind: kind, circuit: c, arch: arch, body: body}, nil
}

// daemon is one running qxmapd process.
type daemon struct {
	cmd  *exec.Cmd
	base string
}

// startDaemon boots qxmapd on a free loopback port with the given store and
// waits until /healthz answers.
func startDaemon(ctx context.Context, bin, storeDir, logPath string, client *http.Client) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, "-addr", addr, "-store", storeDir, "-cache", strconv.Itoa(svcCache))
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start qxmapd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			d.stop()
			return nil, fmt.Errorf("qxmapd did not become healthy: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop shuts the daemon down gracefully and waits for it to exit, killing
// it if it does not within ten seconds.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		d.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-done
	}
}

// post sends one map request and decodes the response.
func (d *daemon) post(ctx context.Context, client *http.Client, r *svcRequest) svcResult {
	out := svcResult{req: r}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+"/v1/map", bytes.NewReader(r.body))
	if err != nil {
		out.err = err
		return out
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		out.err = err
		return out
	}
	defer resp.Body.Close()
	out.status = resp.StatusCode
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		out.err = err
		return out
	}
	if resp.StatusCode != http.StatusOK {
		out.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, firstLine(string(body)))
		return out
	}
	out.err = json.Unmarshal(body, &out.resp)
	return out
}

// scrape reads the daemon's /metrics counters.
func (d *daemon) scrape(ctx context.Context, client *http.Client) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// warm maps every hot-set circuit once, sequentially.
func (d *daemon) warm(ctx context.Context, client *http.Client, hot []*svcRequest) error {
	for _, r := range hot {
		if res := d.post(ctx, client, r); res.err != nil {
			return fmt.Errorf("warm %s: %w", r.id, res.err)
		}
	}
	return nil
}

// svcPhase is the outcome of one load phase.
type svcPhase struct {
	name    string
	results []svcResult
	times   []timing
	backlog int
	wall    time.Duration
}

func runServiceMix(ctx context.Context, cfg config) (*report, error) {
	rep := newReport()
	budget := cfg.seconds
	nFixed := int(svcRate * budget / 4)
	nLadder := 0
	if !cfg.trace {
		for _, r := range svcLadder {
			nLadder += int(r * svcStepSecs)
		}
	}
	nClosed := svcClosedN * svcPasses
	hot, stream, err := serviceInputs(cfg.seed, nClosed+nFixed+nLadder)
	if err != nil {
		return nil, err
	}

	runDir := filepath.Join(cfg.outDir, fmt.Sprintf("service-%d", os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	storeDir := filepath.Join(runDir, "store")
	logPath := filepath.Join(runDir, "qxmapd.log")
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: svcConns, MaxIdleConnsPerHost: svcConns}}
	defer client.CloseIdleConnections()

	// The hot set is solved once on a fresh store. The load then runs in
	// segments, one per closed-loop pass and one for the fixed rate and the
	// ladder; before each, the daemon is restarted svcRestarts times on the
	// store, each restart timed from boot to a warm hot set (replaying the
	// store and promoting disk hits into the memory cache). Spreading the
	// set-ups through the run lets a slow spell of the host weigh on them
	// and on the load alike.
	d, err := startDaemon(ctx, cfg.qxmapd, storeDir, logPath, client)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	err = d.warm(ctx, client, hot)
	d.stop()
	if err != nil {
		return nil, err
	}
	rep.note("cold hot-set solve took %.3f s", time.Since(t0).Seconds())

	var setups []time.Duration
	counters := map[string]float64{} // /metrics deltas summed over the segments
	rss := 0.0
	segment := func(load func(*daemon)) error {
		var d *daemon
		for i := 0; i < svcRestarts; i++ {
			if d != nil {
				d.stop()
			}
			t0 := time.Now()
			var err error
			if d, err = startDaemon(ctx, cfg.qxmapd, storeDir, logPath, client); err != nil {
				return err
			}
			if err := d.warm(ctx, client, hot); err != nil {
				d.stop()
				return err
			}
			setups = append(setups, time.Since(t0))
		}
		defer d.stop()
		before, err := d.scrape(ctx, client)
		if err != nil {
			return err
		}
		load(d)
		after, err := d.scrape(ctx, client)
		if err != nil {
			return err
		}
		for k, v := range after {
			counters[k] += v - before[k]
		}
		rss = max(rss, peakRSSMB(strconv.Itoa(d.cmd.Process.Pid)))
		return nil
	}

	next := 0
	take := func(k int) []*svcRequest {
		s := stream[next : next+k]
		next += k
		return s
	}
	// do performs request i; with a tracer it records the request's spans
	// as soon as its response is read.
	do := func(d *daemon, reqs []*svcRequest, out []svcResult, tr *tracer) func(int) {
		return func(i int) {
			t0 := time.Now()
			out[i] = d.post(ctx, client, reqs[i])
			if tr != nil {
				recordRequest(tr, out[i], t0, time.Now())
			}
		}
	}
	closed := func(d *daemon, name string, tr *tracer) svcPhase {
		reqs := take(svcClosedN)
		out := make([]svcResult, len(reqs))
		ts, wall := closedLoop(ctx, len(reqs), svcConns, do(d, reqs, out, tr))
		return svcPhase{name: name, results: out[:len(ts)], times: ts, wall: wall}
	}
	open := func(d *daemon, name string, n int, rate float64, tr *tracer) svcPhase {
		reqs := take(n)
		out := make([]svcResult, len(reqs))
		ts, backlog := openLoop(ctx, len(reqs), rate, svcConns, do(d, reqs, out, tr))
		return svcPhase{name: name, results: out[:len(ts)], times: ts, backlog: backlog}
	}

	// Closed-loop passes. A traced run traces the middle one and compares
	// it with the mean of the untraced passes around it.
	const tracedPass = 1
	var phases []svcPhase
	var tr *tracer
	if cfg.trace {
		tr = &tracer{}
	}
	var closedWalls []time.Duration
	for i := 0; i < svcPasses; i++ {
		err := segment(func(d *daemon) {
			name := fmt.Sprintf("closed %d", i+1)
			if cfg.trace && i == tracedPass {
				phases = append(phases, closed(d, name+" traced", tr))
				return
			}
			p := closed(d, name, nil)
			phases = append(phases, p)
			closedWalls = append(closedWalls, p.wall)
		})
		if err != nil {
			return nil, err
		}
	}
	var fixed svcPhase
	maxRPS := 0.0
	err = segment(func(d *daemon) {
		fixed = open(d, fmt.Sprintf("fixed %d/s", svcRate), nFixed, svcRate, tr)
		phases = append(phases, fixed)
		if cfg.trace {
			return
		}
		for _, rate := range svcLadder {
			step := open(d, fmt.Sprintf("ladder %.0f/s", rate), int(rate*svcStepSecs), rate, nil)
			phases = append(phases, step)
			p99 := quantile(durMS(dueLatencies(step.times)), 0.99)
			ok := p99 <= svcLimitMS && step.backlog <= 2*svcConns && phaseFailures(step) == 0
			rep.note("ladder %.0f/s: p99 %.1f ms over %d requests, backlog %d → %v", rate, p99, len(step.times), step.backlog, ok)
			if !ok {
				break
			}
			maxRPS = rate
		}
	})
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", median(durS(setups)), "s")
	rep.note("restarts in order (ms): %.0f", durMS(setups))

	// Check every response against the DP reference (hot and fresh DP
	// requests) or for a self-consistent plan (sabre).
	if err := checkService(ctx, rep, phases); err != nil {
		return nil, err
	}

	fixedLat := durMS(dueLatencies(fixed.times))
	for _, kind := range []string{kindHot, kindDP, kindSabre} {
		var lat []time.Duration
		for i, r := range fixed.results {
			if r.req.kind == kind {
				lat = append(lat, fixed.times[i].sendLatency())
			}
		}
		ms := durMS(lat)
		rep.note("%s requests at %d/s: %d, from sending p50 %.2f ms, max %.2f ms", kind, svcRate, len(lat), median(ms), quantile(ms, 1))
	}
	rep.set("wall_s", median(durS(closedWalls)), "s")
	rep.set("map_ms_p50", median(fixedLat), "ms")
	rep.set("svc_p50_ms", median(fixedLat), "ms")
	rep.set("svc_p99_ms", quantile(fixedLat, 0.99), "ms")
	rep.set("gen_late_ms", float64(maxLateness(fixed.times))/float64(time.Millisecond), "ms")
	rep.set("peak_rss_mb", rss, "MiB")
	added, err := addedCost(fixed)
	if err != nil {
		return nil, err
	}
	rep.set("added_cost", float64(added), "ops")
	rep.set("fail_share", share(rep.Failed, rep.Attempted), "ratio")
	if !cfg.trace {
		rep.set("svc_max_rps", maxRPS, "1/s")
	}
	rep.note("wall_s: median of %v, closed loops of %d requests over %d connections; svc_p50_ms, svc_p99_ms and map_ms_p50: %d requests at %d/s, timed from when each was due; setup_s: median of %d restarts",
		closedWalls, svcClosedN, svcConns, len(fixed.times), svcRate, len(setups))

	if cfg.trace {
		overhead := phases[tracedPass].wall - (closedWalls[0]+closedWalls[1])/2
		traced := append([]svcPhase{phases[tracedPass]}, phases[svcPasses:]...)
		serviceTrace(rep, traced, phases, counters, overhead, tr)
		path, err := tr.write(filepath.Join(cfg.outDir, "traces"), cfg.workload, cfg.seed)
		if err != nil {
			return nil, err
		}
		rep.note("spans written to %s", path)
	}
	return rep, nil
}

func dueLatencies(ts []timing) []time.Duration {
	out := make([]time.Duration, len(ts))
	for i, t := range ts {
		out[i] = t.dueLatency()
	}
	return out
}

func phaseFailures(p svcPhase) int {
	n := 0
	for _, r := range p.results {
		if r.err != nil {
			n++
		}
	}
	return n
}

// addedCost sums F over a phase's responses, charging a failed request the
// naive routing cost.
func addedCost(p svcPhase) (int, error) {
	sum := 0
	for _, r := range p.results {
		if r.err == nil {
			sum += r.resp.Cost
			continue
		}
		a, err := qxmap.ArchByName(r.req.arch)
		if err != nil {
			return 0, err
		}
		c, err := naiveCost(r.req.circuit, a)
		if err != nil {
			return 0, err
		}
		sum += c
	}
	return sum, nil
}

// checkService counts failures and wrong answers over every phase. Hot and
// fresh DP answers must be minimal and match the DP engine run in-process;
// sabre answers must price their own SWAPs and switches.
func checkService(ctx context.Context, rep *report, phases []svcPhase) error {
	var exactIns []input
	seen := map[string]bool{}
	for _, p := range phases {
		for _, r := range p.results {
			if r.req.kind != kindSabre && !seen[r.req.id] {
				seen[r.req.id] = true
				exactIns = append(exactIns, input{ID: r.req.id, Circuit: r.req.circuit})
			}
		}
	}
	ref, err := dpCosts(ctx, qxmap.MethodExact, exactIns, qxmap.QX4())
	if err != nil {
		return err
	}
	for _, p := range phases {
		for _, r := range p.results {
			rep.Attempted++
			var reason string
			wrong := false
			switch {
			case r.err != nil:
				reason = r.err.Error()
			case r.resp.Cost != 7*r.resp.Swaps+4*r.resp.Switches:
				reason, wrong = fmt.Sprintf("cost %d does not match %d SWAPs and %d switches", r.resp.Cost, r.resp.Swaps, r.resp.Switches), true
			case r.req.kind != kindSabre && !r.resp.Minimal:
				reason, wrong = "minimality proof lost", true
			case r.req.kind != kindSabre && r.resp.Cost != ref[r.req.id]:
				reason, wrong = fmt.Sprintf("cost %d, reference %d", r.resp.Cost, ref[r.req.id]), true
			}
			if reason == "" {
				continue
			}
			rep.Failed++
			if wrong {
				rep.Correct = false
			}
			rep.note("failed %s (%s): %s", r.req.id, p.name, reason)
		}
	}
	return nil
}

// recordRequest records one request's spans: the client's span from sending
// to the read response, and under it the stage timers the response
// reports. The solve stage belongs to the layer that answered.
func recordRequest(tr *tracer, r svcResult, sent, done time.Time) {
	id := tr.add(r.req.id, 0, "qxmapd.request", sent, done)
	if r.err != nil {
		return
	}
	method := qxmap.MethodExact
	if r.req.kind == kindSabre {
		method = qxmap.MethodSabre
	}
	tr.stages(r.req.id, id, sent, stageNames(method, r.resp.CacheHit), r.resp.stageNS())
}

// serviceTrace fills in the per-layer metrics of a traced service run from
// the traced phases' responses and spans and the /metrics deltas over all
// phases.
func serviceTrace(rep *report, phases, all []svcPhase, counters map[string]float64, overhead time.Duration, tr *tracer) {
	for _, d := range perLayer {
		rep.set(d.name, 0, d.unit)
	}
	var server, over []float64
	var skel, mat, ver, exactNS, heurNS time.Duration
	sabreFail := 0
	for _, p := range phases {
		for i, r := range p.results {
			if r.err != nil {
				if r.req.kind == kindSabre {
					sabreFail++
				}
				continue
			}
			st := r.resp.stageNS()
			skel += st[0]
			mat += st[2]
			ver += st[3]
			switch {
			case r.resp.CacheHit:
			case r.req.kind == kindSabre:
				heurNS += st[1]
			default:
				exactNS += st[1]
			}
			server = append(server, float64(r.resp.serverTime())/float64(time.Millisecond))
			over = append(over, float64(p.times[i].sendLatency()-r.resp.serverTime())/float64(time.Millisecond))
		}
	}
	ns := func(d time.Duration) float64 { return float64(d.Nanoseconds()) }
	rep.set("circuit.skeleton_ns", ns(skel), "ns")
	rep.set("pipeline.materialize_ns", ns(mat), "ns")
	rep.set("pipeline.verify_ns", ns(ver), "ns")
	rep.set("exact.solve_ns", ns(exactNS), "ns")
	rep.set("heuristic.solve_ns", ns(heurNS), "ns")
	rep.set("heuristic.failures.sabre", float64(sabreFail), "count")
	rep.set("qxmapd.server_ms", median(server), "ms")
	rep.set("qxmapd.overhead_ms", median(over), "ms")

	mem := counters[memHitsKey]
	disk := counters[diskHitsKey]
	if maps := counters["qxmapd_maps_total"]; maps > 0 {
		rep.set("portfolio.hit_ratio", (mem+disk)/maps, "ratio")
	}
	if mem+disk > 0 {
		rep.set("portfolio.disk_share", disk/(mem+disk), "ratio")
	}
	rep.set("store.writes", counters[storeWritesKey], "count")
	rep.set("store.misses", counters["qxmapd_store_misses_total"], "count")

	for l, v := range layerSelfMS(tr.spans, selfLayers) {
		rep.set("self_ms."+l, v, "ms")
	}
	rep.set("trace.overhead_ms", float64(overhead)/float64(time.Millisecond), "ms")
	rep.set("trace.spans", float64(len(tr.spans)), "count")
	reportDeterminism(rep, counterMismatches(all, counters))
	rep.note("which hot circuits the memory cache holds depends on how two connections interleave, so portfolio.hit_ratio and portfolio.disk_share can differ between runs of one seed; the check compares the /metrics deltas with the responses instead")
}

// The /metrics counters counterMismatches checks.
const (
	memHitsKey     = `qxmapd_cache_hits_total{tier="memory"}`
	diskHitsKey    = `qxmapd_cache_hits_total{tier="disk"}`
	storeWritesKey = "qxmapd_store_writes_total"
)

// counterMismatches compares qxmapd's /metrics deltas over the measured
// phases with what the responses report: one memory or disk hit per
// response served from that tier, and one store write per exact answer
// that was solved rather than served from a cache. It returns the name of
// every counter that disagrees.
func counterMismatches(phases []svcPhase, counters map[string]float64) map[string]bool {
	want := map[string]float64{}
	for _, p := range phases {
		for _, r := range p.results {
			switch {
			case r.err != nil:
			case r.resp.CacheTier == "memory":
				want[memHitsKey]++
			case r.resp.CacheTier == "disk":
				want[diskHitsKey]++
			case r.req.kind != kindSabre:
				want[storeWritesKey]++
			}
		}
	}
	bad := map[string]bool{}
	for k, v := range want {
		if counters[k] != v {
			bad[k] = true
		}
	}
	return bad
}
