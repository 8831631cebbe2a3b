package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	qxmap "repro"
)

// smokeQASM is a 4-qubit circuit whose CNOTs form a complete interaction
// graph: its minimal cost on IBM QX4 is F = 14 (2 SWAPs), so responses can
// be asserted exactly. The same payload backs the CI service smoke test.
const smokeQASM = `OPENQASM 2.0;
include "qelib1.inc";
qreg q[4];
h q[0];
cx q[0],q[1];
cx q[2],q[3];
cx q[0],q[2];
cx q[1],q[3];
cx q[0],q[3];
cx q[1],q[2];
`

// bellQASM is a trivial 2-qubit circuit mappable at cost 0.
const bellQASM = `OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
h q[0];
cx q[0],q[1];
`

func newTestServer(t *testing.T, cfg serverConfig) *server {
	t.Helper()
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.close() })
	return s
}

// doJSON posts a JSON body and decodes the JSON response.
func doJSON(t *testing.T, s *server, method, path string, body any, out any) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	resp := w.Result()
	t.Cleanup(func() { resp.Body.Close() })
	if out != nil && resp.StatusCode != http.StatusNoContent {
		// Errorf, not Fatalf: doJSON is also called from test goroutines.
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Errorf("%s %s: decoding response: %v", method, path, err)
		}
	}
	return resp
}

// TestMapEndpointSuccess: a synchronous POST /v1/map returns the exact
// minimal cost, the layouts, the mapped QASM and per-stage stats.
func TestMapEndpointSuccess(t *testing.T) {
	s := newTestServer(t, serverConfig{})
	var res qxmap.ResultJSON
	resp := doJSON(t, s, "POST", "/v1/map", mapRequest{
		QASM: smokeQASM, Arch: "ibmqx4", Method: "exact", Engine: "dp",
	}, &res)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if res.Cost != 14 || res.Swaps != 2 || res.Switches != 0 {
		t.Errorf("cost = %d (%d swaps, %d switches), want F=14 (2 swaps)", res.Cost, res.Swaps, res.Switches)
	}
	if !res.Minimal {
		t.Error("exact result not flagged minimal")
	}
	if res.Method != "exact" || res.Engine != "dp" {
		t.Errorf("provenance = %s/%s", res.Method, res.Engine)
	}
	if !strings.Contains(res.QASM, "OPENQASM 2.0;") {
		t.Errorf("response QASM missing header: %q", res.QASM)
	}
	if len(res.InitialLayout) != 4 {
		t.Errorf("initial layout = %v", res.InitialLayout)
	}
	if res.Stats.Solver != "exact" {
		t.Errorf("stats solver = %q", res.Stats.Solver)
	}
}

// TestMapEndpointUnknownMethodAndArch: bad names return 400 and the error
// enumerates every valid name, exactly like the CLI flag errors.
func TestMapEndpointUnknownMethodAndArch(t *testing.T) {
	s := newTestServer(t, serverConfig{})

	var e errorBody
	resp := doJSON(t, s, "POST", "/v1/map", mapRequest{QASM: bellQASM, Arch: "ibmqx4", Method: "nope"}, &e)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown method: status = %d", resp.StatusCode)
	}
	for _, name := range qxmap.Methods() {
		if !strings.Contains(e.Error, name) {
			t.Errorf("method error %q does not list %q", e.Error, name)
		}
	}

	e = errorBody{}
	resp = doJSON(t, s, "POST", "/v1/map", mapRequest{QASM: bellQASM, Arch: "quantum9000"}, &e)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown arch: status = %d", resp.StatusCode)
	}
	for _, name := range qxmap.Architectures() {
		if !strings.Contains(e.Error, name) {
			t.Errorf("arch error %q does not list %q", e.Error, name)
		}
	}
}

// TestMapEndpointBadBody: malformed JSON and unknown fields are 400s.
func TestMapEndpointBadBody(t *testing.T) {
	s := newTestServer(t, serverConfig{})
	for name, body := range map[string]string{
		"malformed":     `{"qasm": `,
		"unknown field": `{"qasm": "x", "arch": "ibmqx4", "wat": 1}`,
		"missing qasm":  `{"arch": "ibmqx4"}`,
		"missing arch":  fmt.Sprintf(`{"qasm": %q}`, bellQASM),
	} {
		req := httptest.NewRequest("POST", "/v1/map", strings.NewReader(body))
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, w.Code)
		}
	}
}

// TestMapEndpointTimeout: an expired mapping deadline surfaces as 504.
func TestMapEndpointTimeout(t *testing.T) {
	s := newTestServer(t, serverConfig{reqTimeout: time.Nanosecond})
	var e errorBody
	resp := doJSON(t, s, "POST", "/v1/map", mapRequest{QASM: smokeQASM, Arch: "ibmqx4"}, &e)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (error %q)", resp.StatusCode, e.Error)
	}
}

// TestBatchEndpointFanOut: a mixed batch returns per-job outcomes in input
// order with fail-soft errors and correct aggregates.
func TestBatchEndpointFanOut(t *testing.T) {
	s := newTestServer(t, serverConfig{})
	var report qxmap.BatchReportJSON
	resp := doJSON(t, s, "POST", "/v1/batch", batchRequest{
		Jobs: []mapRequest{
			{Name: "smoke", QASM: smokeQASM, Arch: "ibmqx4", Method: "exact", Engine: "dp"},
			{Name: "bell", QASM: bellQASM, Arch: "ibmqx4", Method: "exact", Engine: "dp"},
			{Name: "sabre", QASM: smokeQASM, Arch: "ibmqx4", Method: "sabre"},
			// Fail-soft member: 6 qubits cannot map onto a 5-qubit device.
			{Name: "toobig", QASM: "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[6];\ncx q[0],q[5];", Arch: "ibmqx4"},
		},
		Workers: 4,
	}, &report)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(report.Jobs) != 4 {
		t.Fatalf("got %d job reports", len(report.Jobs))
	}
	if report.Succeeded != 3 || report.Failed != 1 {
		t.Errorf("succeeded/failed = %d/%d, want 3/1", report.Succeeded, report.Failed)
	}
	if j := report.Jobs[0]; j.Name != "smoke" || j.Result == nil || j.Result.Cost != 14 {
		t.Errorf("job 0 = %+v, want smoke at F=14", j)
	}
	if j := report.Jobs[1]; j.Result == nil || j.Result.Cost != 0 {
		t.Errorf("job 1 (bell) should map at cost 0, got %+v", j)
	}
	if j := report.Jobs[2]; j.Result == nil || j.Result.Cost < 14 {
		t.Errorf("job 2 (sabre heuristic) cost %+v below exact minimum", j)
	}
	if j := report.Jobs[3]; j.Error == "" || j.Result != nil {
		t.Errorf("job 3 should fail softly, got %+v", j)
	}
	if want := report.Jobs[0].Result.Cost + report.Jobs[1].Result.Cost + report.Jobs[2].Result.Cost; report.TotalCost != want {
		t.Errorf("total cost = %d, want %d", report.TotalCost, want)
	}
}

// TestBatchEndpointValidation: empty batches and invalid members are 400s
// naming the offending job.
func TestBatchEndpointValidation(t *testing.T) {
	s := newTestServer(t, serverConfig{})
	var e errorBody
	resp := doJSON(t, s, "POST", "/v1/batch", batchRequest{}, &e)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: status = %d", resp.StatusCode)
	}

	e = errorBody{}
	resp = doJSON(t, s, "POST", "/v1/batch", batchRequest{
		Jobs: []mapRequest{
			{QASM: bellQASM, Arch: "ibmqx4"},
			{QASM: bellQASM, Arch: "nonsense"},
		},
	}, &e)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad member: status = %d", resp.StatusCode)
	}
	if !strings.Contains(e.Error, "job 1") {
		t.Errorf("error %q does not name the offending job", e.Error)
	}

	// Per-job fields that only exist at the top level are rejected, not
	// silently dropped.
	for field, jobs := range map[string][]mapRequest{
		"async":        {{QASM: bellQASM, Arch: "ibmqx4", Async: true}},
		"timeout_ms":   {{QASM: bellQASM, Arch: "ibmqx4", TimeoutMS: 100}},
		"include_qasm": {{QASM: bellQASM, Arch: "ibmqx4", IncludeQASM: new(bool)}},
	} {
		e = errorBody{}
		resp = doJSON(t, s, "POST", "/v1/batch", batchRequest{Jobs: jobs}, &e)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("member %s: status = %d, want 400", field, resp.StatusCode)
		}
		if !strings.Contains(e.Error, "job 0") {
			t.Errorf("member %s: error %q does not name the job", field, e.Error)
		}
	}
}

// TestAsyncJobEviction: finished job records beyond the retention cap are
// evicted oldest-first; newer records survive.
func TestAsyncJobEviction(t *testing.T) {
	s := newTestServer(t, serverConfig{maxJobs: 2})

	var ids []string
	for i := 0; i < 3; i++ {
		var created jobStatus
		resp := doJSON(t, s, "POST", "/v1/map", mapRequest{
			QASM: bellQASM, Arch: "ibmqx4", Engine: "dp", Async: true,
		}, &created)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status = %d", i, resp.StatusCode)
		}
		ids = append(ids, created.JobID)
		// Finish each job before the next submission so eviction order is
		// deterministic (only done jobs are evicted).
		deadline := time.Now().Add(30 * time.Second)
		for {
			var st jobStatus
			doJSON(t, s, "GET", "/v1/jobs/"+created.JobID, nil, &st)
			if st.State == "done" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck", created.JobID)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	if resp := doJSON(t, s, "GET", "/v1/jobs/"+ids[0], nil, &errorBody{}); resp.StatusCode != http.StatusNotFound {
		t.Errorf("oldest job %s: status = %d, want 404 (evicted)", ids[0], resp.StatusCode)
	}
	for _, id := range ids[1:] {
		var st jobStatus
		if resp := doJSON(t, s, "GET", "/v1/jobs/"+id, nil, &st); resp.StatusCode != http.StatusOK {
			t.Errorf("retained job %s: status = %d", id, resp.StatusCode)
		}
	}
}

// TestAsyncJobLifecycle: async submission returns 202 + a job id; polling
// reaches state "done" with the result; DELETE forgets the job.
func TestAsyncJobLifecycle(t *testing.T) {
	s := newTestServer(t, serverConfig{})
	var created jobStatus
	resp := doJSON(t, s, "POST", "/v1/map", mapRequest{
		QASM: smokeQASM, Arch: "ibmqx4", Method: "exact", Engine: "dp", Async: true,
	}, &created)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, want 202", resp.StatusCode)
	}
	if created.JobID == "" {
		t.Fatal("no job id in 202 response")
	}

	deadline := time.Now().Add(30 * time.Second)
	var st jobStatus
	for {
		resp = doJSON(t, s, "GET", "/v1/jobs/"+created.JobID, nil, &st)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll status = %d", resp.StatusCode)
		}
		if st.State == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %q", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.Error != "" {
		t.Fatalf("job failed: %s", st.Error)
	}
	if st.Result == nil || st.Result.Cost != 14 {
		t.Fatalf("job result = %+v, want F=14", st.Result)
	}
	if st.RunNS <= 0 {
		t.Errorf("run_ns = %d, want > 0", st.RunNS)
	}

	resp = doJSON(t, s, "DELETE", "/v1/jobs/"+created.JobID, nil, nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status = %d", resp.StatusCode)
	}
	var e errorBody
	resp = doJSON(t, s, "GET", "/v1/jobs/"+created.JobID, nil, &e)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("forgotten job status = %d, want 404", resp.StatusCode)
	}
}

// TestAsyncRequestValidationAndQASMOmission: timeout_ms is rejected on
// async submissions, and include_qasm:false set at submission is honored
// by every later poll of the finished job.
func TestAsyncRequestValidationAndQASMOmission(t *testing.T) {
	s := newTestServer(t, serverConfig{})

	var e errorBody
	resp := doJSON(t, s, "POST", "/v1/map", mapRequest{
		QASM: bellQASM, Arch: "ibmqx4", Async: true, TimeoutMS: 100,
	}, &e)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("async timeout_ms: status = %d, want 400", resp.StatusCode)
	}

	noQASM := false
	var created jobStatus
	resp = doJSON(t, s, "POST", "/v1/map", mapRequest{
		QASM: bellQASM, Arch: "ibmqx4", Engine: "dp", Async: true, IncludeQASM: &noQASM,
	}, &created)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status = %d", resp.StatusCode)
	}
	deadline := time.Now().Add(30 * time.Second)
	var st jobStatus
	for {
		doJSON(t, s, "GET", "/v1/jobs/"+created.JobID, nil, &st)
		if st.State == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %q", st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st.Error != "" || st.Result == nil {
		t.Fatalf("job outcome: %+v", st)
	}
	if st.Result.QASM != "" {
		t.Errorf("poll response carries QASM despite include_qasm:false at submission")
	}
}

// TestJobsUnknownID: polling a never-issued id is a 404.
func TestJobsUnknownID(t *testing.T) {
	s := newTestServer(t, serverConfig{})
	var e errorBody
	resp := doJSON(t, s, "GET", "/v1/jobs/job-999", nil, &e)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

// TestListingsAndHealth: the discovery endpoints mirror the registries and
// healthz reports ok.
// TestPprofOnlyOnItsListener: the profiling endpoints are served by the
// separate -pprof handler and never by the API handler, even though
// importing net/http/pprof registers them on http.DefaultServeMux.
func TestPprofOnlyOnItsListener(t *testing.T) {
	s := newTestServer(t, serverConfig{})
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol"} {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		if w.Code != http.StatusNotFound {
			t.Errorf("API handler GET %s = %d, want 404", path, w.Code)
		}
		w = httptest.NewRecorder()
		pprofHandler().ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		if w.Code != http.StatusOK {
			t.Errorf("pprof handler GET %s = %d, want 200", path, w.Code)
		}
	}
}

func TestListingsAndHealth(t *testing.T) {
	s := newTestServer(t, serverConfig{})

	var methods map[string][]string
	if resp := doJSON(t, s, "GET", "/v1/methods", nil, &methods); resp.StatusCode != http.StatusOK {
		t.Fatalf("methods status = %d", resp.StatusCode)
	}
	if want := qxmap.Methods(); !equalStrings(methods["methods"], want) {
		t.Errorf("methods = %v, want %v", methods["methods"], want)
	}

	var archs struct {
		Archs []archInfo `json:"archs"`
		Names []string   `json:"names"`
	}
	if resp := doJSON(t, s, "GET", "/v1/archs", nil, &archs); resp.StatusCode != http.StatusOK {
		t.Fatalf("archs status = %d", resp.StatusCode)
	}
	if want := qxmap.Architectures(); !equalStrings(archs.Names, want) {
		t.Errorf("names = %v, want %v", archs.Names, want)
	}
	if len(archs.Archs) != len(archs.Names) {
		t.Errorf("structured archs has %d entries, names %d", len(archs.Archs), len(archs.Names))
	}
	for _, ai := range archs.Archs {
		switch ai.Name {
		case "ibmqx4":
			if ai.Qubits != 5 || !ai.Directed || ai.Parameterized || ai.CostModel == "" {
				t.Errorf("ibmqx4 entry = %+v", ai)
			}
		case "heavyhex27":
			if ai.Qubits != 27 || ai.Directed || ai.Parameterized {
				t.Errorf("heavyhex27 entry = %+v", ai)
			}
		case "linear<m>":
			if !ai.Parameterized || ai.Qubits != 0 {
				t.Errorf("linear<m> entry = %+v", ai)
			}
		}
	}

	var health map[string]any
	if resp := doJSON(t, s, "GET", "/healthz", nil, &health); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	if health["status"] != "ok" {
		t.Errorf("healthz = %v", health)
	}
}

// TestConcurrentRequests hammers the handler from many goroutines — sync
// maps, batches, async jobs and listings at once — and checks every
// response. CI runs this under the race detector.
func TestConcurrentRequests(t *testing.T) {
	s := newTestServer(t, serverConfig{})
	const perKind = 8
	var wg sync.WaitGroup

	wg.Add(perKind)
	for i := 0; i < perKind; i++ {
		go func() {
			defer wg.Done()
			var res qxmap.ResultJSON
			resp := doJSON(t, s, "POST", "/v1/map", mapRequest{
				QASM: bellQASM, Arch: "ibmqx4", Method: "exact", Engine: "dp",
			}, &res)
			if resp.StatusCode != http.StatusOK || res.Cost != 0 {
				t.Errorf("concurrent map: status %d cost %d", resp.StatusCode, res.Cost)
			}
		}()
	}

	wg.Add(perKind)
	for i := 0; i < perKind; i++ {
		go func() {
			defer wg.Done()
			var report qxmap.BatchReportJSON
			resp := doJSON(t, s, "POST", "/v1/batch", batchRequest{
				Jobs: []mapRequest{
					{QASM: bellQASM, Arch: "ibmqx4", Engine: "dp"},
					{QASM: bellQASM, Arch: "ibmqx2", Engine: "dp"},
				},
			}, &report)
			if resp.StatusCode != http.StatusOK || report.Failed != 0 {
				t.Errorf("concurrent batch: status %d failed %d", resp.StatusCode, report.Failed)
			}
		}()
	}

	wg.Add(perKind)
	for i := 0; i < perKind; i++ {
		go func() {
			defer wg.Done()
			var created jobStatus
			resp := doJSON(t, s, "POST", "/v1/map", mapRequest{
				QASM: bellQASM, Arch: "ibmqx4", Engine: "dp", Async: true,
			}, &created)
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("concurrent async: status %d", resp.StatusCode)
				return
			}
			for {
				var st jobStatus
				doJSON(t, s, "GET", "/v1/jobs/"+created.JobID, nil, &st)
				if st.State == "done" {
					if st.Error != "" || st.Result == nil || st.Result.Cost != 0 {
						t.Errorf("concurrent async job: %+v", st)
					}
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}

	wg.Add(perKind)
	for i := 0; i < perKind; i++ {
		go func() {
			defer wg.Done()
			var health map[string]any
			if resp := doJSON(t, s, "GET", "/healthz", nil, &health); resp.StatusCode != http.StatusOK {
				t.Errorf("concurrent healthz: status %d", resp.StatusCode)
			}
		}()
	}

	wg.Wait()
}

func equalStrings(a, b []string) bool {
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
