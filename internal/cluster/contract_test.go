package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"ecripse/internal/montecarlo"
	"ecripse/internal/service"
)

// contractBlockSeed marks specs the contract runner holds until canceled,
// so DELETE has a live job or sweep to act on.
const contractBlockSeed = 777

// contractRun is the contract test's runner: instant and deterministic,
// except that a spec seeded contractBlockSeed blocks until canceled.
func contractRun(ctx context.Context, spec service.JobSpec, c *montecarlo.Counter) (*service.RunResult, error) {
	if spec.Seed == contractBlockSeed {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	c.Add(100)
	return &service.RunResult{
		Estimate: service.Estimate{P: 1e-6, N: spec.N, Sims: 100},
		Cost:     service.CostSplit{Total: 100},
	}, nil
}

// Key sets of the JSON bodies the API serves: every required key must be
// present, and no key outside required ∪ optional may appear.
var (
	jobViewKeys       = []string{"id", "state", "sims", "created_at", "spec"}
	jobViewOptional   = []string{"cached", "tenant", "error", "started_at", "finished_at", "result"}
	sweepViewKeys     = []string{"id", "state", "key", "num_points", "points_done", "created_at", "spec"}
	sweepViewOptional = []string{"tenant", "error", "warm_start", "started_at", "finished_at", "points", "result"}
	traceKeys         = []string{"id", "state", "trace_id", "spans"}
	batchItemKeys     = []string{"status"}
	batchItemOpt      = []string{"job", "error"}
	errorKeys         = []string{"error"}
)

// contractKind is one resource collection of the HTTP contract.
type contractKind struct {
	path      string // collection path
	body      string // a spec that finishes
	blockBody string // a spec that runs until canceled
	keys, opt []string
	// resubmit is the status of submitting body a second time: jobs answer
	// from the cache inline, sweeps start again (their points answer from
	// the cache).
	resubmit int
	// events is the SSE event-name sequence of a finished resource.
	events []string
}

var contractKinds = []contractKind{
	{
		path:      "/v1/jobs",
		body:      `{"estimator":"naive","n":100,"seed":5}`,
		blockBody: fmt.Sprintf(`{"estimator":"naive","n":100,"seed":%d}`, contractBlockSeed),
		keys:      jobViewKeys, opt: jobViewOptional,
		resubmit: http.StatusOK,
		events:   []string{"done"},
	},
	{
		path:      "/v1/sweeps",
		body:      `{"base":{"estimator":"naive","n":100,"seed":5},"temp_k":{"values":[300,310,320]}}`,
		blockBody: fmt.Sprintf(`{"base":{"estimator":"naive","n":100,"seed":%d},"temp_k":{"values":[300,310,320]}}`, contractBlockSeed),
		keys:      sweepViewKeys, opt: sweepViewOptional,
		resubmit: http.StatusAccepted,
		// Each of the three points publishes once when submitted and once
		// when finished; the terminal "sweep" event precedes "done".
		events: []string{"point", "point", "point", "point", "point", "point", "sweep", "done"},
	},
}

// contractResp is one captured response.
type contractResp struct {
	status int
	header http.Header
	body   []byte
}

func contractDo(t *testing.T, method, url, body string) contractResp {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: read body: %v", method, url, err)
	}
	return contractResp{status: resp.StatusCode, header: resp.Header, body: b}
}

// expectJSON checks status, the JSON Content-Type and the object's key set,
// and returns the decoded object.
func expectJSON(t *testing.T, what string, r contractResp, status int, keys, opt []string) map[string]json.RawMessage {
	t.Helper()
	if r.status != status {
		t.Fatalf("%s: status %d, want %d (body %s)", what, r.status, status, r.body)
	}
	if ct := r.header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s: Content-Type %q, want application/json", what, ct)
	}
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(r.body, &obj); err != nil {
		t.Fatalf("%s: body is not a JSON object: %v (%s)", what, err, r.body)
	}
	checkKeys(t, what, obj, keys, opt)
	return obj
}

func checkKeys(t *testing.T, what string, obj map[string]json.RawMessage, keys, opt []string) {
	t.Helper()
	allowed := map[string]bool{}
	for _, k := range keys {
		allowed[k] = true
		if _, ok := obj[k]; !ok {
			t.Errorf("%s: missing key %q in %v", what, k, sortedKeys(obj))
		}
	}
	for _, k := range opt {
		allowed[k] = true
	}
	for k := range obj {
		if !allowed[k] {
			t.Errorf("%s: unexpected key %q", what, k)
		}
	}
}

func sortedKeys(obj map[string]json.RawMessage) []string {
	out := make([]string, 0, len(obj))
	for k := range obj {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func jsonString(t *testing.T, raw json.RawMessage) string {
	t.Helper()
	var s string
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatalf("decode string %s: %v", raw, err)
	}
	return s
}

// waitState polls a resource until its state satisfies ok.
func waitState(t *testing.T, url string, ok func(service.State) bool) service.State {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		r := contractDo(t, http.MethodGet, url, "")
		var v struct {
			State service.State `json:"state"`
		}
		if r.status == http.StatusOK && json.Unmarshal(r.body, &v) == nil && ok(v.State) {
			return v.State
		}
		if time.Now().After(deadline) {
			t.Fatalf("GET %s: state condition not reached in 10s (last %d %s)", url, r.status, r.body)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// sseNames streams one SSE response to its end and returns the event names.
func sseNames(t *testing.T, url string) []string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("GET %s: Content-Type %q, want text/event-stream", url, ct)
	}
	var names []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			names = append(names, name)
		}
	}
	return names
}

// stateCounts reads /metrics' job and sweep state counts, summed over the
// shards when base is a router.
func stateCounts(t *testing.T, base string) (jobs, sweeps map[service.State]int) {
	t.Helper()
	r := contractDo(t, http.MethodGet, base+"/metrics", "")
	var top map[string]json.RawMessage
	expectJSONInto(t, "GET /metrics", r, &top)
	snaps := []json.RawMessage{r.body}
	if raw, ok := top["shards"]; ok {
		var shards map[string]json.RawMessage
		if err := json.Unmarshal(raw, &shards); err != nil {
			t.Fatalf("decode router shards: %v", err)
		}
		snaps = snaps[:0]
		for _, s := range shards {
			snaps = append(snaps, s)
		}
	}
	jobs, sweeps = map[service.State]int{}, map[service.State]int{}
	for _, raw := range snaps {
		var m struct {
			Jobs   map[service.State]int `json:"jobs"`
			Sweeps map[service.State]int `json:"sweeps"`
		}
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("decode metrics: %v", err)
		}
		for st, n := range m.Jobs {
			jobs[st] += n
		}
		for st, n := range m.Sweeps {
			sweeps[st] += n
		}
	}
	return jobs, sweeps
}

func expectJSONInto(t *testing.T, what string, r contractResp, out any) {
	t.Helper()
	if r.status != http.StatusOK {
		t.Fatalf("%s: status %d (%s)", what, r.status, r.body)
	}
	if ct := r.header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s: Content-Type %q, want application/json", what, ct)
	}
	if err := json.Unmarshal(r.body, out); err != nil {
		t.Fatalf("%s: decode: %v (%s)", what, err, r.body)
	}
}

// TestHTTPContract pins the public HTTP contract of jobs and sweeps — status
// codes, Location and Content-Type headers, SSE event names, JSON key sets
// and the /metrics state counts — against a single shard Server and against
// a Router over two shards. Both fronts must answer identically.
func TestHTTPContract(t *testing.T) {
	fronts := []struct {
		name    string
		base    func(t *testing.T) string
		unknown map[string]string // collection path → an ID nobody minted
	}{
		{
			name: "shard",
			base: func(t *testing.T) string {
				svc := service.New(service.Config{Workers: 2, QueueCapacity: 64, CacheCapacity: 64, RunFunc: contractRun})
				srv := httptest.NewServer(service.NewServer(svc))
				t.Cleanup(srv.Close)
				t.Cleanup(func() { _ = svc.Drain(context.Background()) })
				return srv.URL
			},
			unknown: map[string]string{"/v1/jobs": "j999999", "/v1/sweeps": "sw999999"},
		},
		{
			name: "router",
			base: func(t *testing.T) string {
				var shards []Shard
				for _, name := range []string{"s1", "s2"} {
					fix := newShard(t, name, contractRun)
					shards = append(shards, Shard{Name: name, URL: fix.srv.URL})
				}
				rt, err := NewRouter(Config{Shards: shards, ProbeInterval: -1})
				if err != nil {
					t.Fatalf("NewRouter: %v", err)
				}
				front := httptest.NewServer(rt)
				t.Cleanup(front.Close)
				t.Cleanup(rt.Close)
				return front.URL
			},
			unknown: map[string]string{"/v1/jobs": "s1-j999999", "/v1/sweeps": "s1-sw999999"},
		},
	}
	for _, fr := range fronts {
		t.Run(fr.name, func(t *testing.T) {
			base := fr.base(t)
			for _, k := range contractKinds {
				t.Run(strings.TrimPrefix(k.path, "/v1/"), func(t *testing.T) {
					runContractKind(t, base, k, fr.unknown[k.path])
				})
			}
			// Jobs: one computed, its inline cache hit, the batch's cache
			// hit, and the canceled blocker. Sweeps: two finished grids of
			// three points each and one canceled grid of three points.
			wantJobs := map[service.State]int{service.StateDone: 9, service.StateCanceled: 4}
			wantSweeps := map[service.State]int{service.StateDone: 2, service.StateCanceled: 1}
			deadline := time.Now().Add(10 * time.Second)
			for {
				jobs, sweeps := stateCounts(t, base)
				if reflect.DeepEqual(jobs, wantJobs) && reflect.DeepEqual(sweeps, wantSweeps) {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("/metrics counts: jobs %v sweeps %v, want jobs %v sweeps %v", jobs, sweeps, wantJobs, wantSweeps)
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

func runContractKind(t *testing.T, base string, k contractKind, unknownID string) {
	coll := base + k.path

	// Submit: 202 with a Location naming the new resource.
	r := contractDo(t, http.MethodPost, coll, k.body)
	v := expectJSON(t, "submit", r, http.StatusAccepted, k.keys, k.opt)
	id := jsonString(t, v["id"])
	if loc := r.header.Get("Location"); loc != k.path+"/"+id {
		t.Errorf("submit: Location %q, want %q", loc, k.path+"/"+id)
	}
	waitState(t, coll+"/"+id, service.State.Terminal)

	// Resubmit: jobs answer inline from the cache (200, no Location).
	r = contractDo(t, http.MethodPost, coll, k.body)
	v = expectJSON(t, "resubmit", r, k.resubmit, k.keys, k.opt)
	again := jsonString(t, v["id"])
	wantLoc := ""
	if k.resubmit == http.StatusAccepted {
		wantLoc = k.path + "/" + again
	}
	if loc := r.header.Get("Location"); loc != wantLoc {
		t.Errorf("resubmit: Location %q, want %q", loc, wantLoc)
	}
	waitState(t, coll+"/"+again, service.State.Terminal)

	// Batch (jobs only): per-item statuses, the cache hit answered 200.
	if k.path == "/v1/jobs" {
		r = contractDo(t, http.MethodPost, coll+":batch", "["+k.body+`,{"estimator":"bogus"}]`)
		var items []map[string]json.RawMessage
		expectJSONInto(t, "batch", r, &items)
		if len(items) != 2 {
			t.Fatalf("batch: %d items, want 2", len(items))
		}
		for i, want := range []int{http.StatusOK, http.StatusBadRequest} {
			checkKeys(t, "batch item", items[i], batchItemKeys, batchItemOpt)
			var st int
			_ = json.Unmarshal(items[i]["status"], &st)
			if st != want {
				t.Errorf("batch item %d: status %d, want %d", i, st, want)
			}
		}
		var job map[string]json.RawMessage
		if err := json.Unmarshal(items[0]["job"], &job); err != nil {
			t.Fatalf("batch item job: %v", err)
		}
		checkKeys(t, "batch item job", job, k.keys, k.opt)
	}

	// Get and list.
	got := expectJSON(t, "get", contractDo(t, http.MethodGet, coll+"/"+id, ""), http.StatusOK, k.keys, k.opt)
	if st := service.State(jsonString(t, got["state"])); st != service.StateDone {
		t.Fatalf("get: state %q, want done", st)
	}
	var list []map[string]json.RawMessage
	expectJSONInto(t, "list", contractDo(t, http.MethodGet, coll, ""), &list)
	found := false
	for _, item := range list {
		checkKeys(t, "list item", item, k.keys, k.opt)
		if jsonString(t, item["id"]) == id {
			found = true
		}
	}
	if !found {
		t.Errorf("list: %s missing", id)
	}

	// Events of a finished resource, then its trace envelope.
	if names := sseNames(t, coll+"/"+id+"/events"); !reflect.DeepEqual(names, k.events) {
		t.Errorf("events: %v, want %v", names, k.events)
	}
	tr := expectJSON(t, "trace", contractDo(t, http.MethodGet, coll+"/"+id+"/trace", ""), http.StatusOK, traceKeys, nil)
	if jsonString(t, tr["id"]) != id {
		t.Errorf("trace: id %s, want %s", tr["id"], id)
	}
	if len(jsonString(t, tr["trace_id"])) != 32 {
		t.Errorf("trace: trace_id %s, want 32 hex chars", tr["trace_id"])
	}

	// DELETE: 202 on a live resource, then 409 once it is terminal.
	r = contractDo(t, http.MethodPost, coll, k.blockBody)
	v = expectJSON(t, "submit blocker", r, http.StatusAccepted, k.keys, k.opt)
	live := jsonString(t, v["id"])
	if k.path == "/v1/sweeps" {
		// Cancel only once every point job exists, so the canceled-job count
		// does not depend on how far the controller got.
		waitPointJobs(t, coll+"/"+live, 3)
	}
	expectJSON(t, "delete live", contractDo(t, http.MethodDelete, coll+"/"+live, ""), http.StatusAccepted, k.keys, k.opt)
	if st := waitState(t, coll+"/"+live, service.State.Terminal); st != service.StateCanceled {
		t.Errorf("canceled resource ended %q", st)
	}
	expectJSON(t, "delete terminal", contractDo(t, http.MethodDelete, coll+"/"+live, ""), http.StatusConflict, k.keys, k.opt)

	// Unknown IDs answer 404 on every per-ID route.
	for _, c := range []struct{ method, suffix string }{
		{http.MethodGet, ""}, {http.MethodGet, "/events"}, {http.MethodGet, "/trace"}, {http.MethodDelete, ""},
	} {
		what := c.method + " unknown" + c.suffix
		expectJSON(t, what, contractDo(t, c.method, coll+"/"+unknownID+c.suffix, ""), http.StatusNotFound, errorKeys, nil)
	}
}

// waitPointJobs polls a sweep until n of its points carry a job ID.
func waitPointJobs(t *testing.T, url string, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var v service.SweepView
		r := contractDo(t, http.MethodGet, url, "")
		if r.status == http.StatusOK && json.Unmarshal(r.body, &v) == nil {
			have := 0
			for _, p := range v.Points {
				if p.JobID != "" {
					have++
				}
			}
			if have >= n {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("GET %s: %d point jobs not submitted in 10s (%s)", url, n, r.body)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
