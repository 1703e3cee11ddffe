package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"ecripse/internal/cluster"
	"ecripse/internal/montecarlo"
	"ecripse/internal/obsv"
	"ecripse/internal/service"
	"ecripse/internal/store"
)

const (
	// openRate is service-open's request rate. Requests alternate between
	// a fresh spec and a repeat, so a 20-s window holds 120 misses, over
	// the 100 a p90 needs.
	openRate = 12.0
	// openJitter is the relative jitter of the gap between two requests:
	// gaps lie within (1 ± openJitter)/openRate, so misses come at least
	// 133 ms apart, longer than one takes on its shard (about 90 ms on a
	// 2-core host), and a miss queues only when the engine slows down.
	// Poisson arrivals at the same rate put op_s_p90 in the queueing tail,
	// where it spread 10–23% from seed to seed.
	openJitter = 0.2
	// repeatAge is how long before a repeat its key must have been due.
	repeatAge = 3 * time.Second
	// maxLateness bounds the generator's p99 lateness; a later schedule
	// makes the run invalid.
	maxLateness = 50 * time.Millisecond
	// hopProbes is how many cached POSTs the router-hop probe sends each
	// way.
	hopProbes = 20
)

// missSpec is a fresh service-open request: about 70 ms of engine work at
// one worker on a 2-core host.
func missSpec(seed int64, alpha float64) service.JobSpec {
	return service.JobSpec{RTN: true, Vdd: 0.5, Alpha: alpha, N: 4000, M: 5, Seed: seed}
}

// arrival is one scheduled request.
type arrival struct {
	at     time.Duration // due time after the window opens; the prefill is due at −repeatAge
	spec   service.JobSpec
	repeat int // index of the arrival this one repeats; -1 for a fresh spec
}

// openSchedule expands seed into a prefill and arrivals at rate per second
// over dur. The prefill is the fresh specs a window in steady state would
// already hold, rate·repeatAge/2 of them, due repeatAge before the window
// opens; they run to completion first, so repeats, and with them the
// half-and-half mix of hits and misses, start at once. In the window the
// gaps between arrivals are 1/rate, each jittered uniformly by ±jitter, and
// arrivals alternate: a fresh spec with its own seed and an alpha in
// {0.1, …, 0.9}, then a repeat of a fresh spec due at least repeatAge
// earlier, chosen uniformly.
func openSchedule(seed int64, rate, jitter float64, dur time.Duration) []arrival {
	s := newStream(seed)
	fresh := func() service.JobSpec { return missSpec(s.nextSeed(), float64(1+s.rng.Intn(9))/10) }
	var out []arrival
	var sources []int // indices of fresh arrivals, in due order
	for len(out) < int(math.Ceil(rate*repeatAge.Seconds()/2)) {
		sources = append(sources, len(out))
		out = append(out, arrival{at: -repeatAge, spec: fresh(), repeat: -1})
	}
	old := 0 // sources[:old] were due at least repeatAge before t
	for i, t := 0, time.Duration(0); ; i++ {
		t += time.Duration((1 + jitter*(2*s.rng.Float64()-1)) / rate * float64(time.Second))
		if t >= dur {
			return out
		}
		for old < len(sources) && out[sources[old]].at <= t-repeatAge {
			old++
		}
		if i%2 == 1 {
			src := sources[s.rng.Intn(old)]
			out = append(out, arrival{at: t, spec: out[src].spec, repeat: src})
			continue
		}
		sources = append(sources, len(out))
		out = append(out, arrival{at: t, spec: fresh(), repeat: -1})
	}
}

// shardNode is one service.Server shard journaling to its own FileStore.
type shardNode struct {
	name string
	svc  *service.Service
	st   *store.FileStore
	hs   *http.Server
	url  string
}

// rig is the service-open deployment: a cluster.Router in front of two
// shards, each with one worker and a fsync'd journal, all listening on
// loopback in this process, plus the client that drives them.
type rig struct {
	shards []*shardNode
	router *cluster.Router
	hs     *http.Server
	url    string
	client *http.Client
	served sync.WaitGroup
}

func startRig(dir string) (*rig, error) {
	r := &rig{client: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2},
		Timeout:   time.Minute,
	}}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	var members []cluster.Shard
	for _, name := range []string{"s1", "s2"} {
		st, err := store.Open(filepath.Join(dir, name), store.Options{Logf: func(string, ...any) {}})
		if err != nil {
			r.close()
			return nil, err
		}
		n := &shardNode{name: name, st: st}
		n.svc = service.New(service.Config{Workers: 1, MaxJobParallelism: 1, Store: st, NodeID: name, Logger: quiet})
		r.shards = append(r.shards, n)
		if n.url, n.hs, err = r.serve(service.NewServer(n.svc)); err != nil {
			r.close()
			return nil, err
		}
		members = append(members, cluster.Shard{Name: name, URL: n.url})
	}
	rt, err := cluster.NewRouter(cluster.Config{Shards: members, Logger: quiet})
	if err != nil {
		r.close()
		return nil, err
	}
	rt.Start()
	r.router = rt
	if r.url, r.hs, err = r.serve(rt); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *rig) serve(h http.Handler) (string, *http.Server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	r.served.Add(1)
	go func() {
		defer r.served.Done()
		_ = hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return "http://" + ln.Addr().String(), hs, nil
}

// close stops the listeners, the prober and the shards, and waits for every
// goroutine the rig started.
func (r *rig) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if r.hs != nil {
		_ = r.hs.Shutdown(ctx) // teardown: a stuck connection is cut at the deadline
	}
	if r.router != nil {
		r.router.Close()
	}
	for _, n := range r.shards {
		if n.hs != nil {
			_ = n.hs.Shutdown(ctx)
		}
		if n.svc != nil {
			_ = n.svc.Drain(ctx)
		}
		_ = n.st.Close() // every append was already fsync'd
	}
	r.served.Wait()
	r.client.CloseIdleConnections()
}

func (r *rig) shard(jobID string) (*shardNode, error) {
	for _, n := range r.shards {
		if strings.HasPrefix(jobID, n.name+"-") {
			return n, nil
		}
	}
	return nil, fmt.Errorf("job %q has no shard prefix", jobID)
}

func (r *rig) call(ctx context.Context, method, url string, spec *service.JobSpec, out any) error {
	var body io.Reader
	if spec != nil {
		b, err := json.Marshal(spec)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, out)
}

// request is the outcome of one scheduled request.
type request struct {
	spec      service.JobSpec
	key       string
	hit       bool
	late      float64 // seconds the request started after its due time
	latency   float64 // due time to result
	submit    float64 // POST round trip
	fetch     float64 // GET round trip (misses)
	queueWait float64 // job queued → running (misses)
	run       float64 // job running → finished (misses)
	result    json.RawMessage
	op        op // misses: the estimate
	err       error
}

// do sends one request through the router: POST the spec; a cache hit
// carries its result; a miss waits for the owning shard's Job.Done and
// fetches the result with a GET through the router. With rec set, the
// request is traced and the job's own spans are grafted under its wait.
func (r *rig) do(ctx context.Context, spec service.JobSpec, due time.Time, rec *recorder) request {
	q := request{late: time.Since(due).Seconds()}
	var tr *obsv.Trace
	if rec != nil {
		tr = obsv.NewTrace()
		ctx = obsv.WithTrace(ctx, tr)
	}
	rctx, reqSpan := obsv.StartSpan(ctx, "request")
	var view service.View
	t0 := time.Now()
	_, sub := obsv.StartSpan(rctx, "submit")
	err := r.call(ctx, http.MethodPost, r.url+"/v1/jobs", &spec, &view)
	sub.End()
	q.submit = time.Since(t0).Seconds()
	if err != nil {
		q.err = err
		return q
	}
	if view.Cached {
		reqSpan.End()
		q.hit, q.result, q.latency = true, view.Result, time.Since(due).Seconds()
		if rec != nil {
			rec.add("open", tr.Spans())
		}
		return q
	}
	n, err := r.shard(view.ID)
	if err == nil {
		var job *service.Job
		if job, err = n.svc.Get(view.ID); err == nil {
			_, wait := obsv.StartSpan(rctx, "wait")
			select {
			case <-job.Done():
			case <-ctx.Done():
				err = ctx.Err()
			}
			wait.End()
			if rec != nil {
				graft(tr, wait.Index(), job.TracePayload())
			}
		}
	}
	if err != nil {
		q.err = err
		return q
	}
	t1 := time.Now()
	_, fetch := obsv.StartSpan(rctx, "fetch")
	err = r.call(ctx, http.MethodGet, r.url+"/v1/jobs/"+view.ID, nil, &view)
	fetch.End()
	reqSpan.End()
	q.fetch = time.Since(t1).Seconds()
	q.latency = time.Since(due).Seconds()
	if err == nil && view.State != service.StateDone {
		err = fmt.Errorf("job %s ended %s: %s", view.ID, view.State, view.Error)
	}
	var res service.RunResult
	if err == nil {
		err = json.Unmarshal(view.Result, &res)
	}
	if err != nil {
		q.err = err
		return q
	}
	q.result = view.Result
	q.queueWait = sinceRFC(view.CreatedAt, view.StartedAt)
	q.run = sinceRFC(view.StartedAt, view.FinishedAt)
	q.op = newOp(&res, nil, time.Duration(q.latency*float64(time.Second)))
	if rec != nil {
		q.op.spans = rec.add("open", tr.Spans())
	}
	return q
}

// sinceRFC is b − a for two RFC 3339 timestamps of a job view, in seconds.
func sinceRFC(a, b string) float64 {
	ta, err1 := time.Parse(time.RFC3339Nano, a)
	tb, err2 := time.Parse(time.RFC3339Nano, b)
	if err1 != nil || err2 != nil {
		return 0
	}
	return tb.Sub(ta).Seconds()
}

// graft copies a job's persisted span timeline into tr under span parent.
func graft(tr *obsv.Trace, parent int, payload json.RawMessage) {
	var p struct {
		Spans []obsv.SpanView `json:"spans"`
	}
	if json.Unmarshal(payload, &p) != nil {
		return
	}
	idx := make([]int, len(p.Spans))
	for i, v := range p.Spans {
		start, err := time.Parse(time.RFC3339Nano, v.Start)
		if err != nil || v.DurMS < 0 {
			idx[i] = parent
			continue
		}
		up := parent
		if v.Parent >= 0 && v.Parent < i {
			up = idx[v.Parent]
		}
		var attrs []obsv.Attr
		for k, val := range v.Attrs {
			attrs = append(attrs, obsv.Attr{Key: k, Value: val})
		}
		idx[i] = tr.Add(v.Name, up, start, start.Add(time.Duration(v.DurMS*float64(time.Millisecond))), attrs...)
	}
}

// warmup is one set-up's two warm-up requests: a miss and its repeat.
func (r *rig) warmup(ctx context.Context) error {
	spec := missSpec(warmupSeed, 0.5)
	for i, wantHit := range []bool{false, true} {
		q := r.do(ctx, spec, time.Now(), nil)
		if q.err == nil && q.hit != wantHit {
			q.err = fmt.Errorf("warm-up request %d: cache hit %v, want %v", i, q.hit, wantHit)
		}
		if q.err != nil {
			return q.err
		}
	}
	return nil
}

// openLoop hands every arrival to send at its due time, whatever the state
// of earlier requests, and waits for all of them. send measures the
// request's lateness against the due time it is given.
func openLoop(ctx context.Context, sched []arrival, send func(spec service.JobSpec, due time.Time) request) []request {
	reqs := make([]request, len(sched))
	start := time.Now()
	var wg sync.WaitGroup
	for i, a := range sched {
		due := start.Add(a.at)
		if d := time.Until(due); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		wg.Add(1)
		go func(i int, spec service.JobSpec, due time.Time) {
			defer wg.Done()
			reqs[i] = send(spec, due)
			reqs[i].spec, reqs[i].key = spec, spec.Key()
		}(i, a.spec, due)
	}
	wg.Wait()
	return reqs
}

// depthSampler polls the shards' queue depth at 10 Hz until stopped.
type depthSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	max  int
}

func (r *rig) sampleDepth() *depthSampler {
	s := &depthSampler{stop: make(chan struct{})}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				for _, n := range r.shards {
					s.max = max(s.max, n.svc.Snapshot().QueueDepth)
				}
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the deepest queue it saw.
func (s *depthSampler) finish() int {
	close(s.stop)
	s.done.Wait()
	return s.max
}

// routerStats reads the router's dispatch counters through its /metrics.
func (r *rig) routerStats(ctx context.Context) (cluster.RouterStats, error) {
	var m cluster.ClusterMetrics
	err := r.call(ctx, http.MethodGet, r.url+"/metrics", nil, &m)
	return m.Router, err
}

// rigCounters are the store and router counters that per-job metrics are
// taken against.
type rigCounters struct {
	appends, bytes int64
	router         cluster.RouterStats
}

func (r *rig) counters(ctx context.Context) (rigCounters, error) {
	var c rigCounters
	for _, n := range r.shards {
		s := n.st.Stats()
		c.appends += s.Appends
		c.bytes += s.SegmentBytes
	}
	var err error
	c.router, err = r.routerStats(ctx)
	return c, err
}

// hopProbe times cached POSTs of completed misses through the router and
// straight to the shard holding the result, alternating, and returns the
// difference of the medians: what the router hop adds to a cache hit.
func (r *rig) hopProbe(ctx context.Context, reqs []request) (float64, int, error) {
	var misses []request
	for _, q := range reqs {
		if !q.hit && q.err == nil {
			misses = append(misses, q)
		}
	}
	if len(misses) == 0 {
		return math.NaN(), 0, nil
	}
	var via, direct []float64
	for i := 0; i < hopProbes; i++ {
		spec := misses[i%len(misses)].spec
		var v service.View
		t0 := time.Now()
		if err := r.call(ctx, http.MethodPost, r.url+"/v1/jobs", &spec, &v); err != nil {
			return 0, 0, err
		}
		via = append(via, time.Since(t0).Seconds())
		n, err := r.shard(v.ID)
		if err != nil {
			return 0, 0, err
		}
		t0 = time.Now()
		if err := r.call(ctx, http.MethodPost, n.url+"/v1/jobs", &spec, &v); err != nil {
			return 0, 0, err
		}
		direct = append(direct, time.Since(t0).Seconds())
	}
	return median(via) - median(direct), len(via), nil
}

// reportService sets the service, store and cluster metrics of the requests
// sent through r since the counters read c0.
func (r *rig) reportService(ctx context.Context, d *Doc, reqs []request, c0 rigCounters) error {
	var hits, submits, fetches, waits, runs []float64
	for _, q := range reqs {
		if q.err != nil {
			continue
		}
		submits = append(submits, q.submit)
		if q.hit {
			hits = append(hits, q.latency)
			continue
		}
		fetches = append(fetches, q.fetch)
		waits = append(waits, q.queueWait)
		runs = append(runs, q.run)
	}
	d.set("service.hit_s_p50", median(hits), len(hits))
	d.set("service.submit_s_p50", median(submits), len(submits))
	d.set("service.queue_wait_s_mean", mean(waits), len(waits))
	d.set("service.run_s_p50", median(runs), len(runs))
	d.set("service.fetch_s_p50", median(fetches), len(fetches))
	d.set("service.cache_hit_frac", float64(len(hits))/float64(len(submits)), len(submits))

	c1, err := r.counters(ctx)
	if err != nil {
		return err
	}
	d.set("store.appends_per_job", float64(c1.appends-c0.appends)/float64(len(reqs)), len(reqs))
	d.set("store.bytes_per_job", float64(c1.bytes-c0.bytes)/float64(len(reqs)), len(reqs))
	var fwd []float64
	total := 0.0
	for name, n := range c1.router.Forwards {
		f := float64(n - c0.router.Forwards[name])
		fwd = append(fwd, f)
		total += f
	}
	if total > 0 {
		sort.Float64s(fwd)
		d.set("cluster.shard_imbalance", fwd[len(fwd)-1]/(total/float64(len(fwd))), int(total))
		d.set("cluster.cache_routed_frac", float64(c1.router.CacheRouted-c0.router.CacheRouted)/total, int(total))
	}
	hop, n, err := r.hopProbe(ctx, reqs)
	if err != nil {
		return err
	}
	d.set("cluster.hop_s_p50", hop, n)
	return nil
}

// roundJobs is how many jobs serviceRound sends.
const roundJobs = 5

// serviceRound sends the first cfg.roundJobs job specs of a workload's stream
// through a fresh rig, each twice in a row (a miss, then its cache hit),
// and reports the service, store and cluster metrics: the traced pass of
// an in-process workload measures those layers on its own jobs.
func serviceRound(ctx context.Context, cfg config, d *Doc, spec func(seed int64) service.JobSpec) error {
	dir, err := os.MkdirTemp(cfg.work, "service-round-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	r, err := startRig(dir)
	if err != nil {
		return err
	}
	defer r.close()
	c0, err := r.counters(ctx)
	if err != nil {
		return err
	}
	s := newStream(cfg.seed)
	var reqs []request
	for i := 0; i < cfg.roundJobs; i++ {
		js := spec(s.nextSeed())
		for j := 0; j < 2; j++ {
			q := r.do(ctx, js, time.Now(), nil)
			if q.err != nil {
				return fmt.Errorf("service round: %w", q.err)
			}
			q.spec, q.key = js, js.Key()
			reqs = append(reqs, q)
		}
	}
	return r.reportService(ctx, d, reqs, c0)
}

// runService measures service-open: an open loop of Poisson arrivals
// through the router, half fresh specs (cache misses: queue, engine,
// journal) and half repeats (cache hits: the read path).
func runService(ctx context.Context, cfg config, d *Doc) error {
	dir, err := os.MkdirTemp(cfg.work, "service-open-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var r *rig
	setup, err := setupTimes(cfg.setupReps, func() error {
		if r != nil {
			r.close()
		}
		sub, err := os.MkdirTemp(dir, "rig-")
		if err != nil {
			return err
		}
		if r, err = startRig(sub); err != nil {
			return err
		}
		return r.warmup(ctx)
	})
	if r != nil {
		defer r.close()
	}
	if err != nil {
		return err
	}

	sched := openSchedule(cfg.seed, cfg.rate, openJitter, cfg.seconds)
	prefill := sort.Search(len(sched), func(i int) bool { return sched[i].at >= 0 })
	// An untraced miss's latency is converted to reference seconds right
	// after it ends, in its own goroutine. The calibration runs on one core
	// while the shards' workers may hold the others; with misses paced
	// longer apart than one takes, both workers are rarely busy at once.
	send := func(rec *recorder) func(service.JobSpec, time.Time) request {
		return func(spec service.JobSpec, due time.Time) request {
			q := r.do(ctx, spec, due, rec)
			if rec == nil && !q.hit && q.err == nil {
				q.op.wall, q.op.cal = refSeconds(q.op.wall)
			}
			return q
		}
	}
	missPayload := map[string]json.RawMessage{}
	for _, q := range openLoop(ctx, sched[:prefill], send(nil)) {
		if q.err != nil || q.hit {
			return fmt.Errorf("prefill request: hit %v, error %v", q.hit, q.err)
		}
		missPayload[q.key] = q.result
	}
	payload := missPayload[sched[0].spec.Key()] // a real result, for the store probe

	c0, err := r.counters(ctx)
	if err != nil {
		return err
	}
	var rec *recorder
	var depth *depthSampler
	if cfg.trace {
		rec = newRecorder()
		depth = r.sampleDepth()
	}
	pipe0 := montecarlo.TotalPipelineStats()
	reqs := openLoop(ctx, sched[prefill:], send(rec))
	pipe := pipeDelta(pipe0)
	maxDepth := 0
	if depth != nil {
		maxDepth = depth.finish()
	}

	var all, misses []op
	var hits, lates []float64
	for _, q := range reqs {
		lates = append(lates, q.late)
		switch {
		case q.err != nil:
			all = append(all, op{err: q.err})
		case q.hit:
			all = append(all, op{wall: q.latency})
			hits = append(hits, q.latency)
		default:
			all = append(all, q.op)
			misses = append(misses, q.op)
			missPayload[q.key] = q.result
		}
	}
	tally(d, all)
	identical, compared := true, 0
	for _, q := range reqs {
		if q.hit {
			compared++
			if !bytes.Equal(q.result, missPayload[q.key]) {
				identical = false
			}
		}
	}
	d.check("service-open.hits_identical", identical, "%d cache hits byte-identical to their miss payload", compared)
	late := quantile(lates, 0.99)
	d.check("service-open.generator_lateness", late <= maxLateness.Seconds(), "p99 lateness %.1f ms (limit %v)", 1e3*late, maxLateness)
	d.note("%d requests at %.0f/s: %d misses, %d hits", len(reqs), cfg.rate, len(misses), len(hits))

	if !cfg.trace {
		reportE2E(d, misses, setup, len(misses))
		return nil
	}

	d.set("service.queue_depth_max", float64(maxDepth), len(reqs))
	reportLayers(d, misses)
	d.set("montecarlo.stall_frac", stallFrac(pipe), int(pipe.Batches))
	if err := r.reportService(ctx, d, reqs, c0); err != nil {
		return err
	}

	// The engine probes need an op of this workload's spec run through the
	// core entry points; it runs after the window, untimed.
	_, run := engineOp(ctx, rec, "probe", sched[0].spec, nil)
	if run == nil {
		return fmt.Errorf("probe op failed")
	}
	pr, err := runProbes(run, payload, cfg.work)
	if err != nil {
		return err
	}
	pr.report(d)
	if err := rec.write(cfg.spans, cfg.workload, cfg.seed); err != nil {
		return err
	}
	d.note("spans written to %s", cfg.spans)
	return nil
}
