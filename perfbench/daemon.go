package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cobrawalk/internal/graphcache"
	"cobrawalk/internal/server"
	"cobrawalk/internal/sweep"
)

// daemon is an in-process cobrawalkd: a Manager with the cobrawalkd
// defaults behind server.NewHandler on a loopback listener.
type daemon struct {
	m      *server.Manager
	srv    *http.Server
	base   string
	served chan error
}

// cobrawalkd's flag defaults: two job slots, one point worker, trial and
// kernel workers from the per-job CPU budget, the default cache budget.
func bootDaemon(ctx context.Context, dir string, client *http.Client) (*daemon, error) {
	m, err := server.NewManager(server.Config{
		Dir:           dir,
		MaxConcurrent: 2,
		PointWorkers:  1,
		Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.Close()
		return nil, err
	}
	d := &daemon{m: m, srv: &http.Server{Handler: server.NewHandler(m)}, base: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { d.served <- d.srv.Serve(ln) }()
	resp, err := get(ctx, client, d.base+"/v1/healthz", nil)
	if err == nil && resp.status != http.StatusOK {
		err = fmt.Errorf("healthz: status %d", resp.status)
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop shuts the listener, then the manager, and waits for Serve to end.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = d.srv.Shutdown(ctx) // a stream still open at the deadline is cut by Close below
	d.m.Close()
	_ = d.srv.Close()
	<-d.served
}

type response struct {
	status int
	body   []byte
	etag   string
}

func do(ctx context.Context, client *http.Client, req *http.Request) (response, error) {
	resp, err := client.Do(req.WithContext(ctx))
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return response{status: resp.StatusCode, body: body, etag: resp.Header.Get("ETag")}, err
}

func get(ctx context.Context, client *http.Client, url string, header http.Header) (response, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return response{}, err
	}
	for k, v := range header {
		req.Header[k] = v
	}
	return do(ctx, client, req)
}

// waitDone reads a job's SSE stream until its terminal event.
func waitDone(ctx context.Context, client *http.Client, url string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", err
	}
	resp, err := client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("stream: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		ev, ok := strings.CutPrefix(sc.Text(), "event: ")
		if ok && (ev == "done" || ev == "failed" || ev == "cancelled") {
			return ev, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", errNoTerminal
}

var errNoTerminal = errors.New("stream ended without a terminal event")

// pollDone polls a job's status until it is terminal.
func pollDone(ctx context.Context, client *http.Client, url string) (string, error) {
	for {
		resp, err := get(ctx, client, url, nil)
		if err != nil {
			return "", err
		}
		var st server.Status
		if err := json.Unmarshal(resp.body, &st); err != nil {
			return "", fmt.Errorf("status: %w", err)
		}
		if st.State.Terminal() {
			return string(st.State), nil
		}
		time.Sleep(time.Millisecond)
	}
}

// daemonTimings is what the clients measured over the passes it is given to.
type daemonTimings struct {
	mu       sync.Mutex
	jobs     []time.Duration // submit → done event
	reads    []time.Duration // /results and /trajectories GETs
	post     []time.Duration
	results  []time.Duration
	trajs    []time.Duration
	notMod   []time.Duration
	queue    []time.Duration // from the job's event trace (traced pass)
	runs     map[int][]time.Duration
	served   map[int][]byte // spec → first served results.ndjson
	attempts int
	failures []string
	// missingTerminal counts streams that ended without the job's
	// terminal event.
	missingTerminal int
}

func (t *daemonTimings) fail(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failures = append(t.failures, fmt.Sprintf(format, args...))
}

// jobEvents is GET /v1/jobs/{id}/events.
type jobEvents struct {
	Events []struct {
		Time time.Time `json:"time"`
		Name string    `json:"name"`
	} `json:"events"`
}

// runDaemonPass boots a fresh daemon, drives the job sequence through it
// from nproc closed-loop clients and stops it. It returns the time the
// clients took over the sequence and, for a traced pass, the daemon's
// /metrics text at the end.
func runDaemonPass(ctx context.Context, e *env, dir string, mix daemonMix, specs [][]byte, client *http.Client, tm *daemonTimings, traced bool) (wall time.Duration, scrape string, err error) {
	d, err := bootDaemon(ctx, dir, client)
	if err != nil {
		return 0, "", fmt.Errorf("booting daemon: %w", err)
	}
	defer d.stop()
	var root int
	if traced {
		root = e.tr.begin("daemon.pass", 0)
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < e.nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(mix.Sequence) {
					return
				}
				if err := driveJob(ctx, e, d.base, client, mix, specs, mix.Sequence[i], tm, traced, root); err != nil {
					tm.fail("job %d: %v", i, err)
				}
			}
		}()
	}
	wg.Wait()
	wall = time.Since(start)
	if traced {
		e.tr.end(root)
		resp, err := get(ctx, client, d.base+"/metrics", nil)
		if err != nil {
			return 0, "", err
		}
		scrape = string(resp.body)
	}
	client.CloseIdleConnections()
	return wall, scrape, nil
}

// driveJob submits one job of the sequence and follows it to its results.
func driveJob(ctx context.Context, e *env, base string, client *http.Client, mix daemonMix, specs [][]byte, k int, tm *daemonTimings, traced bool, root int) error {
	tm.mu.Lock()
	tm.attempts++
	tm.mu.Unlock()
	var body []byte
	if k < 0 {
		body = []byte(mix.Malformed[-1-k])
	} else {
		body = specs[k]
	}
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := do(ctx, client, req)
	t1 := time.Now()
	if err != nil {
		return err
	}
	if k < 0 {
		if resp.status < 400 || resp.status > 499 {
			return fmt.Errorf("malformed spec got status %d, want 4xx", resp.status)
		}
		return nil
	}
	if resp.status != http.StatusAccepted {
		return fmt.Errorf("submit: status %d: %s", resp.status, resp.body)
	}
	var st server.Status
	if err := json.Unmarshal(resp.body, &st); err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	job := base + "/v1/jobs/" + st.ID
	state, err := waitDone(ctx, client, job+"/stream")
	if errors.Is(err, errNoTerminal) {
		// The stream can end without its terminal event when the
		// subscription races the job's settle (a server defect). A
		// client then falls back to polling the job's status; the run's
		// record counts how often that happened.
		tm.mu.Lock()
		tm.missingTerminal++
		tm.mu.Unlock()
		state, err = pollDone(ctx, client, job)
	}
	t2 := time.Now()
	if err != nil {
		return err
	}
	if state != "done" {
		return fmt.Errorf("job %s ended %s", st.ID, state)
	}
	res, err := get(ctx, client, job+"/results", nil)
	t3 := time.Now()
	if err != nil {
		return err
	}
	trj, err := get(ctx, client, job+"/trajectories", nil)
	t4 := time.Now()
	if err != nil {
		return err
	}
	nm, err := get(ctx, client, job+"/results", http.Header{"If-None-Match": {res.etag}})
	t5 := time.Now()
	if err != nil {
		return err
	}
	if res.status != http.StatusOK || trj.status != http.StatusOK {
		return fmt.Errorf("results %d, trajectories %d", res.status, trj.status)
	}
	if nm.status != http.StatusNotModified {
		return fmt.Errorf("conditional results GET: status %d, want 304", nm.status)
	}

	var ev jobEvents
	if traced {
		r, err := get(ctx, client, job+"/events", nil)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(r.body, &ev); err != nil {
			return fmt.Errorf("events: %w", err)
		}
	}

	tm.mu.Lock()
	defer tm.mu.Unlock()
	if prev, ok := tm.served[k]; !ok {
		tm.served[k] = res.body
	} else if !bytes.Equal(prev, res.body) {
		tm.failures = append(tm.failures, fmt.Sprintf("job %s: results differ from an earlier job of the same spec", st.ID))
	}
	if !traced {
		tm.jobs = append(tm.jobs, t2.Sub(t0))
		tm.reads = append(tm.reads, t3.Sub(t2), t4.Sub(t3))
		return nil
	}
	tm.post = append(tm.post, t1.Sub(t0))
	tm.results = append(tm.results, t3.Sub(t2))
	tm.trajs = append(tm.trajs, t4.Sub(t3))
	tm.notMod = append(tm.notMod, t5.Sub(t4))
	js := e.tr.add("job", root, t0, t2)
	e.tr.add("http.post_jobs", js, t0, t1)
	e.tr.add("sse.wait", js, t1, t2)
	e.tr.add("http.results", js, t2, t3)
	e.tr.add("http.trajectories", js, t3, t4)
	e.tr.add("http.results_304", js, t4, t5)
	var queued, running, done, pointStart time.Time
	var points [][2]time.Time
	for _, x := range ev.Events {
		switch x.Name {
		case "queued":
			queued = x.Time
		case "running":
			running = x.Time
		case "point-start":
			pointStart = x.Time
		case "point":
			points = append(points, [2]time.Time{pointStart, x.Time})
		case "done":
			done = x.Time
		}
	}
	if done.IsZero() {
		// Status polling can see the job settled before its terminal
		// event joins the trace; the job then has no run span.
		return nil
	}
	e.tr.add("server.queue_wait", js, queued, running)
	run := e.tr.add("server.run", js, running, done)
	for _, p := range points {
		e.tr.add("server.point", run, p[0], p[1])
	}
	tm.queue = append(tm.queue, running.Sub(queued))
	tm.runs[k] = append(tm.runs[k], done.Sub(running))
	return nil
}

// scrapeValue sums the samples of a Prometheus family whose label set
// contains every given label pair.
func scrapeValue(text, family string, labels ...string) int64 {
	var sum float64
	for _, line := range strings.Split(text, "\n") {
		i := strings.LastIndexByte(line, ' ')
		if strings.HasPrefix(line, "#") || i < 0 {
			continue
		}
		name := line[:i] // label values may hold spaces; the value never does
		if name != family && !strings.HasPrefix(name, family+"{") {
			continue
		}
		ok := true
		for _, l := range labels {
			ok = ok && strings.Contains(name, l)
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); ok && err == nil {
			sum += v
		}
	}
	return int64(sum)
}

// daemonBoots is how many restarts set-up time is the median of.
const daemonBoots = 9

// runDaemonJobs is daemon-jobs: a closed loop of nproc clients submitting
// the seeded job mix to a fresh in-process cobrawalkd on every pass.
func runDaemonJobs(e *env) (*outcome, error) {
	ctx := context.Background()
	mix := daemonInputs(e.seed)
	specs := make([][]byte, len(mix.Specs))
	for i, s := range mix.Specs {
		blob, err := json.Marshal(s)
		if err != nil {
			return nil, err
		}
		specs[i] = blob
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * e.nproc}, Timeout: 60 * time.Second}
	defer client.CloseIdleConnections()

	o := &outcome{}
	for _, j := range mix.Sequence {
		if j >= 0 {
			o.jobsPer++
		}
	}
	seen := map[graphcache.Key]bool{}
	for _, s := range mix.Specs {
		pts, err := s.Points()
		if err != nil {
			return nil, err
		}
		for _, pt := range pts {
			k := graphcache.Key{Family: pt.Family, Size: pt.Size, Degree: pt.Degree, Seed: pt.GraphSeed}
			if !seen[k] {
				seen[k] = true
				o.workingSet += csrBytes(pt.Family, pt.Size, pt.Degree)
			}
			o.trialsPer += pt.Trials * daemonRepeats
		}
	}

	tm := &daemonTimings{runs: map[int][]time.Duration{}, served: map[int][]byte{}}
	passDir := func(i int) string { return filepath.Join(e.workDir, "daemon-"+strconv.Itoa(i)) }

	// One untimed pass first: the first pass of a process runs slower
	// while the heap and the page cache settle.
	warmDir := passDir(-1)
	warm := &daemonTimings{runs: map[int][]time.Duration{}, served: map[int][]byte{}}
	if _, _, err := runDaemonPass(ctx, e, warmDir, mix, specs, client, warm, false); err != nil {
		return nil, err
	}
	// Set-up is a daemon restart over the warm-up pass's data directory:
	// boot, recover its finished jobs as history, answer /v1/healthz.
	var err error
	o.setups, err = repeat(daemonBoots, func(int) error {
		d, err := bootDaemon(ctx, warmDir, client)
		if err != nil {
			return fmt.Errorf("booting daemon: %w", err)
		}
		d.stop()
		client.CloseIdleConnections()
		return nil
	})
	if err != nil {
		return nil, err
	}

	budget := e.budget
	if e.traced {
		budget /= 2
	}
	o.walls, err = measure(budget, 3, func(i int) (time.Duration, error) {
		wall, _, err := runDaemonPass(ctx, e, passDir(i), mix, specs, client, tm, false)
		return wall, err
	})
	if err != nil {
		return nil, err
	}
	var scrape string
	if e.traced {
		i := len(o.walls)
		wall, s, err := runDaemonPass(ctx, e, passDir(i), mix, specs, client, tm, true)
		if err != nil {
			return nil, err
		}
		o.traced = append(o.traced, wall)
		scrape = s
	}
	o.jobs, o.reads = tm.jobs, tm.reads
	o.notes = map[string]any{"stream_missing_terminal": tm.missingTerminal}
	o.attempted += tm.attempts
	o.failures = append(o.failures, tm.failures...)

	// Each distinct spec's served results must be byte-identical to
	// sweep.Run of that spec in-process.
	for k, s := range mix.Specs {
		dir := filepath.Join(e.workDir, "check-"+strconv.Itoa(k))
		o.attempted++
		if _, err := sweep.Run(ctx, s, sweep.Options{Dir: dir}); err != nil {
			o.fail("in-process sweep of spec %d: %v", k, err)
			continue
		}
		want, err := os.ReadFile(filepath.Join(dir, "results.ndjson"))
		if err != nil {
			return nil, err
		}
		o.check(bytes.Equal(want, tm.served[k]), "spec %d: served results differ from in-process sweep.Run", k)
	}

	if e.traced {
		if err := daemonLayers(ctx, e, o, mix, tm, scrape); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// daemonLayers fills the server, http and graph-cache metrics from the
// traced pass, and the graph, spectral, process, sim and stats metrics
// from a traced replica of the distinct specs (the layers the daemon
// reaches only inside sweep.Run).
func daemonLayers(ctx context.Context, e *env, o *outcome, mix daemonMix, tm *daemonTimings, scrape string) error {
	st := newReplicaStats()
	cache := graphcache.New(0)
	root := e.tr.begin("replica.run", 0)
	for k, s := range mix.Specs {
		results, err := replicaRun(ctx, e.tr, root, s, cache, replicaWorkers{trial: max(1, e.nproc/2), kernel: 1}, st)
		if err != nil {
			return err
		}
		got, err := encodeRecords(results)
		if err != nil {
			return err
		}
		o.attempted++
		o.check(bytes.Equal(got, tm.served[k]), "spec %d: traced replica records differ from served results", k)
	}
	e.tr.end(root)
	o.layers = replicaLayers(e.tr, st)
	o.layers["graph.builds"] = int64(len(e.tr.durations("graph.build")))
	o.layers["graph.build_s"] = e.tr.total("graph.build").Seconds()

	// sweep.other_s: a job's run time on the daemon minus the replica's
	// layer time for the same spec — admission, orchestration, persistence.
	var other []time.Duration
	for k, s := range mix.Specs {
		pts, err := s.Points()
		if err != nil {
			return err
		}
		var layers time.Duration
		for _, pt := range pts {
			layers += st.children[pointKey(pt)]
		}
		for _, r := range tm.runs[k] {
			other = append(other, r-layers)
		}
	}
	o.layers["sweep.other_s"] = median(other).Seconds()
	o.layers["sweep.point_p50_s"] = median(e.tr.durations("server.point")).Seconds()

	o.layers["http.post_jobs_p50_ms"] = ms(median(tm.post))
	o.layers["http.results_p50_ms"] = ms(median(tm.results))
	o.layers["http.trajectories_p50_ms"] = ms(median(tm.trajs))
	o.layers["http.results_304_p50_ms"] = ms(median(tm.notMod))
	o.layers["server.queue_wait_p50_ms"] = ms(median(tm.queue))
	var runs []time.Duration
	for _, r := range tm.runs {
		runs = append(runs, r...)
	}
	o.layers["server.run_p50_ms"] = ms(median(runs))
	o.layers["server.readcache.hits"] = scrapeValue(scrape, "cobrawalkd_results_cache_hits_total")
	o.layers["server.readcache.misses"] = scrapeValue(scrape, "cobrawalkd_results_cache_misses_total")
	o.layers["server.stream.dropped"] = scrapeValue(scrape, "cobrawalkd_stream_dropped_events_total")
	o.layers["server.rejected"] = scrapeValue(scrape, "cobrawalkd_http_requests_total", `route="POST /v1/jobs"`, `code="4`)
	hits := scrapeValue(scrape, "cobrawalkd_graphcache_hits_total")
	misses := scrapeValue(scrape, "cobrawalkd_graphcache_misses_total")
	o.layers["graphcache.hits"] = hits
	o.layers["graphcache.misses"] = misses
	o.layers["graphcache.disk_hits"] = scrapeValue(scrape, "cobrawalkd_graphcache_disk_hits_total")
	if hits+misses > 0 {
		o.layers["graphcache.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	return nil
}
