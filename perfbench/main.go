// Command perfbench is the repository benchmark. It runs one of four
// workloads — a sweep ensemble on 2^14-vertex expanders, single trials on
// a 2^21-vertex stored graph, the E1–E15 paper suite, and a closed loop of
// clients against an in-process cobrawalkd — checks the outputs, and
// prints every metric declared in BENCHMARK.json by name and unit.
//
// Run it from the repository root through its build wrapper:
//
//	bash perfbench/run.sh --workload daemon-jobs --seed 3 --seconds 12 --trace 0
//
// With --trace 0 the last line of standard output carries the end-to-end
// metrics; with --trace 1 it carries the per-layer metrics of a traced run,
// whose spans are written to $CARGO_TARGET_DIR/perfbench-out (default
// .bench_build). See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// config is the part of BENCHMARK.json the benchmark reads: the declared
// metrics, so the printed result always matches the file.
type config struct {
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// metric is one printed value. Value holds an int64 for counts and a
// float64 for measured quantities.
type metric struct {
	Value any    `json:"value"`
	Unit  string `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload receives.
type env struct {
	seed    uint64
	budget  time.Duration // how long the measured passes run
	traced  bool
	nproc   int
	workDir string  // scratch space for this run, removed at exit
	tr      *tracer // nil in untraced runs
}

// outcome is what a workload reports back; main turns it into metrics.
type outcome struct {
	setups     []time.Duration // each set-up repetition
	walls      []time.Duration // untraced passes over the fixed work
	jobs       []time.Duration // per-job latency over the untraced passes
	jobsPer    int             // jobs in one pass
	trialsPer  int             // Monte-Carlo trials in one pass
	reads      []time.Duration // result reads (daemon-jobs)
	traced     []time.Duration // traced passes (traced runs only)
	attempted  int
	failures   []string
	layers     map[string]any // per-layer metrics measured by the workload
	workingSet int64          // computed bytes of the graphs the work touches (0 = not computed)
	notes      map[string]any // extra machine-record fields
}

func (o *outcome) fail(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// check records one output check on one operation.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.fail(format, args...)
	}
}

var workloads = map[string]func(*env) (*outcome, error){
	"ensemble-expander": runEnsemble,
	"large-graph":       runLargeGraph,
	"paper-suite":       runPaperSuite,
	"daemon-jobs":       runDaemonJobs,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workload = flag.String("workload", "", "workload name (see BENCHMARK.json)")
		seed     = flag.Uint64("seed", 1, "workload seed: generates every input")
		seconds  = flag.Int("seconds", 10, "how long the measured passes run")
		trace    = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	)
	flag.Parse()
	blob, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var cfg config
	if err := json.Unmarshal(blob, &cfg); err != nil {
		return fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	fn, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}

	buildDir := os.Getenv("CARGO_TARGET_DIR") // set by run.sh; the checkout's build area
	if buildDir == "" {
		buildDir = ".bench_build"
	}
	outDir := filepath.Join(buildDir, "perfbench-out")
	workDir := filepath.Join(buildDir, "perfbench-work", fmt.Sprintf("%s-%d", *workload, os.Getpid()))
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	// Everything a run writes stays until it exits: deleting while passes
	// run would put the file system's clean-up work into the timings.
	defer os.RemoveAll(workDir)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}

	e := &env{
		seed:    *seed,
		budget:  time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		nproc:   runtime.NumCPU(),
		workDir: workDir,
	}
	if e.traced {
		e.tr = newTracer()
	}

	o, err := fn(e)
	if err != nil {
		return fmt.Errorf("%s: %w", *workload, err)
	}
	if err := selfTestInputs(e.seed); err != nil {
		o.fail("input self-test: %v", err)
	}

	failed := len(o.failures)
	attempted := o.attempted
	if attempted < failed {
		attempted = failed
	}
	if attempted < 1 {
		attempted = 1
	}
	for _, f := range o.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}

	values := endToEnd(o)
	decls := cfg.EndToEnd
	if e.traced {
		values = perLayer(o, attempted, failed)
		decls = cfg.PerLayer
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, d := range decls {
		v, ok := values[d.Name]
		if !ok {
			v = int64(0) // the workload does not reach this layer
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	for name := range values {
		if !declared(decls, name) {
			return fmt.Errorf("metric %q is measured but not declared in BENCHMARK.json", name)
		}
	}

	tag := fmt.Sprintf("%s-seed%d-trace%d", *workload, *seed, *trace)
	rec := machineRecord(e, *workload, o)
	if e.tr != nil {
		path := filepath.Join(outDir, "spans-"+tag+".json")
		if err := e.tr.write(path); err != nil {
			return err
		}
		rec["spans_file"] = path
	}
	if err := writeJSON(filepath.Join(outDir, "result-"+tag+".json"), map[string]any{"record": rec, "result": res}); err != nil {
		return err
	}
	recLine, err := json.Marshal(map[string]any{"record": rec})
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(recLine))
	fmt.Println(string(line))
	return nil
}

func declared(decls []metricDecl, name string) bool {
	for _, d := range decls {
		if d.Name == name {
			return true
		}
	}
	return false
}

// endToEnd derives the end-to-end metrics of an untraced run.
func endToEnd(o *outcome) map[string]any {
	wall := median(o.walls).Seconds()
	m := map[string]any{
		"setup_s":     median(o.setups).Seconds(),
		"wall_s":      wall,
		"jobs_per_s":  float64(o.jobsPer) / wall,
		"job_p50_ms":  ms(median(o.jobs)),
		"job_tail_ms": ms(tail(o.jobs).value),
		"peak_rss_mb": peakRSSMiB(),
	}
	return m
}

// perLayer derives the per-layer metrics of a traced run: the workload's
// own layer numbers plus the rates and overheads every workload shares.
func perLayer(o *outcome, attempted, failed int) map[string]any {
	m := map[string]any{}
	for k, v := range o.layers {
		m[k] = v
	}
	m["error_rate"] = float64(failed) / float64(attempted)
	if len(o.walls) > 0 && len(o.traced) > 0 {
		m["trace_overhead_s"] = (median(o.traced) - median(o.walls)).Seconds()
	}
	if o.trialsPer > 0 && len(o.walls) > 0 {
		m["trials_per_s"] = float64(o.trialsPer) / median(o.walls).Seconds()
	}
	if len(o.reads) > 0 {
		m["read_p50_ms"] = ms(median(o.reads))
		m["read_tail_ms"] = ms(tail(o.reads).value)
	}
	return m
}

// machineRecord is written beside the metrics so that numbers from
// different machines are never compared.
func machineRecord(e *env, workload string, o *outcome) map[string]any {
	l2, llc := cacheSizes()
	rec := map[string]any{
		"workload":      workload,
		"seed":          e.seed,
		"traced":        e.traced,
		"nproc":         e.nproc,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
		"l2_bytes":      l2,
		"llc_bytes":     llc,
		"passes":        len(o.walls),
		"pass_walls_s":  seconds(o.walls),
		"traced_passes": len(o.traced),
		"setup_reps":    len(o.setups),
	}
	if o.workingSet > 0 {
		rec["working_set_bytes"] = o.workingSet
	} else {
		rec["working_set_bytes"] = nil
	}
	jt := tail(o.jobs)
	rec["job_samples"] = len(o.jobs)
	rec["job_tail_percentile"] = jt.pct
	if len(o.reads) > 0 {
		rt := tail(o.reads)
		rec["read_samples"] = len(o.reads)
		rec["read_tail_percentile"] = rt.pct
	}
	for k, v := range o.notes {
		rec[k] = v
	}
	if len(o.failures) > 0 {
		rec["failures"] = o.failures
	}
	return rec
}

// cacheSizes reads the L2 and last-level cache sizes of CPU 0 from sysfs;
// 0 when unavailable.
func cacheSizes() (l2, llc int64) {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	best := 0
	for _, d := range dirs {
		lv, err1 := os.ReadFile(filepath.Join(d, "level"))
		sz, err2 := os.ReadFile(filepath.Join(d, "size"))
		typ, err3 := os.ReadFile(filepath.Join(d, "type"))
		if err1 != nil || err2 != nil || err3 != nil || string(trim(typ)) == "Instruction" {
			continue
		}
		level, err := strconv.Atoi(string(trim(lv)))
		if err != nil {
			continue
		}
		bytes := parseSize(string(trim(sz)))
		if level == 2 {
			l2 = bytes
		}
		if level >= best {
			best, llc = level, bytes
		}
	}
	return l2, llc
}

func trim(b []byte) []byte {
	for len(b) > 0 && (b[len(b)-1] == '\n' || b[len(b)-1] == ' ') {
		b = b[:len(b)-1]
	}
	return b
}

func parseSize(s string) int64 {
	mult := int64(1)
	switch {
	case len(s) > 0 && s[len(s)-1] == 'K':
		mult, s = 1<<10, s[:len(s)-1]
	case len(s) > 0 && s[len(s)-1] == 'M':
		mult, s = 1<<20, s[:len(s)-1]
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0
	}
	return v * mult
}

// peakRSSMiB is the process's peak resident set size in MiB.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func writeJSON(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// measure runs pass until budget has elapsed, at least min times, and
// returns the duration each pass measured (pass leaves its own
// preparation and checks out of it).
func measure(budget time.Duration, min int, pass func(i int) (time.Duration, error)) ([]time.Duration, error) {
	var walls []time.Duration
	start := time.Now()
	for i := 0; i < min || time.Since(start) < budget; i++ {
		d, err := pass(i)
		if err != nil {
			return nil, err
		}
		walls = append(walls, d)
	}
	return walls, nil
}

// repeat times fn n times, collecting garbage after each call so that
// one repetition's leftovers never inflate the next one's peak memory.
func repeat(n int, fn func(i int) error) ([]time.Duration, error) {
	out := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		t := time.Now()
		if err := fn(i); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t))
		runtime.GC()
	}
	return out, nil
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(ds []time.Duration) time.Duration { return quantile(ds, 0.5) }

// quantile is the nearest-rank q-quantile of ds (0 for an empty slice).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(q*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// tailPercentiles is the ladder the tail latency is read from.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

type tailValue struct {
	pct   float64
	value time.Duration
}

// tail is the highest percentile of the ladder with at least ten samples
// beyond it; with fewer than twenty samples it falls back to the median
// (recorded as percentile 50).
func tail(ds []time.Duration) tailValue {
	n := len(ds)
	for _, p := range tailPercentiles {
		rank := int(p/100*float64(n) + 0.999999)
		if n-rank >= 10 {
			return tailValue{pct: p, value: quantile(ds, p/100)}
		}
	}
	return tailValue{pct: 50, value: median(ds)}
}
