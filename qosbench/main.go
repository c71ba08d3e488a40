// Command qosbench is the repository's benchmark. It runs one named
// workload for a measuring window, checks the outputs, and prints every
// end-to-end metric (or, with -trace 1, every per-layer metric) with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"wall_s": {"value": 1.8, "unit": "s"}, ...}}
//
// Run it through run.sh from the repository root, which builds it first:
//
//	bash qosbench/run.sh --workload svc-mix --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads, the metrics and the
// layer map.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// def is one metric as BENCHMARK.json declares it.
type def struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndDefs lists the metrics a user of the system sees, printed by
// every untraced run. A bound is the share of the parent's median by which
// a change may worsen the metric. They are set from the run-to-run spread
// of ten runs (quartile distance over median) on a 2-vCPU virtual machine
// whose host's speed drifted by up to a quarter over minutes: up to 24%
// for wall times, rates and request medians (svc-mix's request median, as
// the host stole up to 62% of its busy CPU time), up to 20% for set-up, up
// to 12% for peak RSS. Request tails and monitor tick latencies moved by
// 30-50% between runs there, more than any bound allows, so they are
// reported but not gated: see tailDefs.
var endToEndDefs = []def{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"events_per_cpu_s", "1/s", "higher", 0.25},
	{"peak_rss_mib", "MiB", "lower", 0.2},
	{"req_p50_ms", "ms", "lower", 0.25},
}

// tailDefs are the latency figures every run prints beside the end-to-end
// metrics; traced runs report them as per-layer metrics.
var tailDefs = []def{
	{"req_p99_ms", "ms", "lower", 0},
	{"tick_p50_ms", "ms", "lower", 0},
	{"tick_p90_ms", "ms", "lower", 0},
}

// perLayerDefs lists the per-layer metrics every traced run prints. A layer
// a workload does not exercise reads 0.
var perLayerDefs = func() []def {
	out := append([]def(nil), tailDefs...)
	add := func(better, unit string, names ...string) {
		for _, n := range names {
			out = append(out, def{Name: n, Unit: unit, Better: better})
		}
	}
	add("lower", "s", "trace.generate_s")
	add("lower", "count", "trace.generated")
	add("lower", "MiB", "trace.resident_mib")
	add("lower", "s", "campaign.exec_s")
	add("lower", "count", "campaign.jobs", "sim.events")
	for _, kind := range []string{"baseline", "strategy"} {
		for _, mw := range []string{"BOINC", "XWHEP", "CONDOR"} {
			add("lower", "ns", "sim.ns_per_event."+kind+"."+mw)
		}
	}
	add("lower", "count", "sim.barriers")
	add("lower", "s", "sim.barrier_stall_s")
	add("lower", "ratio", "sim.shard_imbalance")
	add("lower", "s", "core.qos_cost_s.BOINC", "core.qos_cost_s.XWHEP", "core.qos_cost_s.CONDOR")
	add("lower", "s", "experiments.derive_s", "experiments.table2_s", "experiments.table5_s",
		"experiments.figures_s", "experiments.crowd_report_s")
	add("lower", "MiB", "go.alloc_mib")
	add("lower", "s", "go.gc_cpu_s")
	add("lower", "us", "service.gate_self_us.p50", "service.gate_self_us.p99")
	for _, m := range serviceModules {
		add("lower", "us", "service.handler_us."+m+".p50", "service.handler_us."+m+".p99")
	}
	for _, c := range requestClasses {
		add("higher", "count", "service.requests."+c)
	}
	add("lower", "count", "service.throttled", "service.errors")
	add("lower", "ms", "service.tick_self_ms.p50")
	add("lower", "count", "service.tick_internal_calls", "service.tick_batches")
	add("lower", "us", "emul.progress_batch_us.p50")
	add("lower", "count", "cloud.launches", "cloud.terminations")
	add("lower", "us", "cloud.driver_us.p50")
	add("lower", "ms", "gen.lateness_ms.p99")
	return out
}()

// workloads maps each workload name to its driver.
var workloads = map[string]func(*env) error{
	"quick-artifacts": quickArtifacts,
	"crowd2k-tiered":  crowdTiered,
	"svc-mix":         svcMix,
}

// Set-up repetitions; see env.setup.
const (
	setupMinSamples = 5
	setupMaxSamples = 1000
	setupBudget     = time.Second
	setupSampleMin  = 2 * time.Millisecond
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the benchmark's result line.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// provenance stamps every result with the host and the concurrency it ran
// at, so a number is never compared across machines by accident.
type provenance struct {
	Workload     string `json:"workload"`
	Seed         int64  `json:"seed"`
	Seconds      int    `json:"seconds"`
	Trace        bool   `json:"trace"`
	CPUModel     string `json:"cpu_model"`
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	Commit       string `json:"commit"`
	SourceDigest string `json:"source_digest"`
	Parallelism  int    `json:"campaign_parallelism"`
	KernelShards int    `json:"kernel_shards"`
	Connections  int    `json:"connections"`
	// StealShare is the share of this machine's busy CPU time its host
	// took during the run (0 where not reported). Wall-clock figures, tails
	// most, worsen with it.
	StealShare float64 `json:"host_steal_share"`
}

// env is one benchmark run: its settings and what it has measured and
// checked so far.
type env struct {
	root, state string
	seed        int64
	window      time.Duration
	nproc       int
	tr          *tracer // nil on untraced runs
	prov        provenance
	log         io.Writer

	attempted, failed int64
	correct           bool
	checks            []*checkRec
	e2e, layers       map[string]metric
}

// setup times the workload's set-up and reports the median as setup_s.
// build performs one complete set-up and returns what releases it (nil if
// nothing needs releasing); the last build's state is the one the run uses,
// every other is released outside the timing.
//
// A sample starts from a collected heap and times k back-to-back set-ups,
// k doubling until a sample lasts setupSampleMin: a set-up of tens of
// microseconds timed alone mostly measures the caches the collection left
// cold, which differ from run to run. Samples are taken
// until setupBudget has been spent (at least setupMinSamples, at most
// setupMaxSamples) and the median per-set-up time is reported.
func (e *env) setup(build func() (release func())) {
	var held []func()
	releaseHeld := func() {
		for _, r := range held {
			if r != nil {
				r()
			}
		}
		held = held[:0]
	}
	sample := func(k int) time.Duration {
		releaseHeld()
		runtime.GC()
		start := time.Now()
		for j := 0; j < k; j++ {
			held = append(held, build())
		}
		return time.Since(start)
	}
	k := 1
	for sample(k) < setupSampleMin && k < 1<<16 {
		k *= 2
	}
	var secs []float64
	var spent time.Duration
	for len(secs) < setupMinSamples || (spent < setupBudget && len(secs) < setupMaxSamples) {
		d := sample(k)
		spent += d
		secs = append(secs, d.Seconds()/float64(k))
	}
	held = held[:len(held)-1] // the run keeps the last set-up
	releaseHeld()
	e.endToEnd("setup_s", median(secs), "s")
	fmt.Fprintf(e.log, "setup: median of %d samples of %d set-up(s) each\n", len(secs), k)
}

// passes calls pass until the measuring window has elapsed, at least once.
func (e *env) passes(pass func() error) error {
	deadline := time.Now().Add(e.window)
	for first := true; first || time.Now().Before(deadline); first = false {
		if err := pass(); err != nil {
			return err
		}
	}
	return nil
}

// checkRec tallies one named output check over the run.
type checkRec struct {
	name         string
	runs, failed int
	detail       string // of the last failure, else of the last run
}

// check records one output check. A failed check makes the run incorrect.
// Checks repeated per pass are tallied under their name and printed once.
func (e *env) check(name string, ok bool, detail string) {
	e.attempted++
	var c *checkRec
	for _, have := range e.checks {
		if have.name == name {
			c = have
		}
	}
	if c == nil {
		c = &checkRec{name: name}
		e.checks = append(e.checks, c)
	}
	c.runs++
	if !ok {
		e.failed++
		e.correct = false
		c.failed++
		c.detail = detail
	} else if c.failed == 0 {
		c.detail = detail
	}
}

func (e *env) printChecks() {
	for _, c := range e.checks {
		state := "ok"
		if c.failed > 0 {
			state = "FAILED"
		}
		fmt.Fprintf(e.log, "check %s: %s (%d of %d runs failed; %s)\n", state, c.name, c.failed, c.runs, c.detail)
	}
}

// ops records n attempted operations (jobs, batches, requests, ticks) of
// which failed did not succeed.
func (e *env) ops(name string, n, failed int64) {
	e.attempted += n
	e.failed += failed
	fmt.Fprintf(e.log, "ops %s: %d attempted, %d failed\n", name, n, failed)
}

func (e *env) note(msg string) { fmt.Fprintln(e.log, "note:", msg) }

func (e *env) endToEnd(name string, v float64, unit string) {
	e.e2e[name] = metric{Value: v, Unit: unit}
}

// value is a measured metric by name, end-to-end or per-layer.
func (e *env) value(name string) float64 {
	if m, ok := e.e2e[name]; ok {
		return m.Value
	}
	return e.layers[name].Value
}

func (e *env) layer(name string, v float64, unit string) {
	e.layers[name] = metric{Value: v, Unit: unit}
}

// latency reports prefix_p50_ms and the tail percentile under the name of
// the wanted percentile. Each slice of samples (a pass, or a stretch of the
// offered window) gets its own median and tail percentile, and the medians
// across slices are reported, so one disturbed slice cannot move the
// figure. It prints which percentile the tail rule allowed and over how
// many samples.
func (e *env) latency(prefix string, slices [][]float64, want float64) {
	var p50s, tails []float64
	var t tail
	for _, ms := range slices {
		if len(ms) == 0 {
			continue
		}
		t = tailPercentile(ms, want)
		p50s = append(p50s, median(ms))
		tails = append(tails, t.Value)
	}
	for _, m := range []struct {
		name string
		v    float64
	}{{prefix + "_p50_ms", median(p50s)}, {fmt.Sprintf("%s_p%d_ms", prefix, int(want*100+0.5)), median(tails)}} {
		if isEndToEnd(m.name) {
			e.endToEnd(m.name, m.v, "ms")
		} else {
			e.layer(m.name, m.v, "ms")
		}
		fmt.Fprintf(e.log, "latency %s = %.6g ms: median over %d slice(s); last slice: %s\n", m.name, m.v, len(tails), t)
	}
}

func isEndToEnd(name string) bool {
	for _, d := range endToEndDefs {
		if d.Name == name {
			return true
		}
	}
	return false
}

// noteDigest prints the output digest and requires it to equal the digest
// earlier runs of the same sources recorded in this checkout.
func (e *env) noteDigest(d string) {
	fmt.Fprintln(e.log, "output digest:", d)
	path := filepath.Join(e.state, fmt.Sprintf("digest-%s-%.16s.txt", e.prov.Workload, e.prov.SourceDigest))
	prev, err := os.ReadFile(path)
	if err != nil {
		if werr := os.WriteFile(path, []byte(d), 0o644); werr != nil {
			fmt.Fprintln(os.Stderr, "qosbench: recording digest:", werr)
		}
		e.check("output digest recorded as the reference for this checkout", true, path)
		return
	}
	e.check("output digest equals earlier runs of these sources", string(prev) == d, string(prev))
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: quick-artifacts, crowd2k-tiered or svc-mix")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 20, "measuring window in seconds")
		trace    = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
		root     = flag.String("root", ".", "repository checkout to read golden files and sources from")
		state    = flag.String("state", ".bench_build", "directory for digests, spans and results")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *root, *state, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "qosbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds, trace int, root, state string, stdout io.Writer) error {
	drive, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	if err := os.MkdirAll(state, 0o755); err != nil {
		return err
	}
	src, err := sourceDigest(root, state)
	if err != nil {
		return err
	}
	e := &env{
		root: root, state: state, seed: seed,
		window: time.Duration(seconds) * time.Second,
		nproc:  runtime.NumCPU(),
		log:    stdout,
		prov: provenance{
			Workload: workload, Seed: seed, Seconds: seconds, Trace: trace == 1,
			CPUModel: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), Commit: commit(), SourceDigest: src,
		},
		correct: true,
		e2e:     map[string]metric{},
		layers:  map[string]metric{},
	}
	if trace == 1 {
		e.tr = newTracer()
	}
	j0 := readJiffies()
	if err := drive(e); err != nil {
		return err
	}
	e.prov.StealShare = readJiffies().stolenSince(j0)
	e.endToEnd("peak_rss_mib", peakRSSMiB(), "MiB")
	e.printChecks()
	fmt.Fprintf(e.log, "failed_share: %.6g (%d of %d)\n", float64(e.failed)/float64(max(e.attempted, 1)), e.failed, e.attempted)
	for _, d := range endToEndDefs {
		if _, ok := e.e2e[d.Name]; !ok {
			return fmt.Errorf("workload %s did not measure %s", workload, d.Name)
		}
	}
	prov, _ := json.Marshal(e.prov) // plain struct, always marshals
	fmt.Fprintf(e.log, "provenance: %s\n", prov)

	out := outcome{Correct: e.correct, Attempted: e.attempted, Failed: e.failed, Metrics: map[string]metric{}}
	tag := fmt.Sprintf("%s-seed%d-trace%d", workload, seed, trace)
	if e.tr != nil {
		for _, d := range perLayerDefs {
			m, ok := e.layers[d.Name]
			if !ok {
				m = metric{Unit: d.Unit}
			}
			out.Metrics[d.Name] = m
		}
		printSelfTimes(e.log, e.tr.snapshot())
		printOverhead(e, filepath.Join(state, "last-"+workload+".json"))
		if err := e.tr.write(filepath.Join(state, "spans-"+tag+".jsonl")); err != nil {
			return err
		}
	} else {
		for _, d := range endToEndDefs {
			out.Metrics[d.Name] = e.e2e[d.Name]
		}
		if err := writeJSON(filepath.Join(state, "last-"+workload+".json"), e.e2e); err != nil {
			return err
		}
	}
	printMetrics(e.log, out.Metrics)
	if err := writeJSON(filepath.Join(state, "result-"+tag+".json"), struct {
		Provenance provenance `json:"provenance"`
		outcome
	}{e.prov, out}); err != nil {
		return err
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintln(e.log, string(line))
	return nil
}

func printMetrics(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "metric %-40s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// printSelfTimes prints, per span name, the count, total time and self
// time (time not covered by child spans).
func printSelfTimes(w io.Writer, spans []span) {
	total := byName(spans, nil)
	self := byName(spans, selfTimes(spans))
	names := make([]string, 0, len(total))
	for n := range total {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "spans: %-44s %8s %12s %12s\n", "name", "count", "total_s", "self_s")
	for _, n := range names {
		fmt.Fprintf(w, "spans: %-44s %8d %12.6f %12.6f\n", n, len(total[n]), sum(total[n]), sum(self[n]))
	}
}

// printOverhead prints the traced run's end-to-end metrics minus those of
// the last untraced run of the workload in this checkout.
func printOverhead(e *env, lastPath string) {
	b, err := os.ReadFile(lastPath)
	var last map[string]metric
	if err == nil {
		err = json.Unmarshal(b, &last)
	}
	if err != nil {
		fmt.Fprintln(e.log, "tracing overhead: no untraced run of this workload recorded in", e.state)
		return
	}
	for _, d := range endToEndDefs {
		t, u := e.e2e[d.Name].Value, last[d.Name].Value
		rel := 0.0
		if u != 0 {
			rel = 100 * (t - u) / u
		}
		fmt.Fprintf(e.log, "tracing overhead %-18s traced %12.6g untraced %12.6g diff %+12.6g %s (%+.1f%%)\n",
			d.Name, t, u, t-u, d.Unit, rel)
	}
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// rtSample is the Go runtime's cumulative allocation and GC CPU counters.
type rtSample struct{ allocBytes, gcCPU float64 }

func readRuntime() rtSample {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rtmetrics.Read(s)
	return rtSample{allocBytes: float64(s[0].Value.Uint64()), gcCPU: s[1].Value.Float64()}
}

// jiffies is the machine's stolen CPU time and its busy CPU time (every
// state but idle and iowait, steal included), from the first line of
// /proc/stat (zeros where it is unavailable).
type jiffies struct{ steal, busy uint64 }

func readJiffies() jiffies {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return jiffies{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal [guest guest_nice]:
	// guest time is already counted in user.
	var j jiffies
	for i := 1; i < len(fields) && i <= 8; i++ {
		var v uint64
		if _, err := fmt.Sscan(fields[i], &v); err != nil {
			return jiffies{}
		}
		switch i {
		case 4, 5: // idle, iowait
		case 8:
			j.steal = v
			j.busy += v
		default:
			j.busy += v
		}
	}
	return j
}

// stolenSince is the share of the machine's busy CPU time since prev that
// its host stole: a vCPU accrues steal only while it has work, so idle time
// does not dilute the figure.
func (j jiffies) stolenSince(prev jiffies) float64 {
	if j.busy <= prev.busy {
		return 0
	}
	return float64(j.steal-prev.steal) / float64(j.busy-prev.busy)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the VCS revision the binary was built from, when the build saw
// one; a checkout without version control reads "unknown", and the source
// digest identifies the code instead.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+modified"
			}
		}
	}
	return rev + dirty
}

// sourceDigest hashes the checkout's Go sources and module files, skipping
// hidden directories and the state directory.
func sourceDigest(root, state string) (string, error) {
	absState, _ := filepath.Abs(state)
	h := sha256.New()
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			abs, _ := filepath.Abs(path)
			if path != root && (strings.HasPrefix(d.Name(), ".") || abs == absState) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("hashing sources: %w", err)
	}
	sort.Strings(paths)
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return "", err
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
	}
	if len(paths) == 0 {
		return "", errors.New("no Go sources under " + root)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
