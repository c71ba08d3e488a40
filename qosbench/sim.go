package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"spequlos/internal/campaign"
	"spequlos/internal/core"
	"spequlos/internal/experiments"
)

// simPlan is one simulation workload as the benchmark drives it: the jobs
// of one campaign, how many run at once, and the derivation that turns the
// filled store into the workload's artifacts.
type simPlan struct {
	jobs        []campaign.Job
	parallelism int
	// pairRequests makes one request of each middleware's cells together
	// (a crowd row needs its strategy cell and the paired baseline) instead
	// of one per job: six crowd cells are too few, and their baselines too
	// short, for a steady per-job median.
	pairRequests bool
	// derive builds the artifacts from the store. It returns their rendered
	// text (part of the output digest) and the time spent per derivation
	// step, keyed by per-layer metric name.
	derive func(store *campaign.ResultStore, parent int) (renders []string, steps map[string]time.Duration, err error)
	// check verifies one pass's outputs.
	check func(e *env, store *campaign.ResultStore) error
}

// jobRun is one campaign.Execute call: the job, its entry and its span.
type jobRun struct {
	job        campaign.Job
	entry      campaign.Entry
	start, end time.Time
}

// simPass is what one pass of a simulation workload measured.
type simPass struct {
	// wall is the pass's clock time; steal the share of the machine's busy
	// CPU time its host stole meanwhile, printed beside it.
	wall, steal float64

	cpu        float64
	events     uint64
	runs       []jobRun
	genSec     float64
	generated  int
	residentB  int64
	execSec    float64
	deriveSec  float64
	steps      map[string]time.Duration
	allocB     float64
	gcCPU      float64
	digest     string
	incomplete int
}

// shuffled returns the jobs in a seed-determined order. Results are a pure
// function of each job, so the order changes only how the work interleaves
// (trace-cache reuse, which jobs run side by side), never the outputs.
func shuffled(jobs []campaign.Job, seed int64) []campaign.Job {
	out := append([]campaign.Job(nil), jobs...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// coldStart empties the shared trace cache, as a fresh CLI process starts:
// dropping the budget evicts every unpinned trace, then the default budget
// is restored.
func coldStart() {
	campaign.SetTraceBudget(1)
	campaign.SetTraceBudget(0)
}

// runSimWorkload runs passes of sp until the measuring window closes and
// reports the workload's metrics.
func runSimWorkload(e *env, sp *simPlan) error {
	var passes []simPass
	err := e.passes(func() error {
		ps, err := runSimPass(e, sp)
		if err != nil {
			return err
		}
		passes = append(passes, ps)
		return nil
	})
	if err != nil {
		return err
	}
	for _, ps := range passes {
		e.check("every pass's output digest equals the first pass's", ps.digest == passes[0].digest, ps.digest)
	}
	e.noteDigest(passes[0].digest)
	reportSim(e, sp, passes)
	return nil
}

// runSimPass is one complete pass: cold trace cache, every job executed
// into an empty store on sp.parallelism workers, then derivation. With
// tracing on, the plan's traces are first generated through CachedTrace in
// a span of their own, so the job spans measure simulation alone.
func runSimPass(e *env, sp *simPlan) (simPass, error) {
	var ps simPass
	coldStart()
	runtime.GC() // a pass starts from a collected heap, as a fresh CLI run does
	store := campaign.NewResultStore()
	rt0 := readRuntime()
	cpu0 := campaign.ProcessCPUSeconds()
	j0 := readJiffies()
	t0 := time.Now()
	root := e.tr.start("pass", 0)

	if e.tr != nil {
		gen := e.tr.start("trace.generate", root)
		g0 := time.Now()
		n, err := prewarmTraces(sp.jobs, sp.parallelism)
		if err != nil {
			return ps, err
		}
		ps.genSec = time.Since(g0).Seconds()
		ps.generated = n
		ps.residentB = campaign.TraceCacheStats().ResidentBytes
		e.tr.finish(gen)
	}

	exec := e.tr.start("campaign.exec", root)
	x0 := time.Now()
	ps.runs = executeJobs(e, sp.jobs, sp.parallelism, store, exec)
	ps.execSec = time.Since(x0).Seconds()
	e.tr.finish(exec)

	der := e.tr.start("experiments.derive", root)
	d0 := time.Now()
	renders, steps, err := sp.derive(store, der)
	if err != nil {
		return ps, err
	}
	ps.deriveSec = time.Since(d0).Seconds()
	ps.steps = steps
	e.tr.finish(der)
	e.tr.finish(root)

	ps.wall = time.Since(t0).Seconds()
	ps.steal = readJiffies().stolenSince(j0)
	ps.cpu = campaign.ProcessCPUSeconds() - cpu0
	rt1 := readRuntime()
	ps.allocB = rt1.allocBytes - rt0.allocBytes
	ps.gcCPU = rt1.gcCPU - rt0.gcCPU
	for _, r := range ps.runs {
		ps.events += r.entry.Result.Events
	}

	// Everything below is checking, outside the timed pass.
	for _, r := range ps.runs {
		if !r.entry.Result.Completed && len(r.entry.Result.Batches) == 0 {
			ps.incomplete++
		}
	}
	ps.digest = outputDigest(store, sp.jobs, renders)
	if err := sp.check(e, store); err != nil {
		return ps, err
	}
	return ps, nil
}

// prewarmTraces generates every distinct trace the jobs start from into the
// shared cache on `workers` goroutines, as many as untraced passes generate
// traces on inside their jobs, and returns how many it generated. Each pin
// is released at once; the default budget keeps the traces resident for
// the jobs.
func prewarmTraces(jobs []campaign.Job, workers int) (int, error) {
	seen := map[string]bool{}
	var todo []campaign.Scenario
	for _, j := range jobs {
		sc := j.Scenario
		key := fmt.Sprintf("%s/%d/%g/%d", sc.TraceName, sc.Seed(), traceHorizon(sc), sc.Profile.PoolCap)
		if !seen[key] {
			seen[key] = true
			todo = append(todo, sc)
		}
	}
	next := make(chan campaign.Scenario)
	errs := make(chan error, len(todo))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sc := range next {
				_, release, err := campaign.CachedTrace(sc, traceHorizon(sc))
				if err != nil {
					errs <- fmt.Errorf("trace %s: %w", sc.TraceName, err)
					continue
				}
				release()
			}
		}()
	}
	for _, sc := range todo {
		next <- sc
	}
	close(next)
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return 0, err
	}
	return len(todo), nil
}

func traceHorizon(sc campaign.Scenario) float64 { return sc.Profile.HorizonDays * 86400 }

// executeJobs runs every job through campaign.Execute on `workers`
// goroutines, in the given order, and stores each entry — the worker pool
// of campaign.Campaign.Run, with a span around each call.
func executeJobs(e *env, jobs []campaign.Job, workers int, store *campaign.ResultStore, parent int) []jobRun {
	runs := make([]jobRun, len(jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				id := e.tr.start(jobSpanName(jobs[i]), parent)
				start := time.Now()
				entry := campaign.Execute(jobs[i])
				runs[i] = jobRun{job: jobs[i], entry: entry, start: start, end: time.Now()}
				e.tr.finish(id)
				store.Put(entry)
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	return runs
}

// jobKind is "strategy" for jobs that run the SpeQuloS service (and so the
// QoS monitor loop) and "baseline" for the rest.
func jobKind(j campaign.Job) string {
	if j.Scenario.Strategy != nil || j.Config != nil {
		return "strategy"
	}
	return "baseline"
}

func jobSpanName(j campaign.Job) string {
	return "sim.job." + jobKind(j) + "." + j.Scenario.Middleware
}

// outputDigest hashes every stored entry, in job-key order, with the
// execution-only kernel counters zeroed, followed by the rendered
// artifacts: equal digests mean byte-identical outputs.
func outputDigest(store *campaign.ResultStore, jobs []campaign.Job, renders []string) string {
	keys := make([]string, 0, len(jobs))
	for _, j := range jobs {
		keys = append(keys, j.Key())
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		ent, ok := store.Get(k)
		if !ok {
			fmt.Fprintf(h, "missing %s\n", k)
			continue
		}
		ent.Result.KernelShards, ent.Result.Barriers = 0, 0
		ent.Result.ShardEvents, ent.Result.BarrierStallSec = nil, 0
		b, _ := json.Marshal(ent) // an Entry always marshals
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	for _, r := range renders {
		h.Write([]byte(r))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// reportSim turns the passes into the workload's end-to-end and per-layer
// metrics.
func reportSim(e *env, sp *simPlan, passes []simPass) {
	per := func(f func(simPass) float64) float64 {
		xs := make([]float64, len(passes))
		for i, ps := range passes {
			xs[i] = f(ps)
		}
		return median(xs)
	}
	var jobs, incomplete int64
	reqMs := make([][]float64, len(passes)) // one slice per pass
	tickMs := make([][]float64, len(passes))
	for i, ps := range passes {
		jobs += int64(len(ps.runs))
		incomplete += int64(ps.incomplete)
		pairs := map[string]float64{}
		for _, r := range ps.runs {
			ms := float64(r.end.Sub(r.start).Nanoseconds()) / 1e6
			if sp.pairRequests {
				pairs[r.job.Scenario.Middleware] += ms
			} else {
				reqMs[i] = append(reqMs[i], ms)
			}
			if jobKind(r.job) == "strategy" {
				tickMs[i] = append(tickMs[i], ms)
			}
		}
		for _, ms := range pairs {
			reqMs[i] = append(reqMs[i], ms)
		}
	}
	e.ops("simulation jobs completed", jobs, incomplete)

	e.endToEnd("wall_s", per(func(ps simPass) float64 { return ps.wall }), "s")
	fmt.Fprintf(e.log, "wall: median %.4g s; host steal share of busy CPU time during a pass, median %.3g\n",
		e.value("wall_s"), per(func(ps simPass) float64 { return ps.steal }))
	e.endToEnd("events_per_cpu_s", per(func(ps simPass) float64 { return float64(ps.events) / ps.cpu }), "1/s")
	e.latency("req", reqMs, 0.99)
	e.latency("tick", tickMs, 0.90)
	if sp.pairRequests {
		e.note("req_* time each middleware's crowd row (strategy cell plus paired baseline); tick_* time the cells that run the QoS monitor")
	} else {
		e.note("req_* time each campaign.Execute call (one simulation job); tick_* time the jobs that run the QoS monitor")
	}

	e.layer("trace.generate_s", per(func(ps simPass) float64 { return ps.genSec }), "s")
	e.layer("trace.generated", per(func(ps simPass) float64 { return float64(ps.generated) }), "count")
	e.layer("trace.resident_mib", per(func(ps simPass) float64 { return float64(ps.residentB) / (1 << 20) }), "MiB")
	e.layer("campaign.exec_s", per(func(ps simPass) float64 { return ps.execSec }), "s")
	e.layer("campaign.jobs", per(func(ps simPass) float64 { return float64(len(ps.runs)) }), "count")
	e.layer("sim.events", per(func(ps simPass) float64 { return float64(ps.events) }), "count")
	e.layer("experiments.derive_s", per(func(ps simPass) float64 { return ps.deriveSec }), "s")
	for _, name := range []string{"experiments.table2_s", "experiments.table5_s", "experiments.figures_s", "experiments.crowd_report_s"} {
		e.layer(name, per(func(ps simPass) float64 { return ps.steps[name].Seconds() }), "s")
	}
	e.layer("go.alloc_mib", per(func(ps simPass) float64 { return ps.allocB / (1 << 20) }), "MiB")
	e.layer("go.gc_cpu_s", per(func(ps simPass) float64 { return ps.gcCPU }), "s")

	e.layer("sim.barriers", per(func(ps simPass) float64 {
		var n uint64
		for _, r := range ps.runs {
			n += r.entry.Result.Barriers
		}
		return float64(n)
	}), "count")
	e.layer("sim.barrier_stall_s", per(func(ps simPass) float64 {
		var s float64
		for _, r := range ps.runs {
			s += r.entry.Result.BarrierStallSec
		}
		return s
	}), "s")
	e.layer("sim.shard_imbalance", per(shardImbalance), "ratio")

	for _, mw := range campaign.AllMiddlewares() {
		for _, kind := range []string{"baseline", "strategy"} {
			e.layer("sim.ns_per_event."+kind+"."+mw, per(func(ps simPass) float64 {
				var ns, ev float64
				for _, r := range ps.runs {
					if r.job.Scenario.Middleware == mw && jobKind(r.job) == kind {
						ns += float64(r.end.Sub(r.start).Nanoseconds())
						ev += float64(r.entry.Result.Events)
					}
				}
				if ev == 0 {
					return 0
				}
				return ns / ev
			}), "ns")
		}
		e.layer("core.qos_cost_s."+mw, per(func(ps simPass) float64 { return qosCost(ps.runs, mw) }), "s")
	}
}

// shardImbalance is max ÷ mean of the per-shard event counts summed over
// the pass's sharded jobs (1 = perfectly even; 0 when nothing was sharded).
func shardImbalance(ps simPass) float64 {
	var sums []uint64
	for _, r := range ps.runs {
		for i, n := range r.entry.Result.ShardEvents {
			if i == len(sums) {
				sums = append(sums, 0)
			}
			sums[i] += n
		}
	}
	if len(sums) == 0 {
		return 0
	}
	var total, top uint64
	for _, n := range sums {
		total += n
		top = max(top, n)
	}
	if total == 0 {
		return 0
	}
	return float64(top) * float64(len(sums)) / float64(total)
}

// qosCost sums, over the pass's plain strategy jobs on middleware mw, the
// job's span minus the span of its paired baseline (the same scenario
// without SpeQuloS): the wall time the QoS service adds.
func qosCost(runs []jobRun, mw string) float64 {
	base := map[string]time.Duration{}
	for _, r := range runs {
		if jobKind(r.job) == "baseline" {
			base[r.job.Key()] = r.end.Sub(r.start)
		}
	}
	var cost time.Duration
	for _, r := range runs {
		sc := r.job.Scenario
		if sc.Middleware != mw || sc.Strategy == nil || r.job.Config != nil {
			continue
		}
		sc.Strategy = nil
		if b, ok := base[campaign.Job{Scenario: sc}.Key()]; ok {
			cost += r.end.Sub(r.start) - b
		}
	}
	return cost.Seconds()
}

// quickArtifacts is the researcher's complete quick artifact build: the
// 1368-job quick plan with all 18 strategies into an empty trace cache,
// then every figure and table.
func quickArtifacts(e *env) error {
	p := campaign.Quick()
	opts := experiments.ArtifactOptions{
		Spec:         experiments.MatrixSpec{Strategies: core.AllStrategies()},
		StreamMatrix: true,
	}
	golden, err := readGoldens(e.root)
	if err != nil {
		return err
	}
	var jobs []campaign.Job
	e.setup(func() func() {
		jobs = shuffled(experiments.PlanArtifacts(p, opts).Jobs(), e.seed)
		coldStart()
		return nil
	})
	e.prov.Parallelism = e.nproc
	return runSimWorkload(e, &simPlan{
		jobs:        jobs,
		parallelism: e.nproc,
		derive: func(store *campaign.ResultStore, parent int) ([]string, map[string]time.Duration, error) {
			a, err := experiments.DeriveArtifacts(store, p, opts)
			if err != nil {
				return nil, nil, err
			}
			steps := map[string]time.Duration{}
			at := e.tr.spanStart(parent)
			for _, t := range a.Timings {
				name := "experiments.figures_s"
				switch t.Name {
				case "table2":
					name = "experiments.table2_s"
				case "table5":
					name = "experiments.table5_s"
				}
				steps[name] += t.Elapsed
				// DeriveArtifacts runs its steps back to back; lay them
				// out in order under the derivation span.
				e.tr.add(name, parent, at, at.Add(t.Elapsed))
				at = at.Add(t.Elapsed)
			}
			renders := []string{
				a.Figure1.Render(), a.Figure2.Render(), a.Table1.Render(),
				experiments.RenderTable2(a.Table2), a.Figure4.Render(), a.Figure5.Render(),
				a.Figure6.Render(), a.Figure7.Render(), a.Table4.Render(), a.Table5.Render(),
			}
			golden.table2Got = a.Table2
			return renders, steps, nil
		},
		check: golden.check,
	})
}

// goldens holds the committed quick-profile golden files and the Table 2
// rows of the pass being checked.
type goldens struct {
	matrix, figure1, table2 []byte
	table2Got               []experiments.Table2Row
}

func readGoldens(root string) (*goldens, error) {
	g := &goldens{}
	for name, dst := range map[string]*[]byte{"matrix": &g.matrix, "figure1": &g.figure1, "table2": &g.table2} {
		b, err := os.ReadFile(filepath.Join(root, "internal", "experiments", "testdata", name+".golden.json"))
		if err != nil {
			return nil, fmt.Errorf("reading golden file: %w", err)
		}
		*dst = b
	}
	return g, nil
}

// check compares the golden subset (seti, g5klyo × SMALL × 9C-C-R), read
// back from the pass's own store, with the committed golden files byte for
// byte, marshalled the way the golden test marshals them.
func (g *goldens) check(e *env, store *campaign.ResultStore) error {
	p := campaign.Quick()
	spec := experiments.MatrixSpec{
		Traces:     []string{"seti", "g5klyo"},
		Bots:       []string{"SMALL"},
		Strategies: []core.Strategy{core.DefaultStrategy()},
	}
	m, err := experiments.MatrixFrom(store, p, spec)
	if err != nil {
		return err
	}
	f1, err := experiments.Figure1From(store, p)
	if err != nil {
		return err
	}
	for _, c := range []struct {
		name string
		v    any
		want []byte
	}{{"matrix", m, g.matrix}, {"figure1", f1, g.figure1}, {"table2", g.table2Got, g.table2}} {
		got, err := json.MarshalIndent(c.v, "", " ")
		if err != nil {
			return err
		}
		got = append(got, '\n')
		e.check("golden "+c.name+" matches byte for byte", bytes.Equal(got, c.want),
			fmt.Sprintf("%d bytes vs %d", len(got), len(c.want)))
	}
	return nil
}

// crowdTiered runs the PlanCrowd(Crowd2K()) cells — per middleware a
// 2000-batch tiered cell with 9C-C-R and its paired baseline — one cell at
// a time on nproc kernel shards.
func crowdTiered(e *env) error {
	return runCrowd(e, campaign.Crowd2K())
}

// runCrowd runs the crowd cells of profile p (the smoke test shrinks it) in
// plan order. The profile fixes every input, so the seed changes nothing:
// shuffling six cells would only move the cold cache's trace generation
// from one cell's span to another's.
func runCrowd(e *env, p campaign.Profile) error {
	p.KernelShards = e.nproc
	var jobs []campaign.Job
	e.setup(func() func() {
		jobs = experiments.PlanCrowd(p).Jobs()
		coldStart()
		return nil
	})
	e.prov.Parallelism = 1
	e.prov.KernelShards = p.KernelShards
	var rep experiments.CrowdReport
	return runSimWorkload(e, &simPlan{
		jobs:         jobs,
		parallelism:  1,
		pairRequests: true,
		derive: func(store *campaign.ResultStore, parent int) ([]string, map[string]time.Duration, error) {
			id := e.tr.start("experiments.crowd_report_s", parent)
			start := time.Now()
			var err error
			rep, err = experiments.CrowdFrom(store, p)
			if err != nil {
				return nil, nil, err
			}
			took := time.Since(start)
			e.tr.finish(id)
			return []string{rep.Render()}, map[string]time.Duration{"experiments.crowd_report_s": took}, nil
		},
		check: func(e *env, store *campaign.ResultStore) error {
			return checkCrowd(e, store, jobs, rep)
		},
	})
}

// checkCrowd verifies a crowd pass: every batch completes, no batch is
// billed more than it was allocated, and every middleware row carries every
// tier row.
func checkCrowd(e *env, store *campaign.ResultStore, jobs []campaign.Job, rep experiments.CrowdReport) error {
	var batches, incomplete, overbilled int64
	for _, j := range jobs {
		ent, ok := store.Get(j.Key())
		if !ok {
			return fmt.Errorf("crowd cell %s missing from store", j.Key())
		}
		for _, b := range ent.Result.Batches {
			batches++
			if !b.Completed {
				incomplete++
			}
			if b.CreditsBilled > b.CreditsAllocated {
				overbilled++
			}
		}
	}
	e.ops("crowd batches completed", batches, incomplete)
	e.check("billed <= allocated for every batch", overbilled == 0, fmt.Sprintf("%d of %d over", overbilled, batches))
	tiers := map[string]bool{}
	for _, t := range core.AllTiers() {
		tiers[string(t)] = true
	}
	mws := map[string]bool{}
	for _, row := range rep.Rows {
		mws[row.Middleware] = true
		got := map[string]bool{}
		for _, tr := range row.Tiers {
			got[tr.Tier] = true
		}
		ok := len(got) == len(tiers)
		for t := range tiers {
			ok = ok && got[t]
		}
		e.check("every tier row present for "+row.Middleware, ok, fmt.Sprint(len(row.Tiers), " tier rows"))
	}
	want := map[string]bool{}
	for _, j := range jobs {
		want[j.Scenario.Middleware] = true
	}
	e.check("a crowd row for every middleware", len(mws) == len(want), fmt.Sprint(len(rep.Rows), " rows"))
	return nil
}
