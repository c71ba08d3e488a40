package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/big"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"spequlos/internal/campaign"
	"spequlos/internal/core"
)

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a: counted once
		{ID: 4, Parent: 2, Name: "a1", Start: 15, End: 20}, // grandchild: only a's
		{ID: 5, Parent: 1, Name: "c", Start: 90, End: 120}, // reaches past root
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 50 - 10, 2: 30 - 5, 3: 30, 4: 5, 5: 30}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self = %d, want %d", id, self[id], w)
		}
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n            int
		want, q, val float64
		beyond       int
	}{
		{1000, 0.99, 0.99, 990, 10},
		{5000, 0.99, 0.99, 4950, 50},
		{100, 0.99, 0.90, 90, 10},
		{40, 0.90, 0.75, 30, 10},
		{6, 0.99, 1, 6, 0},
	} {
		got := tailPercentile(seq(c.n), c.want)
		if got.Q != c.q || got.Value != c.val || got.Beyond != c.beyond || got.N != c.n {
			t.Errorf("n=%d want p%g: got %+v, want q=%g value=%g beyond=%d", c.n, 100*c.want, got, c.q, c.val, c.beyond)
		}
	}
}

func TestLatencyPrintsPercentileAndSampleCount(t *testing.T) {
	var out bytes.Buffer
	e := &env{log: &out, e2e: map[string]metric{}, layers: map[string]metric{}}
	xs := make([]float64, 50)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	e.latency("tick", [][]float64{xs}, 0.90)
	if got := e.value("tick_p90_ms"); got != 40 {
		t.Errorf("tick_p90_ms = %g, want the p80 of 50 samples, 40", got)
	}
	if got := e.value("tick_p50_ms"); got != 25 {
		t.Errorf("tick_p50_ms = %g, want 25", got)
	}
	if !strings.Contains(out.String(), "p80 of n=50 (10 beyond)") {
		t.Errorf("printed %q, want the percentile used and the sample count", out.String())
	}
}

// Latency figures are medians over slices, so one disturbed slice does not
// move them.
func TestLatencyIsMedianOverSlices(t *testing.T) {
	e := &env{log: &bytes.Buffer{}, e2e: map[string]metric{}, layers: map[string]metric{}}
	calm := make([]float64, 200)
	for i := range calm {
		calm[i] = 1
	}
	burst := append([]float64(nil), calm...)
	for i := 150; i < 200; i++ {
		burst[i] = 100
	}
	e.latency("req", [][]float64{calm, burst, calm}, 0.99)
	if got := e.value("req_p99_ms"); got != 1 {
		t.Errorf("req_p99_ms = %g, want the calm slices' 1", got)
	}
}

// A server that stalls once must raise the measured latency of the
// requests due during the stall, not just of the stalled one: requests are
// timed from when they were due.
func TestOpenLoopCountsStallAgainstLaterRequests(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 3 {
			time.Sleep(200 * time.Millisecond)
		}
	}))
	defer srv.Close()
	client := srv.Client()
	start := time.Now().Add(20 * time.Millisecond)
	ops := make([]op, 20)
	for i := range ops {
		ops[i] = op{class: "status", due: start.Add(time.Duration(i) * 10 * time.Millisecond)}
	}
	sendOpenLoop(ops, func(*op) bool {
		resp, err := client.Get(srv.URL)
		if err != nil {
			return false
		}
		drain(resp)
		return resp.StatusCode == http.StatusOK
	}, nil)
	ms, failed := requestLatencies(ops, time.Now())
	if failed != 0 {
		t.Fatalf("%d requests failed", failed)
	}
	// Request 3 (index 2) stalls 200 ms; requests due in the next 100 ms
	// wait behind it and must show at least the rest of the stall.
	for i := 3; i <= 10; i++ {
		if floor := 200 - float64(i-2)*10 - 5; ms[i] < floor {
			t.Errorf("request %d latency %.1f ms, want >= %.0f ms (queued behind the stall)", i, ms[i], floor)
		}
		if ops[i].lateness > 20*time.Millisecond {
			t.Errorf("request %d: generator lateness %v charged to the generator, not the server", i, ops[i].lateness)
		}
	}
	if ms[0] > 100 {
		t.Errorf("request before the stall took %.1f ms", ms[0])
	}
}

func TestRefusedRequestsMissTheLimit(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer srv.Close()
	limit := 25 * time.Millisecond
	start := time.Now()
	ops := []op{{class: "credit", due: start}, {class: "credit", due: start.Add(time.Millisecond)}}
	sendOpenLoop(ops, func(*op) bool {
		resp, err := srv.Client().Get(srv.URL)
		if err != nil {
			return false
		}
		drain(resp)
		return resp.StatusCode == http.StatusOK
	}, nil)
	passEnd := ops[1].done.Add(time.Second)
	ms, failed := requestLatencies(ops, passEnd)
	if failed != 2 {
		t.Fatalf("failed = %d, want both refused requests counted", failed)
	}
	for i, v := range ms {
		if v <= float64(limit.Milliseconds()) {
			t.Errorf("refused request %d reads %.1f ms, within the %v limit", i, v, limit)
		}
	}
}

// BENCHMARK.json must declare exactly the metrics and workloads the
// benchmark prints and runs.
func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []def                   `json:"end_to_end"`
		PerLayer  []def                   `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	eq := func(what string, got, want []def) {
		gb, _ := json.Marshal(got)
		wb, _ := json.Marshal(want)
		if !bytes.Equal(gb, wb) {
			t.Errorf("%s in BENCHMARK.json:\n%s\nwant:\n%s", what, gb, wb)
		}
	}
	eq("end_to_end", bj.EndToEnd, endToEndDefs)
	eq("per_layer", bj.PerLayer, perLayerDefs)
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("declared workload %q is not implemented", w.Name)
		}
	}
}

func smokeEnv(t *testing.T, traced bool) *env {
	t.Helper()
	e := &env{
		root: "..", state: t.TempDir(), seed: 7, window: time.Second, nproc: 2,
		log: &bytes.Buffer{}, correct: true,
		e2e: map[string]metric{}, layers: map[string]metric{},
		prov: provenance{Workload: "smoke", SourceDigest: "test"},
	}
	if traced {
		e.tr = newTracer()
	}
	return e
}

// requireEndToEnd fails unless every end-to-end metric but peak_rss_mib
// (added by run) and every latency tail was measured and is positive.
func requireEndToEnd(t *testing.T, e *env) {
	t.Helper()
	for _, d := range append(append([]def(nil), endToEndDefs...), tailDefs...) {
		if d.Name == "peak_rss_mib" {
			continue
		}
		if v := e.value(d.Name); !(v > 0) {
			t.Errorf("%s = %v, want a positive value", d.Name, v)
		}
	}
	for name := range e.e2e {
		if !isEndToEnd(name) {
			t.Errorf("%s reported as end-to-end but not declared so", name)
		}
	}
}

func TestSmokeQuickArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick plan")
	}
	for _, traced := range []bool{false, true} {
		e := smokeEnv(t, traced)
		if err := quickArtifacts(e); err != nil {
			t.Fatal(err)
		}
		requireEndToEnd(t, e)
		if !e.correct || e.failed != 0 {
			t.Errorf("traced=%v: correct=%v failed=%d\n%s", traced, e.correct, e.failed, e.log)
		}
		if traced && !(e.layers["experiments.table2_s"].Value > 0 && e.layers["trace.generated"].Value > 0) {
			t.Errorf("traced quick pass lacks derivation or trace layers: %+v", e.layers)
		}
	}
}

// The smoke crowd is small enough that every batch has trace nodes, so
// all its checks must pass.
func TestSmokeCrowd(t *testing.T) {
	p := campaign.Crowd2K()
	p.Batches = 12
	p.FleetCap = 4
	e := smokeEnv(t, true)
	if err := runCrowd(e, p); err != nil {
		t.Fatal(err)
	}
	requireEndToEnd(t, e)
	if !e.correct || e.failed != 0 {
		t.Errorf("correct=%v failed=%d\n%s", e.correct, e.failed, e.log)
	}
	if !(e.layers["sim.barriers"].Value > 0 && e.layers["core.qos_cost_s.BOINC"].Value != 0) {
		t.Errorf("crowd pass lacks kernel or core layers: %+v", e.layers)
	}
}

func TestSmokeSvcMix(t *testing.T) {
	for _, traced := range []bool{false, true} {
		e := smokeEnv(t, traced)
		cfg := defaultSvc(time.Second, 2)
		cfg.rate = 100
		cfg.batch = 500 * time.Millisecond
		cfg.tick = 50 * time.Millisecond
		if err := runSvc(e, cfg); err != nil {
			t.Fatal(err)
		}
		requireEndToEnd(t, e)
		// Every check must run and pass.
		for _, c := range e.checks {
			if c.failed > 0 {
				t.Errorf("traced=%v: check %q failed: %s", traced, c.name, c.detail)
			}
		}
		if len(e.checks) < 7 {
			t.Errorf("only %d checks ran", len(e.checks))
		}
		if traced {
			for _, name := range []string{"service.requests.order", "service.tick_batches", "cloud.launches", "emul.progress_batch_us.p50", "service.gate_self_us.p50"} {
				if !(e.layers[name].Value > 0) {
					t.Errorf("%s = %v, want > 0", name, e.layers[name].Value)
				}
			}
		}
	}
}

// Set-up keeps exactly the last build and releases every other one.
func TestSetupReleasesAllButLastBuild(t *testing.T) {
	e := smokeEnv(t, false)
	built, released := 0, map[int]bool{}
	e.setup(func() func() {
		built++
		n := built
		time.Sleep(100 * time.Microsecond)
		return func() { released[n] = true }
	})
	if built < setupMinSamples {
		t.Fatalf("built %d times, want at least %d", built, setupMinSamples)
	}
	for n := 1; n < built; n++ {
		if !released[n] {
			t.Errorf("build %d of %d not released", n, built)
		}
	}
	if released[built] {
		t.Errorf("the last build, which the run uses, was released")
	}
	if v := e.value("setup_s"); v < 100e-6 || v > 0.1 {
		t.Errorf("setup_s = %v, want the time of one build (>= 100us)", v)
	}
}

// Steal is a share of busy CPU time: idle time does not dilute it.
func TestStolenShareOfBusyTime(t *testing.T) {
	prev := jiffies{steal: 10, busy: 100}
	if got := (jiffies{steal: 30, busy: 200}).stolenSince(prev); got != 0.2 {
		t.Errorf("stolenSince = %v, want 0.2", got)
	}
	if got := prev.stolenSince(prev); got != 0 {
		t.Errorf("no busy time: stolenSince = %v, want 0", got)
	}
}

// The ledger check passes float64 rounding of many non-representable
// bills, and fails a leak far smaller than one tick's bill.
func TestLedgerCheckRoundingAndLeak(t *testing.T) {
	cs := core.NewCreditSystem()
	deposited := map[string]float64{"u": 100_000}
	if err := cs.Deposit("u", deposited["u"]); err != nil {
		t.Fatal(err)
	}
	calls := int64(1)
	var ids []string
	for b := 0; b < 50; b++ {
		id := fmt.Sprintf("b%06d", b)
		ids = append(ids, id)
		if err := cs.OrderQoS("u", id, 10); err != nil {
			t.Fatal(err)
		}
		calls++
		for i := 0; i < 40; i++ {
			if _, _, err := cs.Bill(id, (0.1+float64(i)*1e-3)/3600*core.CreditsPerCPUHour); err != nil {
				t.Fatal(err)
			}
			calls++
		}
		if b%2 == 0 { // half the orders stay open, so held counts too
			if _, err := cs.Pay(id); err != nil {
				t.Fatal(err)
			}
			calls++
		}
	}
	state := func() (map[string]core.Account, []core.Order) {
		var orders []core.Order
		for _, id := range ids {
			o, _ := cs.OrderOf(id)
			orders = append(orders, o)
		}
		return map[string]core.Account{"u": cs.AccountOf("u")}, orders
	}
	accounts, orders := state()
	exactGap := new(big.Rat).Sub(exact(deposited["u"]), new(big.Rat).Add(exact(accounts["u"].Balance), exact(accounts["u"].Spent)))
	for _, o := range orders {
		if !o.Closed {
			exactGap.Sub(exactGap, new(big.Rat).Sub(exact(o.Allocated), exact(o.Billed)))
		}
	}
	if exactGap.Sign() == 0 {
		t.Log("no rounding gap arose; the check is still exercised")
	}
	if l := checkLedger(deposited, accounts, orders, calls); l.off != 0 {
		t.Fatalf("rounding alone failed the check: %+v", l)
	}
	if err := cs.Deposit("u", 1e-6); err != nil { // an unrecorded micro-credit
		t.Fatal(err)
	}
	accounts, orders = state()
	if l := checkLedger(deposited, accounts, orders, calls+1); l.off != 1 {
		t.Fatalf("a 1e-6 credit leak passed the check: %+v", l)
	}
}
