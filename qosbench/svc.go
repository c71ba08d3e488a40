package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/big"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spequlos/internal/campaign"
	"spequlos/internal/cloud"
	"spequlos/internal/core"
	"spequlos/internal/emul"
	"spequlos/internal/loadgen"
	"spequlos/internal/middleware"
	"spequlos/internal/service"
)

// serviceModules are the four paper modules behind the gate.
var serviceModules = []string{"information", "credit", "oracle", "scheduler"}

// requestClasses are the request kinds the svc-mix counters split by.
var requestClasses = []string{"status", "progress", "credit", "order", "tick", "internal"}

// svcConfig shapes the svc-mix load. The offered rate, batch lifetime and
// tick period fix how many batches are live at once (rate × order share ×
// batch lifetime), and so how much work each monitor tick does.
type svcConfig struct {
	rate    float64       // offered requests per second, open loop
	tick    time.Duration // monitor period: POST /scheduler/step fires on it
	batch   time.Duration // wall time from a batch's order to its completion
	users   int           // tenant keys, tiers assigned round-robin
	senders int           // request connections (the ticker has its own)
	window  time.Duration // how long requests are offered
}

// reqSlice is the stretch of offered window each request-latency median
// and tail is taken over.
const reqSlice = 5 * time.Second

// neverBinding is the gate's total request budget: far above any offered
// rate, so the token buckets run but never refuse, and any 429 is a failure.
const neverBinding = 1e6

// orderCredits is what each QoS order provisions; fundCredits what each
// tenant is funded with during set-up (enough for every order of a run).
const (
	orderCredits = 10
	fundCredits  = 100_000
)

// defaultSvc is the svc-mix load: about 30 live batches, so a tick takes
// roughly a third of its period. Heavier loads (600 req/s, 90 live
// batches) read tail latencies that moved by half between runs on a
// 2-vCPU virtual machine with host CPU steal.
func defaultSvc(window time.Duration, nproc int) svcConfig {
	return svcConfig{
		rate: 200, tick: 100 * time.Millisecond, batch: 1500 * time.Millisecond,
		users: 8, senders: max(1, nproc-1), window: window,
	}
}

// svcMix drives the gated four-module stack and its DG gateway open loop
// with loadgen.DefaultMix at a fixed offered rate, while the monitor ticks
// on a fixed period.
func svcMix(e *env) error {
	return runSvc(e, defaultSvc(e.window, e.nproc))
}

// wallDG is the wall-clock Desktop Grid behind the DG socket: a batch
// progresses linearly to completion over `duration`, counted from its
// order (or from the first poll, if that comes first). Workers always
// report busy, so instances bill until the batch completes.
type wallDG struct {
	duration  time.Duration
	workerURL string

	mu      sync.Mutex
	started map[string]time.Time
}

const dgBatchSize = 100

func (d *wallDG) start(id string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.started[id]; !ok {
		d.started[id] = time.Now()
	}
}

func (d *wallDG) progressLocked(id string) middleware.Progress {
	at, ok := d.started[id]
	if !ok {
		at = time.Now()
		d.started[id] = at
	}
	frac := min(1, float64(time.Since(at))/float64(d.duration))
	done := int(frac * dgBatchSize)
	return middleware.Progress{Size: dgBatchSize, Arrived: dgBatchSize, Completed: done,
		EverAssigned: dgBatchSize, Running: dgBatchSize - done}
}

func (d *wallDG) Progress(id string) (middleware.Progress, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.progressLocked(id), nil
}

func (d *wallDG) ProgressBatch(ids []string) (map[string]middleware.Progress, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string]middleware.Progress, len(ids))
	for _, id := range ids {
		out[id] = d.progressLocked(id)
	}
	return out, nil
}

func (d *wallDG) WorkerURL() string                 { return d.workerURL }
func (d *wallDG) InstanceBusy(string) (bool, error) { return true, nil }

// stack is one booted svc-mix system: the four modules on one gated
// socket, the DG gateway on another, wired as loadgen.Run wires them.
type stack struct {
	keys      *service.KeyManager
	credits   *core.CreditSystem
	sched     *service.SchedulerService
	mock      *cloud.MockDriver
	dg        *wallDG
	stackSrv  *httptest.Server
	dgSrv     *httptest.Server
	svcKey    service.APIKey
	users     []service.APIKey
	deposited map[string]float64
	obs       *observer
	tdg       *timedDG // the Scheduler's DG client, when traced
}

func (s *stack) close() {
	s.stackSrv.Close()
	s.dgSrv.Close()
}

// bootStack builds, starts and funds a stack. With a tracer, every layer
// boundary is wrapped in spans: the gate, the mux, each module handler,
// the module-to-module clients, the DG client and the cloud driver.
func bootStack(cfg svcConfig, tr *tracer) (*stack, error) {
	obs := newObserver(tr)
	s := &stack{obs: obs, deposited: map[string]float64{},
		dg: &wallDG{duration: cfg.batch, started: map[string]time.Time{}}}
	s.dgSrv = httptest.NewServer(obs.outer(emul.NewGatewayHandler(s.dg), "emul.gateway"))
	s.dg.workerURL = s.dgSrv.URL

	strategy, err := core.StrategyByLabel("9C-C-R")
	if err != nil {
		return nil, err
	}
	policy := core.DefaultTierPolicy()
	s.keys = service.NewKeyManager(service.LimitsFromPolicy(policy, neverBinding))
	s.svcKey = service.APIKey{Key: "sk-service", User: "spequlosd", Tier: core.TierEnterprise, Unlimited: true}
	s.keys.Add(s.svcKey)
	obs.svcKey = s.svcKey.Key

	info := service.NewInformationService(core.NewInformation())
	s.credits = core.NewCreditSystem()
	creditSvc := service.NewCreditService(s.credits)
	s.mock = cloud.NewMockDriver("mock", 50*time.Millisecond, 0.34)
	var driver cloud.Driver = s.mock
	if tr != nil {
		driver = &timedDriver{Driver: s.mock, tr: tr}
	}

	mux := http.NewServeMux()
	s.stackSrv = httptest.NewServer(obs.outer(s.keys.Gate(obs.wrap(mux, "service.mux")), "service.gate"))
	base := s.stackSrv.URL
	client := func(owner string) *http.Client { return obs.client(owner, s.svcKey.Key) }

	schedInfo := service.NewInformationClient(base + "/information")
	schedInfo.HTTP = client("scheduler")
	schedCredit := service.NewCreditClient(base + "/credit")
	schedCredit.HTTP = client("scheduler")
	schedOracle := service.NewOracleClient(base + "/oracle")
	schedOracle.HTTP = client("scheduler")
	oracleInfo := service.NewInformationClient(base + "/information")
	oracleInfo.HTTP = client("oracle")

	oracle := service.NewOracleService(core.NewOracle(strategy), oracleInfo)
	var dg service.DGGateway = emul.NewDGClient(s.dgSrv.URL)
	if tr != nil {
		s.tdg = &timedDG{c: emul.NewDGClient(s.dgSrv.URL), tr: tr}
		dg = s.tdg
	}
	s.sched = service.NewSchedulerService(schedInfo, schedCredit, schedOracle, cloud.NewRegistry(driver), dg)
	s.sched.TierPolicy = policy
	for name, h := range map[string]http.Handler{
		"information": info, "credit": creditSvc, "oracle": oracle, "scheduler": s.sched,
	} {
		mux.Handle("/"+name+"/", http.StripPrefix("/"+name, obs.module(name, h)))
	}

	setupClient := service.KeyedClient(s.svcKey.Key)
	for i := 0; i < cfg.users; i++ {
		k := s.keys.Issue(fmt.Sprintf("u%03d", i), tierOf(i))
		s.users = append(s.users, k)
		body := fmt.Sprintf(`{"user":%q,"credits":%d}`, k.User, fundCredits)
		resp, err := setupClient.Post(base+"/credit/deposit", "application/json", strings.NewReader(body))
		if err != nil {
			s.close()
			return nil, fmt.Errorf("funding %s: %w", k.User, err)
		}
		drain(resp)
		if resp.StatusCode != http.StatusOK {
			s.close()
			return nil, fmt.Errorf("funding %s: HTTP %d", k.User, resp.StatusCode)
		}
		s.deposited[k.User] += fundCredits
	}
	return s, nil
}

// tierOf assigns tenant i a service class: enterprise, premium, free, free.
func tierOf(i int) core.Tier {
	switch i % 4 {
	case 0:
		return core.TierEnterprise
	case 1:
		return core.TierPremium
	}
	return core.TierFree
}

func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // only frees the connection
	resp.Body.Close()
}

// op is one scheduled request of the open loop. Its random draws are fixed
// before the run from the seed; which batch a status or progress request
// names is resolved when it is sent, from the batches ordered by then.
type op struct {
	class string // status, progress, credit or order
	user  int
	pick  int
	due   time.Time
	// Filled in when sent.
	sent, done time.Time
	ok         bool
	lateness   time.Duration
}

// schedule draws the offered requests of one window from the seed:
// classes from loadgen.DefaultMix, evenly spaced at cfg.rate.
func schedule(cfg svcConfig, seed int64, start time.Time) []op {
	mix := loadgen.DefaultMix()
	total := mix.Status + mix.Progress + mix.Credit + mix.Order
	rng := rand.New(rand.NewSource(seed))
	n := int(cfg.rate * cfg.window.Seconds())
	ops := make([]op, n)
	for i := range ops {
		var class string
		switch p := rng.Intn(total); {
		case p < mix.Status:
			class = "status"
		case p < mix.Status+mix.Progress:
			class = "progress"
		case p < mix.Status+mix.Progress+mix.Credit:
			class = "credit"
		default:
			class = "order"
		}
		ops[i] = op{class: class, user: rng.Intn(cfg.users), pick: rng.Int(),
			due: start.Add(time.Duration(float64(i) / cfg.rate * float64(time.Second)))}
	}
	return ops
}

// loadState is what the senders share: the batches ordered so far.
type loadState struct {
	mu      sync.Mutex
	ordered []string
	seq     atomic.Int64
}

func (l *loadState) add(id string) {
	l.mu.Lock()
	l.ordered = append(l.ordered, id)
	l.mu.Unlock()
}

// pickIDs returns n consecutive ordered batch ids starting at a position
// chosen by pick (nil before the first order).
func (l *loadState) pickIDs(pick, n int) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.ordered) == 0 {
		return nil
	}
	at := pick % len(l.ordered)
	end := min(at+n, len(l.ordered))
	return append([]string(nil), l.ordered[at:end]...)
}

func (l *loadState) all() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.ordered...)
}

// sendOpenLoop issues ops on one connection in due order. A request is sent
// at its due time, or as soon as the previous one returns if that is later,
// so a stalled server delays every later request and the delay is counted.
// The generator's own lateness is how long after max(due, previous answer)
// it actually sent.
func sendOpenLoop(ops []op, do func(*op) bool, tr *tracer) {
	var prevDone time.Time
	for i := range ops {
		o := &ops[i]
		if d := time.Until(o.due); d > 0 {
			time.Sleep(d)
		}
		o.sent = time.Now()
		ready := o.due
		if prevDone.After(ready) {
			ready = prevDone
		}
		o.lateness = max(0, o.sent.Sub(ready))
		id := tr.start("load."+o.class, 0)
		o.ok = do(o)
		tr.finish(id)
		o.done = time.Now()
		prevDone = o.done
	}
}

// requestLatencies times each op from its due time. A refused or failed
// request misses any latency limit: it counts as waiting from its due time
// to the end of the pass.
func requestLatencies(ops []op, passEnd time.Time) (ms []float64, failed int64) {
	for _, o := range ops {
		end := o.done
		if !o.ok {
			failed++
			end = passEnd
		}
		ms = append(ms, float64(end.Sub(o.due).Nanoseconds())/1e6)
	}
	return ms, failed
}

// sender turns ops into requests against a stack on one connection.
type sender struct {
	s    *stack
	http *http.Client
	load *loadState
}

func newSender(s *stack, load *loadState) *sender {
	return &sender{s: s, load: load,
		http: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}}
}

// do sends one request and reports whether it succeeded.
func (c *sender) do(o *op) bool {
	key := c.s.users[o.user]
	base := c.s.stackSrv.URL
	class := o.class
	if class == "status" || class == "progress" {
		if ids := c.load.pickIDs(o.pick, 8); ids == nil {
			class = "order" // nothing to poll before the first order
		}
	}
	switch class {
	case "status":
		ids := c.load.pickIDs(o.pick, 1)
		return c.send(key.Key, http.MethodGet, base+"/scheduler/qos/"+ids[0], "", http.StatusOK)
	case "progress":
		ids := c.load.pickIDs(o.pick, 8)
		body := fmt.Sprintf(`{"ids":["%s"]}`, strings.Join(ids, `","`))
		// The DG socket is not gated; the key only marks the request as
		// tenant traffic for the counters.
		return c.send(key.Key, http.MethodPost, c.s.dgSrv.URL+"/progress-batch", body, http.StatusOK)
	case "credit":
		return c.send(key.Key, http.MethodGet, base+"/credit/accounts/"+key.User, "", http.StatusOK)
	}
	id := fmt.Sprintf("b%06d", c.load.seq.Add(1))
	body := fmt.Sprintf(`{"user":%q,"batch_id":%q,"env_key":"load","size":%d,"credits":%d,"tier":%q,"provider":"mock","image":"img"}`,
		key.User, id, dgBatchSize, orderCredits, key.Tier)
	ok := c.send(key.Key, http.MethodPost, base+"/scheduler/qos", body, http.StatusCreated)
	if ok {
		c.s.dg.start(id)
		c.load.add(id)
	}
	return ok
}

func (c *sender) send(key, method, url, body string, want int) bool {
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		return false
	}
	if key != "" {
		req.Header.Set(service.APIKeyHeader, key)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return false
	}
	drain(resp)
	return resp.StatusCode == want
}

// tickRec is one monitor tick: when it was due and answered.
type tickRec struct {
	due, done time.Time
	ok        bool
	inWindow  bool
}

// ticker fires POST /scheduler/step every cfg.tick from start until stop
// is closed, late ticks firing as soon as the previous one returns.
func ticker(s *stack, cfg svcConfig, start, windowEnd time.Time, stop <-chan struct{}, tr *tracer) []tickRec {
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	var out []tickRec
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * cfg.tick)
		if d := time.Until(due); d > 0 {
			select {
			case <-stop:
				return out
			case <-time.After(d):
			}
		} else {
			select {
			case <-stop:
				return out
			default:
			}
		}
		t := tickRec{due: due, inWindow: due.Before(windowEnd)}
		id := tr.start("load.tick", 0)
		req, _ := http.NewRequest(http.MethodPost, s.stackSrv.URL+"/scheduler/step", nil) // constant URL parses
		req.Header.Set(service.APIKeyHeader, s.svcKey.Key)
		if resp, err := client.Do(req); err == nil {
			drain(resp)
			t.ok = resp.StatusCode == http.StatusOK
		}
		tr.finish(id)
		t.done = time.Now()
		out = append(out, t)
	}
}

// runSvc boots the stack (timed as set-up), offers one window of load,
// drains until every ordered batch is finalized, checks the service's
// promises and reports.
func runSvc(e *env, cfg svcConfig) error {
	var s *stack
	var bootErr error
	e.setup(func() func() {
		if bootErr != nil {
			return nil
		}
		st, err := bootStack(cfg, e.tr)
		if err != nil {
			bootErr = err
			return nil
		}
		s = st
		return st.close
	})
	if bootErr != nil {
		return bootErr
	}
	defer s.close()
	e.prov.Connections = cfg.senders + 1
	s.obs.reset()
	e.tr.reset() // set-up traffic (every boot's funding) is not the workload

	rt0 := readRuntime()
	cpu0 := campaign.ProcessCPUSeconds()
	start := time.Now().Add(50 * time.Millisecond)
	windowEnd := start.Add(cfg.window)
	ops := schedule(cfg, e.seed, start)
	load := &loadState{}

	stopTick := make(chan struct{})
	tickDone := make(chan []tickRec, 1)
	go func() { tickDone <- ticker(s, cfg, start, windowEnd, stopTick, e.tr) }()

	var wg sync.WaitGroup
	for k := 0; k < cfg.senders; k++ {
		var mine []op
		for i := k; i < len(ops); i += cfg.senders {
			mine = append(mine, ops[i])
		}
		wg.Add(1)
		go func(k int, mine []op) {
			defer wg.Done()
			sendOpenLoop(mine, newSender(s, load).do, e.tr)
			for j := range mine {
				ops[k+j*cfg.senders] = mine[j]
			}
		}(k, mine)
	}
	wg.Wait()

	// Drain: keep ticking until every ordered batch is finalized. The drain
	// time, from the end of the offered window until the last batch is
	// finalized, is svc-mix's wall_s: the window is the benchmark's own
	// constant, while how soon the monitor closes the last batches after
	// their completion, and how late the senders ran, are the program's.
	ids := load.all()
	pending := ids
	drainBy := time.Now().Add(3*cfg.batch + 10*cfg.tick + 5*time.Second)
	for len(pending) > 0 && time.Now().Before(drainBy) {
		time.Sleep(drainPoll)
		pending = unfinalizedOf(s, pending)
	}
	drained := time.Now()
	close(stopTick)
	ticks := <-tickDone
	passEnd := time.Now()
	cpu := campaign.ProcessCPUSeconds() - cpu0
	rt1 := readRuntime()

	reqMs, reqFailed := requestLatencies(ops, passEnd)
	// Latency is summarised per stretch of the offered window: a burst of
	// host noise then disturbs one stretch's figures, not the median over
	// stretches. A tick stretch is long enough to hold 100 ticks, so each
	// has a true p90.
	reqSlices := make([][]float64, max(1, int(cfg.window/reqSlice)))
	tickSlice := 100 * cfg.tick
	tickSlices := make([][]float64, max(1, int(cfg.window/tickSlice)))
	var lateMs []float64
	for i, o := range ops {
		k := min(len(reqSlices)-1, int(o.due.Sub(start)/reqSlice))
		reqSlices[k] = append(reqSlices[k], reqMs[i])
		lateMs = append(lateMs, float64(o.lateness.Nanoseconds())/1e6)
	}
	var tickFailed int64
	for _, t := range ticks {
		if !t.ok {
			tickFailed++
		}
		if t.inWindow {
			ms := float64(t.done.Sub(t.due).Nanoseconds()) / 1e6
			if !t.ok {
				ms = float64(passEnd.Sub(t.due).Nanoseconds()) / 1e6
			}
			k := min(len(tickSlices)-1, int(t.due.Sub(start)/tickSlice))
			tickSlices[k] = append(tickSlices[k], ms)
		}
	}
	e.ops("requests answered as expected", int64(len(ops)), reqFailed)
	e.ops("monitor ticks answered 200", int64(len(ticks)), tickFailed)
	checkSvc(e, s, ids)

	// Events are the offered work answered: tenant requests and ticks. The
	// Scheduler's own module calls and DG polls are excluded, as they are
	// the program's design, not the load: a tick that makes fewer of them
	// spends less CPU on the same events.
	var offered int64
	for _, c := range requestClasses {
		if c != "internal" {
			offered += s.obs.classes[c].Load()
		}
	}
	e.endToEnd("wall_s", drained.Sub(windowEnd).Seconds(), "s")
	e.endToEnd("events_per_cpu_s", float64(offered)/cpu, "1/s")
	e.latency("req", reqSlices, 0.99)
	e.latency("tick", tickSlices, 0.90)
	e.note(fmt.Sprintf("offered %.0f req/s open loop on %d connection(s) plus the ticker; tick every %v; batches live %v; %d orders; "+
		"wall_s = drain after the %v window; events = tenant requests and ticks answered (%d of %d answers, the rest the Scheduler's own calls)",
		cfg.rate, cfg.senders, cfg.tick, cfg.batch, len(ids), cfg.window, offered, s.obs.served.Load()))

	e.layer("go.alloc_mib", (rt1.allocBytes-rt0.allocBytes)/(1<<20), "MiB")
	e.layer("go.gc_cpu_s", rt1.gcCPU-rt0.gcCPU, "s")
	e.layer("gen.lateness_ms.p99", tailPercentile(lateMs, 0.99).Value, "ms")
	for _, c := range requestClasses {
		e.layer("service.requests."+c, float64(s.obs.classes[c].Load()), "count")
	}
	e.layer("service.throttled", float64(s.obs.throttled.Load()), "count")
	e.layer("service.errors", float64(s.obs.errors5xx.Load()+s.obs.unauthorized.Load()), "count")
	if e.tr != nil {
		reportServiceLayers(e, s, ticks)
	}
	return nil
}

// drainPoll is how often the drain looks for the last batches' finalization;
// it looks only at batches not yet finalized, so polling costs little.
const drainPoll = 2 * time.Millisecond

// unfinalizedOf returns the batches among ids the Scheduler has not
// finalized yet.
func unfinalizedOf(s *stack, ids []string) []string {
	var out []string
	for _, id := range ids {
		if st, err := s.sched.Status(id); err != nil || !st.Finalized {
			out = append(out, id)
		}
	}
	return out
}

// checkSvc verifies the service's promises once the run has drained:
// credit conservation, every batch finalized, no orphaned instance, and no
// 401, 5xx or 429 answers.
func checkSvc(e *env, s *stack, ids []string) {
	var orders []core.Order
	billedOver := 0
	for _, id := range ids {
		o, ok := s.credits.OrderOf(id)
		if !ok {
			continue
		}
		orders = append(orders, o)
		if o.Billed > o.Allocated {
			billedOver++
		}
	}
	accounts := map[string]core.Account{}
	for user := range s.deposited {
		accounts[user] = s.credits.AccountOf(user)
	}
	l := checkLedger(s.deposited, accounts, orders, s.obs.ledgerCalls.Load())
	e.check("credit conservation: deposited = balance + spent + held, to within the ledger's float64 rounding", l.off == 0,
		fmt.Sprintf("%d of %d accounts off; largest |deposited - (balance + spent + held)| %.3g credits, allowed %.3g (%d credit calls)",
			l.off, len(s.deposited), l.worst, l.bound, s.obs.ledgerCalls.Load()))
	e.check("billed <= ordered for every batch", billedOver == 0, fmt.Sprintf("%d over", billedOver))
	left := len(unfinalizedOf(s, ids))
	e.check("every ordered batch finalized", left == 0, fmt.Sprintf("%d of %d left", left, len(ids)))
	live := 0
	for _, inst := range s.sched.Instances() {
		if inst.State != cloud.StateTerminated {
			live++
		}
	}
	e.check("every launched instance terminated", live == 0 && len(s.mock.List()) == 0,
		fmt.Sprintf("%d live in the scheduler, %d at the provider", live, len(s.mock.List())))
	e.check("no 401 answers", s.obs.unauthorized.Load() == 0, fmt.Sprint(s.obs.unauthorized.Load()))
	e.check("no 5xx answers", s.obs.errors5xx.Load() == 0, fmt.Sprint(s.obs.errors5xx.Load()))
	e.check("no 429 answers (rate limits set never to bind)", s.obs.throttled.Load() == 0, fmt.Sprint(s.obs.throttled.Load()))
}

// ledgerCheck is the outcome of checkLedger: how many accounts break the
// identity, the largest gap seen, and the largest gap allowed.
type ledgerCheck struct {
	off          int
	worst, bound float64
}

// checkLedger checks deposited = balance + spent + held for every account,
// held being allocated - billed over the user's open orders. The sums are
// exact: every stored float64 converts to a rational without rounding.
//
// The Credit System keeps float64 balances, and a bill is cloud CPU time
// × 15/3600 credits, which float64 cannot hold, so the ledger's updates
// round and the identity holds only to within that rounding. Each credit
// call makes at most two rounded updates that enter it (a bill adds to the
// order's billed and the account's spent; a payment computes the refund
// and adds it to the balance), each off by at most half an ulp of a value
// no larger than the account's deposits. So the gap may be at most
// calls × ulp(2 × deposited), calls being every call the credit module
// answered. At svc-mix's load that is under 1e-6 credits (a millisecond
// of cloud CPU time), against about 4e-4 credits for the 0.1 s one
// instance bills per tick, and the gap seen is near 1e-10: a lost or
// double-counted order, refund or tick bill still fails the check.
func checkLedger(deposited map[string]float64, accounts map[string]core.Account, orders []core.Order, calls int64) ledgerCheck {
	held := map[string]*big.Rat{}
	for _, o := range orders {
		if o.Closed {
			continue
		}
		if held[o.User] == nil {
			held[o.User] = new(big.Rat)
		}
		held[o.User].Add(held[o.User], exact(o.Allocated))
		held[o.User].Sub(held[o.User], exact(o.Billed))
	}
	var l ledgerCheck
	for user, dep := range deposited {
		a := accounts[user]
		got := new(big.Rat).Add(exact(a.Balance), exact(a.Spent))
		if h := held[user]; h != nil {
			got.Add(got, h)
		}
		gap, _ := new(big.Rat).Sub(exact(dep), got).Float64()
		gap = math.Abs(gap)
		bound := float64(calls) * ulp(2*dep)
		l.worst = max(l.worst, gap)
		l.bound = max(l.bound, bound)
		if gap > bound {
			l.off++
		}
	}
	return l
}

// ulp is the gap between x > 0 and the next larger float64.
func ulp(x float64) float64 { return math.Nextafter(x, math.Inf(1)) - x }

// exact converts a float64 to the rational it denotes, without rounding.
func exact(x float64) *big.Rat { return new(big.Rat).SetFloat64(x) }

// observer wraps the stack's layer boundaries. The outer wrapper of each
// socket always counts answers by status and requests by class (the output
// checks need them); spans are recorded only when tr is non-nil.
type observer struct {
	tr     *tracer
	svcKey string

	served, throttled, unauthorized, errors5xx atomic.Int64
	ledgerCalls                                atomic.Int64             // answered by the credit module, set-up included
	classes                                    map[string]*atomic.Int64 // filled once, then read-only
}

func newObserver(tr *tracer) *observer {
	o := &observer{tr: tr, classes: map[string]*atomic.Int64{}}
	for _, c := range requestClasses {
		o.classes[c] = &atomic.Int64{}
	}
	return o
}

// reset zeroes the counters after set-up traffic (funding).
func (o *observer) reset() {
	o.served.Store(0)
	o.throttled.Store(0)
	o.unauthorized.Store(0)
	o.errors5xx.Store(0)
	for _, c := range o.classes {
		c.Store(0)
	}
}

// classify names a request's class from its key and route. Requests
// without a key are the Scheduler's own DG polls and stay unclassed.
func (o *observer) classify(r *http.Request) string {
	switch key := r.Header.Get(service.APIKeyHeader); {
	case key == "":
		return ""
	case key == o.svcKey:
		if r.URL.Path == "/scheduler/step" {
			return "tick"
		}
		return "internal"
	case r.URL.Path == "/progress-batch":
		return "progress"
	case r.Method == http.MethodPost && r.URL.Path == "/scheduler/qos":
		return "order"
	case strings.HasPrefix(r.URL.Path, "/credit/"):
		return "credit"
	case strings.HasPrefix(r.URL.Path, "/scheduler/qos/"):
		return "status"
	}
	return ""
}

type spanKey struct{}

// statusWriter remembers the status code a handler answered with.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// outer is the outermost wrapper of a socket: it counts every answer and,
// traced, opens the request's root span.
func (o *observer) outer(next http.Handler, name string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		class := o.classify(r)
		id := o.tr.start(name, 0)
		if id != 0 {
			r = r.WithContext(context.WithValue(r.Context(), spanKey{}, id))
		}
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		o.tr.finish(id)
		o.served.Add(1)
		if strings.HasPrefix(r.URL.Path, "/credit/") {
			o.ledgerCalls.Add(1)
		}
		if class != "" {
			o.classes[class].Add(1)
		}
		switch {
		case sw.code == http.StatusUnauthorized:
			o.unauthorized.Add(1)
		case sw.code == http.StatusTooManyRequests:
			o.throttled.Add(1)
		case sw.code >= 500:
			o.errors5xx.Add(1)
		}
	})
}

// wrap opens a child span named name around next when traced.
func (o *observer) wrap(next http.Handler, name string) http.Handler {
	if o.tr == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := r.Context().Value(spanKey{}).(int)
		id := o.tr.start(name, parent)
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, id)))
		o.tr.finish(id)
	})
}

// module wraps one paper module's handler. The Scheduler's monitor step is
// the tick, named apart from its request handling.
func (o *observer) module(name string, next http.Handler) http.Handler {
	if o.tr == nil {
		return next
	}
	handler := o.wrap(next, "service.handler."+name)
	if name != "scheduler" {
		return handler
	}
	tick := o.wrap(next, "service.tick")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/step" {
			tick.ServeHTTP(w, r)
			return
		}
		handler.ServeHTTP(w, r)
	})
}

// client is a module-to-module HTTP client authenticating with key; traced,
// each call is a span "internal.<owner>" on the calling side.
func (o *observer) client(owner, key string) *http.Client {
	c := service.KeyedClient(key)
	if o.tr != nil {
		c.Transport = &timedTransport{base: c.Transport, tr: o.tr, name: "internal." + owner}
	}
	return c
}

// timedTransport records a span around each round trip, named with the
// request's route so a tick's calls can be told from an order's.
type timedTransport struct {
	base http.RoundTripper
	tr   *tracer
	name string
}

// RoundTrip implements http.RoundTripper. The span ends at the response
// header; the caller reads the (small JSON) body after it.
func (t *timedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	id := t.tr.start(t.name+" "+r.Method+" "+routeOf(r.URL.Path), 0)
	defer t.tr.finish(id)
	return t.base.RoundTrip(r)
}

// routeOf strips ids from a module path: /credit/orders/b000012/bill →
// /credit/orders/{id}/bill.
func routeOf(path string) string {
	parts := strings.Split(path, "/")
	for i, p := range parts {
		if isBatchID(p) {
			parts[i] = "{id}"
		}
	}
	return strings.Join(parts, "/")
}

// isBatchID reports whether p is a batch id as the load orders them.
func isBatchID(p string) bool {
	if len(p) != 7 || p[0] != 'b' {
		return false
	}
	for _, c := range p[1:] {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// orderRoutes are the module calls an order makes (registerQoS + orderQoS);
// every other scheduler-side call comes from a monitor tick.
var orderRoutes = map[string]bool{
	"internal.scheduler POST /information/batches": true,
	"internal.scheduler POST /credit/orders":       true,
}

// timedDG wraps the Scheduler's DG client with spans, keeping both
// optional gateway extensions it implements.
type timedDG struct {
	c  *emul.DGClient
	tr *tracer

	mu      sync.Mutex
	batches []int // ids per aggregated poll, in call order
}

func (d *timedDG) Progress(id string) (middleware.Progress, error) {
	sp := d.tr.start("emul.progress", 0)
	defer d.tr.finish(sp)
	return d.c.Progress(id)
}

func (d *timedDG) ProgressBatch(ids []string) (map[string]middleware.Progress, error) {
	sp := d.tr.start("emul.progress_batch", 0)
	defer d.tr.finish(sp)
	d.mu.Lock()
	d.batches = append(d.batches, len(ids))
	d.mu.Unlock()
	return d.c.ProgressBatch(ids)
}

func (d *timedDG) WorkerURL() string { return d.c.WorkerURL() }

func (d *timedDG) InstanceBusy(id string) (bool, error) {
	sp := d.tr.start("emul.busy", 0)
	defer d.tr.finish(sp)
	return d.c.InstanceBusy(id)
}

// timedDriver wraps the cloud driver with a span per call.
type timedDriver struct {
	cloud.Driver
	tr *tracer
}

func (d *timedDriver) Launch(req cloud.LaunchRequest) (cloud.InstanceInfo, error) {
	sp := d.tr.start("cloud.driver.launch", 0)
	defer d.tr.finish(sp)
	return d.Driver.Launch(req)
}

func (d *timedDriver) Terminate(id string) error {
	sp := d.tr.start("cloud.driver.terminate", 0)
	defer d.tr.finish(sp)
	return d.Driver.Terminate(id)
}

func (d *timedDriver) Describe(id string) (cloud.InstanceInfo, error) {
	sp := d.tr.start("cloud.driver.describe", 0)
	defer d.tr.finish(sp)
	return d.Driver.Describe(id)
}

func (d *timedDriver) List() []cloud.InstanceInfo {
	sp := d.tr.start("cloud.driver.list", 0)
	defer d.tr.finish(sp)
	return d.Driver.List()
}

// reportServiceLayers derives the service per-layer metrics from the
// spans: each tick's module calls, DG polls and driver calls that fall
// inside its interval become its children, and the rest follows from
// durations and self times.
func reportServiceLayers(e *env, s *stack, ticks []tickRec) {
	spans := e.tr.snapshot()
	var tickIDs []int
	for _, s := range spans {
		if s.Name == "service.tick" {
			tickIDs = append(tickIDs, s.ID)
		}
	}
	// Ticks run one at a time, so a tick-side call belongs to the tick
	// whose interval holds it.
	calls := map[int]int{}
	for _, s := range spans {
		tickSide := strings.HasPrefix(s.Name, "emul.") || strings.HasPrefix(s.Name, "cloud.driver.") ||
			(strings.HasPrefix(s.Name, "internal.scheduler ") && !orderRoutes[s.Name])
		if !tickSide {
			continue
		}
		for _, tid := range tickIDs {
			t := spans[tid-1]
			if s.Start >= t.Start && s.End <= t.End {
				e.tr.setParent(s.ID, tid)
				if strings.HasPrefix(s.Name, "internal.") {
					calls[tid]++
				}
				break
			}
		}
	}
	spans = e.tr.snapshot()
	self := selfTimes(spans)
	durs := byName(spans, nil)
	selfs := byName(spans, self)

	us := func(xs []float64, q float64) float64 { return quantile(sortedCopy(xs), q) * 1e6 }
	e.layer("service.gate_self_us.p50", us(selfs["service.gate"], 0.5), "us")
	e.layer("service.gate_self_us.p99", tailPercentile(selfs["service.gate"], 0.99).Value*1e6, "us")
	for _, m := range serviceModules {
		xs := durs["service.handler."+m]
		e.layer("service.handler_us."+m+".p50", us(xs, 0.5), "us")
		e.layer("service.handler_us."+m+".p99", tailPercentile(xs, 0.99).Value*1e6, "us")
	}
	e.layer("service.tick_self_ms.p50", median(selfs["service.tick"])*1e3, "ms")
	var perTick []float64
	for _, tid := range tickIDs {
		perTick = append(perTick, float64(calls[tid]))
	}
	e.layer("service.tick_internal_calls", mean(perTick), "count")
	s.tdg.mu.Lock()
	var polled []float64
	for _, n := range s.tdg.batches {
		polled = append(polled, float64(n))
	}
	s.tdg.mu.Unlock()
	e.layer("service.tick_batches", mean(polled), "count")
	e.layer("emul.progress_batch_us.p50", us(durs["emul.progress_batch"], 0.5), "us")
	var driver []float64
	for name, xs := range durs {
		if strings.HasPrefix(name, "cloud.driver.") {
			driver = append(driver, xs...)
		}
	}
	e.layer("cloud.driver_us.p50", us(driver, 0.5), "us")
	e.layer("cloud.launches", float64(len(durs["cloud.driver.launch"])), "count")
	e.layer("cloud.terminations", float64(len(durs["cloud.driver.terminate"])), "count")
	fmt.Fprintf(e.log, "ticks: %d fired, %d traced server-side\n", len(ticks), len(tickIDs))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
