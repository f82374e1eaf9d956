package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"time"

	"rteaal/internal/dfg"
	"rteaal/internal/server"
	"rteaal/internal/testbench"
	"rteaal/sim"
	"rteaal/sim/client"
)

// serve-mix runs r1 at gen scale 32, small enough that wire time rivals
// engine time. The client is closed-loop because testbench callers wait
// for each reply before sending the next command list. One client, with
// client and server sharing one processor (GOMAXPROCS 1), keeps every
// hand-off on that processor. With two clients every latency quantile
// moved by about 20% between runs, and with two processors each call
// took longer, most likely waiting for an idle vCPU to wake (README.md,
// "Host noise").
const (
	serveScale     = 32
	serveClients   = 1
	serveProcs     = 1
	listsPerTest   = 20
	testsPerClient = 16 // distinct scripted tests per client, reused in turn
	serveSetupReps = 15
)

// cmdList is one command POST with the outcomes the reference expects.
type cmdList struct {
	script *client.Script
	want   []testbench.Outcome
	cycles int64
}

// serveTest is one simulated test: compile, open a session, the command
// lists, close.
type serveTest []cmdList

// genTests scripts n tests for one client from the seed. Each list pokes
// two inputs, steps 1-4 cycles and peeks two outputs; the middle list also
// waits on an output. dfg.Interp on the unoptimised graph supplies every
// expected value, and picks each wait's target as the value the output
// takes one cycle on, so no wait can time out.
func genTests(g *dfg.Graph, seed uint64, clientIdx, n int) ([]serveTest, error) {
	ref, err := newReference(g, nil)
	if err != nil {
		return nil, err
	}
	it := ref.it
	tests := make([]serveTest, n)
	for t := range tests {
		r := rng{s: mix(seed) ^ mix(uint64(clientIdx)<<32|uint64(t))}
		it.Reset()
		for j := 0; j < listsPerTest; j++ {
			l := cmdList{script: client.NewScript()}
			for p := 0; p < 2; p++ {
				i := r.intn(len(g.Inputs))
				v := r.next()
				it.PokeInput(i, v)
				l.script.Poke(g.Inputs[i].Name, v)
				l.want = append(l.want, testbench.Outcome{Op: testbench.OpPoke, Signal: g.Inputs[i].Name, Value: v})
			}
			k := int64(1 + r.intn(4))
			it.Run(int(k))
			l.cycles += k
			l.script.Step(k)
			l.want = append(l.want, testbench.Outcome{Op: testbench.OpStep, Cycles: k})
			if j == listsPerTest/2 {
				o := g.Outputs[r.intn(len(g.Outputs))].Name
				it.Step()
				v := it.PeekOutput(ref.outByNm[o])
				l.cycles++
				l.script.Wait(o, &testbench.Cond{Test: testbench.CondEq, Value: v}, 8)
				l.want = append(l.want, testbench.Outcome{Op: testbench.OpWait, Signal: o, Value: v, Cycles: 1})
			}
			for p := 0; p < 2; p++ {
				oi := r.intn(len(g.Outputs))
				o := g.Outputs[oi].Name
				l.script.Peek(o)
				l.want = append(l.want, testbench.Outcome{Op: testbench.OpPeek, Signal: o, Value: it.PeekOutput(oi)})
			}
			tests[t] = append(tests[t], l)
		}
	}
	return tests, nil
}

// compareOutcomes counts each expected outcome as one checked value.
func compareOutcomes(res *checkResult, got, want []testbench.Outcome, where string) {
	for i, w := range want {
		res.compared++
		if i >= len(got) || !reflect.DeepEqual(got[i], w) {
			res.mismatched++
			if res.first == "" {
				g := "missing"
				if i < len(got) {
					g = fmt.Sprintf("%+v", got[i])
				}
				res.first = fmt.Sprintf("%s outcome %d: got %s, want %+v", where, i, g, w)
			}
		}
	}
}

// countingTransport counts round trips and the body sizes of command
// POSTs. Each client has its own, used from one goroutine at a time.
type countingTransport struct {
	base             *http.Transport
	trips            int64
	reqBytes, rspBts []float64
}

func newCountingTransport() *countingTransport {
	return &countingTransport{base: &http.Transport{MaxIdleConnsPerHost: 4}}
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c.trips++
	resp, err := c.base.RoundTrip(req)
	if err == nil && req.Method == http.MethodPost && strings.HasSuffix(req.URL.Path, "/commands") {
		c.reqBytes = append(c.reqBytes, float64(req.ContentLength))
		c.rspBts = append(c.rspBts, float64(resp.ContentLength))
	}
	return resp, err
}

// serveEnv is one running loopback server.
type serveEnv struct {
	srv  *server.Server
	ts   *httptest.Server
	hash string
}

func (e *serveEnv) close() {
	e.ts.Close()
	e.srv.Close()
}

// serveSetup starts a server, compiles the design on it (a cache miss) and
// opens the first session: set-up for a service user.
func serveSetup(ctx context.Context, tr *tracer, src string) (*serveEnv, time.Duration, error) {
	root := tr.begin("setup", nil, 0)
	a := tr.begin("setup.server_start", root, 0)
	env := &serveEnv{srv: server.New(server.Config{})}
	env.ts = httptest.NewServer(env.srv)
	tr.end(a)
	tp := newCountingTransport()
	defer tp.base.CloseIdleConnections()
	cl := client.New(env.ts.URL, client.WithClientID("setup"), client.WithHTTPClient(&http.Client{Transport: tp}))
	a = tr.begin("setup.compile_miss", root, 0)
	cr, err := cl.Compile(ctx, src, server.CompileOptions{})
	tr.end(a)
	if err == nil && cr.Cached {
		err = fmt.Errorf("first compile on a new server was a cache hit")
	}
	var sess *client.Session
	if err == nil {
		a = tr.begin("setup.session_open", root, 0)
		sess, err = cl.NewSession(ctx, cr.Hash, 0)
		tr.end(a)
	}
	d := tr.end(root)
	if err == nil {
		err = sess.Close(ctx)
	}
	if err != nil {
		env.close()
		return nil, 0, fmt.Errorf("serve set-up: %w", err)
	}
	env.hash = cr.Hash
	return env, d, nil
}

// clientRun is one closed-loop client and its record of the window.
type clientRun struct {
	id   int
	cl   *client.Client
	tp   *countingTransport
	next int // index of the next test, kept across slices
	// corrupt flips a bit of the next wire answer: the negative control.
	corrupt          bool
	calls            int64
	failed           int64
	check            checkResult
	cycles           int64
	all, allUntraced []float64
	byCall           map[string][]float64
	tests            int64
	// probe, when set, is timed after each test. allProbe pairs each entry
	// of all with the probe after its test; testDurs, testProbes and
	// testCycles hold each test's wall time, probe time and cycles
	// simulated; probeTime is the window's total probe time.
	probe                            *probe
	allProbe                         []float64
	testDurs, testProbes, testCycles []float64
	probeTime                        float64
}

func newClientRun(url string, id int) *clientRun {
	tp := newCountingTransport()
	return &clientRun{
		id: id, tp: tp, byCall: map[string][]float64{},
		cl: client.New(url, client.WithClientID(fmt.Sprintf("bench-%d", id)), client.WithHTTPClient(&http.Client{Transport: tp})),
	}
}

// loop runs scripted tests back to back until the deadline. With a probe,
// it times the probe after each test and pairs it with the test and with
// each of the test's calls.
func (c *clientRun) loop(ctx context.Context, tr *tracer, src, hash string, tests []serveTest, deadline time.Time) {
	for ; time.Now().Before(deadline); c.next++ {
		t := c.next
		cycles0 := c.cycles
		t0 := time.Now()
		c.test(ctx, tr, src, hash, tests[t%len(tests)], t)
		d := time.Since(t0).Seconds()
		if c.probe != nil {
			p := c.probe.time()
			for len(c.allProbe) < len(c.all) {
				c.allProbe = append(c.allProbe, p)
			}
			c.testDurs = append(c.testDurs, d)
			c.testProbes = append(c.testProbes, p)
			c.testCycles = append(c.testCycles, float64(c.cycles-cycles0))
			c.probeTime += p
		}
		c.tests++
	}
}

// test runs one scripted test: compile, open, the command lists, close.
func (c *clientRun) test(ctx context.Context, tr *tracer, src, hash string, test serveTest, t int) {
	cl, id := c.cl, c.id
	// In a traced run every other test goes untraced, timed the same way,
	// so the two halves give the tracing overhead.
	traced := tr.enabled && t%2 == 0
	req := int64(id)<<32 | int64(t+1)
	var root *active
	if traced {
		root = tr.begin("test", nil, req)
		defer tr.end(root)
	}
	call := func(name string, f func() error) bool {
		c.calls++
		var d time.Duration
		var err error
		if traced {
			a := tr.begin(name, root, req)
			err = f()
			d = tr.end(a)
		} else {
			t0 := time.Now()
			err = f()
			d = time.Since(t0)
		}
		if err != nil {
			c.failed++
			return false
		}
		if traced || !tr.enabled {
			c.all = append(c.all, d.Seconds())
			c.byCall[name] = append(c.byCall[name], d.Seconds())
		} else {
			c.allUntraced = append(c.allUntraced, d.Seconds())
		}
		return true
	}
	ok := call("client.compile", func() error {
		cr, err := cl.Compile(ctx, src, server.CompileOptions{})
		if err == nil && !cr.Cached {
			c.check.compared++
			c.check.mismatched++ // the design was compiled in set-up
		}
		return err
	})
	var sess *client.Session
	ok = ok && call("client.session_open", func() (err error) {
		sess, err = cl.NewSession(ctx, hash, 0)
		return err
	})
	if !ok {
		return
	}
	for j, l := range test {
		var resp *server.CommandsResponse
		if call("client.commands", func() (err error) {
			resp, err = sess.Do(ctx, l.script)
			return err
		}) {
			if c.corrupt && len(resp.Outcomes) > 0 {
				resp.Outcomes[len(resp.Outcomes)-1].Value ^= 1
				c.corrupt = false
			}
			compareOutcomes(&c.check, resp.Outcomes, l.want, fmt.Sprintf("client %d test %d list %d", id, t, j))
			c.cycles += l.cycles
		}
	}
	call("client.session_close", func() error { return sess.Close(ctx) })
}

// execList runs one command list in-process on a testbench, as the server
// would, timing the engine runs as kernel.run spans.
func execList(tr *tracer, parent *active, tb *sim.Testbench, cmds []testbench.Command) ([]testbench.Outcome, error) {
	var outs []testbench.Outcome
	for _, c := range cmds {
		out := testbench.Outcome{Op: c.Op, Signal: c.Signal}
		before := tb.Cycle()
		switch c.Op {
		case testbench.OpPoke, testbench.OpPeek, testbench.OpWait:
			p, err := tb.Port(c.Signal)
			if err != nil {
				return outs, err
			}
			switch c.Op {
			case testbench.OpPoke:
				p.Poke(c.Value)
				out.Value = c.Value
			case testbench.OpPeek:
				out.Value = p.Peek()
			default:
				a := tr.begin("kernel.run", parent, 0)
				out.Value, err = p.Wait(c.Until.Pred(), c.MaxCycles)
				tr.end(a)
				if err != nil {
					return outs, err
				}
			}
		case testbench.OpStep:
			a := tr.begin("kernel.run", parent, 0)
			err := tb.Run(c.Cycles)
			tr.end(a)
			if err != nil {
				return outs, err
			}
		default:
			return outs, fmt.Errorf("unexpected op %q", c.Op)
		}
		out.Cycles = tb.Cycle() - before
		outs = append(outs, out)
	}
	return outs, nil
}

// replay runs every scripted test in-process on sim.Session and checks it
// against the same expectations the wire answers were checked against.
func replay(tr *tracer, d *sim.Design, tests []serveTest) (checkResult, error) {
	var res checkResult
	root := tr.begin("replay", nil, 0)
	defer tr.end(root)
	for ti, test := range tests {
		s := d.NewSession()
		tb := s.Testbench()
		for j, l := range test {
			a := tr.begin("testbench.exec", root, 0)
			got, err := execList(tr, a, tb, l.script.Commands())
			tr.end(a)
			if err != nil {
				s.Close()
				return res, fmt.Errorf("in-process replay test %d list %d: %w", ti, j, err)
			}
			compareOutcomes(&res, got, l.want, fmt.Sprintf("in-process replay test %d list %d", ti, j))
		}
		s.Close()
	}
	return res, nil
}

func runServeMix(cfg runConfig) (*report, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(serveProcs))
	tr := cfg.tr
	reps, nTests := serveSetupReps, testsPerClient
	if cfg.short {
		reps, nTests = 1, 2
	}
	g, src, err := design(serveScale)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	if tr.enabled {
		rep.initLayers()
	}
	tests := make([][]serveTest, serveClients)
	var all []serveTest
	for c := range tests {
		if tests[c], err = genTests(g, cfg.seed, c, nTests); err != nil {
			return nil, err
		}
		all = append(all, tests[c]...)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(cfg.seconds*float64(time.Second))+2*time.Minute)
	defer cancel()
	var env *serveEnv
	var runs []*clientRun
	var setupDurs []float64
	var elapsed time.Duration
	var rt runtimeCounters
	var mems []float64 // per slice, as in process
	// As in process, the window is cut into one slice per set-up, each
	// set-up timed on a fresh server just before its slice while the
	// clients are idle; the first server stays up and serves every slice.
	for i := 0; i < reps; i++ {
		if tr.enabled {
			quiesce()
			if err := stages(tr, src, inprocSpec{}); err != nil {
				return nil, fmt.Errorf("compile stages: %w", err)
			}
		}
		quiesce()
		e, d, err := serveSetup(ctx, tr, src)
		if err != nil {
			return nil, err
		}
		setupDurs = append(setupDurs, d.Seconds())
		held := heldMB()
		if i == 0 {
			env = e
			defer env.close()
			for c := 0; c < serveClients; c++ {
				r := newClientRun(env.ts.URL, c)
				r.corrupt = cfg.corrupt && c == 0
				if !tr.enabled { // as in process, untraced runs time a probe after each test
					r.probe = newProbe()
				}
				defer r.tp.base.CloseIdleConnections()
				runs = append(runs, r)
			}
		} else {
			e.close()
		}
		quiesce()
		rt0 := readRuntime()
		start := time.Now()
		deadline := start.Add(time.Duration(cfg.seconds / float64(reps) * float64(time.Second)))
		var wg sync.WaitGroup
		for c, r := range runs {
			wg.Add(1)
			go func(r *clientRun, tests []serveTest) {
				defer wg.Done()
				r.loop(ctx, tr, src, env.hash, tests, deadline)
			}(r, tests[c])
		}
		wg.Wait()
		elapsed += time.Since(start)
		rt = rt.plus(readRuntime().since(rt0))
		mems = append(mems, max(held, heldMB()))
	}

	mcl := client.New(env.ts.URL, client.WithClientID("metrics"))
	sm, err := mcl.Metrics(ctx)
	if err != nil {
		return nil, fmt.Errorf("server metrics: %w", err)
	}

	// In-process replay of every scripted test: sim.Session against the
	// same reference expectations.
	d, err := sim.Compile(src)
	if err != nil {
		return nil, err
	}
	chk, err := replay(tr, d, all)
	if err != nil {
		return nil, err
	}

	var lat, latProbe, latUntraced, testDurs, testProbes, testCycles, reqB, rspB []float64
	byCall := map[string][]float64{}
	var calls, failed, cycles, trips, testsDone int64
	probeTime := 0.0
	for _, r := range runs {
		chk.add(r.check)
		lat = append(lat, r.all...)
		latProbe = append(latProbe, r.allProbe...)
		latUntraced = append(latUntraced, r.allUntraced...)
		testDurs = append(testDurs, r.testDurs...)
		testProbes = append(testProbes, r.testProbes...)
		testCycles = append(testCycles, r.testCycles...)
		probeTime += r.probeTime
		for k, v := range r.byCall {
			byCall[k] = append(byCall[k], v...)
		}
		calls += r.calls
		failed += r.failed
		cycles += r.cycles
		trips += r.tp.trips
		reqB = append(reqB, r.tp.reqBytes...)
		rspB = append(rspB, r.tp.rspBts...)
		testsDone += r.tests
	}
	rep.attempted = calls + int64(chk.compared)
	rep.failed = failed
	rep.mismatched = int64(chk.mismatched)
	rep.firstMismatch = chk.first

	st := d.Stats()
	rep.meta["design"] = st
	rep.meta["clients"] = serveClients
	rep.meta["gomaxprocs"] = serveProcs
	rep.meta["setup_reps"] = len(setupDurs)
	rep.meta["requests_attempted"] = calls
	rep.meta["requests_completed"] = calls - failed
	rep.meta["tests_completed"] = testsDone
	rep.meta["cycles_completed"] = cycles
	rep.meta["checked_values"] = chk.compared
	rep.meta["latency_samples"] = len(lat)
	rep.meta["retries"] = trips - calls
	rep.meta["peak_rss_mb"] = peakRSSMB()
	// Raw figures exclude the probes' time from the window.
	busy := elapsed.Seconds() - probeTime
	rep.meta["raw_setup_s"] = median(setupDurs)
	rep.meta["raw_lane_cycles_per_s"] = float64(cycles) / busy
	rep.meta["raw_requests_per_s"] = float64(calls-failed) / busy
	rep.meta["raw_request_ms_p50"] = median(lat) * 1e3
	rep.meta["raw_request_ms_p90"] = quantile(lat, 0.9) * 1e3
	rep.meta["raw_request_ms_p99"] = quantile(lat, 0.99) * 1e3

	if !tr.enabled {
		latN := normalised(lat, latProbe)
		rep.meta["probe_ms_p50"] = median(testProbes) * 1e3
		rep.meta["request_ms_p99"] = quantile(latN, 0.99) * 1e3
		rep.meta["test_samples"] = len(testDurs)
		rep.setE2E("setup_s", median(setupDurs)/median(testProbes)*probeRef)
		rep.setE2E("lane_cycles_per_s", sum(testCycles)/sum(normalised(testDurs, testProbes)))
		rep.setE2E("request_ms_p50", median(latN)*1e3)
		rep.setE2E("request_ms_p90", quantile(latN, 0.9)*1e3)
		rep.setE2E("mem_mb", median(mems))
		return rep, nil
	}

	rep.setSetupLayers(tr)
	rep.setDesignLayers(st)
	kr := tr.durations("kernel.run")
	rep.setLayer("kernel.run_s", sum(kr))
	replayCycles := 0.0
	for _, t := range all {
		for _, l := range t {
			replayCycles += float64(l.cycles)
		}
	}
	rep.setLayer("kernel.ns_per_op_cycle", sum(kr)*1e9/(float64(st.Ops)*replayCycles))
	execMs := median(tr.durations("testbench.exec")) * 1e3
	cmdMs := median(byCall["client.commands"]) * 1e3
	rep.setLayer("testbench.exec_ms", execMs)
	rep.setLayer("testbench.overhead_share", 1-sum(kr)/sum(tr.durations("testbench.exec")))
	rep.setLayer("client.compile_hit_ms", median(byCall["client.compile"])*1e3)
	rep.setLayer("client.session_open_ms", median(byCall["client.session_open"])*1e3)
	rep.setLayer("client.commands_ms", cmdMs)
	rep.setLayer("client.session_close_ms", median(byCall["client.session_close"])*1e3)
	rep.setLayer("server.wire_overhead_ms", cmdMs-execMs)
	rep.setLayer("server.cache_hits", float64(sm.Cache.Hits))
	rep.setLayer("server.cache_misses", float64(sm.Cache.Misses))
	var checkouts, rejected uint64
	for _, p := range sm.Pools {
		checkouts += p.Checkouts
	}
	for _, e := range sm.Endpoints {
		rejected += e.Errors
	}
	rep.setLayer("sim.pool_checkouts", float64(checkouts))
	rep.setLayer("server.rejected", float64(rejected))
	rep.setLayer("client.retries", float64(trips-calls))
	rep.setLayer("server.request_bytes", median(reqB))
	rep.setLayer("server.response_bytes", median(rspB))
	rep.setLayer("runtime.alloc_bytes_per_cycle", float64(rt.allocBytes)/float64(max(cycles, 1)))
	rep.setLayer("runtime.gc_count", float64(rt.gcCycles))
	rep.setLayer("trace.overhead_share", median(lat)/median(latUntraced)-1)
	rep.meta["traced_requests_per_s"] = float64(calls-failed) / elapsed.Seconds()
	return rep, nil
}
