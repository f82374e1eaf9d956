package main

import (
	"fmt"
	"time"

	"rteaal/internal/dfg"
	"rteaal/internal/firrtl"
	"rteaal/internal/gen"
	"rteaal/internal/kernel"
	"rteaal/internal/oim"
	"rteaal/internal/partition"
	"rteaal/internal/repcut"
	"rteaal/sim"
)

// socScale is the gen scale of the in-process workloads' r1: large enough
// that kernel settle dominates a run and the FIRRTL frontend dominates
// set-up, small enough that one set-up stays well under a second.
const socScale = 4

// inprocSpec shapes one in-process workload.
type inprocSpec struct {
	partitions     int   // 0 = monolithic
	lanes, workers int   // lanes 0 = one Session; otherwise one Batch
	chunk          int64 // cycles per timed operation
	setupReps      int   // set-ups per run; setup_s is their median
	check          prefixCheck
}

func runSocSession(cfg runConfig) (*report, error) {
	return runInproc(cfg, inprocSpec{chunk: 256, setupReps: 15, check: prefixCheck{perCycle: 128, bulk: 384}})
}

// soc-batch times 8-cycle operations: with 128 lanes of 65 inputs the
// testbench already splits stimulus-driven runs into one-cycle poke plans,
// and short operations give the latency percentiles enough samples. The
// measured batch has one worker: a two-worker batch keeps both vCPUs busy,
// and its times tracked the single-thread probe (probe.go) poorly. The
// traced run still times a two-worker batch on the same chunk for
// kernel.batch_worker_scaling.
func runSocBatch(cfg runConfig) (*report, error) {
	return runInproc(cfg, inprocSpec{lanes: 128, workers: 1, chunk: 8, setupReps: 15, check: prefixCheck{perCycle: 8, bulk: 24}})
}

func runSocPartitioned(cfg runConfig) (*report, error) {
	return runInproc(cfg, inprocSpec{partitions: 2, chunk: 256, setupReps: 4, check: prefixCheck{perCycle: 128, bulk: 384}})
}

// design generates r1 at the given scale: the unoptimised graph the
// reference interprets and the FIRRTL text every set-up starts from.
func design(scale int) (*dfg.Graph, string, error) {
	g, err := gen.Generate(gen.Spec{Family: gen.Rocket, Cores: 1, Scale: scale})
	if err != nil {
		return nil, "", err
	}
	src, err := firrtl.Emit(g)
	return g, src, err
}

// engine is a set-up simulation: one Session or one Batch with its
// Testbench driven by the benchmark stimulus.
type engine struct {
	d     *sim.Design
	sess  *sim.Session
	batch *sim.Batch
	tb    *sim.Testbench
	outs  int
}

func (e *engine) lanes() int { return e.tb.Lanes() }

func (e *engine) peek(lane, out int) uint64 {
	if e.batch != nil {
		return e.batch.PeekIndex(lane, out)
	}
	return e.sess.PeekIndex(out)
}

// readAll reads every output of every lane, as a testbench caller does
// after each run.
func (e *engine) readAll() uint64 {
	var x uint64
	for l := 0; l < e.lanes(); l++ {
		for o := 0; o < e.outs; o++ {
			x ^= e.peek(l, o)
		}
	}
	return x
}

// raw advances the engine n cycles with no stimulus: the engine-only
// bulk run the traced run compares the testbench against.
func (e *engine) raw(n int64) error {
	if e.batch != nil {
		e.batch.Run(n)
		return nil
	}
	return e.sess.Run(n)
}

func (e *engine) close() {
	if e.batch != nil {
		e.batch.Close()
	} else {
		e.sess.Close()
	}
}

// setup goes from FIRRTL text to an engine ready for its first cycle
// through the public API, with a span around each call.
func setup(tr *tracer, src string, sp inprocSpec, seed uint64) (*engine, time.Duration, error) {
	root := tr.begin("setup", nil, 0)
	a := tr.begin("sim.compile", root, 0)
	var opts []sim.Option
	if sp.partitions > 0 {
		opts = append(opts, sim.WithPartitions(sp.partitions))
	}
	d, err := sim.Compile(src, opts...)
	tr.end(a)
	if err != nil {
		return nil, 0, fmt.Errorf("compile: %w", err)
	}
	e := &engine{d: d, outs: len(d.Outputs())}
	if sp.lanes == 0 {
		a = tr.begin("sim.new_session", root, 0)
		e.sess = d.NewSession()
		tr.end(a)
		a = tr.begin("sim.testbench", root, 0)
		e.tb = e.sess.Testbench()
	} else {
		a = tr.begin("sim.new_batch", root, 0)
		e.batch, err = d.NewBatchParallel(sp.lanes, sp.workers)
		tr.end(a)
		if err != nil {
			return nil, 0, fmt.Errorf("new batch: %w", err)
		}
		a = tr.begin("sim.testbench", root, 0)
		e.tb = e.batch.Testbench()
	}
	e.tb.Drive(stimulus(d, seed))
	tr.end(a)
	return e, tr.end(root), nil
}

// stages repeats sim.CompileGraph's pipeline stage by stage, in its order,
// with a span around each stage call; the traced run attributes set-up to
// layers from these spans.
func stages(tr *tracer, src string, sp inprocSpec) error {
	root := tr.begin("stages", nil, 0)
	defer tr.end(root)
	a := tr.begin("firrtl.parse", root, 0)
	g, err := firrtl.ParseAndElaborate(src)
	tr.end(a)
	if err != nil {
		return err
	}
	p := sim.DefaultOptPasses()
	a = tr.begin("dfg.optimize", root, 0)
	og, err := dfg.Optimize(g, dfg.OptOptions{ConstFold: p.ConstFold, CopyProp: p.CopyProp, CSE: p.CSE,
		MuxChainFuse: p.MuxChainFuse, DCE: p.DCE, SweepRegs: p.SweepRegs})
	tr.end(a)
	if err != nil {
		return err
	}
	a = tr.begin("dfg.levelize", root, 0)
	lv, err := dfg.Levelize(og)
	tr.end(a)
	if err != nil {
		return err
	}
	a = tr.begin("oim.build", root, 0)
	t, err := oim.Build(lv)
	tr.end(a)
	if err != nil {
		return err
	}
	kcfg := kernel.Config{Kind: kernel.PSU}
	if sp.partitions > 0 {
		a = tr.begin("partition.plan", root, 0)
		plan, err := repcut.NewPlan(t, sp.partitions, partition.MinCut{})
		tr.end(a)
		if err != nil {
			return err
		}
		a = tr.begin("repcut.lower", root, 0)
		progs, err := plan.Lower(kcfg)
		if err != nil {
			tr.end(a)
			return err
		}
		inst, err := plan.Instantiate(progs)
		tr.end(a)
		if err != nil {
			return err
		}
		inst.Close()
		return nil
	}
	a = tr.begin("kernel.lower", root, 0)
	prog, err := kernel.NewProgram(t, kcfg)
	tr.end(a)
	if err != nil {
		return err
	}
	if sp.lanes == 0 {
		a = tr.begin("kernel.instantiate", root, 0)
		prog.Instantiate()
		tr.end(a)
		return nil
	}
	a = tr.begin("kernel.batch_build", root, 0)
	b, err := prog.InstantiateBatchWith(sp.lanes, kernel.BatchOptions{Workers: sp.workers, Packing: true})
	tr.end(a)
	if err != nil {
		return err
	}
	b.Close()
	return nil
}

// leg is one kind of timed operation. Untimed legs in a traced run are
// timed without a span, for the tracing overhead.
type leg struct {
	name  string
	plain bool
	run   func() error
	// probe, when set, is timed right after each run of the leg, into
	// durs[name+".probe"].
	probe *probe
}

// window runs the legs in rotation for the given seconds, finishing the
// last rotation, and appends each leg's durations in seconds to durs.
func window(tr *tracer, seconds float64, legs []leg, durs map[string][]float64) (elapsed time.Duration, failed int64) {
	base := 0
	for _, d := range durs {
		base += len(d)
	}
	root := tr.begin("run", nil, 0)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i == 0 || i%len(legs) != 0 || time.Now().Before(deadline); i++ {
		lg := legs[i%len(legs)]
		var d time.Duration
		var err error
		if lg.plain {
			t0 := time.Now()
			err = lg.run()
			d = time.Since(t0)
		} else {
			a := tr.begin(lg.name, root, int64(base+i+1))
			err = lg.run()
			d = tr.end(a)
		}
		durs[lg.name] = append(durs[lg.name], d.Seconds())
		if lg.probe != nil {
			durs[lg.name+".probe"] = append(durs[lg.name+".probe"], lg.probe.time())
		}
		if err != nil {
			failed++
		}
	}
	elapsed = time.Since(start)
	tr.end(root)
	return elapsed, failed
}

// sink keeps the output reads of each timed operation live.
var sink uint64

func runInproc(cfg runConfig, sp inprocSpec) (*report, error) {
	tr := cfg.tr
	reps := sp.setupReps
	if cfg.short {
		reps = 1
		sp.check.perCycle, sp.check.bulk = 4, 12
	}
	sp.check.corrupt = cfg.corrupt
	g, src, err := design(socScale)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	if tr.enabled {
		rep.initLayers()
	}
	var e, aux *engine
	var legs []leg
	var chk checkResult
	var setupDurs []float64
	// Untraced runs time a probe (probe.go) after each measured operation.
	var pb *probe
	if !tr.enabled {
		pb = newProbe()
	}
	var elapsed time.Duration
	var failed int64
	var rt runtimeCounters
	// mems holds, per slice, the larger of the memory held right after
	// its set-up and at its end; mem_mb is their median. The process's
	// peak RSS is the maximum over all set-ups and swung by ±10% with
	// collection timing, so it goes to the meta line instead.
	var mems []float64
	durs := map[string][]float64{}
	// The window is cut into one slice per set-up, each set-up timed just
	// before its slice, so set-up and run figures both sample the host
	// over the whole run instead of set-up sampling only its first
	// seconds.
	for i := 0; i < reps; i++ {
		if tr.enabled {
			// Stage-by-stage and public set-ups alternate so neither
			// side always runs on a colder heap.
			quiesce()
			if err := stages(tr, src, sp); err != nil {
				return nil, fmt.Errorf("compile stages: %w", err)
			}
		}
		quiesce()
		ne, d, err := setup(tr, src, sp, cfg.seed)
		if err != nil {
			return nil, err
		}
		setupDurs = append(setupDurs, d.Seconds())
		held := heldMB()
		if i == 0 {
			e = ne
			defer e.close()
			chk, legs, aux, err = prepare(cfg, sp, g, src, e, pb)
			if aux != nil {
				defer aux.close()
			}
			if err != nil {
				return nil, err
			}
		} else {
			ne.close()
		}
		quiesce()
		rt0 := readRuntime()
		el, f := window(tr, cfg.seconds/float64(reps), legs, durs)
		rt = rt.plus(readRuntime().since(rt0))
		elapsed += el
		failed += f
		mems = append(mems, max(held, heldMB()))
	}
	rep.attempted += int64(chk.compared)
	rep.mismatched += int64(chk.mismatched)
	rep.firstMismatch = chk.first

	ops := durs["testbench.run"]
	laneCycles := float64(sp.chunk) * float64(e.lanes())
	nOps := int64(0)
	for _, d := range durs {
		nOps += int64(len(d))
	}
	rep.attempted += nOps
	rep.failed += failed

	st := e.d.Stats()
	rep.meta["design"] = st
	if ps, ok := e.d.PartitionStats(); ok {
		rep.meta["partition_stats"] = ps
	}
	rep.meta["lanes"] = e.lanes()
	rep.meta["chunk_cycles"] = sp.chunk
	rep.meta["setup_reps"] = len(setupDurs)
	rep.meta["checked_cycles"] = sp.check.perCycle + sp.check.bulk
	rep.meta["checked_values"] = chk.compared
	rep.meta["operations_attempted"] = nOps
	rep.meta["operations_completed"] = nOps - failed
	rep.meta["lane_cycles_attempted"] = float64(nOps) * laneCycles
	rep.meta["lane_cycles_completed"] = float64(nOps-failed) * laneCycles
	rep.meta["latency_samples"] = len(ops)
	rep.meta["raw_setup_s"] = median(setupDurs)
	rep.meta["raw_lane_cycles_per_s"] = laneCycles / median(ops)
	rep.meta["raw_request_ms_p50"] = median(ops) * 1e3
	rep.meta["raw_request_ms_p90"] = quantile(ops, 0.9) * 1e3
	rep.meta["raw_request_ms_p99"] = quantile(ops, 0.99) * 1e3
	rep.meta["raw_requests_per_s"] = float64(len(ops)) / (elapsed.Seconds() - sum(durs["testbench.run.probe"]))
	rep.meta["peak_rss_mb"] = peakRSSMB()

	if !tr.enabled {
		probes := durs["testbench.run.probe"]
		lat := normalised(ops, probes)
		rep.meta["probe_ms_p50"] = median(probes) * 1e3
		rep.meta["request_ms_p99"] = quantile(lat, 0.99) * 1e3
		rep.setE2E("setup_s", median(setupDurs)/median(probes)*probeRef)
		rep.setE2E("lane_cycles_per_s", laneCycles/median(lat))
		rep.setE2E("request_ms_p50", median(lat)*1e3)
		rep.setE2E("request_ms_p90", quantile(lat, 0.9)*1e3)
		rep.setE2E("mem_mb", median(mems))
		return rep, nil
	}

	rep.setSetupLayers(tr)
	rep.setDesignLayers(st)
	if ps, ok := e.d.PartitionStats(); ok {
		rep.setLayer("partition.replication_factor", ps.ReplicationFactor)
		rep.setLayer("partition.cut_size", float64(ps.CutSize))
		rep.setLayer("partition.max_ops", float64(ps.MaxPartitionOps))
	}
	engineName := "kernel.run"
	if sp.partitions > 0 {
		engineName = "repcut.run"
		rep.setLayer("repcut.run_s", sum(durs[engineName]))
		rep.setLayer("repcut.vs_monolithic", median(durs["monolithic.testbench.run"])/median(ops))
	}
	engMed := median(durs[engineName])
	rep.setLayer("kernel.run_s", sum(durs[engineName]))
	rep.setLayer("kernel.ns_per_op_cycle", engMed*1e9/(float64(st.Ops)*laneCycles))
	rep.setLayer("testbench.overhead_share", 1-engMed/median(ops))
	if sp.lanes > 0 {
		rep.setLayer("kernel.batch_worker_scaling", engMed/median(durs["kernel.run.2worker"]))
	}
	cycles := float64(nOps) * laneCycles
	rep.setLayer("runtime.alloc_bytes_per_cycle", float64(rt.allocBytes)/cycles)
	rep.setLayer("runtime.gc_count", float64(rt.gcCycles))
	rep.setLayer("trace.overhead_share", median(ops)/median(durs["testbench.run.untraced"])-1)
	rep.meta["traced_lane_cycles_per_s"] = laneCycles / median(ops)
	return rep, nil
}

// prepare checks a freshly set-up engine against the reference, then
// builds and warms up the timed legs: the measured testbench operation,
// timed with pb after each run when pb is set, and in a traced run the
// comparison legs with any auxiliary engine they need.
func prepare(cfg runConfig, sp inprocSpec, g *dfg.Graph, src string, e *engine, pb *probe) (chk checkResult, legs []leg, aux *engine, err error) {
	ref, err := newReference(g, e.d)
	if err != nil {
		return chk, nil, nil, err
	}
	if chk, err = sp.check.run(e.tb, e.peek, ref, cfg.seed); err != nil {
		return chk, nil, nil, fmt.Errorf("prefix check: %w", err)
	}
	op := func() error {
		err := e.tb.Run(sp.chunk)
		sink ^= e.readAll()
		return err
	}
	legs = []leg{{name: "testbench.run", run: op, probe: pb}}
	if cfg.tr.enabled {
		legs = append(legs, leg{name: "testbench.run.untraced", plain: true, run: op})
		engineLeg := "kernel.run"
		if sp.partitions > 0 {
			engineLeg = "repcut.run"
		}
		legs = append(legs, leg{name: engineLeg, run: func() error { return e.raw(sp.chunk) }})
		switch {
		case sp.lanes > 0:
			two := sp
			two.workers = 2
			if aux, _, err = setup(newTracer(false), src, two, cfg.seed); err != nil {
				return chk, nil, nil, err
			}
			legs = append(legs, leg{name: "kernel.run.2worker", run: func() error { return aux.raw(sp.chunk) }})
		case sp.partitions > 0:
			if aux, _, err = setup(newTracer(false), src, inprocSpec{}, cfg.seed); err != nil {
				return chk, nil, nil, err
			}
			legs = append(legs, leg{name: "monolithic.testbench.run", run: func() error { return aux.tb.Run(sp.chunk) }})
		}
	}
	for _, lg := range legs { // warm-up: caches, lazy schedules, poke-plan buffers
		for i := 0; i < 2; i++ {
			if err := lg.run(); err != nil {
				return chk, legs, aux, fmt.Errorf("warm-up %s: %w", lg.name, err)
			}
		}
	}
	return chk, legs, aux, nil
}
