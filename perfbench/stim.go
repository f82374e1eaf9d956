package main

import (
	"fmt"
	"hash/fnv"

	"rteaal/internal/dfg"
	"rteaal/sim"
)

// The benchmark drives every design from its own seeded generator rather
// than sim.RandomStimulus, so a change to the program can never change the
// inputs it is measured on. A value is a hash of (seed, cycle, lane, input
// name): keying by name instead of port index keeps the inputs fixed even
// if a compiler change reorders the ports.

func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func nameKey(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}

func stimValue(seed uint64, cycle int64, lane int, key uint64) uint64 {
	return mix(mix(mix(seed^key)+uint64(cycle)) + uint64(lane))
}

// rng is a SplitMix64 stream for the benchmark's own random choices.
type rng struct{ s uint64 }

func (r *rng) next() uint64 { r.s += 0x9e3779b97f4a7c15; return mix(r.s) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// stimulus returns the sim.StimulusFunc that drives d's inputs.
func stimulus(d *sim.Design, seed uint64) sim.StimulusFunc {
	names := d.Inputs()
	keys := make([]uint64, len(names))
	for i, n := range names {
		keys[i] = nameKey(n)
	}
	return func(cycle int64, lane, input int) uint64 {
		return stimValue(seed, cycle, lane, keys[input])
	}
}

// reference is the correctness oracle: dfg.Interp over the unoptimised
// generated graph. It shares no code with the FIRRTL frontend, the
// optimiser, the levelizer, oim.Build or any kernel, so a bug in any
// of them shows as a mismatch instead of as an agreed wrong answer.
type reference struct {
	it      *dfg.Interp
	g       *dfg.Graph
	inKeys  []uint64 // graph input index -> stimulus key
	outOf   []int    // design output index -> graph output index
	outByNm map[string]int
}

func newReference(g *dfg.Graph, d *sim.Design) (*reference, error) {
	it, err := dfg.NewInterp(g)
	if err != nil {
		return nil, fmt.Errorf("reference interpreter: %w", err)
	}
	r := &reference{it: it, g: g, outByNm: map[string]int{}}
	inputs := map[string]bool{}
	for _, p := range g.Inputs {
		r.inKeys = append(r.inKeys, nameKey(p.Name))
		inputs[p.Name] = true
	}
	for i, p := range g.Outputs {
		r.outByNm[p.Name] = i
	}
	if d != nil {
		if len(d.Inputs()) != len(g.Inputs) {
			return nil, fmt.Errorf("design has %d inputs, reference graph %d", len(d.Inputs()), len(g.Inputs))
		}
		for _, n := range d.Inputs() {
			if !inputs[n] {
				return nil, fmt.Errorf("design input %q missing from the reference graph", n)
			}
		}
		for _, n := range d.Outputs() {
			gi, ok := r.outByNm[n]
			if !ok {
				return nil, fmt.Errorf("design output %q missing from the reference graph", n)
			}
			r.outOf = append(r.outOf, gi)
		}
		if len(r.outOf) != len(g.Outputs) {
			return nil, fmt.Errorf("design has %d outputs, reference graph %d", len(r.outOf), len(g.Outputs))
		}
	}
	return r, nil
}

// stepStim drives every input of the given lane with the benchmark
// stimulus for the cycle, then advances one cycle.
func (r *reference) stepStim(seed uint64, cycle int64, lane int) {
	for i, k := range r.inKeys {
		r.it.PokeInput(i, stimValue(seed, cycle, lane, k))
	}
	r.it.Step()
}

// output reads the design-indexed output as sampled at the last settle.
func (r *reference) output(i int) uint64 { return r.it.PeekOutput(r.outOf[i]) }

// prefixCheck compares an engine against the reference over the first
// cycles of a run, lane by lane: perCycle one-cycle bulk runs with every
// output compared after each, then one bulk run of bulk cycles compared at
// its end. The engine's outputs are recorded first and the reference then
// replays each lane alone, so checking 128 lanes needs one interpreter.
type prefixCheck struct {
	perCycle, bulk int
	// corrupt flips a bit of the first recorded engine output: the
	// negative control that proves a wrong value is caught.
	corrupt bool
}

// checkResult counts compared values and mismatches.
type checkResult struct {
	compared, mismatched int
	first                string
}

func (c *checkResult) add(o checkResult) {
	c.compared += o.compared
	c.mismatched += o.mismatched
	if c.first == "" {
		c.first = o.first
	}
}

func (c *checkResult) compare(got, want uint64, what func() string) {
	c.compared++
	if got != want {
		c.mismatched++
		if c.first == "" {
			c.first = fmt.Sprintf("%s: got %#x, want %#x", what(), got, want)
		}
	}
}

// run drives tb from cycle 0 and checks it. peek reads (lane, output).
func (pc prefixCheck) run(tb *sim.Testbench, peek func(lane, out int) uint64, ref *reference, seed uint64) (checkResult, error) {
	lanes, outs := tb.Lanes(), len(ref.outOf)
	if tb.Cycle() != 0 {
		return checkResult{}, fmt.Errorf("prefix check needs a fresh engine, at cycle %d", tb.Cycle())
	}
	rec := make([]uint64, 0, (pc.perCycle+1)*lanes*outs)
	record := func() {
		for l := 0; l < lanes; l++ {
			for o := 0; o < outs; o++ {
				rec = append(rec, peek(l, o))
			}
		}
	}
	for c := 0; c < pc.perCycle; c++ {
		if err := tb.Run(1); err != nil {
			return checkResult{}, err
		}
		record()
	}
	if err := tb.Run(int64(pc.bulk)); err != nil {
		return checkResult{}, err
	}
	record()
	if pc.corrupt {
		rec[0] ^= 1
	}
	var res checkResult
	for l := 0; l < lanes; l++ {
		ref.it.Reset()
		cycle := int64(0)
		at := func(row int) {
			for o := 0; o < outs; o++ {
				res.compare(rec[(row*lanes+l)*outs+o], ref.output(o), func() string {
					return fmt.Sprintf("lane %d cycle %d output %s", l, cycle, ref.g.Outputs[ref.outOf[o]].Name)
				})
			}
		}
		for ; cycle < int64(pc.perCycle); cycle++ {
			ref.stepStim(seed, cycle, l)
			at(int(cycle))
		}
		for ; cycle < int64(pc.perCycle+pc.bulk); cycle++ {
			ref.stepStim(seed, cycle, l)
		}
		at(pc.perCycle)
	}
	return res, nil
}
