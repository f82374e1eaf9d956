package main

import "time"

// The host the benchmark was built on lends it a share of a machine whose
// other tenants slow it by up to 2x, in stretches from under a second to
// many minutes (README.md, "Host noise"). A run's raw times therefore
// report how busy the host was as much as how fast the program is. The
// benchmark cancels that by timing a fixed probe next to every timed
// sample and reporting each time as a multiple of its probe's, converted
// back to seconds at probeRef: the time as it would read on a host where
// the probe takes probeRef. The probe is the benchmark's own code and
// never changes with the program, so a program that gets slower still
// reads slower; what cancels is the host's speed at that moment.

// probeRef is the reference probe time that turns ratios back into
// seconds: about what one probe takes on the 2-vCPU Xeon host when no
// neighbour is busy, so normalised figures read close to raw ones there.
const probeRef = 2e-3

// Probe shape: a levelized gather-compute-scatter pass like the scalar
// kernels' settle loop, over a working set the size of r1 at scale 4
// (about 22k slots and 20k two-operand ops), repeated probePasses times.
const (
	probeSlots  = 22000
	probeOps    = 20000
	probePasses = 20
)

type probe struct {
	li, lo, masks []uint64
	rc, sc        []int32
	kind          []uint8
}

func newProbe() *probe {
	r := rng{s: 0x5eed}
	p := &probe{
		li: make([]uint64, probeSlots), masks: make([]uint64, probeSlots),
		lo: make([]uint64, probeOps), sc: make([]int32, probeOps), kind: make([]uint8, probeOps),
		rc: make([]int32, 2*probeOps),
	}
	for i := range p.li {
		p.li[i] = r.next()
		p.masks[i] = ^uint64(0) >> (r.next() % 64)
	}
	for i := range p.rc {
		p.rc[i] = int32(r.intn(probeSlots))
	}
	for i := range p.sc {
		p.sc[i] = int32(r.intn(probeSlots))
		p.kind[i] = uint8(i / 512 % 4) // runs of one op kind, as in a layer
	}
	return p
}

// time runs the probe and returns how long it took in seconds.
func (p *probe) time() float64 {
	t0 := time.Now()
	li, lo, m, rc, sc, kind := p.li, p.lo, p.masks, p.rc, p.sc, p.kind
	for n := 0; n < probePasses; n++ {
		for k := range lo {
			a, b := li[rc[2*k]], li[rc[2*k+1]]
			var v uint64
			switch kind[k] {
			case 0:
				v = a + b
			case 1:
				v = a & b
			case 2:
				v = a | b
			default:
				v = a ^ b
			}
			lo[k] = v & m[sc[k]]
		}
		for k, v := range lo {
			li[sc[k]] = v
		}
	}
	return time.Since(t0).Seconds()
}

// normalised returns each time as a multiple of the probe timed next to
// it, converted back to seconds at probeRef.
func normalised(times, probes []float64) []float64 {
	out := make([]float64, len(times))
	for i, t := range times {
		out[i] = t / probes[i] * probeRef
	}
	return out
}
