package main

import (
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"syscall"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// peakRSSMB reports the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// heldMB reports the memory the Go runtime holds from the OS (mapped and
// not yet released) in MB. Read right after a set-up, before anything is
// collected, it is the footprint the set-up drove the process to.
func heldMB() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()-s[1].Value.Uint64()) / (1 << 20)
}

// runtimeCounters samples the Go runtime's cumulative allocation and GC
// counts; the benchmark reports their deltas over a timed window.
type runtimeCounters struct{ allocBytes, gcCycles uint64 }

func readRuntime() runtimeCounters {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return runtimeCounters{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64()}
}

func (a runtimeCounters) plus(b runtimeCounters) runtimeCounters {
	return runtimeCounters{allocBytes: a.allocBytes + b.allocBytes, gcCycles: a.gcCycles + b.gcCycles}
}

func (a runtimeCounters) since(b runtimeCounters) runtimeCounters {
	return runtimeCounters{allocBytes: a.allocBytes - b.allocBytes, gcCycles: a.gcCycles - b.gcCycles}
}

// quiesce collects garbage and returns freed memory to the OS, so each
// set-up starts as in a fresh process and the peak resident size reflects
// one set-up rather than the pile-up of several.
func quiesce() { debug.FreeOSMemory() }
