package main

import (
	"fmt"
	"io"
)

// selfTest runs every workload briefly, untraced and traced, and checks the
// benchmark itself: every end-to-end and per-layer metric is reported with
// its unit, end-to-end values are positive, nothing fails or mismatches,
// and — the negative control — a deliberately corrupted output makes each
// workload's correctness check fail.
func selfTest(w io.Writer) error {
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{seed: 7, seconds: 0.5, tr: newTracer(traced), short: true}
			rep, err := wl.run(cfg)
			if err != nil {
				return fmt.Errorf("%s (traced %v): %w", wl.name, traced, err)
			}
			res := finish(w, rep, traced)
			if !res.Correct || rep.errorRatio() != 0 {
				return fmt.Errorf("%s (traced %v): error_ratio %g, first mismatch %q", wl.name, traced, rep.errorRatio(), rep.firstMismatch)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				return fmt.Errorf("%s (traced %v): %d metrics, want %d", wl.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					return fmt.Errorf("%s (traced %v): metric %s missing or without unit %q", wl.name, traced, m.name, m.unit)
				}
				if !traced && !(got.Value > 0) {
					return fmt.Errorf("%s: end-to-end metric %s = %g, want > 0", wl.name, m.name, got.Value)
				}
			}
			fmt.Fprintf(w, "selftest %s traced=%v: ok\n", wl.name, traced)
		}
		cfg := runConfig{seed: 7, seconds: 0.2, tr: newTracer(false), short: true, corrupt: true}
		rep, err := wl.run(cfg)
		if err != nil {
			return fmt.Errorf("%s negative control: %w", wl.name, err)
		}
		if rep.mismatched == 0 {
			return fmt.Errorf("%s negative control: a corrupted output went unnoticed", wl.name)
		}
		fmt.Fprintf(w, "selftest %s negative control: caught (%s)\n", wl.name, rep.firstMismatch)
	}
	return nil
}
