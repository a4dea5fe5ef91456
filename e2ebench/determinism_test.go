package main

import (
	"testing"

	"farm/internal/sim"
)

// short shrinks a workload so a repetition takes about a second of host
// time, keeping its shape: same clients, a kill where the workload has
// one.
func short(s spec) spec {
	s.subscribers = min(s.subscribers, 2000)
	s.accounts = min(s.accounts, 4096)
	s.regions = 6
	s.window = 2 * sim.Millisecond
	return s
}

// A repetition's outcome is a function of the workload and the seed
// alone: repeating a seed reproduces it exactly, tracing, history
// recording and profiling included, and another seed changes it.
func TestOutcomeIsDeterministicPerSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload three times")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			s := short(w)
			a, err := runRep(s, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			b, err := runRep(s, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			if a.outcome != b.outcome {
				t.Errorf("seed 1 twice:\n%+v\n%+v", a.outcome, b.outcome)
			}
			c, err := runRep(s, 2, false)
			if err != nil {
				t.Fatal(err)
			}
			if c.outcome == a.outcome {
				t.Errorf("seeds 1 and 2 gave the same outcome %+v", a.outcome)
			}
		})
	}
}

func TestRecoveryTime(t *testing.T) {
	// One commit per µs until 100µs, none until 300µs, then one per µs
	// again: the level over [0, 100µs) is 1/µs, and the trailing 100µs
	// window reaches 80 commits 80µs after the gap ends.
	var times []sim.Time
	for at := sim.Microsecond; at < 100*sim.Microsecond; at += sim.Microsecond {
		times = append(times, at)
	}
	for at := 300 * sim.Microsecond; at < 600*sim.Microsecond; at += sim.Microsecond {
		times = append(times, at)
	}
	at, ok := recoveryTime(times, 0, 100*sim.Microsecond, 100*sim.Microsecond)
	if want := 379 * sim.Microsecond; !ok || at != want {
		t.Errorf("recoveryTime = %v, %v; want %v", at, ok, want)
	}
	if _, ok := recoveryTime(times[:99], 0, 100*sim.Microsecond, 100*sim.Microsecond); ok {
		t.Error("recovered with no commits after the gap")
	}
}
