// Command e2ebench is the repository's benchmark. It drives the simulated
// FaRM cluster from outside, through the public APIs the examples use
// (core.New, tatp.Setup / bank.Setup, loadgen, Cluster.RunFor / Kill /
// StartAudit / PeekObject / TraceTime, the counters, the tracer and the
// history checker), on the workloads defined in workload.go.
//
//	e2ebench --workload tatp|bank|failover --seed N --seconds S --trace 0|1
//
// --trace 0 repeats set-up plus measured window with one seed until S
// host seconds have passed (at least three times) and reports the
// end-to-end metrics: host-time metrics as medians over the repetitions,
// virtual-time metrics from the outcome every repetition must reproduce
// exactly. --trace 1 runs once plain and once with causality tracing,
// history recording (bank, failover) and CPU profiling, checks that the
// two outcomes are identical, and reports the per-layer metrics.
//
// Every repetition passes the correctness gate after its window (see
// gate). The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. A failed check is named
// on standard error and the exit code is 1.
//
// Run it through run.sh from the repository root, which builds it with
// its caches inside the checkout. Its self-tests run with
// `go -C e2ebench test ./...`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// minReps is the fewest repetitions a --trace 0 run makes, so that the
// reported host-time medians always have company.
const minReps = 3

// result is the benchmark's last output line. attempted counts the
// transactions started in the measured windows; failed counts those whose
// outcome the correctness gate rejected, which is all of them when any
// check fails and none otherwise. Conflict aborts and transactions lost
// with a killed machine are FaRM's correct behaviour; tx.fail_rate
// measures them.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted uint64  `json:"attempted"`
	Failed    uint64  `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "tatp, bank or failover")
	seed := flag.Uint64("seed", 1, "workload seed (0 means 1, as in core.Options)")
	seconds := flag.Float64("seconds", 10, "host seconds to keep repeating the measurement")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	s, ok := lookup(*workload)
	if !ok || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "usage: e2ebench --workload tatp|bank|failover --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}

	var res result
	var err error
	if *traced == 1 {
		res, err = layerRun(s, *seed)
	} else {
		res, err = e2eRun(s, *seed, time.Duration(*seconds*float64(time.Second)))
	}
	if err == nil {
		err = res.Metrics.checkFinite()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "FAIL %s seed %d: %v\n", s.name, *seed, err)
		res.Correct, res.Failed = false, res.Attempted
	}
	out, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintf(os.Stderr, "encode result: %v\n", jerr)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if err != nil {
		os.Exit(1)
	}
}

// e2eRun repeats the plain measurement until the time budget is spent.
func e2eRun(s spec, seed uint64, budget time.Duration) (result, error) {
	res := result{Metrics: metrics{}}
	var reps []*rep
	start := time.Now()
	// Stop before a repetition that the mean repetition time so far says
	// would end past the budget.
	for len(reps) < minReps || time.Since(start)*time.Duration(len(reps)+1)/time.Duration(len(reps)) <= budget {
		r, err := runRep(s, seed, false)
		if r != nil {
			res.Attempted += r.Started
		}
		if err != nil {
			return res, err
		}
		if len(reps) > 0 && r.outcome != reps[0].outcome {
			return res, fmt.Errorf("determinism: repetition %d's outcome %+v differs from %+v",
				len(reps), r.outcome, reps[0].outcome)
		}
		reps = append(reps, r)
		progress(s, len(reps), r)
	}
	res.Correct, res.Metrics = true, endToEnd(reps)
	return res, nil
}

// layerRun makes one plain and one traced, profiled repetition of the
// same seed. Tracing must not change the outcome.
func layerRun(s spec, seed uint64) (result, error) {
	res := result{Metrics: metrics{}}
	plain, err := runRep(s, seed, false)
	if plain != nil {
		res.Attempted += plain.Started
	}
	if err != nil {
		return res, err
	}
	progress(s, 1, plain)
	traced, err := runRep(s, seed, true)
	if traced != nil {
		res.Attempted += traced.Started
	}
	if err != nil {
		return res, fmt.Errorf("traced run: %w", err)
	}
	progress(s, 2, traced)
	if traced.outcome != plain.outcome {
		return res, fmt.Errorf("outcome invariance: traced outcome %+v differs from plain %+v",
			traced.outcome, plain.outcome)
	}
	m, err := perLayer(plain, traced)
	if err != nil {
		return res, err
	}
	res.Correct, res.Metrics = true, m
	return res, nil
}

// progress reports one repetition on standard error, with the sample
// count behind the latency quantiles.
func progress(s spec, i int, r *rep) {
	fmt.Fprintf(os.Stderr, "%s rep %d: setup %.2fs (cpu %.2fs) window %.2fs (cpu %.2fs) | %d committed (latency samples) of %d started, %d failed | p50 %.1fµs p99.9 %.1fµs | %.1f tx/ms | recovery %.3fms | heap %.0fMB\n",
		s.name, i, r.setupS, r.setupCPU, r.windowS, r.windowCPU, r.Committed, r.Started, r.Failed,
		r.P50Us, r.P999Us, r.SimTxPerMs, r.RecoveryMs, r.heapMB)
}
