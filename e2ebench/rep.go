package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"farm/internal/bank"
	"farm/internal/core"
	"farm/internal/history"
	"farm/internal/loadgen"
	"farm/internal/sim"
	"farm/internal/trace"
)

// outcome is the virtual-time result of one repetition: a pure function
// of the workload and the seed, so two repetitions with the same seed
// must produce equal outcomes, traced or not.
type outcome struct {
	Events     uint64  // engine events in the measured window
	Committed  uint64  // transactions committed in the window
	Started    uint64  // transactions started in the window
	Failed     uint64  // of those: aborted, or never completed after the drain
	SimTxPerMs float64 // committed per virtual millisecond of window
	P50Us      float64 // exact committed-transaction latency quantiles
	P999Us     float64
	FailRate   float64
	RecoveryMs float64
}

// rep is everything one repetition measured.
type rep struct {
	outcome

	setupS, clusterS, loadS float64 // host seconds
	setupEvents             uint64
	setupSimMs              float64

	windowS    float64 // host seconds simulating the measured window
	windowCPU  float64 // process CPU seconds over the same span
	setupCPU   float64
	heapMB     float64 // live heap after a forced GC at the window's end
	mallocs    uint64  // heap allocations during the window
	allocBytes uint64

	counters map[string]uint64  // core and fabric counter deltas over the window
	msgP50Us map[string]float64 // transport delivery latency p50 per message type

	// Kill workloads only: the victim, the kill time, and milestone times
	// after it. Milestones absent from the run are missing from the map.
	victim     int
	killAt     sim.Time
	milestones map[string]float64
	spanEndMs  map[string]float64 // last end of each recovery span, ms after the kill

	spans map[string][]sim.Time // durations of traced spans opened in the window

	profSetup, profRun []byte // CPU profiles of a traced repetition
}

// txLog wraps the workload's operation and records every transaction's
// outcome exactly, in place of stats.Histogram's 16-per-octave buckets.
type txLog struct {
	eng      *sim.Engine
	from, to sim.Time // the measured window [from, to)

	// The cohort of transactions started inside the window.
	started, completed, aborted uint64
	// lat holds the virtual latency of every transaction committed inside
	// the window; commits holds every commit since load started.
	lat     []sim.Time
	commits []commit
}

type commit struct {
	at      sim.Time
	machine int
}

func (l *txLog) wrap(op loadgen.Op) loadgen.Op {
	return func(m *core.Machine, thread int, rng *sim.Rand, done func(bool)) {
		begin := l.eng.Now()
		cohort := begin >= l.from && begin < l.to
		if cohort {
			l.started++
		}
		op(m, thread, rng, func(ok bool) {
			now := l.eng.Now()
			if cohort {
				l.completed++
				if !ok {
					l.aborted++
				}
			}
			if ok {
				l.commits = append(l.commits, commit{now, m.ID})
				if now >= l.from && now < l.to {
					l.lat = append(l.lat, now-begin)
				}
			}
			done(ok)
		})
	}
}

// runRep sets up a fresh cluster, drives the workload through its
// measured window, drains it and runs the correctness gate. A traced
// repetition also records causality traces, the history (when the
// workload asks) and CPU profiles of set-up and of the window. A non-nil
// error names the check that failed.
func runRep(s spec, seed uint64, traced bool) (*rep, error) {
	runtime.GC() // start every repetition from the same empty heap
	r := &rep{victim: -1, milestones: map[string]float64{}, spanEndMs: map[string]float64{}}
	opts := s.options(seed)
	if traced {
		opts.Trace = trace.Options{Enabled: true, SampleN: 1, SampleM: s.traceEvery}
		opts.History = s.history
	}

	var prof bytes.Buffer
	if traced {
		if err := startProfile(&prof); err != nil {
			return nil, err
		}
	}
	var c *core.Cluster
	var op loadgen.Op
	var bw *bank.Workload
	var err error
	var t1 time.Time
	t0, cpu0 := time.Now(), cpuSeconds()
	labelled("setup", func() {
		c = core.New(opts)
		t1 = time.Now()
		op, bw, err = s.populate(c)
	})
	t2 := time.Now()
	r.setupCPU = cpuSeconds() - cpu0
	if traced {
		pprof.StopCPUProfile()
		r.profSetup = append([]byte(nil), prof.Bytes()...)
		prof.Reset()
	}
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	r.setupS, r.clusterS, r.loadS = t2.Sub(t0).Seconds(), t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds()
	r.setupEvents, r.setupSimMs = c.Eng.Executed(), c.Now().Millis()

	loadStart := c.Now()
	log := &txLog{eng: c.Eng, from: loadStart + s.warm, to: math.MaxInt64}
	g := loadgen.New(c, log.wrap(op))
	g.Start(machineIDs(s.machines), s.threads, s.conc)
	c.RunFor(s.warm)

	// The measured window, started on a collected heap so that set-up's
	// garbage does not land on it.
	runtime.GC()
	for _, name := range c.MsgLatency.Names() {
		c.MsgLatency.Get(name).Reset()
	}
	core0, net0 := c.Counters.Snapshot(), c.Net.Counters.Snapshot()
	ev0 := c.Eng.Executed()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if traced {
		if err := startProfile(&prof); err != nil {
			return nil, err
		}
	}
	hosted := 0
	t3, cpu3 := time.Now(), cpuSeconds()
	labelled("run", func() {
		c.RunFor(s.window)
		if !s.kill {
			return
		}
		r.killAt, r.victim = c.Now(), victim(c)
		hosted = len(c.Machine(r.victim).HostedRegions())
		c.Kill(r.victim)
		for recovered(c, r.killAt) < hosted && c.Now()-r.killAt < rereplicateLimit {
			c.RunFor(sim.Millisecond)
		}
	})
	r.windowS = time.Since(t3).Seconds()
	r.windowCPU = cpuSeconds() - cpu3
	if traced {
		pprof.StopCPUProfile()
		r.profRun = prof.Bytes()
	}
	runtime.ReadMemStats(&ms1)
	log.to = c.Now()
	g.Stop()
	r.Events = c.Eng.Executed() - ev0
	r.mallocs, r.allocBytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
	r.counters = c.Counters.Diff(core0)
	for k, v := range c.Net.Counters.Diff(net0) {
		r.counters[k] += v
	}
	r.msgP50Us = map[string]float64{}
	for _, name := range c.MsgLatency.Names() {
		r.msgP50Us[name] = us(c.MsgLatency.Get(name).Median())
	}
	runtime.GC()
	var ms2 runtime.MemStats
	runtime.ReadMemStats(&ms2)
	r.heapMB = float64(ms2.HeapAlloc) / (1 << 20)

	c.RunFor(drain)
	if err := r.finish(s, c, log, loadStart); err != nil {
		return r, err
	}
	if err := gate(s, c, bw, r, hosted); err != nil {
		return r, err
	}
	if c.Tracer != nil {
		r.collectSpans(c.Tracer.Records(), log.from, log.to)
	}
	return r, nil
}

// profileHz is the CPU profile's sampling rate, above pprof's default 100
// so that a layer taking 1% of a one-second window still gets a few
// samples.
const profileHz = 250

// startProfile starts a CPU profile at profileHz. The runtime prints a
// warning that the rate was set before the profile started; the rate
// holds nonetheless.
func startProfile(w *bytes.Buffer) error {
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(w); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	return nil
}

// labelled runs fn under the pprof label phase=<phase>, so profile
// samples taken in the benchmark's own calls carry the phase they belong
// to.
func labelled(phase string, fn func()) {
	pprof.Do(context.Background(), pprof.Labels("phase", phase), func(context.Context) { fn() })
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

func machineIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// recovered counts regions re-replicated at or after `since`.
func recovered(c *core.Cluster, since sim.Time) int {
	n := 0
	for _, at := range c.RegionRecoveredAt {
		if at >= since {
			n++
		}
	}
	return n
}

func us(t sim.Time) float64 { return float64(t) / float64(sim.Microsecond) }

// finish derives the virtual-time outcome from the transaction log.
func (r *rep) finish(s spec, c *core.Cluster, log *txLog, loadStart sim.Time) error {
	r.Committed = uint64(len(log.lat))
	r.Started = log.started
	r.Failed = log.aborted + (log.started - log.completed)
	if r.Started == 0 || r.Committed == 0 {
		return fmt.Errorf("load: no transactions in the measured window")
	}
	r.FailRate = float64(r.Failed) / float64(r.Started)
	r.SimTxPerMs = float64(r.Committed) / (log.to - log.from).Millis()
	sort.Slice(log.lat, func(i, j int) bool { return log.lat[i] < log.lat[j] })
	r.P50Us, r.P999Us = us(quantile(log.lat, 0.5)), us(quantile(log.lat, 0.999))

	// Recovery: survivor throughput against its undisturbed level. The
	// disturbance is the kill on a kill workload, and the cold start of
	// every client otherwise.
	disturbed, searchFrom, levelTo := loadStart, loadStart, log.to
	if s.kill {
		suspect, ok := c.TraceTime("suspect", r.killAt)
		if !ok {
			return fmt.Errorf("failover: no suspect milestone after the kill")
		}
		disturbed, searchFrom, levelTo = r.killAt, suspect, r.killAt
		for _, ev := range milestones {
			if at, ok := c.TraceTime(ev, r.killAt); ok {
				r.milestones[ev] = (at - r.killAt).Millis()
			}
		}
		last := r.killAt
		for _, at := range c.RegionRecoveredAt {
			if at > last {
				last = at
			}
		}
		r.milestones["data-rec-done"] = (last - r.killAt).Millis()
	}
	var times []sim.Time
	for _, cm := range log.commits {
		if cm.machine != r.victim {
			times = append(times, cm.at)
		}
	}
	at, ok := recoveryTime(times, log.from, levelTo, searchFrom)
	if !ok {
		return fmt.Errorf("recovery: throughput never regained 80%% of its level")
	}
	r.RecoveryMs = (at - disturbed).Millis()
	return nil
}

// milestones are the recovery milestones core records, in order (§5,
// Figure 9's annotations).
var milestones = []string{"suspect", "config-commit", "all-active", "data-rec-start"}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []sim.Time, q float64) sim.Time {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// rampWindow is the width of the trailing window survivor throughput is
// counted over when finding the recovery point.
const rampWindow = 100 * sim.Microsecond

// recoveryTime returns the first commit at or after searchFrom where the
// commit count in the trailing rampWindow reaches 80% of the level (the
// commit rate over [levelFrom, levelTo)) and the following rampWindow
// holds at least 60% of that target — the 80% rule of internal/exper's
// failure experiments, evaluated at every commit instead of on 1 ms
// buckets. times must be sorted.
func recoveryTime(times []sim.Time, levelFrom, levelTo, searchFrom sim.Time) (sim.Time, bool) {
	count := func(from, to sim.Time) int { // commits in (from, to]
		return sort.Search(len(times), func(i int) bool { return times[i] > to }) -
			sort.Search(len(times), func(i int) bool { return times[i] > from })
	}
	if levelTo <= levelFrom {
		return 0, false
	}
	level := float64(count(levelFrom-1, levelTo-1)) / float64(levelTo-levelFrom)
	target := 0.8 * level * float64(rampWindow)
	if target <= 0 {
		return 0, false
	}
	start := sort.Search(len(times), func(i int) bool { return times[i] >= searchFrom })
	for _, t := range times[start:] {
		if float64(count(t-rampWindow, t)) >= target && float64(count(t, t+rampWindow)) >= 0.6*target {
			return t, true
		}
	}
	return 0, false
}

// gate is the correctness gate every repetition passes after its window:
// a clean conclusive audit of every region, conservation of the bank
// balance sum read straight from primary memory, a complete recovery on
// a kill workload, no message of an unknown type, and on traced runs a
// strict-serializable history and a trace that dropped nothing.
func gate(s spec, c *core.Cluster, bw *bank.Workload, r *rep, hosted int) error {
	var reports []core.AuditReport
	done := false
	c.StartAudit(func(rs []core.AuditReport) { reports, done = rs, true })
	for i := 0; i < 200 && !done; i++ {
		c.RunFor(sim.Millisecond)
	}
	if !done || len(reports) == 0 {
		return fmt.Errorf("audit: never completed")
	}
	for _, a := range reports {
		if !a.Conclusive || !a.Clean {
			return fmt.Errorf("audit: %v", a)
		}
	}
	if bw != nil {
		var sum uint64
		for i, a := range bw.Accounts {
			b, err := c.PeekObject(a, 8)
			if err != nil {
				return fmt.Errorf("conservation: account %d unreadable: %w", i, err)
			}
			sum += binary.LittleEndian.Uint64(b)
		}
		if sum != bw.Total() {
			return fmt.Errorf("conservation: balances sum to %d, want %d", sum, bw.Total())
		}
	}
	if s.kill {
		if _, ok := r.milestones["config-commit"]; !ok {
			return fmt.Errorf("failover: no config-commit milestone after the kill")
		}
		if len(c.LostRegions) > 0 {
			return fmt.Errorf("failover: regions lost every replica: %v", c.LostRegions)
		}
		if n := recovered(c, r.killAt); n < hosted {
			return fmt.Errorf("failover: %d of %d regions re-replicated", n, hosted)
		}
	}
	if n := c.Counters.Get("msg unknown"); n != 0 {
		return fmt.Errorf("transport: %d messages of unknown type", n)
	}
	if c.Hist != nil {
		if rep := history.Check(c.Hist.Export()); !rep.Ok() {
			return fmt.Errorf("history: %v", rep)
		}
	}
	if c.Tracer != nil {
		if n := c.Tracer.Dropped(); n != 0 {
			return fmt.Errorf("trace: %d records dropped; sample fewer transactions", n)
		}
	}
	return nil
}
