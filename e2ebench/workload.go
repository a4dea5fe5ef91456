package main

import (
	"fmt"

	"farm/internal/bank"
	"farm/internal/core"
	"farm/internal/loadgen"
	"farm/internal/sim"
	"farm/internal/tatp"
)

// spec is one benchmark workload. Every workload is closed loop (§6.3):
// each worker thread keeps conc transactions outstanding and starts the
// next one only when one completes, so machines×threads×conc virtual
// clients drive the cluster. The whole cluster is simulated on one OS
// thread; the clients are simulated too.
type spec struct {
	name string

	machines, threads, conc int
	subscribers             uint64 // tatp database size
	accounts                int    // bank database size
	regions                 int
	lease                   sim.Time // 0 keeps the library default (10 ms)

	// warm is load before the measured window opens (the cold-start
	// ramp); window is the measured window. On a kill workload the
	// window is the steady pre-kill period, and measurement continues
	// after the kill until every region the victim hosted has been
	// re-replicated.
	warm, window sim.Time
	kill         bool

	// traceEvery samples 1 of every traceEvery transactions in the traced
	// run: the densest sampling whose per-machine rings drop nothing.
	traceEvery int
	// history turns on the history recorder in the traced run, so the
	// strict-serializability checker judges it.
	history bool
}

// drain is how long load-free virtual time runs after the window closes,
// so that every transaction still in flight completes or is known lost.
// It exceeds core's 30 ms TxStallTimeout.
const drain = 40 * sim.Millisecond

// rereplicateLimit bounds how long a kill workload waits for
// re-replication after the kill before the run fails.
const rereplicateLimit = 600 * sim.Millisecond

// bankInitial is each account's opening balance.
const bankInitial = 1000

// workloads are the benchmark's workloads. Next to each: why it exists,
// which layers it loads and which it bypasses, and which end-to-end metric
// each layer's per-layer metrics should move on it.
var workloads = []spec{
	// tatp exists because FaRM's headline result is read-mostly TATP
	// throughput and latency (§6.3).
	//
	// Loads: the sim engine, one-sided fabric reads (70% of the mix are
	// lock-free single-row reads), kv hash-table lookups, and the setup
	// path (tatp.Setup takes as long as the window, about half of process
	// CPU; audit.ObjectHash digest maintenance runs almost entirely under
	// it). 10,000 subscribers rather than more keep a repetition near
	// four host seconds, so a run holds enough repetitions for steady
	// medians. Bypasses: log records are rare (0.45 msgs/tx), recovery is
	// never entered.
	//
	// Layer → end-to-end: setup.* and cpu.setup.* (notably audit, kv,
	// regionmem) → setup_s; sim.events_per_tx (≈16), sim.ns_per_event and
	// cpu.run.* → host_tx_per_s; fabric.rdma_reads_per_tx →
	// sim_tx_per_ms and tx_p50_us; tx.read_us and commit.validate_us →
	// tx_p50_us and tx_p999_us (the other commit phases barely show);
	// alloc.* → host_tx_per_s and heap_mb.
	{
		name:     "tatp",
		machines: 9, threads: 8, conc: 4,
		subscribers: 10000, regions: 24,
		warm: sim.Millisecond, window: 12 * sim.Millisecond,
		traceEvery: 8,
	},
	// bank exists because FaRM must also be judged on write-heavy
	// transactions that run the full LOCK / VALIDATE / COMMIT-BACKUP /
	// COMMIT-PRIMARY path (§4); 65,536 accounts against 288 clients keep
	// the abort rate near 0.6%.
	//
	// Loads: proto record encoding, ring append/parse, audit digest
	// folding on every install, the core transport and commit protocol
	// (1.71 msgs/tx, ≈72 engine events/tx). Bypasses: the setup path is
	// light, so a setup-path change should leave this workload unmoved;
	// recovery is never entered.
	//
	// Layer → end-to-end: sim.events_per_tx, sim.ns_per_event,
	// cpu.run.proto, cpu.run.ring, cpu.run.audit and cpu.run.core →
	// host_tx_per_s; fabric.rdma_writes_per_tx and
	// fabric.rdma_write_bytes_per_tx → sim_tx_per_ms and tx_p50_us;
	// commit.* spans and commit.lock_failed_per_tx → tx_p50_us,
	// tx_p999_us and tx.fail_rate; transport.* is hidden by queueing here;
	// alloc.* → host_tx_per_s and heap_mb.
	{
		name:     "bank",
		machines: 9, threads: 8, conc: 4,
		accounts: 65536, regions: 24,
		warm: sim.Millisecond, window: 12 * sim.Millisecond,
		traceEvery: 8, history: true,
	},
	// failover exists because FaRM's other headline result is how fast
	// throughput comes back after a machine dies (§6.4, Figure 9). It
	// is bank at light load with a 10 ms lease: after a steady pre-kill
	// window the non-CM machine hosting the most primaries is killed,
	// and the run continues until every region it hosted has been
	// re-replicated.
	//
	// Loads: lease expiry, reconfiguration, transaction recovery (drain,
	// lock recovery, vote/decide) and data recovery — no other workload
	// enters them. It is also the unloaded point: a commit takes about
	// 45 µs and the transport's flush delay is not hidden by queueing.
	// Bypasses: the setup path (light), saturation effects.
	//
	// Layer → end-to-end: recovery.* → recovery_ms;
	// transport.flush_*_per_tx, transport.lock_reply_p50_us and
	// transport.validate_p50_us → tx_p50_us; recovery.drain_ms,
	// recovery.lock_recovery_ms and recovery.vote_decide_ms →
	// tx_p999_us and tx.fail_rate (transactions stalled or lost across
	// the kill).
	{
		name:     "failover",
		machines: 9, threads: 2, conc: 1,
		accounts: 65536, regions: 24, lease: 10 * sim.Millisecond,
		warm: sim.Millisecond, window: 20 * sim.Millisecond, kill: true,
		traceEvery: 4, history: true,
	},
}

func lookup(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

func (s spec) options(seed uint64) core.Options {
	return core.Options{NumMachines: s.machines, Threads: s.threads, LeaseDuration: s.lease, Seed: seed}
}

// populate runs the workload's Setup and returns its operation mix and,
// for bank-style workloads, the database for the conservation check.
func (s spec) populate(c *core.Cluster) (loadgen.Op, *bank.Workload, error) {
	if s.subscribers > 0 {
		w, err := tatp.Setup(c, s.subscribers, s.regions)
		if err != nil {
			return nil, nil, fmt.Errorf("tatp setup: %w", err)
		}
		return w.Mix(), nil, nil
	}
	w, err := bank.Setup(c, s.accounts, s.regions, bankInitial)
	if err != nil {
		return nil, nil, fmt.Errorf("bank setup: %w", err)
	}
	return w.Mix(), w, nil
}

// victim picks the machine a kill workload kills: the non-CM machine
// hosting the most regions, primaries weighted double — the KillBackup
// rule of internal/exper's failure experiments — so the kill exercises
// promotion, lock recovery and data recovery.
func victim(c *core.Cluster) int {
	v, most := len(c.Machines)-1, -1
	for _, m := range c.Machines[1:] {
		weight := 0
		for _, region := range m.HostedRegions() {
			weight++
			if m.PrimaryOf(region) == m.ID {
				weight++
			}
		}
		if weight > most {
			v, most = m.ID, weight
		}
	}
	return v
}
