package main

import (
	"fmt"
	"math"
	"sort"

	"farm/internal/sim"
	"farm/internal/trace"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// endToEnd reports what a user of the simulator sees, from the untraced
// repetitions of one run: host-time metrics as the median over the
// repetitions, virtual-time metrics from the outcome they all share.
//
// The failure rate is reported with the layers (tx.fail_rate), not here:
// on failover it counts about a dozen transactions per run, so it moves
// by ±50% from seed to seed, more than any bound the benchmark can hold
// an end-to-end metric to.
func endToEnd(reps []*rep) metrics {
	o := reps[0].outcome
	m := metrics{}
	m.set("setup_s", median(reps, func(r *rep) float64 { return r.setupS }), "s")
	m.set("host_tx_per_s", median(reps, func(r *rep) float64 { return float64(r.Committed) / r.windowS }), "1/s")
	m.set("heap_mb", median(reps, func(r *rep) float64 { return r.heapMB }), "MB")
	m.set("sim_tx_per_ms", o.SimTxPerMs, "1/ms")
	m.set("tx_p50_us", o.P50Us, "us")
	m.set("tx_p999_us", o.P999Us, "us")
	m.set("recovery_ms", o.RecoveryMs, "ms")
	return m
}

func median(reps []*rep, f func(*rep) float64) float64 {
	v := make([]float64, len(reps))
	for i, r := range reps {
		v[i] = f(r)
	}
	sort.Float64s(v)
	if n := len(v); n%2 == 0 {
		return (v[n/2-1] + v[n/2]) / 2
	}
	return v[len(v)/2]
}

// commitSpans maps the commit-path span names core records to metric
// names (§4's phases, plus the transaction's reads and its truncation).
var commitSpans = []struct{ span, metric string }{
	{"read", "tx.read_us"},
	{"LOCK", "commit.lock_us"},
	{"VALIDATE", "commit.validate_us"},
	{"COMMIT-BACKUP", "commit.commit_backup_us"},
	{"COMMIT-PRIMARY", "commit.commit_primary_us"},
	{"TRUNCATE", "commit.truncate_us"},
}

// recoverySpans are core's transaction-recovery spans (§5.3).
var recoverySpans = []struct{ span, metric string }{
	{"drain", "recovery.drain_ms"},
	{"lock-recovery", "recovery.lock_recovery_ms"},
	{"vote-decide", "recovery.vote_decide_ms"},
}

// cpuLayers are the packages host CPU is charged to; "other" takes the
// rest (the benchmark itself, other packages, the scheduler).
var cpuLayers = []string{"sim", "fabric", "core", "ring", "proto", "audit", "regionmem",
	"kv", "tatp", "bank", "stats", "trace", "history", "gc", "other"}

// perLayer reports the layer breakdown from one plain repetition (counts,
// allocations, host time per event) and one traced, profiled repetition
// of the same seed (spans and CPU by layer).
func perLayer(plain, traced *rep) (metrics, error) {
	m := metrics{}
	tx := float64(plain.Committed)
	perTx := func(counter string) float64 { return float64(plain.counters[counter]) / tx }

	m.set("setup.cluster_s", plain.clusterS, "s")
	m.set("setup.load_s", plain.loadS, "s")
	m.set("setup.events", float64(plain.setupEvents), "count")
	m.set("setup.sim_ms", plain.setupSimMs, "ms")

	m.set("sim.events_per_tx", float64(plain.Events)/tx, "1/tx")
	m.set("sim.ns_per_event", plain.windowS*1e9/float64(plain.Events), "ns")
	m.set("tx.samples", tx, "count")
	m.set("tx.fail_rate", plain.FailRate, "ratio")

	m.set("fabric.msgs_per_tx", perTx("msg_send"), "1/tx")
	m.set("fabric.wire_bytes_per_tx", perTx("msg_send_bytes"), "B/tx")
	m.set("fabric.rdma_reads_per_tx", perTx("rdma_read"), "1/tx")
	m.set("fabric.rdma_writes_per_tx", perTx("rdma_write"), "1/tx")
	m.set("fabric.rdma_write_bytes_per_tx", perTx("rdma_write_bytes"), "B/tx")

	m.set("transport.flush_budget_per_tx", perTx("coalesce_flush_budget"), "1/tx")
	m.set("transport.flush_timer_per_tx", perTx("coalesce_flush_timer"), "1/tx")
	m.set("transport.flush_doorbell_per_tx", perTx("coalesce_flush_doorbell"), "1/tx")
	m.set("transport.lock_reply_p50_us", plain.msgP50Us["LOCK-REPLY"], "us")
	m.set("transport.validate_p50_us", plain.msgP50Us["VALIDATE"], "us")

	for _, cs := range commitSpans {
		d := traced.spans[cs.span]
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		var mean, p99 float64
		if len(d) > 0 {
			var sum sim.Time
			for _, v := range d {
				sum += v
			}
			mean, p99 = us(sum)/float64(len(d)), us(quantile(d, 0.99))
		}
		m.set(cs.metric+"_mean", mean, "us")
		m.set(cs.metric+"_p99", p99, "us")
	}
	m.set("commit.lock_failed_per_tx", perTx("lock_failed"), "1/tx")

	m.set("recovery.suspect_ms", plain.milestones["suspect"], "ms")
	m.set("recovery.config_commit_ms", plain.milestones["config-commit"], "ms")
	m.set("recovery.all_active_ms", plain.milestones["all-active"], "ms")
	m.set("recovery.data_rec_start_ms", plain.milestones["data-rec-start"], "ms")
	m.set("recovery.data_rec_done_ms", plain.milestones["data-rec-done"], "ms")
	m.set("recovery.regions_rereplicated", float64(plain.counters["regions_rereplicated"]), "count")
	m.set("recovery.recovering_txs", float64(plain.counters["recovering_tx_found"]), "count")
	for _, rs := range recoverySpans {
		m.set(rs.metric, traced.spanEndMs[rs.span], "ms")
	}

	// The profile gives each layer's share of the samples; the process's
	// own CPU clock scales the shares to seconds, since the kernel may
	// deliver fewer profiling signals than the requested rate.
	for _, p := range []struct {
		phase string
		prof  []byte
		cpuS  float64
	}{{"setup", traced.profSetup, traced.setupCPU}, {"run", traced.profRun, traced.windowCPU}} {
		cpu, err := layerCPU(p.prof, p.phase)
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		var total float64
		for _, v := range cpu {
			total += v
		}
		for _, l := range cpuLayers {
			share := 0.0
			if total > 0 {
				share = cpu[p.phase+"."+l] / total
			}
			m.set("cpu."+p.phase+"."+l, share*p.cpuS, "s")
		}
	}

	m.set("alloc.per_tx", float64(plain.mallocs)/tx, "1/tx")
	m.set("alloc.bytes_per_tx", float64(plain.allocBytes)/tx, "B/tx")
	m.set("trace.overhead_ratio", traced.windowS/plain.windowS, "ratio")
	return m, nil
}

// collectSpans pairs the traced run's span records. Transaction spans
// opened inside the measured window [from, to) contribute durations;
// recovery spans contribute their last end time after the kill.
func (r *rep) collectSpans(recs []trace.Record, from, to sim.Time) {
	r.spans = map[string][]sim.Time{}
	begins := map[trace.SpanID]trace.Record{}
	for _, rec := range recs {
		switch rec.Kind {
		case trace.KindBegin:
			begins[rec.Span] = rec
		case trace.KindEnd:
			b, ok := begins[rec.Span]
			if !ok {
				continue
			}
			delete(begins, rec.Span)
			switch {
			case b.Cat == "tx" && b.At >= from && b.At < to:
				r.spans[b.Name] = append(r.spans[b.Name], rec.At-b.At)
			case b.Cat == "recovery" && r.victim >= 0 && b.At >= r.killAt:
				end := (rec.At - r.killAt).Millis()
				r.spanEndMs[b.Name] = math.Max(r.spanEndMs[b.Name], end)
			}
		}
	}
}

// checkFinite rejects a metric set holding NaN or ±Inf, which JSON cannot
// carry.
func (m metrics) checkFinite() error {
	for name, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, v.Value)
		}
	}
	return nil
}
