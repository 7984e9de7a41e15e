//! The per-layer metrics of the traced run.
//!
//! Layer names are the crate names.  Counts and times are per timed
//! operation (a PageRank job, or a serving wave) unless the name says
//! otherwise; see the notes in this directory's README for the
//! end-to-end metric each one should move.  Every name in [`PER_LAYER`]
//! is reported on every workload, as 0 where the layer does no work.

use std::collections::{BTreeMap, HashMap};

use ripple_kv::{LatencyBuckets, StoreMetrics};

use crate::pagerank::{JobNumbers, Variant};
use crate::report::Metrics;
use crate::serve::Served;
use crate::trace::{RootCoverage, Totals};

/// Every per-layer metric, with its unit, in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("bench.ops", "count"),
    ("core.steps", "count"),
    ("core.invocations", "count"),
    ("core.messages_sent", "count"),
    ("core.messages_combined", "count"),
    ("core.state_reads", "count"),
    ("core.state_writes", "count"),
    ("core.load_s", "s"),
    ("core.compute_self_s", "s"),
    ("core.inbox_s", "s"),
    ("core.barrier_wait_s", "s"),
    ("core.controller_s", "s"),
    ("core.cost_ratio", "ratio"),
    ("kv.get.calls", "count"),
    ("kv.get.s", "s"),
    ("kv.put.calls", "count"),
    ("kv.put.s", "s"),
    ("kv.put_batch.calls", "count"),
    ("kv.put_batch.s", "s"),
    ("kv.scan.calls", "count"),
    ("kv.scan.s", "s"),
    ("kv.drain.calls", "count"),
    ("kv.drain.s", "s"),
    ("kv.delete.calls", "count"),
    ("kv.task.calls", "count"),
    ("kv.task_busy_s", "s"),
    ("kv.task_wait_s", "s"),
    ("kv.snapshot.calls", "count"),
    ("kv.snapshot.s", "s"),
    ("kv.errors", "count"),
    ("wire.bytes_marshalled", "B"),
    ("wire.bytes_per_msg", "B"),
    ("net.rpcs", "count"),
    ("net.batches", "count"),
    ("net.combined_records", "count"),
    ("net.bytes_out", "B"),
    ("net.bytes_in", "B"),
    ("net.rpc_p50_us", "us"),
    ("net.rpc_p99_us", "us"),
    ("net.reconnects", "count"),
    ("net.retry_bytes", "B"),
    ("disk.wal_bytes", "B"),
    ("disk.fsyncs", "count"),
    ("disk.commit.calls", "count"),
    ("disk.commit_s", "s"),
    ("disk.compact_s", "s"),
    ("disk.flush_s", "s"),
    ("mem.local_ops", "count"),
    ("mem.remote_ops", "count"),
    ("mem.tasks_dispatched", "count"),
    ("mem.enumerations", "count"),
    ("server.sched_wait_s", "s"),
    ("server.sched_granted", "count"),
    ("server.bg_sched_wait_s", "s"),
    ("server.bg_sched_granted", "count"),
    ("server.wave_steps", "count"),
    ("server.mutations_per_wave", "count"),
    ("server.invocations_per_mutation", "ratio"),
    ("server.refreshes", "count"),
    ("server.query.calls", "count"),
    ("server.query_us_p50", "us"),
    ("server.query_us_p99", "us"),
    ("server.bg_jobs", "count"),
    ("graph.gen_s", "s"),
    ("graph.check_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
    ("failed_frac", "ratio"),
];

/// What the traced phase of a run saw, beside its operations.
#[derive(Debug, Default)]
pub struct Observed {
    /// Span totals by name.
    pub totals: BTreeMap<&'static str, Totals>,
    /// Root coverage.
    pub coverage: RootCoverage,
    /// Input generation time of one set-up, seconds.
    pub gen_s: f64,
    /// Output check time of the run, seconds.
    pub check_s: f64,
    /// Traced over plain median wall of the main operation, minus 1.
    pub overhead_frac: f64,
    /// Failed over attempted operations and checks.
    pub failed_frac: f64,
}

/// Per-layer metrics of traced PageRank jobs.
#[must_use]
pub fn pagerank(jobs: &[(Variant, JobNumbers)], seen: &Observed) -> Metrics {
    let ops = jobs.len().max(1) as f64;
    let mean = |f: &dyn Fn(&JobNumbers) -> f64| jobs.iter().map(|(_, n)| f(n)).sum::<f64>() / ops;
    let share = compute_share(&seen.totals);
    let mut m = HashMap::new();
    m.insert("bench.ops", jobs.len() as f64);
    m.insert("core.steps", mean(&|n| f64::from(n.run.steps)));
    m.insert("core.invocations", mean(&|n| n.run.invocations as f64));
    m.insert("core.messages_sent", mean(&|n| n.run.messages_sent as f64));
    m.insert(
        "core.messages_combined",
        mean(&|n| n.run.messages_combined as f64),
    );
    m.insert("core.state_reads", mean(&|n| n.run.state_reads as f64));
    m.insert("core.state_writes", mean(&|n| n.run.state_writes as f64));
    m.insert("core.load_s", mean(&|n| n.load_s));
    m.insert("core.compute_self_s", mean(&|n| n.compute_s) * share);
    m.insert("core.inbox_s", mean(&|n| n.inbox_s));
    m.insert("core.barrier_wait_s", mean(&|n| n.barrier_s));
    m.insert(
        "core.controller_s",
        mean(&|n| n.wall - n.load_s - n.compute_wall_s - n.inbox_s),
    );
    m.insert("core.cost_ratio", mean(&|n| n.predicted_s / n.wall));
    let h_bytes: u64 = jobs.iter().map(|(_, n)| n.h_bytes).sum();
    let h_msgs: u64 = jobs.iter().map(|(_, n)| n.h_msgs).sum();
    m.insert("wire.bytes_per_msg", ratio(h_bytes as f64, h_msgs as f64));
    let mut store = StoreMetrics::default();
    let mut latency = LatencyBuckets::new();
    for (_, n) in jobs {
        add(&mut store, &n.run.store);
        latency.merge(&n.run.store.rpc_latency);
    }
    store_metrics(&mut m, &store, ops);
    m.insert("net.rpc_p50_us", latency.quantile_upper_us(500_000) as f64);
    m.insert("net.rpc_p99_us", latency.quantile_upper_us(990_000) as f64);
    finish(m, ops, seen)
}

/// Per-layer metrics of a traced serving session.  `store` is the
/// store's counter change over the timed phase, both tenants included.
#[must_use]
pub fn serve(served: &Served, store: &StoreMetrics, seen: &Observed) -> Metrics {
    let waves = served.waves.max(1) as f64;
    let s = &served.serve_delta;
    let share = compute_share(&seen.totals);
    let mut m = HashMap::new();
    let traced = served.traced.iter().filter(|t| **t).count();
    m.insert("bench.ops", traced as f64);
    m.insert("core.steps", s.steps as f64 / waves);
    m.insert("core.invocations", s.invocations as f64 / waves);
    m.insert("core.messages_sent", s.messages_sent as f64 / waves);
    m.insert("core.compute_self_s", s.compute_s / waves * share);
    // The account carries no step profiles, so these two differ from
    // the PageRank ones: the barrier figure is the cost model's l (skew
    // plus barrier wall), and the controller figure is wave wall minus w.
    m.insert("core.barrier_wait_s", s.barrier_s / waves);
    m.insert("core.controller_s", (s.elapsed_s - s.compute_s) / waves);
    // On an in-process store the fitted g is absent, so the model's
    // prediction is exactly Σ(w + l).
    m.insert(
        "core.cost_ratio",
        ratio(s.compute_s + s.barrier_s, s.elapsed_s),
    );
    store_metrics(&mut m, store, waves);
    m.insert("server.sched_wait_s", s.sched_wait_s / waves);
    m.insert("server.sched_granted", s.sched_granted as f64 / waves);
    let bg = &served.bg_delta;
    let bg_jobs = served.bg_job_s.len().max(1) as f64;
    m.insert("server.bg_sched_wait_s", bg.sched_wait_s / bg_jobs);
    m.insert("server.bg_sched_granted", bg.sched_granted as f64 / bg_jobs);
    m.insert("server.wave_steps", s.steps as f64 / waves);
    m.insert("server.mutations_per_wave", served.mutations as f64 / waves);
    m.insert(
        "server.invocations_per_mutation",
        ratio(s.invocations as f64, served.mutations as f64),
    );
    m.insert("server.refreshes", served.refreshes as f64);
    m.insert("server.query.calls", served.query_s.len() as f64);
    let (p50, p99) = crate::serve::micros(&served.query_s);
    m.insert("server.query_us_p50", p50);
    m.insert("server.query_us_p99", p99.unwrap_or(0.0));
    m.insert("server.bg_jobs", served.bg_job_s.len() as f64);
    // Span totals cover the traced batches only.
    finish(m, traced.max(1) as f64, seen)
}

/// Share of part-task time not spent inside store calls: scales the
/// critical-path compute down to the engine's own work.
fn compute_share(totals: &BTreeMap<&'static str, Totals>) -> f64 {
    totals
        .get("kv.task")
        .filter(|t| t.total_ns > 0)
        .map_or(1.0, |t| t.self_ns as f64 / t.total_ns as f64)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn add(into: &mut StoreMetrics, d: &StoreMetrics) {
    into.local_ops += d.local_ops;
    into.remote_ops += d.remote_ops;
    into.bytes_marshalled += d.bytes_marshalled;
    into.tasks_dispatched += d.tasks_dispatched;
    into.enumerations += d.enumerations;
    into.wal_bytes += d.wal_bytes;
    into.fsyncs += d.fsyncs;
    into.rpcs += d.rpcs;
    into.net_bytes_in += d.net_bytes_in;
    into.net_bytes_out += d.net_bytes_out;
    into.retry_bytes += d.retry_bytes;
    into.reconnects += d.reconnects;
    into.net_batches += d.net_batches;
    into.combined_records += d.combined_records;
}

fn store_metrics(m: &mut HashMap<&'static str, f64>, s: &StoreMetrics, ops: f64) {
    let per = |x: u64| x as f64 / ops;
    m.insert("wire.bytes_marshalled", per(s.bytes_marshalled));
    m.insert("net.rpcs", per(s.rpcs));
    m.insert("net.batches", per(s.net_batches));
    m.insert("net.combined_records", per(s.combined_records));
    m.insert("net.bytes_out", per(s.net_bytes_out));
    m.insert("net.bytes_in", per(s.net_bytes_in));
    m.insert("net.reconnects", per(s.reconnects));
    m.insert("net.retry_bytes", per(s.retry_bytes));
    m.insert("disk.wal_bytes", per(s.wal_bytes));
    m.insert("disk.fsyncs", per(s.fsyncs));
    m.insert("mem.local_ops", per(s.local_ops));
    m.insert("mem.remote_ops", per(s.remote_ops));
    m.insert("mem.tasks_dispatched", per(s.tasks_dispatched));
    m.insert("mem.enumerations", per(s.enumerations));
}

/// Adds the span-derived and run-level metrics, then lays every metric
/// of [`PER_LAYER`] out in order.
fn finish(mut m: HashMap<&'static str, f64>, ops: f64, seen: &Observed) -> Metrics {
    let t = |name: &str| seen.totals.get(name).copied().unwrap_or_default();
    for (span, calls, secs) in [
        ("kv.get", "kv.get.calls", "kv.get.s"),
        ("kv.put", "kv.put.calls", "kv.put.s"),
        ("kv.put_batch", "kv.put_batch.calls", "kv.put_batch.s"),
        ("kv.scan", "kv.scan.calls", "kv.scan.s"),
        ("kv.drain", "kv.drain.calls", "kv.drain.s"),
        ("kv.snapshot", "kv.snapshot.calls", "kv.snapshot.s"),
        ("kv.task", "kv.task.calls", "kv.task_busy_s"),
        ("disk.commit", "disk.commit.calls", "disk.commit_s"),
    ] {
        m.insert(calls, t(span).calls as f64 / ops);
        m.insert(secs, t(span).total_s() / ops);
    }
    m.insert("kv.delete.calls", t("kv.delete").calls as f64 / ops);
    m.insert("kv.task_wait_s", t("kv.task_wait").total_s() / ops);
    m.insert("kv.errors", t("kv.errors").calls as f64);
    m.insert("disk.compact_s", t("disk.compact").total_s() / ops);
    m.insert("disk.flush_s", t("disk.flush").total_s() / ops);
    m.insert("graph.gen_s", seen.gen_s);
    m.insert("graph.check_s", seen.check_s);
    m.insert("trace.overhead_frac", seen.overhead_frac);
    m.insert("trace.unattributed_frac", seen.coverage.unattributed_frac());
    m.insert("failed_frac", seen.failed_frac);

    let mut out = Metrics::default();
    for &(name, unit) in PER_LAYER {
        out.set(name, m.get(name).copied().unwrap_or(0.0), unit);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for &(name, unit) in PER_LAYER {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_ascii_alphanumeric())
            );
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
        }
    }

    #[test]
    fn every_name_is_reported_even_when_idle() {
        let m = pagerank(&[], &Observed::default());
        assert_eq!(m.iter().count(), PER_LAYER.len());
    }
}
