//! One benchmark run: set up, measure for the given time, check outputs,
//! and compute the metrics.
//!
//! A plain run sets up, measures on that set-up, and then sets up
//! [`SETUP_REPS`]` - 1` more times for `setup_s`; it reports the
//! end-to-end metrics.  A traced run mixes plain operations with
//! operations through the [`Traced`](crate::traced::Traced) store with
//! recording on, one by one, reports the per-layer metrics of the traced
//! ones, and compares the two for the tracing overhead.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use ripple_store_mem::MemStore;

use crate::inputs::{self, Workload};
use crate::layers::{self, Observed};
use crate::pagerank::{self, Jobs, Site, SiteKind, Variant, PARTS};
use crate::report::{Metrics, Tally};
use crate::serve::{self, Served};
use crate::stats::{self, Summary};
use crate::trace;
use crate::traced::Traced;

/// Set-ups per plain run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// The input seed.
    pub seed: u64,
    /// How long the timed phase lasts.
    pub seconds: f64,
    /// Run the traced variant and report per-layer metrics.
    pub trace: bool,
    /// Where disk stores live; created and removed by the caller.
    pub data_dir: PathBuf,
}

/// What a run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations and checks.
    pub tally: Tally,
    /// The metrics for the result line.
    pub metrics: Metrics,
    /// Human-readable lines printed before it.
    pub lines: Vec<String>,
}

/// Runs `cfg`.
#[must_use]
pub fn run(cfg: &Config) -> Outcome {
    match cfg.workload {
        Workload::PagerankMem => {
            run_pagerank(cfg, SiteKind::Mem, [Variant::Direct, Variant::MapReduce])
        }
        Workload::PagerankNet => {
            run_pagerank(cfg, SiteKind::Net, [Variant::Direct, Variant::MapReduce])
        }
        Workload::PagerankDiskDurable => {
            run_pagerank(cfg, SiteKind::Disk, [Variant::Durable, Variant::Direct])
        }
        Workload::SsspServe => run_serve(cfg),
    }
}

/// The end-to-end name each PageRank variant is reported under in the
/// human-readable lines.
fn variant_metric(variant: Variant) -> &'static str {
    match variant {
        Variant::Direct => "pagerank_direct_s",
        Variant::MapReduce => "pagerank_mr_s",
        Variant::Durable => "pagerank_direct_s (durable)",
    }
}

fn join(samples: &[f64]) -> String {
    let v: Vec<String> = samples.iter().map(|x| format!("{x:.3}")).collect();
    v.join(" ")
}

fn seconds(s: f64) -> Duration {
    Duration::from_secs_f64(s.max(0.0))
}

fn run_pagerank(cfg: &Config, kind: SiteKind, cycle: [Variant; 2]) -> Outcome {
    let sizes = cfg.workload.sizes();
    let mut out = Outcome::default();
    let mut jobs = Jobs::default();
    let mut next_idx = 0;
    // One set-up: inputs, the site, and a warm-up job (checked, not
    // timed).  Returns the site, the inputs, the set-up time and the
    // input generation time.
    let set_up = |jobs: &mut Jobs, next_idx: &mut u64| {
        let t0 = Instant::now();
        let inputs = inputs::pagerank(sizes, cfg.seed);
        let gen_s = t0.elapsed().as_secs_f64();
        let site = Site::spawn(kind, &cfg.data_dir);
        site.run(false, cycle[0], *next_idx, &inputs, jobs);
        *next_idx += 1;
        (site, inputs, t0.elapsed().as_secs_f64(), gen_s)
    };
    let (site, inputs, setup_s, gen_s) = set_up(&mut jobs, &mut next_idx);
    out.lines.push(format!(
        "workload {} seed {}: {} vertices, {} edges, {} iterations, {PARTS} parts, inputs fnv64 {:016x}",
        cfg.workload.name(),
        cfg.seed,
        inputs.graph.vertex_count(),
        inputs.graph.edge_count(),
        inputs.config.iterations,
        inputs::pagerank_digest(&inputs),
    ));
    // Warm-up jobs are checked but not timed.
    jobs.done.clear();

    if !cfg.trace {
        let plain = cycle.map(|v| (v, false));
        let deadline = Instant::now() + seconds(cfg.seconds);
        pagerank::run_until(&site, &plain, &inputs, deadline, &mut next_idx, &mut jobs);
        jobs.check_reference(&inputs);
        for (slot, variant) in ["main_op_s", "side_op_s"].into_iter().zip(cycle) {
            let walls = jobs.walls(variant);
            let Some(s) = Summary::of(&walls) else {
                jobs.tally
                    .fail(format!("no {} job completed", variant.label()));
                continue;
            };
            out.lines
                .push(format!("{:<28} {s} s", variant_metric(variant)));
            out.lines
                .push(format!("{:<28} {}", "  samples (s)", join(&walls)));
            out.metrics.set(slot, s.median, "s");
        }
        let rss: Vec<f64> = jobs
            .done
            .iter()
            .filter(|(v, _)| *v == cycle[0])
            .map(|(_, n)| n.peak_rss_mib)
            .collect();
        // The other set-ups run after the timed phase, so the memory they
        // leave behind stays out of its peak.
        drop(site);
        let mut setups = vec![setup_s];
        for _ in 1..SETUP_REPS {
            setups.push(set_up(&mut jobs, &mut next_idx).2);
        }
        finish_plain(&mut out, &setups, &rss, jobs.tally);
        return out;
    }

    // Each job runs once plain and once traced, back to back, so drift
    // in the host's speed cannot pose as tracing overhead.
    let interleaved = [
        (cycle[0], false),
        (cycle[0], true),
        (cycle[1], false),
        (cycle[1], true),
    ];
    let deadline = Instant::now() + seconds(cfg.seconds);
    pagerank::run_until(
        &site,
        &interleaved,
        &inputs,
        deadline,
        &mut next_idx,
        &mut jobs,
    );
    jobs.check_reference(&inputs);
    let (traced, plain): (Vec<_>, Vec<_>) = jobs.done.iter().cloned().partition(|(_, n)| n.traced);

    // Tracing must not change what the program does.  Marshalled bytes
    // are left to tests/fidelity.rs: on the networked store they include
    // the engine's per-launch table names, whose length grows with the
    // number of launches in the process.
    for (p, t) in plain.iter().zip(&traced) {
        let counters = |n: &pagerank::JobNumbers| {
            let mut c = n.deterministic().to_vec();
            c.retain(|(name, _)| *name != "wire.bytes_marshalled");
            c
        };
        let (pc, tc) = (counters(&p.1), counters(&t.1));
        jobs.tally.check(pc == tc, || {
            format!(
                "{} counters differ when traced: plain {pc:?}, traced {tc:?}",
                p.0.label()
            )
        });
    }

    let main = |set: &[(Variant, pagerank::JobNumbers)]| {
        let walls: Vec<f64> = set
            .iter()
            .filter(|(v, _)| *v == cycle[0])
            .map(|(_, n)| n.wall)
            .collect();
        stats::median(&walls).unwrap_or(0.0)
    };
    let seen = Observed {
        totals: trace::totals(),
        coverage: trace::coverage(),
        gen_s,
        check_s: jobs.check_s,
        overhead_frac: main(&traced) / main(&plain) - 1.0,
        failed_frac: jobs.tally.failed_frac(),
    };
    out.metrics = layers::pagerank(&traced, &seen);
    out.tally = jobs.tally;
    out
}

fn run_serve(cfg: &Config) -> Outcome {
    if cfg.trace {
        return run_serve_traced(cfg);
    }
    let sizes = cfg.workload.sizes();
    let mut out = Outcome::default();
    let mut tally = Tally::default();
    // One set-up: inputs, the server with its serving tenant after the
    // initial solve, and a warm-up batch.  Returns the session, the
    // inputs and the set-up time.
    let set_up = || {
        let t0 = Instant::now();
        let inputs = inputs::serve(sizes, cfg.seed);
        serve::start(mem_store(), &inputs)
            .map(|session| (session, inputs, t0.elapsed().as_secs_f64()))
    };
    let (session, inputs, setup_s) = match set_up() {
        Ok(ready) => ready,
        Err(e) => {
            tally.fail(e);
            out.tally = tally;
            return out;
        }
    };
    tally.pass();
    out.lines.push(serve_line(cfg, &inputs));

    let served = session.run(&inputs, Instant::now() + seconds(cfg.seconds), false);
    describe_served(&mut out, &served);
    let main = Summary::of(&served.visible_s);
    // The tail of the same operation: p90 once ten samples lie beyond it,
    // as in `update_visible_ms_p90`; a shorter run reports its plain p90.
    let tail = stats::percentile_with_tail(&served.visible_s, 90.0)
        .or_else(|| stats::percentile(&served.visible_s, 90.0));
    tally.merge(served.tally);
    match (main, tail) {
        (Some(main), Some(tail)) => {
            out.metrics.set("main_op_s", main.median, "s");
            out.metrics.set("side_op_s", tail, "s");
        }
        _ => tally.fail("the timed phase completed no batch"),
    }
    // As for PageRank, the other set-ups follow the timed phase.
    let mut setups = vec![setup_s];
    for _ in 1..SETUP_REPS {
        match set_up() {
            Ok((_, _, secs)) => {
                tally.pass();
                setups.push(secs);
            }
            Err(e) => tally.fail(e),
        }
    }
    finish_plain(&mut out, &setups, &served.peak_rss_mib, tally);
    out
}

/// The traced serving run: one session on the traced store, recording
/// every second batch.  The other batches run through the decorator with
/// recording off, which costs one branch per store call.
fn run_serve_traced(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let mut tally = Tally::default();
    let t0 = Instant::now();
    let inputs = inputs::serve(cfg.workload.sizes(), cfg.seed);
    let gen_s = t0.elapsed().as_secs_f64();
    out.lines.push(serve_line(cfg, &inputs));
    let session = match serve::start(Traced::new(mem_store()), &inputs) {
        Ok(session) => session,
        Err(e) => {
            tally.fail(e);
            out.tally = tally;
            return out;
        }
    };
    let store_before = session.store_metrics();
    let mut served = session.run(&inputs, Instant::now() + seconds(cfg.seconds), true);
    let delta = served.store_after - store_before;
    tally.merge(std::mem::take(&mut served.tally));
    let median_where = |traced: bool| {
        let v: Vec<f64> = served
            .visible_s
            .iter()
            .zip(&served.traced)
            .filter(|(_, t)| **t == traced)
            .map(|(s, _)| *s)
            .collect();
        stats::median(&v).unwrap_or(f64::NAN)
    };
    let seen = Observed {
        totals: trace::totals(),
        coverage: trace::coverage(),
        gen_s,
        check_s: served.check_s,
        overhead_frac: median_where(true) / median_where(false) - 1.0,
        failed_frac: tally.failed_frac(),
    };
    out.metrics = layers::serve(&served, &delta, &seen);
    out.tally = tally;
    out
}

fn serve_line(cfg: &Config, inputs: &inputs::ServeInputs) -> String {
    format!(
        "workload {} seed {}: {} vertices, {} edges, batches of {} changes, {PARTS} parts, \
         {} worker slots, inputs fnv64 {:016x}",
        cfg.workload.name(),
        cfg.seed,
        inputs.graph.vertex_count(),
        inputs.graph.graph().edge_count() / 2,
        inputs.warmup.len(),
        serve::WORKERS,
        inputs::serve_digest(inputs),
    )
}

fn mem_store() -> MemStore {
    MemStore::builder().default_parts(PARTS).build()
}

fn describe_served(out: &mut Outcome, served: &Served) {
    let ms: Vec<f64> = served.visible_s.iter().map(|s| s * 1e3).collect();
    if let Some(s) = Summary::of(&ms) {
        out.lines.push(format!(
            "update_visible_ms_p50        {:.3} ms (n={})",
            s.median, s.n
        ));
        match stats::percentile_with_tail(&ms, 90.0) {
            Some(p90) => out.lines.push(format!("update_visible_ms_p90        {p90:.3} ms")),
            None => out.lines.push(format!(
                "update_visible_ms_p90        not reported: {} samples leave fewer than {} beyond p90",
                s.n,
                stats::TAIL_MIN_BEYOND
            )),
        }
    }
    if let Some(s) = Summary::of(&served.bg_job_s) {
        out.lines
            .push(format!("background job               {s} s"));
    }
    let (p50, p99) = serve::micros(&served.query_s);
    out.lines.push(format!(
        "point query                  p50 {p50:.2} us, p99 {} ({} queries, generator late p50 {:.1} us)",
        p99.map_or_else(|| "n/a".to_owned(), |v| format!("{v:.2} us")),
        served.query_s.len(),
        stats::median(&served.query_late_s).unwrap_or(0.0) * 1e6,
    ));
}

/// Adds `setup_s` and `peak_rss_mb` (the median of the main operation's
/// peaks `rss`), and the human-readable lines for them and for the
/// failures.
fn finish_plain(out: &mut Outcome, setups: &[f64], rss: &[f64], mut tally: Tally) {
    if let Some(s) = Summary::of(setups) {
        out.lines
            .push(format!("setup_s                      {s} s"));
        out.metrics.set("setup_s", s.median, "s");
    }
    match Summary::of(rss) {
        Some(s) if s.median > 0.0 => {
            out.lines
                .push(format!("peak_rss_mb                  {s} MiB"));
            out.metrics.set("peak_rss_mb", s.median, "MiB");
        }
        _ => tally.fail("no peak resident set was measured"),
    }
    out.lines.push(format!(
        "failed_frac                  {} ({} of {} operations and checks)",
        tally.failed_frac(),
        tally.failed,
        tally.attempted
    ));
    out.tally = tally;
}
