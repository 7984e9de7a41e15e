//! The serving workload: a `JobServer` hosting a serving-mode incremental
//! SSSP tenant while mutations stream in, point queries arrive on a fixed
//! schedule, and a batch tenant competes for the same worker slots.
//!
//! - Writes: a closed loop on the calling thread pushes one mutation batch,
//!   waits until `waves()` advances past the wave that applied it, then
//!   pushes the next.  Push to visible is the timed operation.
//! - Reads: a second thread sends point queries on an open-loop schedule
//!   of [`QUERY_RATE`] per second.
//! - Competing tenant: a third thread admits a resident background tenant
//!   and launches counter jobs on its runner back to back, so it competes
//!   for the worker slots through the whole timed phase.
//!
//! The load follows its sources: [`QUERY_RATE`] is the query rate the
//! workload was first measured with, and the counter job is the `serve`
//! bench bin's background job at that bin's defaults.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ripple_core::{FnLoader, LoadSink, Loader, RunOptions, SimpleJob};
use ripple_graph::generate::{GraphChange, MutableGraph};
use ripple_graph::sssp::{bfs_oracle, distances_from_snapshot};
use ripple_graph::INF;
use ripple_kv::{KvStore, StoreMetrics};
use ripple_server::{JobAccount, JobServer, JobSpec, ServerConfig, ServingSssp};

use crate::inputs::ServeInputs;
use crate::pagerank::PARTS;
use crate::report::{peak_rss_mib, reset_peak_rss, Tally};
use crate::stats;
use crate::trace;

/// Worker slots of the server.
pub const WORKERS: usize = 2;
/// Point queries per second the query thread schedules.
pub const QUERY_RATE: u64 = 5_000;
/// Keys of each background counter job (`--bg-keys` of the `serve` bin).
pub const BG_KEYS: u32 = 64;
/// Steps of each background counter job (`--bg-steps` of the `serve`
/// bin).
pub const BG_STEPS: u32 = 12;
/// Name of the serving tenant; its state table is `serve__sssp`.
const TENANT: &str = "serve";
/// Name of the background tenant; its jobs' state table has the same
/// name.
const BG_TENANT: &str = "bg";
/// How often the writer looks at `waves()` while it waits.
const WAVE_POLL: Duration = Duration::from_micros(200);
/// A batch not visible by then counts as failed.
const VISIBLE_TIMEOUT: Duration = Duration::from_secs(60);

type BgJob = SimpleJob<u32, u32, u32>;

/// A background tenant's job: `BG_KEYS` counters that each tick down once
/// per step for `BG_STEPS` steps.
fn bg_job(name: &str) -> BgJob {
    SimpleJob::<u32, u32, u32>::builder(name)
        .compute(|ctx| {
            let v = ctx.read_state(0)?.unwrap_or(0);
            ctx.write_state(0, &v.saturating_sub(1))?;
            Ok(v > 1)
        })
        .build()
}

fn bg_loader() -> Box<dyn Loader<BgJob>> {
    Box::new(FnLoader::new(|sink: &mut dyn LoadSink<BgJob>| {
        for k in 0..BG_KEYS {
            sink.state(0, k, BG_STEPS)?;
            sink.enable(k)?;
        }
        Ok(())
    }))
}

/// Pushes `batch` and waits until the wave that applied it is done,
/// returning the time from push to visible in seconds.
fn push_and_wait(serving: &ServingSssp, batch: &[GraphChange]) -> Result<f64, String> {
    let before = serving.waves();
    let t0 = Instant::now();
    let accepted = serving.push_batch(batch);
    if accepted != batch.len() {
        return Err(format!("{accepted} of {} changes accepted", batch.len()));
    }
    while serving.waves() <= before {
        if t0.elapsed() > VISIBLE_TIMEOUT {
            return Err(format!("not visible after {VISIBLE_TIMEOUT:?}"));
        }
        std::thread::sleep(WAVE_POLL);
    }
    Ok(t0.elapsed().as_secs_f64())
}

/// A started serving tenant and the graph it should now be serving.
pub struct Session<S: KvStore> {
    server: JobServer<S>,
    serving: Option<ServingSssp>,
    /// The graph with every applied batch folded in: the oracle's input.
    graph: MutableGraph,
    source: u32,
}

/// Starts a server on `store`, admits the serving tenant, runs the
/// initial solve and one warm-up batch.
///
/// # Errors
///
/// Describes why the tenant could not start or the warm-up failed.
pub fn start<S: KvStore>(store: S, inputs: &ServeInputs) -> Result<Session<S>, String> {
    let server = JobServer::single(ServerConfig::with_workers(WORKERS), store);
    let serving = ServingSssp::start(
        &server,
        TENANT,
        &JobSpec::new(PARTS),
        inputs.graph.graph(),
        inputs.source,
    )
    .map_err(|e| format!("starting the serving tenant: {e}"))?;
    push_and_wait(&serving, &inputs.warmup).map_err(|e| format!("warm-up batch: {e}"))?;
    let mut graph = inputs.graph.clone();
    for &c in &inputs.warmup {
        graph.apply(c);
    }
    Ok(Session {
        server,
        serving: Some(serving),
        graph,
        source: inputs.source,
    })
}

/// Everything the timed phase of one session measured.
#[derive(Debug, Default)]
pub struct Served {
    /// Push-to-visible time per batch, seconds.
    pub visible_s: Vec<f64>,
    /// Whether each batch ran with recording on.
    pub traced: Vec<bool>,
    /// The process's peak resident set while each batch was in flight,
    /// MiB.
    pub peak_rss_mib: Vec<f64>,
    /// Launch-to-return time per background job, seconds.
    pub bg_job_s: Vec<f64>,
    /// Time inside `ServingSssp::query` per query, seconds.
    pub query_s: Vec<f64>,
    /// How late the query generator ran behind its schedule, per query,
    /// seconds.
    pub query_late_s: Vec<f64>,
    /// Mutations applied in timed waves.
    pub mutations: u64,
    /// Waves the timed phase applied.
    pub waves: u64,
    /// The serving tenant's account change over the timed phase.
    pub serve_delta: AccountDelta,
    /// The background tenant's account over the timed phase.
    pub bg_delta: AccountDelta,
    /// The store's counters when the timed phase ended.
    pub store_after: StoreMetrics,
    /// Snapshot refreshes over the session's life.
    pub refreshes: u64,
    /// Checks and failures.
    pub tally: Tally,
    /// Output check time, seconds.
    pub check_s: f64,
}

/// A reading of a job account, or the difference between two.
#[derive(Debug, Clone, Copy, Default)]
pub struct AccountDelta {
    /// Launches.
    pub launches: u64,
    /// Synchronized steps.
    pub steps: u64,
    /// Compute invocations.
    pub invocations: u64,
    /// Messages sent.
    pub messages_sent: u64,
    /// Σ critical-path compute, seconds.
    pub compute_s: f64,
    /// Σ l of the cost model (barrier skew plus barrier wall), seconds.
    pub barrier_s: f64,
    /// Σ launch wall, seconds.
    pub elapsed_s: f64,
    /// Scheduler grants.
    pub sched_granted: u64,
    /// Time tasks queued for a slot, seconds.
    pub sched_wait_s: f64,
}

impl AccountDelta {
    fn of(a: &JobAccount) -> Self {
        AccountDelta {
            launches: a.launches,
            steps: a.steps,
            invocations: a.invocations,
            messages_sent: a.messages_sent,
            compute_s: a.compute_wall.as_secs_f64(),
            barrier_s: a.barrier_skew.as_secs_f64(),
            elapsed_s: a.elapsed.as_secs_f64(),
            sched_granted: a.sched_granted,
            sched_wait_s: a.sched_wait.as_secs_f64(),
        }
    }

    fn minus(self, before: AccountDelta) -> Self {
        AccountDelta {
            launches: self.launches - before.launches,
            steps: self.steps - before.steps,
            invocations: self.invocations - before.invocations,
            messages_sent: self.messages_sent - before.messages_sent,
            compute_s: self.compute_s - before.compute_s,
            barrier_s: self.barrier_s - before.barrier_s,
            elapsed_s: self.elapsed_s - before.elapsed_s,
            sched_granted: self.sched_granted - before.sched_granted,
            sched_wait_s: self.sched_wait_s - before.sched_wait_s,
        }
    }
}

impl<S: KvStore> Session<S> {
    fn serving(&self) -> &ServingSssp {
        self.serving
            .as_ref()
            .expect("the serving tenant runs until the session finishes")
    }

    /// The server's store counters.
    #[must_use]
    pub fn store_metrics(&self) -> StoreMetrics {
        self.server.store(0).metrics()
    }

    /// Runs the timed phase until `deadline`, then checks the served
    /// distances and stops the tenant.  With `traced`, recording is on
    /// for every second batch (and everything running beside it).
    pub fn run(mut self, inputs: &ServeInputs, deadline: Instant, traced: bool) -> Served {
        let mut out = Served::default();
        let stop = AtomicBool::new(false);
        let serve_before = tenant_account(&self.server, TENANT);
        let waves_before = self.serving().waves();
        trace::set_background_prefix(BG_TENANT);

        let (bg, queries) = std::thread::scope(|scope| {
            let bg = scope.spawn(|| background(&self.server, &stop));
            let serving = self.serving();
            let queries = scope.spawn(|| query_loop(serving, &inputs.queries, &stop));
            for (i, batch) in inputs.batches.iter().enumerate() {
                if Instant::now() >= deadline {
                    break;
                }
                let req = i as u64;
                let traced = traced && i % 2 == 1;
                if traced {
                    trace::enable();
                }
                trace::set_current_request(req);
                reset_peak_rss();
                let root = trace::root("server.push_to_visible", req);
                let visible = push_and_wait(serving, batch);
                drop(root);
                out.peak_rss_mib.push(peak_rss_mib().unwrap_or(0.0));
                trace::set_current_request(trace::NO_REQ);
                trace::pause();
                match visible {
                    Ok(secs) => {
                        out.tally.pass();
                        out.visible_s.push(secs);
                        out.traced.push(traced);
                        out.mutations += batch.len() as u64;
                    }
                    Err(e) => {
                        out.tally.fail(format!("batch {i}: {e}"));
                        break;
                    }
                }
            }
            stop.store(true, Ordering::SeqCst);
            (
                bg.join().expect("background tenant thread panicked"),
                queries.join().expect("query thread panicked"),
            )
        });
        // The loop stops at the first failure, so the batches before it
        // are exactly the applied ones.
        for batch in &inputs.batches[..out.visible_s.len()] {
            for &c in batch {
                self.graph.apply(c);
            }
        }
        out.store_after = self.store_metrics();
        out.waves = self.serving().waves() - waves_before;
        out.serve_delta = tenant_account(&self.server, TENANT).minus(serve_before);

        let (bg_job_s, bg_delta, bg_tally) = bg;
        out.bg_job_s = bg_job_s;
        out.bg_delta = bg_delta;
        out.tally.merge(bg_tally);
        let (query_s, query_late_s, query_tally) = queries;
        out.query_s = query_s;
        out.query_late_s = query_late_s;
        out.tally.merge(query_tally);

        let t = Instant::now();
        self.check(&mut out);
        out.check_s = t.elapsed().as_secs_f64();
        out
    }

    /// Served distances must equal a BFS over the mutated graph, both as
    /// queries answer them and in the table the server refreshes from.
    fn check(&mut self, out: &mut Served) {
        let oracle = bfs_oracle(&self.graph, self.source);
        let serving = self.serving();
        // The wave counter advances just before the wave's final snapshot
        // refresh; give that refresh time to land.
        let settle = Instant::now();
        let mismatch = loop {
            let bad = (0..oracle.len() as u32)
                .find(|&v| serving.query(v).dist.unwrap_or(INF) != oracle[v as usize]);
            match bad {
                Some(_) if settle.elapsed() < Duration::from_secs(5) => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                other => break other,
            }
        };
        out.tally.check(mismatch.is_none(), || {
            let v = mismatch.unwrap_or_default();
            format!(
                "query for vertex {v} served {:?}, BFS says {}",
                serving.query(v).dist,
                oracle[v as usize]
            )
        });

        let report = self.serving.take().map(ServingSssp::finish);
        match report {
            Some(Ok(report)) => {
                out.refreshes = report.refreshes;
                out.tally.check(report.refresh_errors == 0, || {
                    format!("{} snapshot refreshes failed", report.refresh_errors)
                });
            }
            Some(Err(e)) => out.tally.fail(format!("serving tenant stopped with: {e}")),
            None => out.tally.fail("serving tenant already finished".to_owned()),
        }

        let paused = trace::pause();
        let store = self.server.store(0);
        let table = format!("{TENANT}__sssp");
        let served = store
            .lookup_table(&table)
            .and_then(|t| store.snapshot_table(&t))
            .map_err(|e| e.to_string())
            .and_then(|snap| distances_from_snapshot(&snap).map_err(|e| e.to_string()));
        trace::resume(paused);
        match served {
            Ok(dists) => {
                let bad = dists
                    .iter()
                    .find(|&&(v, d)| oracle.get(v as usize) != Some(&d));
                out.tally.check(bad.is_none(), || {
                    format!("served table diverges from BFS at {bad:?}")
                });
            }
            Err(e) => out.tally.fail(format!("reading the served table: {e}")),
        }
    }
}

impl<S: KvStore> Drop for Session<S> {
    fn drop(&mut self) {
        if let Some(serving) = self.serving.take() {
            let _ = serving.finish();
        }
        self.server.shutdown();
    }
}

/// Runs the background tenant until `stop`: admitted once as a resident
/// job, it launches counter jobs on its gated runner back to back.
/// Returns each job's launch-to-return time, the tenant's account over
/// the phase, and the checks.
fn background<S: KvStore>(
    server: &JobServer<S>,
    stop: &AtomicBool,
) -> (Vec<f64>, AccountDelta, Tally) {
    let mut times = Vec::new();
    let mut tally = Tally::default();
    let resident = match server.admit_resident(BG_TENANT, &JobSpec::new(PARTS)) {
        Ok(resident) => resident,
        Err(e) => {
            tally.fail(format!("admitting the background tenant: {e}"));
            return (times, AccountDelta::default(), tally);
        }
    };
    while !stop.load(Ordering::SeqCst) {
        let t0 = Instant::now();
        let span = trace::span_from("server.bg_launch", None, trace::BACKGROUND);
        let outcome = resident.runner().launch(
            Arc::new(bg_job(BG_TENANT)),
            RunOptions::new().loader(bg_loader()),
        );
        drop(span);
        match outcome {
            Ok(outcome) if outcome.steps == BG_STEPS => {
                times.push(t0.elapsed().as_secs_f64());
                resident.record(&outcome);
                tally.pass();
            }
            Ok(outcome) => tally.fail(format!("background job ran {} steps", outcome.steps)),
            Err(e) => tally.fail(format!("background job: {e}")),
        }
        // Each job loads its counters afresh.
        let _ = resident.store().drop_table(BG_TENANT);
    }
    (times, tenant_account(server, BG_TENANT), tally)
}

/// The account of the tenant admitted as `name`, with the scheduler's
/// live meters (the account itself only takes them when the tenant
/// leaves).
fn tenant_account<S: KvStore>(server: &JobServer<S>, name: &str) -> AccountDelta {
    let Some(account) = server.account(name) else {
        return AccountDelta::default();
    };
    let mut d = AccountDelta::of(&account);
    if let Some(s) = server.scheduler().account(account.sched_id) {
        d.sched_granted = s.granted;
        d.sched_wait_s = s.wait.as_secs_f64();
    }
    d
}

/// Sends point queries on a fixed schedule until `stop`, returning the
/// time inside each query, how late each was sent, and the version
/// checks.
fn query_loop(
    serving: &ServingSssp,
    vertices: &[u32],
    stop: &AtomicBool,
) -> (Vec<f64>, Vec<f64>, Tally) {
    let period = Duration::from_nanos(1_000_000_000 / QUERY_RATE);
    let mut inside = Vec::new();
    let mut late = Vec::new();
    let mut tally = Tally::default();
    let mut last_version = 0;
    let start = Instant::now();
    for (i, &v) in vertices.iter().cycle().enumerate() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let due = start + period * u32::try_from(i).unwrap_or(u32::MAX);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let t0 = Instant::now();
        let _span = trace::span_from("server.query", None, trace::NO_REQ);
        let answer = serving.query(v);
        drop(_span);
        inside.push(t0.elapsed().as_secs_f64());
        late.push(t0.saturating_duration_since(due).as_secs_f64());
        if answer.version < last_version {
            tally.fail(format!(
                "query {i}: version went back from {last_version} to {}",
                answer.version
            ));
        }
        last_version = answer.version;
    }
    // One check for the whole stream: versions never decreased.
    if tally.failed == 0 {
        tally.pass();
    }
    (inside, late, tally)
}

/// Median and p99 (when it has ten samples beyond it) of `secs`, in µs.
#[must_use]
pub fn micros(secs: &[f64]) -> (f64, Option<f64>) {
    let p50 = stats::median(secs).unwrap_or(0.0) * 1e6;
    let p99 = stats::percentile_with_tail(secs, 99.0).map(|v| v * 1e6);
    (p50, p99)
}
