//! The PageRank workloads: Table I's direct and MapReduce variants on the
//! memory, networked and durable disk stores.
//!
//! A closed loop on one thread launches one job at a time, cycling
//! through the workload's variants, until the run's time is up.  Each
//! job's wall time runs from the `JobRunner::launch` call to its return,
//! loading included; reading the ranks back, checking them and dropping
//! the table happen outside it (and outside the trace).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ripple_core::{CostModel, EbspError, JobRunner, Loader, RunOptions, RunOutcome};
use ripple_graph::pagerank::{
    read_ranks, reference_ranks, structure_loader, DirectPageRank, MapReducePageRank,
};
use ripple_kv::{DurableStore, HealableStore, KvStore, RecoverableStore};
use ripple_store_disk::DiskStore;
use ripple_store_mem::MemStore;
use ripple_store_net::LoopbackCluster;

use crate::inputs::PageRankInputs;
use crate::report::{peak_rss_mib, reset_peak_rss, Tally};
use crate::trace;
use crate::traced::Traced;

/// Parts of every store the benchmark builds.
pub const PARTS: u32 = 4;

/// Largest per-vertex difference from the sequential reference ranks
/// that still counts as correct.
pub const RANK_TOLERANCE: f64 = 1e-10;

/// Which job a launch runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Direct PageRank, plain launch.
    Direct,
    /// The MapReduce-emulating variant, plain launch.
    MapReduce,
    /// Direct PageRank launched with recovery and durable barrier commits.
    Durable,
}

impl Variant {
    /// A short label for logs.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Variant::Direct => "direct",
            Variant::MapReduce => "mapreduce",
            Variant::Durable => "durable",
        }
    }
}

/// A job and its loader, built before the launch clock starts.
pub enum Prepared {
    /// A direct job.
    Direct(Arc<DirectPageRank>, Box<dyn Loader<DirectPageRank>>),
    /// A MapReduce job.
    MapReduce(Arc<MapReducePageRank>, Box<dyn Loader<MapReducePageRank>>),
}

fn prepare(variant: Variant, table: &str, inputs: &PageRankInputs) -> Prepared {
    let n = u64::from(inputs.graph.vertex_count());
    match variant {
        Variant::Direct | Variant::Durable => Prepared::Direct(
            Arc::new(DirectPageRank::new(table, n, inputs.config)),
            structure_loader(&inputs.graph),
        ),
        Variant::MapReduce => Prepared::MapReduce(
            Arc::new(MapReducePageRank::new(table, n, inputs.config)),
            structure_loader(&inputs.graph),
        ),
    }
}

/// Launches a prepared job with a plain launch.
///
/// # Errors
///
/// Propagates the engine's error.
pub fn launch_plain<S: KvStore>(
    runner: &JobRunner<S>,
    variant: Variant,
    job: Prepared,
) -> Result<RunOutcome, EbspError> {
    if variant == Variant::Durable {
        return Err(EbspError::InvalidJob {
            reason: "durable launches need a durable store".to_owned(),
        });
    }
    match job {
        Prepared::Direct(job, loader) => {
            runner.launch(job, RunOptions::new().loaders(vec![loader]))
        }
        Prepared::MapReduce(job, loader) => {
            runner.launch(job, RunOptions::new().loaders(vec![loader]))
        }
    }
}

/// Launches a prepared job, with recovery and durable barrier commits for
/// [`Variant::Durable`].
///
/// # Errors
///
/// Propagates the engine's error.
pub fn launch_durable<S: RecoverableStore + HealableStore + DurableStore>(
    runner: &JobRunner<S>,
    variant: Variant,
    job: Prepared,
) -> Result<RunOutcome, EbspError> {
    match (variant, job) {
        (Variant::Durable, Prepared::Direct(job, loader)) => runner.launch(
            job,
            RunOptions::new().loaders(vec![loader]).recovery().durable(),
        ),
        (variant, job) => launch_plain(runner, variant, job),
    }
}

/// What one job did, from its outcome and its launch wall time.
#[derive(Debug, Clone, Default)]
pub struct JobNumbers {
    /// Whether the job ran on the traced store.
    pub traced: bool,
    /// Launch call to return, seconds.
    pub wall: f64,
    /// The process's peak resident set while the job ran, MiB (0 where
    /// `/proc` is unavailable).
    pub peak_rss_mib: f64,
    /// The engine's run metrics.
    pub run: ripple_core::RunMetrics,
    /// Launch call to the start of step 1, seconds.
    pub load_s: f64,
    /// Σ critical-path part compute, seconds.
    pub compute_s: f64,
    /// Σ controller compute-phase wall, seconds.
    pub compute_wall_s: f64,
    /// Σ inbox-build wall, seconds.
    pub inbox_s: f64,
    /// Σ barrier skew, seconds.
    pub barrier_s: f64,
    /// The cost model's predicted time, seconds.
    pub predicted_s: f64,
    /// Σ h-relation bytes.
    pub h_bytes: u64,
    /// Σ h-relation messages.
    pub h_msgs: u64,
}

impl JobNumbers {
    fn of(out: &RunOutcome, wall: f64) -> Self {
        let mut n = JobNumbers {
            wall,
            run: out.metrics.clone(),
            ..JobNumbers::default()
        };
        if let Some(profiles) = out.profiles.as_deref() {
            let cost = CostModel::derive(profiles);
            let run_overhead = wall - out.metrics.elapsed.as_secs_f64();
            n.load_s = run_overhead + profiles.first().map_or(0.0, |p| p.start.as_secs_f64());
            n.compute_s = profiles
                .iter()
                .map(|p| p.critical_compute())
                .sum::<Duration>()
                .as_secs_f64();
            n.compute_wall_s = profiles
                .iter()
                .map(|p| p.compute_wall)
                .sum::<Duration>()
                .as_secs_f64();
            n.inbox_s = profiles
                .iter()
                .map(|p| p.inbox_wall)
                .sum::<Duration>()
                .as_secs_f64();
            n.barrier_s = profiles
                .iter()
                .map(|p| p.barrier_skew)
                .sum::<Duration>()
                .as_secs_f64();
            n.predicted_s = cost.predicted().as_secs_f64();
            n.h_bytes = cost.total_h_bytes();
            n.h_msgs = cost.total_h_msgs();
        }
        n
    }

    /// The counters that must not change when the store is traced.
    #[must_use]
    pub fn deterministic(&self) -> [(&'static str, u64); 7] {
        let s = &self.run.store;
        [
            ("core.invocations", self.run.invocations),
            ("core.messages_sent", self.run.messages_sent),
            ("wire.bytes_marshalled", s.bytes_marshalled),
            ("net.rpcs", s.rpcs),
            ("net.batches", s.net_batches),
            ("net.combined_records", s.combined_records),
            ("disk.fsyncs", s.fsyncs),
        ]
    }
}

/// Everything a sequence of jobs produced.
#[derive(Debug, Default)]
pub struct Jobs {
    /// Each job's variant and numbers, in launch order.
    pub done: Vec<(Variant, JobNumbers)>,
    /// The first ranks each variant produced.
    first_ranks: Vec<(Variant, Vec<f64>)>,
    /// Checks and failures.
    pub tally: Tally,
    /// Time spent reading back and checking outputs, seconds.
    pub check_s: f64,
}

impl Jobs {
    /// Wall times of every job of `variant`.
    #[must_use]
    pub fn walls(&self, variant: Variant) -> Vec<f64> {
        self.done
            .iter()
            .filter(|(v, _)| *v == variant)
            .map(|(_, n)| n.wall)
            .collect()
    }

    /// Checks the first ranks of every variant against the sequential
    /// reference.  Every later job was already checked bit for bit
    /// against the first of its variant.
    pub fn check_reference(&mut self, inputs: &PageRankInputs) {
        let t = Instant::now();
        let want = reference_ranks(&inputs.graph, inputs.config);
        for (variant, ranks) in &self.first_ranks {
            let worst = ranks
                .iter()
                .zip(&want)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            let complete = ranks.len() == want.len();
            self.tally.check(complete && worst <= RANK_TOLERANCE, || {
                format!(
                    "{} ranks off the reference: {} of {} vertices, worst error {worst:e}",
                    variant.label(),
                    ranks.len(),
                    want.len()
                )
            });
        }
        self.check_s += t.elapsed().as_secs_f64();
    }
}

/// Runs one job on `store`, records it, and checks its ranks.
///
/// `idx` names the job's table and is its request id in the trace.
pub fn run_job<S, L>(
    store: &S,
    launch: &L,
    variant: Variant,
    idx: u64,
    inputs: &PageRankInputs,
    jobs: &mut Jobs,
) where
    S: KvStore,
    L: Fn(&JobRunner<S>, Variant, Prepared) -> Result<RunOutcome, EbspError>,
{
    let mut runner = JobRunner::new(store.clone());
    runner.profile(trace::enabled());
    // A fixed-width name: on the networked store the name travels in
    // every request, so its length must not differ between jobs.
    let table = format!("pr{idx:08}");
    let job = prepare(variant, &table, inputs);

    reset_peak_rss();
    let root = trace::root("bench.op", idx);
    let t0 = Instant::now();
    let launch_span = trace::span("core.launch", 0);
    let out = launch(&runner, variant, job);
    drop(launch_span);
    let wall = t0.elapsed().as_secs_f64();
    drop(root);
    let peak_rss_mib = peak_rss_mib().unwrap_or(0.0);

    let out = match out {
        Ok(out) => out,
        Err(e) => {
            jobs.tally
                .fail(format!("{} job {idx} failed: {e}", variant.label()));
            return;
        }
    };
    jobs.tally.pass();
    jobs.done.push((
        variant,
        JobNumbers {
            traced: trace::enabled(),
            peak_rss_mib,
            ..JobNumbers::of(&out, wall)
        },
    ));

    let t = Instant::now();
    let paused = trace::pause();
    let ranks = read_ranks(store, &table);
    let dropped = store.drop_table(&table);
    trace::resume(paused);
    match ranks {
        Ok(ranks) => {
            let ranks: Vec<f64> = ranks.into_iter().map(|(_, r)| r).collect();
            match jobs.first_ranks.iter().find(|(v, _)| *v == variant) {
                None => jobs.first_ranks.push((variant, ranks)),
                Some((_, first)) => {
                    let same = first.len() == ranks.len()
                        && first
                            .iter()
                            .zip(&ranks)
                            .all(|(a, b)| a.to_bits() == b.to_bits());
                    jobs.tally.check(same, || {
                        format!(
                            "{} job {idx}: ranks differ bitwise from the first {} job",
                            variant.label(),
                            variant.label()
                        )
                    });
                }
            }
        }
        Err(e) => jobs
            .tally
            .fail(format!("{} job {idx}: reading ranks: {e}", variant.label())),
    }
    if let Err(e) = dropped {
        jobs.tally
            .fail(format!("job {idx}: dropping its table: {e}"));
    }
    jobs.check_s += t.elapsed().as_secs_f64();
}

/// Where a workload's jobs run.
pub enum Site {
    /// One shared in-process memory store.
    Mem(MemStore),
    /// One shared loopback cluster; its servers stop when it drops.
    Net(LoopbackCluster),
    /// A fresh durable disk store per job, under this directory.
    Disk(PathBuf),
}

impl Site {
    /// Spawns a site of `kind`.  `dir` is where a disk site keeps its
    /// stores.
    ///
    /// # Panics
    ///
    /// Panics if a loopback listener cannot be bound.
    #[must_use]
    pub fn spawn(kind: SiteKind, dir: &Path) -> Site {
        match kind {
            SiteKind::Mem => Site::Mem(MemStore::builder().default_parts(PARTS).build()),
            SiteKind::Net => Site::Net(LoopbackCluster::spawn(PARTS as usize, PARTS)),
            SiteKind::Disk => Site::Disk(dir.to_path_buf()),
        }
    }

    /// Runs the job `(variant, idx)` here, plain or through the traced
    /// store with recording on.
    pub fn run(
        &self,
        traced: bool,
        variant: Variant,
        idx: u64,
        inputs: &PageRankInputs,
        jobs: &mut Jobs,
    ) {
        if traced {
            trace::enable();
        }
        self.run_on_site(traced, variant, idx, inputs, jobs);
        if traced {
            trace::pause();
        }
    }

    fn run_on_site(
        &self,
        traced: bool,
        variant: Variant,
        idx: u64,
        inputs: &PageRankInputs,
        jobs: &mut Jobs,
    ) {
        match self {
            Site::Mem(store) => shared(store, traced, variant, idx, inputs, jobs),
            Site::Net(cluster) => shared(&cluster.store, traced, variant, idx, inputs, jobs),
            Site::Disk(dir) => {
                let dir = dir.join(format!("job{idx}"));
                let _ = std::fs::remove_dir_all(&dir);
                let opened = DiskStore::builder().default_parts(PARTS).open(&dir);
                match opened {
                    Err(e) => jobs
                        .tally
                        .fail(format!("job {idx}: opening disk store: {e}")),
                    Ok(store) if traced => {
                        run_job(
                            &Traced::new(store),
                            &launch_durable,
                            variant,
                            idx,
                            inputs,
                            jobs,
                        );
                    }
                    Ok(store) => run_job(&store, &launch_durable, variant, idx, inputs, jobs),
                }
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}

fn shared<S: KvStore>(
    store: &S,
    traced: bool,
    variant: Variant,
    idx: u64,
    inputs: &PageRankInputs,
    jobs: &mut Jobs,
) {
    if traced {
        run_job(
            &Traced::new(store.clone()),
            &launch_plain,
            variant,
            idx,
            inputs,
            jobs,
        );
    } else {
        run_job(store, &launch_plain, variant, idx, inputs, jobs);
    }
}

/// Which backend a PageRank workload uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteKind {
    /// `ripple-store-mem`.
    Mem,
    /// `ripple-store-net` over loopback.
    Net,
    /// `ripple-store-disk`.
    Disk,
}

/// Runs jobs on `site`, cycling through `cycle` (each a variant and
/// whether to trace it), until `deadline`.  The last cycle is completed
/// past it, so every entry runs equally often.  Request ids continue from
/// `*next_idx`.
pub fn run_until(
    site: &Site,
    cycle: &[(Variant, bool)],
    inputs: &PageRankInputs,
    deadline: Instant,
    next_idx: &mut u64,
    jobs: &mut Jobs,
) {
    while Instant::now() < deadline {
        for &(variant, traced) in cycle {
            site.run(traced, variant, *next_idx, inputs, jobs);
            *next_idx += 1;
        }
    }
}
