//! The job's initial condition (§II): "initial local component states, a
//! set of incoming messages, initial aggregator states, and a designation
//! of which additional components are enabled" — all four channels of the
//! loader interface, plus `Job::initial_aggregates` — and how the engine
//! installs loaded states: staged, then one batched write per state table.

use std::sync::Arc;

use ripple_core::{
    AggValue, Aggregate, ComputeContext, EbspError, FnLoader, Job, JobRunner, LoadSink, RunOptions,
    SumI64,
};
use ripple_kv::KvStore;
use ripple_store_disk::{testutil::TempDir, DiskStore};
use ripple_store_mem::MemStore;
use ripple_store_net::LoopbackCluster;
use ripple_store_simple::SimpleStore;

/// Observes its initial condition in step 1 and echoes it into state.
struct Observer;

impl Job for Observer {
    type Key = u32;
    type State = (u64, Vec<i64>); // (state seen, messages seen)
    type Message = i64;
    type OutKey = ();
    type OutValue = ();

    fn state_tables(&self) -> Vec<String> {
        vec!["observed".to_owned()]
    }

    fn aggregators(&self) -> Vec<(String, Arc<dyn Aggregate>)> {
        vec![("seed".to_owned(), Arc::new(SumI64))]
    }

    fn initial_aggregates(&self) -> Vec<(String, AggValue)> {
        vec![("seed".to_owned(), AggValue::I64(100))]
    }

    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<bool, EbspError> {
        assert_eq!(ctx.step(), 1, "this job runs exactly one step");
        // Loader-fed + job-declared initial aggregates are visible at step 1.
        assert_eq!(ctx.aggregate_prev("seed"), Some(AggValue::I64(142)));
        let prior = ctx.read_state(0)?.map_or(0, |(s, _)| s);
        let msgs = ctx.take_messages();
        ctx.write_state(0, &(prior, msgs))?;
        Ok(false)
    }
}

#[test]
fn all_four_initial_condition_channels() {
    let store = MemStore::builder().default_parts(3).build();
    let outcome = JobRunner::new(store.clone())
        .launch(
            Arc::new(Observer),
            RunOptions::new().loaders(vec![Box::new(FnLoader::new(
                |sink: &mut dyn LoadSink<Observer>| {
                    // 1. initial states
                    sink.state(0, 1, (11, Vec::new()))?;
                    sink.state(0, 2, (22, Vec::new()))?;
                    // 2. initial messages (enable their targets too)
                    sink.message(1, -5)?;
                    sink.message(1, -6)?;
                    // 3. extra enablement without a message
                    sink.enable(2)?;
                    // 4. initial aggregator input (joins the job's 100)
                    sink.aggregate("seed", AggValue::I64(42))?;
                    Ok(())
                },
            ))]),
        )
        .unwrap();
    assert_eq!(outcome.steps, 1);
    assert_eq!(outcome.metrics.invocations, 2);

    let table = store.lookup_table("observed").unwrap();
    let exporter = Arc::new(ripple_core::CollectingExporter::new());
    ripple_core::export_state_table::<_, u32, (u64, Vec<i64>), _>(
        &store,
        &table,
        Arc::clone(&exporter),
    )
    .unwrap();
    let mut got = exporter.take();
    got.sort();
    // Component 1: had state 11, received both messages (order-insensitive).
    let (k1, (s1, mut m1)) = got[0].clone();
    m1.sort();
    assert_eq!((k1, s1, m1), (1, 11, vec![-6, -5]));
    // Component 2: enabled without messages, state intact.
    assert_eq!(got[1], (2, (22, Vec::new())));
}

#[test]
fn loader_rejects_unknown_aggregator() {
    let store = MemStore::builder().default_parts(2).build();
    let err = JobRunner::new(store)
        .launch(
            Arc::new(Observer),
            RunOptions::new().loaders(vec![Box::new(FnLoader::new(
                |sink: &mut dyn LoadSink<Observer>| sink.aggregate("nonexistent", AggValue::I64(1)),
            ))]),
        )
        .unwrap_err();
    assert!(matches!(err, EbspError::NoSuchAggregator { .. }));
}

#[test]
fn loader_rejects_bad_state_table_index() {
    let store = MemStore::builder().default_parts(2).build();
    let err = JobRunner::new(store)
        .launch(
            Arc::new(Observer),
            RunOptions::new().loaders(vec![Box::new(FnLoader::new(
                |sink: &mut dyn LoadSink<Observer>| {
                    sink.state(0, 1, (1, Vec::new()))?;
                    // States are staged, but the index is still checked
                    // at the offending call, not when the stage flushes.
                    let bad = sink.state(5, 0, (0, Vec::new()));
                    assert!(matches!(bad, Err(EbspError::StateTableIndex { .. })));
                    bad
                },
            ))]),
        )
        .unwrap_err();
    assert!(matches!(err, EbspError::StateTableIndex { index: 5, .. }));
}

/// Only loads: no messages or enables, so the run ends after loading.
struct LoadOnly;

impl Job for LoadOnly {
    type Key = u32;
    type State = u64;
    type Message = ();
    type OutKey = ();
    type OutValue = ();

    fn state_tables(&self) -> Vec<String> {
        vec!["loaded".to_owned()]
    }

    fn compute(&self, _ctx: &mut ComputeContext<'_, Self>) -> Result<bool, EbspError> {
        Ok(false)
    }
}

fn load_states<S: KvStore>(store: &S, states: Vec<(u32, u64)>) -> ripple_core::RunOutcome {
    JobRunner::new(store.clone())
        .launch(
            Arc::new(LoadOnly),
            RunOptions::new().loaders(vec![Box::new(FnLoader::new(
                move |sink: &mut dyn LoadSink<LoadOnly>| {
                    for (key, state) in states {
                        sink.state(0, key, state)?;
                    }
                    Ok(())
                },
            ))]),
        )
        .unwrap()
}

fn loaded<S: KvStore>(store: &S) -> Vec<(u32, u64)> {
    let table = store.lookup_table("loaded").unwrap();
    let exporter = Arc::new(ripple_core::CollectingExporter::new());
    ripple_core::export_state_table::<_, u32, u64, _>(store, &table, Arc::clone(&exporter))
        .unwrap();
    let mut got = exporter.take();
    got.sort_unstable();
    got
}

fn assert_second_write_wins<S: KvStore>(store: &S, backend: &str) {
    load_states(store, vec![(7, 1), (8, 2), (7, 3), (9, 4), (8, 5)]);
    assert_eq!(loaded(store), vec![(7, 3), (8, 5), (9, 4)], "{backend}");
}

#[test]
fn a_key_loaded_twice_keeps_its_second_value_on_every_backend() {
    assert_second_write_wins(&MemStore::builder().default_parts(4).build(), "mem");
    assert_second_write_wins(&SimpleStore::new(4), "simple");
    let dir = TempDir::new("initial-condition");
    let disk = DiskStore::builder()
        .default_parts(4)
        .open(dir.path())
        .unwrap();
    assert_second_write_wins(&disk, "disk");
    let cluster = LoopbackCluster::spawn(2, 4);
    assert_second_write_wins(&cluster.store, "net");
}

#[test]
fn loading_costs_a_store_round_trip_per_part_not_per_state() {
    let parts = 4;
    let remote_ops = |count: u32| {
        let store = MemStore::builder().default_parts(parts).build();
        let outcome = load_states(&store, (0..count).map(|k| (k, u64::from(k))).collect());
        assert_eq!(loaded(&store).len(), count as usize);
        outcome.metrics.store.remote_ops
    };
    let many = remote_ops(2_000);
    // One batch per destination part, from the controller thread.
    assert!(
        many <= u64::from(parts),
        "remote ops {many} for 2,000 states"
    );
    assert_eq!(
        many,
        remote_ops(20),
        "remote ops must not grow with the load"
    );
}
