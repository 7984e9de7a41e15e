//! A store decorator that records a span around every call into the
//! key/value SPI and forwards it unchanged.
//!
//! [`Traced`] implements [`KvStore`], [`Table`] (as [`TracedTable`]) and
//! [`PartView`], plus the recovery and durability traits when the inner
//! store has them.  Every method is forwarded, including the ones the SPI
//! gives a default body: a decorator that let a default run instead of
//! the inner override would measure a different program (dropping
//! `combiner_registry` turns off combiner pushdown, dropping
//! `snapshot_table` swaps a store's consistent cut for a scan).
//!
//! Span names are the metric prefixes of the traced run: `kv.get`,
//! `kv.put`, `kv.put_batch`, `kv.delete`, `kv.scan`, `kv.drain`,
//! `kv.len`, `kv.clear`, `kv.ddl`, `kv.snapshot`, `kv.task` (a part-task
//! closure, on its part lane), `kv.task_wait` (from the `run_at` call to
//! the closure's start), `kv.task_named`, and `disk.commit`,
//! `disk.compact`, `disk.flush`, `disk.rewind`, `disk.checkpoint`,
//! `disk.restore`, `disk.heal` for the recovery and durability calls.
//! Failed calls are counted under `kv.errors`.

use std::time::Instant;

use bytes::Bytes;
use ripple_kv::{
    CombinerRegistry, CombinerSpec, DurableStore, HealableStore, KvError, KvStore, PairConsumer,
    PartConsumer, PartId, PartView, RecoverableStore, RoutedKey, ScanControl, StoreEventSink,
    StoreMetrics, SyncPolicy, Table, TableSnapshot, TableSpec, TaskHandle, TaskRegistry,
};

use crate::trace;

/// Runs `f` inside a span named `name`, counting a failure under
/// `kv.errors`.
fn call<R>(
    name: &'static str,
    group: u64,
    f: impl FnOnce() -> Result<R, KvError>,
) -> Result<R, KvError> {
    let span = trace::span(name, group);
    let out = f();
    drop(span);
    if out.is_err() {
        trace::count("kv.errors");
    }
    out
}

/// Like [`call`], for a DDL call on the table called `table`; a missing
/// table is not counted as an error.
fn ddl<R>(table: &str, f: impl FnOnce() -> Result<R, KvError>) -> Result<R, KvError> {
    let span = trace::span_for_table("kv.ddl", table);
    let out = f();
    drop(span);
    // The engine probes for tables before creating them; finding none is
    // an answer, not a failure.
    if matches!(out, Err(ref e) if !matches!(e, KvError::NoSuchTable { .. })) {
        trace::count("kv.errors");
    }
    out
}

/// A traced store.
#[derive(Debug, Clone)]
pub struct Traced<S> {
    inner: S,
}

impl<S: KvStore> Traced<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        Self { inner }
    }

    fn wrap(&self, table: S::Table) -> TracedTable<S::Table> {
        trace::note_table(table.name(), table.partitioning_id());
        TracedTable { inner: table }
    }
}

/// A traced table handle.
#[derive(Debug, Clone)]
pub struct TracedTable<T> {
    inner: T,
}

impl<T: Table> Table for TracedTable<T> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn part_count(&self) -> u32 {
        self.inner.part_count()
    }

    fn is_ubiquitous(&self) -> bool {
        self.inner.is_ubiquitous()
    }

    fn partitioning_id(&self) -> u64 {
        self.inner.partitioning_id()
    }

    fn get(&self, key: &RoutedKey) -> Result<Option<Bytes>, KvError> {
        call("kv.get", self.partitioning_id(), || self.inner.get(key))
    }

    fn put(&self, key: RoutedKey, value: Bytes) -> Result<Option<Bytes>, KvError> {
        call("kv.put", self.partitioning_id(), || {
            self.inner.put(key, value)
        })
    }

    fn put_batch(&self, pairs: Vec<(RoutedKey, Bytes)>) -> Result<(), KvError> {
        call("kv.put_batch", self.partitioning_id(), || {
            self.inner.put_batch(pairs)
        })
    }

    fn delete(&self, key: &RoutedKey) -> Result<bool, KvError> {
        call("kv.delete", self.partitioning_id(), || {
            self.inner.delete(key)
        })
    }

    fn len(&self) -> Result<usize, KvError> {
        call("kv.len", self.partitioning_id(), || self.inner.len())
    }

    fn is_empty(&self) -> Result<bool, KvError> {
        call("kv.len", self.partitioning_id(), || self.inner.is_empty())
    }

    fn clear(&self) -> Result<(), KvError> {
        call("kv.clear", self.partitioning_id(), || self.inner.clear())
    }
}

/// Where a part task was asked for: its table's partitioning group, the
/// span and request that asked, and when.
#[derive(Debug, Clone, Copy)]
struct Lane {
    group: u64,
    parent: Option<u64>,
    req: u64,
    called: Instant,
}

impl Lane {
    fn called<T: Table>(reference: &TracedTable<T>) -> Self {
        let group = reference.partitioning_id();
        let (parent, req) = trace::context(group);
        Lane {
            group,
            parent,
            req,
            called: Instant::now(),
        }
    }

    /// Records the wait for the part lane and opens the task's span; call
    /// on the lane, as the task starts.
    fn start(&self) -> trace::Span {
        trace::record_interval(
            "kv.task_wait",
            self.parent,
            self.req,
            self.called,
            Instant::now(),
        );
        trace::span_from("kv.task", self.parent, self.req)
    }

    fn run<R>(&self, view: &dyn PartView, task: impl FnOnce(&dyn PartView) -> R) -> R {
        let _span = self.start();
        task(&TracedView {
            inner: view,
            group: self.group,
        })
    }
}

/// A [`PartConsumer`] whose parts run as traced part tasks.
#[derive(Clone)]
struct TracedParts<C> {
    inner: C,
    lane: Lane,
}

impl<C: PartConsumer> PartConsumer for TracedParts<C> {
    type Output = C::Output;

    fn process(&mut self, part: PartId, view: &dyn PartView) -> Self::Output {
        let lane = self.lane;
        lane.run(view, |view| self.inner.process(part, view))
    }

    fn combine(&self, a: Self::Output, b: Self::Output) -> Self::Output {
        self.inner.combine(a, b)
    }
}

/// A [`PairConsumer`] whose parts run as traced part tasks: the task and
/// its scan are open from `setup` to `finish`, which the store calls on
/// the part's lane around the scan.
struct TracedPairs<C> {
    inner: C,
    lane: Lane,
    /// The open scan and task spans, in the order they close.
    open: Option<(trace::Span, trace::Span)>,
}

impl<C: Clone> Clone for TracedPairs<C> {
    fn clone(&self) -> Self {
        // Each part's clone opens its own spans.
        Self {
            inner: self.inner.clone(),
            lane: self.lane,
            open: None,
        }
    }
}

impl<C: PairConsumer> PairConsumer for TracedPairs<C> {
    type Output = C::Output;

    fn setup(&mut self, part: PartId) {
        let task = self.lane.start();
        let scan = trace::span("kv.scan", self.lane.group);
        self.open = Some((scan, task));
        self.inner.setup(part);
    }

    fn pair(&mut self, key: &RoutedKey, value: &[u8]) -> ScanControl {
        self.inner.pair(key, value)
    }

    fn finish(&mut self, part: PartId) -> Self::Output {
        let out = self.inner.finish(part);
        if let Some((scan, task)) = self.open.take() {
            drop(scan);
            drop(task);
        }
        out
    }

    fn combine(&self, a: Self::Output, b: Self::Output) -> Self::Output {
        self.inner.combine(a, b)
    }
}

/// A traced part view, handed to part-task closures.
struct TracedView<'a> {
    inner: &'a dyn PartView,
    group: u64,
}

impl PartView for TracedView<'_> {
    fn part(&self) -> PartId {
        self.inner.part()
    }

    fn get(&self, table: &str, key: &RoutedKey) -> Result<Option<Bytes>, KvError> {
        call("kv.get", self.group, || self.inner.get(table, key))
    }

    fn put(&self, table: &str, key: RoutedKey, value: Bytes) -> Result<Option<Bytes>, KvError> {
        call("kv.put", self.group, || self.inner.put(table, key, value))
    }

    fn put_batch(&self, table: &str, pairs: Vec<(RoutedKey, Bytes)>) -> Result<(), KvError> {
        call("kv.put_batch", self.group, || {
            self.inner.put_batch(table, pairs)
        })
    }

    fn delete(&self, table: &str, key: &RoutedKey) -> Result<bool, KvError> {
        call("kv.delete", self.group, || self.inner.delete(table, key))
    }

    fn scan(
        &self,
        table: &str,
        f: &mut dyn FnMut(&RoutedKey, &[u8]) -> ScanControl,
    ) -> Result<(), KvError> {
        call("kv.scan", self.group, || self.inner.scan(table, f))
    }

    fn drain(
        &self,
        table: &str,
        f: &mut dyn FnMut(RoutedKey, Bytes) -> ScanControl,
    ) -> Result<(), KvError> {
        call("kv.drain", self.group, || self.inner.drain(table, f))
    }

    fn len(&self, table: &str) -> Result<usize, KvError> {
        call("kv.len", self.group, || self.inner.len(table))
    }
}

impl<S: KvStore> KvStore for Traced<S> {
    type Table = TracedTable<S::Table>;

    fn create_table(&self, spec: &TableSpec) -> Result<Self::Table, KvError> {
        ddl(spec.name(), || self.inner.create_table(spec)).map(|t| self.wrap(t))
    }

    fn create_table_like(&self, name: &str, like: &Self::Table) -> Result<Self::Table, KvError> {
        call("kv.ddl", like.partitioning_id(), || {
            self.inner.create_table_like(name, &like.inner)
        })
        .map(|t| self.wrap(t))
    }

    fn create_table_like_replicated(
        &self,
        name: &str,
        like: &Self::Table,
    ) -> Result<Self::Table, KvError> {
        call("kv.ddl", like.partitioning_id(), || {
            self.inner.create_table_like_replicated(name, &like.inner)
        })
        .map(|t| self.wrap(t))
    }

    fn lookup_table(&self, name: &str) -> Result<Self::Table, KvError> {
        ddl(name, || self.inner.lookup_table(name)).map(|t| self.wrap(t))
    }

    fn drop_table(&self, name: &str) -> Result<(), KvError> {
        ddl(name, || self.inner.drop_table(name))
    }

    fn table_names(&self) -> Vec<String> {
        self.inner.table_names()
    }

    fn run_at<R, F>(&self, reference: &Self::Table, part: PartId, task: F) -> TaskHandle<R>
    where
        R: Send + 'static,
        F: FnOnce(&dyn PartView) -> R + Send + 'static,
    {
        let lane = Lane::called(reference);
        self.inner
            .run_at(&reference.inner, part, move |view| lane.run(view, task))
    }

    fn run_at_all<R, F>(&self, reference: &Self::Table, task: F) -> Result<Vec<R>, KvError>
    where
        R: Send + 'static,
        F: Fn(&dyn PartView) -> R + Clone + Send + 'static,
    {
        let lane = Lane::called(reference);
        self.inner
            .run_at_all(&reference.inner, move |view| lane.run(view, &task))
    }

    fn enumerate_parts<C>(&self, table: &Self::Table, consumer: C) -> Result<C::Output, KvError>
    where
        C: PartConsumer,
    {
        let lane = Lane::called(table);
        self.inner.enumerate_parts(
            &table.inner,
            TracedParts {
                inner: consumer,
                lane,
            },
        )
    }

    fn enumerate_pairs<C>(&self, table: &Self::Table, consumer: C) -> Result<C::Output, KvError>
    where
        C: PairConsumer,
    {
        let lane = Lane::called(table);
        self.inner.enumerate_pairs(
            &table.inner,
            TracedPairs {
                inner: consumer,
                lane,
                open: None,
            },
        )
    }

    fn task_registry(&self) -> Option<&TaskRegistry> {
        self.inner.task_registry()
    }

    fn combiner_registry(&self) -> Option<&CombinerRegistry> {
        self.inner.combiner_registry()
    }

    fn bind_combiner(&self, table: &str, combiner: &CombinerSpec) -> Result<(), KvError> {
        ddl(table, || self.inner.bind_combiner(table, combiner))
    }

    fn run_named_at(
        &self,
        reference: &Self::Table,
        part: PartId,
        task: &str,
        arg: Bytes,
    ) -> TaskHandle<Result<Bytes, KvError>> {
        let _span = trace::span("kv.task_named", reference.partitioning_id());
        self.inner.run_named_at(&reference.inner, part, task, arg)
    }

    fn metrics(&self) -> StoreMetrics {
        self.inner.metrics()
    }

    fn set_event_sink(&self, sink: std::sync::Arc<dyn StoreEventSink>) {
        self.inner.set_event_sink(sink);
    }

    fn set_op_deadline(&self, deadline: Option<std::time::Duration>) {
        self.inner.set_op_deadline(deadline);
    }

    fn ping_part(&self, part: PartId) -> Result<u64, KvError> {
        call("kv.ping", 0, || self.inner.ping_part(part))
    }

    fn part_metrics(&self) -> Vec<StoreMetrics> {
        self.inner.part_metrics()
    }

    fn snapshot_table(&self, table: &Self::Table) -> Result<TableSnapshot, KvError> {
        call("kv.snapshot", table.partitioning_id(), || {
            self.inner.snapshot_table(&table.inner)
        })
    }
}

impl<S: RecoverableStore> RecoverableStore for Traced<S> {
    type Checkpoint = S::Checkpoint;

    fn checkpoint_part(
        &self,
        reference: &Self::Table,
        part: PartId,
    ) -> Result<Self::Checkpoint, KvError> {
        call("disk.checkpoint", reference.partitioning_id(), || {
            self.inner.checkpoint_part(&reference.inner, part)
        })
    }

    fn restore_part(&self, checkpoint: &Self::Checkpoint) -> Result<(), KvError> {
        call("disk.restore", 0, || self.inner.restore_part(checkpoint))
    }

    fn restore_part_tables(
        &self,
        checkpoint: &Self::Checkpoint,
        tables: &[String],
    ) -> Result<(), KvError> {
        call("disk.restore", 0, || {
            self.inner.restore_part_tables(checkpoint, tables)
        })
    }
}

impl<S: HealableStore> HealableStore for Traced<S> {
    fn recover_part(&self, reference: &Self::Table, part: PartId) -> Result<usize, KvError> {
        call("disk.heal", reference.partitioning_id(), || {
            self.inner.recover_part(&reference.inner, part)
        })
    }

    fn part_is_failed(&self, reference: &Self::Table, part: PartId) -> Result<bool, KvError> {
        self.inner.part_is_failed(&reference.inner, part)
    }
}

impl<S: DurableStore> DurableStore for Traced<S> {
    fn sync_policy(&self) -> SyncPolicy {
        self.inner.sync_policy()
    }

    fn flush(&self) -> Result<(), KvError> {
        call("disk.flush", 0, || self.inner.flush())
    }

    fn commit_barrier(&self, reference: &Self::Table, epoch: u64) -> Result<(), KvError> {
        call("disk.commit", reference.partitioning_id(), || {
            self.inner.commit_barrier(&reference.inner, epoch)
        })
    }

    fn compact_group(&self, reference: &Self::Table, epoch: u64) -> Result<(), KvError> {
        call("disk.compact", reference.partitioning_id(), || {
            self.inner.compact_group(&reference.inner, epoch)
        })
    }

    fn rewind_group(&self, reference: &Self::Table, epoch: u64) -> Result<(), KvError> {
        call("disk.rewind", reference.partitioning_id(), || {
            self.inner.rewind_group(&reference.inner, epoch)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripple_kv::FnPairConsumer;
    use ripple_store_disk::DiskStore;
    use ripple_store_mem::MemStore;
    use ripple_store_net::LoopbackCluster;

    fn same<T>(a: Option<&T>, b: Option<&T>) -> bool {
        match (a, b) {
            (Some(a), Some(b)) => std::ptr::eq(a, b),
            (None, None) => true,
            _ => false,
        }
    }

    fn forwards_defaults<S: KvStore>(inner: &S) {
        let t = Traced::new(inner.clone());
        assert!(same(t.combiner_registry(), inner.combiner_registry()));
        assert!(same(t.task_registry(), inner.task_registry()));
        let table = t
            .create_table(TableSpec::new("fwd").parts(2))
            .expect("create");
        table
            .put_batch(vec![(
                RoutedKey::with_route(1, Bytes::from_static(b"k")),
                Bytes::from_static(b"v"),
            )])
            .expect("put_batch");
        let raw = inner.lookup_table("fwd").expect("lookup");
        assert_eq!(
            t.snapshot_table(&table).expect("traced snapshot").digest(),
            inner.snapshot_table(&raw).expect("inner snapshot").digest()
        );
        assert_eq!(t.part_metrics().len(), inner.part_metrics().len());
        assert_eq!(
            t.run_at_all(&table, |view| view.part())
                .expect("traced run_at_all"),
            inner
                .run_at_all(&raw, |view| view.part())
                .expect("inner run_at_all")
        );
        assert_eq!(
            t.enumerate_parts(&table, PartList).expect("traced parts"),
            inner.enumerate_parts(&raw, PartList).expect("inner parts")
        );
        assert_eq!(
            t.enumerate_pairs(&table, FnPairConsumer::new(value_len))
                .expect("traced pairs"),
            inner
                .enumerate_pairs(&raw, FnPairConsumer::new(value_len))
                .expect("inner pairs")
        );
        t.drop_table("fwd").expect("drop");
    }

    /// Lists the parts it is run on.
    #[derive(Clone)]
    struct PartList;

    impl PartConsumer for PartList {
        type Output = Vec<PartId>;

        fn process(&mut self, part: PartId, _view: &dyn PartView) -> Self::Output {
            vec![part]
        }

        fn combine(&self, mut a: Self::Output, b: Self::Output) -> Self::Output {
            a.extend(b);
            a
        }
    }

    fn value_len(_key: &RoutedKey, value: &[u8]) -> usize {
        value.len()
    }

    #[test]
    fn defaulted_methods_reach_the_inner_store() {
        forwards_defaults(&MemStore::builder().default_parts(2).build());
        let cluster = LoopbackCluster::spawn(2, 2);
        forwards_defaults(&cluster.store);
        let dir = std::env::temp_dir().join(format!("perfbench-traced-{}", std::process::id()));
        let disk = DiskStore::builder()
            .default_parts(2)
            .open(&dir)
            .expect("open");
        forwards_defaults(&disk);
        assert_eq!(Traced::new(disk.clone()).sync_policy(), disk.sync_policy());
        drop(disk);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
