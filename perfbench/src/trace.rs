//! In-memory span recorder for the traced run.
//!
//! A span has a name, a start, an end, the span that caused it and a
//! request id (the index of the job or mutation batch it serves).  Spans
//! nest per thread through a thread-local stack, so a span's *self time*
//! is its duration minus the time its same-thread children cover.  Work
//! handed to another thread (a part-task dispatched by `run_at`) carries
//! its causing span and request id across explicitly.
//!
//! Per-name totals (calls, total time, self time) are folded in as spans
//! close, except for spans of a background tenant.  The raw spans are kept in memory up to a cap and written out
//! as JSON lines when the benchmark ends.
//!
//! *Root* spans delimit one request as the user sees it.  A root's
//! covered time is the union of the intervals of its direct children,
//! same-thread or handed over; what no child covers is reported as
//! unattributed.
//!
//! Recording is off unless [`enable`] was called; every entry point is
//! then a cheap no-op, so the same workload code serves plain and traced
//! runs.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Request id of spans that serve no request.
pub const NO_REQ: u64 = u64::MAX;
/// Request id of spans issued by a background tenant.
pub const BACKGROUND: u64 = u64::MAX - 1;

/// Most raw spans kept for the span file; totals count every span.
const SPAN_CAP: usize = 200_000;

static ENABLED: AtomicBool = AtomicBool::new(false);
static TRACER: OnceLock<Tracer> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

struct Frame {
    id: u64,
    req: u64,
    child_ns: u64,
}

/// Totals of every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Spans closed.
    pub calls: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed self time (duration minus same-thread children).
    pub self_ns: u64,
}

impl Totals {
    /// Summed duration in seconds.
    #[must_use]
    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }
}

/// Coverage of root spans by their children.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RootCoverage {
    /// Root spans closed.
    pub roots: u64,
    /// Summed root duration.
    pub root_ns: u64,
    /// Summed part of root durations that some child span covers.
    pub covered_ns: u64,
}

impl RootCoverage {
    /// Share of root time no child covers.
    #[must_use]
    pub fn unattributed_frac(&self) -> f64 {
        if self.root_ns == 0 {
            0.0
        } else {
            self.root_ns.saturating_sub(self.covered_ns) as f64 / self.root_ns as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct SpanRecord {
    id: u64,
    parent: Option<u64>,
    req: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Default)]
struct OpenRoot {
    id: u64,
    children: Vec<(u64, u64)>,
}

#[derive(Default)]
struct State {
    totals: BTreeMap<&'static str, Totals>,
    spans: Vec<SpanRecord>,
    dropped: u64,
    open_roots: HashMap<u64, OpenRoot>,
    coverage: RootCoverage,
}

struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    current_req: AtomicU64,
    background_prefix: Mutex<Option<String>>,
    background_groups: Mutex<HashSet<u64>>,
    state: Mutex<State>,
}

fn tracer() -> &'static Tracer {
    TRACER.get_or_init(|| Tracer {
        epoch: Instant::now(),
        next_id: AtomicU64::new(1),
        current_req: AtomicU64::new(NO_REQ),
        background_prefix: Mutex::new(None),
        background_groups: Mutex::new(HashSet::new()),
        state: Mutex::new(State::default()),
    })
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // Every update leaves the recorder consistent, so a panic elsewhere
    // while the lock was held does not invalidate it.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Turns recording on, until [`pause`].
pub fn enable() {
    let _ = tracer();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Stops recording until [`resume`], returning whether it was on.  Spans
/// already open still close normally.
pub fn pause() -> bool {
    ENABLED.swap(false, Ordering::SeqCst)
}

/// Restarts recording if `was_on`, the value [`pause`] returned.
pub fn resume(was_on: bool) {
    if was_on {
        ENABLED.store(true, Ordering::SeqCst);
    }
}

/// Whether recording is on.
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Sets the request id for spans opened on threads the benchmark does not
/// own (a server's serving loop, say); [`NO_REQ`] clears it.
pub fn set_current_request(req: u64) {
    if enabled() {
        tracer().current_req.store(req, Ordering::SeqCst);
    }
}

/// Marks tables whose name starts with `prefix` (and every table
/// co-partitioned with them) as a background tenant's: their spans get
/// the [`BACKGROUND`] request id instead of the current request.
pub fn set_background_prefix(prefix: &str) {
    *lock(&tracer().background_prefix) = Some(prefix.to_owned());
}

/// Records that a table named `name` was created in partitioning group
/// `group`.  Works while recording is paused, so a background table made
/// then is still known when recording resumes.
pub fn note_table(name: &str, group: u64) {
    let t = tracer();
    let background = lock(&t.background_prefix)
        .as_deref()
        .is_some_and(|p| name.starts_with(p));
    if background {
        lock(&t.background_groups).insert(group);
    }
}

/// The causing span and request id a span opened now on this thread
/// would get, for handing to another thread.  `group` is the partitioning
/// group of the table the work touches, used when this thread has no open
/// span.
#[must_use]
pub fn context(group: u64) -> (Option<u64>, u64) {
    if !enabled() {
        return (None, NO_REQ);
    }
    let top = STACK.with(|s| s.borrow().last().map(|f| (f.id, f.req)));
    match top {
        Some((id, req)) => (Some(id), req),
        None => {
            let t = tracer();
            if lock(&t.background_groups).contains(&group) {
                (None, BACKGROUND)
            } else {
                (None, t.current_req.load(Ordering::SeqCst))
            }
        }
    }
}

/// An open span; closes when dropped.
#[must_use = "a span closes when dropped"]
pub struct Span {
    open: Option<OpenSpan>,
}

struct OpenSpan {
    id: u64,
    parent: Option<u64>,
    req: u64,
    name: &'static str,
    start: Instant,
    root: bool,
}

/// Opens a span caused by this thread's innermost open span.  `group` is
/// the partitioning group of the table it touches (see [`context`]); pass
/// 0 when it touches none.
pub fn span(name: &'static str, group: u64) -> Span {
    if !enabled() {
        return Span { open: None };
    }
    let (parent, req) = context(group);
    open(name, parent, req, false)
}

/// Opens a span about the table called `table` (DDL, say), before its
/// partitioning group is known: a background tenant's table name is
/// enough to keep the span out of the current request.
pub fn span_for_table(name: &'static str, table: &str) -> Span {
    if !enabled() {
        return Span { open: None };
    }
    let (parent, mut req) = context(0);
    let t = tracer();
    if parent.is_none()
        && lock(&t.background_prefix)
            .as_deref()
            .is_some_and(|p| table.starts_with(p))
    {
        req = BACKGROUND;
    }
    open(name, parent, req, false)
}

/// Opens a span with an explicit cause, for work handed over from
/// another thread.
pub fn span_from(name: &'static str, parent: Option<u64>, req: u64) -> Span {
    if !enabled() {
        return Span { open: None };
    }
    open(name, parent, req, false)
}

/// Opens the root span of request `req` on this thread.
pub fn root(name: &'static str, req: u64) -> Span {
    if !enabled() {
        return Span { open: None };
    }
    let span = open(name, None, req, true);
    if let Some(o) = &span.open {
        lock(&tracer().state).open_roots.insert(
            req,
            OpenRoot {
                id: o.id,
                children: Vec::new(),
            },
        );
    }
    span
}

/// Records an already-finished interval as a span (a wait measured
/// before the thread could open one).
pub fn record_interval(
    name: &'static str,
    parent: Option<u64>,
    req: u64,
    start: Instant,
    end: Instant,
) {
    if !enabled() {
        return;
    }
    let t = tracer();
    let id = t.next_id.fetch_add(1, Ordering::Relaxed);
    let dur = ns(end.saturating_duration_since(start));
    finish(
        SpanRecord {
            id,
            parent,
            req,
            name,
            start_ns: ns(start.saturating_duration_since(t.epoch)),
            end_ns: ns(end.saturating_duration_since(t.epoch)),
        },
        dur,
        false,
    );
}

/// Counts one event under `name` without a duration.
pub fn count(name: &'static str) {
    if enabled() {
        lock(&tracer().state).totals.entry(name).or_default().calls += 1;
    }
}

fn open(name: &'static str, parent: Option<u64>, req: u64, root: bool) -> Span {
    let id = tracer().next_id.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| {
        s.borrow_mut().push(Frame {
            id,
            req,
            child_ns: 0,
        });
    });
    Span {
        open: Some(OpenSpan {
            id,
            parent,
            req,
            name,
            start: Instant::now(),
            root,
        }),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(o) = self.open.take() else {
            return;
        };
        let end = Instant::now();
        let dur = ns(end.saturating_duration_since(o.start));
        let child_ns = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Spans close in LIFO order on their thread; a mismatch means
            // a guard was moved, and the frame is left for its owner.
            let child_ns = match stack.last() {
                Some(f) if f.id == o.id => stack.pop().map_or(0, |f| f.child_ns),
                _ => 0,
            };
            if let Some(parent) = stack.last_mut() {
                parent.child_ns += dur;
            }
            child_ns
        });
        let t = tracer();
        finish(
            SpanRecord {
                id: o.id,
                parent: o.parent,
                req: o.req,
                name: o.name,
                start_ns: ns(o.start.saturating_duration_since(t.epoch)),
                end_ns: ns(end.saturating_duration_since(t.epoch)),
            },
            dur.saturating_sub(child_ns),
            o.root,
        );
    }
}

fn finish(rec: SpanRecord, self_ns: u64, is_root: bool) {
    let dur = rec.end_ns.saturating_sub(rec.start_ns);
    let mut st = lock(&tracer().state);
    // A background tenant's spans are kept in the span file but stay out
    // of the totals, which describe the measured operations.
    if rec.req != BACKGROUND {
        let totals = st.totals.entry(rec.name).or_default();
        totals.calls += 1;
        totals.total_ns += dur;
        totals.self_ns += self_ns;
    }
    if is_root {
        if let Some(open) = st.open_roots.remove(&rec.req) {
            let covered = union_within(open.children, rec.start_ns, rec.end_ns);
            st.coverage.roots += 1;
            st.coverage.root_ns += dur;
            st.coverage.covered_ns += covered;
        }
    } else if let Some(open) = st.open_roots.get_mut(&rec.req) {
        if rec.parent.is_none() || rec.parent == Some(open.id) {
            open.children.push((rec.start_ns, rec.end_ns));
        }
    }
    if st.spans.len() < SPAN_CAP {
        st.spans.push(rec);
    } else {
        st.dropped += 1;
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_within(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

fn ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Per-name totals recorded so far.
#[must_use]
pub fn totals() -> BTreeMap<&'static str, Totals> {
    lock(&tracer().state).totals.clone()
}

/// Root coverage recorded so far.
#[must_use]
pub fn coverage() -> RootCoverage {
    lock(&tracer().state).coverage
}

/// Writes the kept spans to `path` as JSON lines, returning how many
/// were written and how many the cap dropped.
///
/// # Errors
///
/// Returns any I/O error from creating or writing the file.
pub fn write_spans(path: &std::path::Path) -> std::io::Result<(usize, u64)> {
    let st = lock(&tracer().state);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in &st.spans {
        let parent = s
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        let req = if s.req >= BACKGROUND {
            "null".to_owned()
        } else {
            s.req.to_string()
        };
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"req\":{req},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()?;
    Ok((st.spans.len(), st.dropped))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_clips_and_merges() {
        assert_eq!(union_within(vec![], 0, 10), 0);
        assert_eq!(union_within(vec![(2, 4), (3, 6), (8, 20)], 0, 10), 6);
        assert_eq!(union_within(vec![(0, 5), (1, 2)], 3, 10), 2);
    }
}
