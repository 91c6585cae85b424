//! The tracer's only clock: an in-memory span recorder.
//!
//! A span is one call into a layer: its name, the span that caused it,
//! the instance or request it belongs to (`key`), start and end in
//! nanoseconds since the recorder's epoch, and the work counts measured
//! at the same boundary. Spans stay in memory until [`take_spans`];
//! nothing is written while a workload runs.
//!
//! When the recorder is disabled [`span`] is a plain call, so the same
//! replay code gives the untraced baseline the tracing overhead is
//! measured against.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded layer call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u64,
    pub name: &'static str,
    /// Instance index or request id shared by every span of that unit.
    pub key: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Logical stability checks spent inside the span (0 if none).
    pub logical: u64,
    /// Checks actually computed inside the span (0 if none).
    pub computed: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// Open spans on this thread, innermost last.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    // csa-lint: allow(D002) benchmark clock epoch; timings are the product and never feed program output
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the recorder's epoch (read whether or not spans
/// are recorded, so untraced runs can time their end-to-end total).
pub fn now_ns() -> u64 {
    let e = epoch();
    // csa-lint: allow(D002) the benchmark's span clock; timings are the product and never feed program output
    let d = Instant::now().duration_since(e);
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Turns span recording on or off for the rest of the process.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Work counts a span reports at its end boundary.
pub trait Counted {
    fn counts(&self) -> (u64, u64);
}

impl Counted for () {
    fn counts(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// Runs `f` inside a span named `name`, a child of the innermost open
/// span on this thread (or of `parent` when this thread has none).
pub fn span_under<T>(parent: u64, name: &'static str, key: u64, f: impl FnOnce() -> T) -> T {
    span_counted(parent, name, key, || (f(), ())).0
}

/// [`span_under`] with the thread's innermost span as parent.
pub fn span<T>(name: &'static str, key: u64, f: impl FnOnce() -> T) -> T {
    span_under(0, name, key, f)
}

/// Runs `f`, which returns its result and the work counts to attach.
pub fn span_counted<T, C: Counted>(
    parent: u64,
    name: &'static str,
    key: u64,
    f: impl FnOnce() -> (T, C),
) -> (T, C) {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| s.borrow().last().copied()).unwrap_or(parent);
    STACK.with(|s| s.borrow_mut().push(id));
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    STACK.with(|s| s.borrow_mut().pop());
    let (logical, computed) = out.1.counts();
    let record = Span {
        id,
        parent,
        name,
        key,
        start_ns,
        end_ns,
        logical,
        computed,
    };
    SPANS
        .lock()
        .expect("span buffer poisoned by a panicking worker")
        .push(record);
    out
}

/// Id of the innermost open span on this thread (0 if none).
pub fn current() -> u64 {
    STACK.with(|s| s.borrow().last().copied()).unwrap_or(0)
}

/// Removes and returns every recorded span, ordered by id.
pub fn take_spans() -> Vec<Span> {
    let mut spans = std::mem::take(
        &mut *SPANS
            .lock()
            .expect("span buffer poisoned by a panicking worker"),
    );
    spans.sort_by_key(|s| s.id);
    spans
}
