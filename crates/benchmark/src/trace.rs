//! The benchmark's own span recorder. Spans are opened around calls
//! into the layer crates' public functions — never inside them — kept in
//! per-thread buffers, and drained after each traced repetition.
//!
//! A span's parent is the innermost span open on the same thread, or an
//! explicit id when the work was caused from another thread (a shard
//! worker serving a request the generator submitted). A layer's *self
//! time* is a span's duration minus the part of it its children cover.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json::Json;

/// Span identifier; `0` means "none".
pub type SpanId = u64;

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    /// Request or unit identifier shared by every span of one operation.
    pub unit: u64,
    pub layer: &'static str,
    pub name: &'static str,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
static SINK: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

struct Local {
    thread: u64,
    open: Vec<(SpanId, u64)>,
    done: Vec<Span>,
}

impl Drop for Local {
    fn drop(&mut self) {
        // A worker thread's buffer reaches the sink when the thread ends;
        // `Engine::shutdown` joins its workers, so nothing is lost.
        if let Ok(mut sink) = SINK.lock() {
            sink.append(&mut self.done);
        }
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local {
        thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
        open: Vec::new(),
        done: Vec::new(),
    });
}

/// Nanoseconds since the recorder's epoch (first use in the process).
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turn recording on or off. Off, [`span`] costs one atomic load.
pub fn enable(on: bool) {
    now_ns();
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A fresh id for a span recorded later with [`record`], so children on
/// other threads can name it as their parent before it is complete.
pub fn reserve() -> SpanId {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// An open span; closes when dropped. Holds nothing while recording is
/// off.
pub struct Guard(Option<Span>);

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(mut span) = self.0.take() else {
            return;
        };
        span.end_ns = now_ns();
        let _ = LOCAL.try_with(|l| {
            let mut l = l.borrow_mut();
            l.open.retain(|&(open, _)| open != span.id);
            span.thread = l.thread;
            l.done.push(span);
        });
    }
}

fn open(
    layer: &'static str,
    name: &'static str,
    parent: Option<SpanId>,
    unit: Option<u64>,
) -> Guard {
    if !enabled() {
        return Guard(None);
    }
    let id = reserve();
    let (parent, unit) = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let (top, top_unit) = l.open.last().copied().unwrap_or((0, 0));
        let resolved = (parent.unwrap_or(top), unit.unwrap_or(top_unit));
        l.open.push((id, resolved.1));
        resolved
    });
    Guard(Some(Span {
        id,
        parent,
        unit,
        layer,
        name,
        thread: 0,
        start_ns: now_ns(),
        end_ns: 0,
    }))
}

/// Open a span under the innermost open span of this thread.
pub fn span(layer: &'static str, name: &'static str) -> Guard {
    open(layer, name, None, None)
}

/// [`span`], starting a new unit (request or compile unit) id that
/// nested spans inherit.
pub fn unit_span(layer: &'static str, name: &'static str, unit: u64) -> Guard {
    open(layer, name, None, Some(unit))
}

/// Open a span whose parent lives on another thread.
pub fn child_span(layer: &'static str, name: &'static str, parent: SpanId, unit: u64) -> Guard {
    open(layer, name, Some(parent), Some(unit))
}

/// Innermost open span of this thread (`0` when none or when off).
pub fn current() -> SpanId {
    LOCAL.with(|l| l.borrow().open.last().map_or(0, |&(id, _)| id))
}

/// Record a span from explicit timestamps (a request's life as the
/// engine reports it: queue wait, then service).
pub fn record(span: Span) {
    if enabled() {
        LOCAL.with(|l| l.borrow_mut().done.push(span));
    }
}

/// Take every span finished so far, from this thread's buffer and from
/// threads that have ended, in start order.
pub fn drain() -> Vec<Span> {
    let mut mine = LOCAL.with(|l| std::mem::take(&mut l.borrow_mut().done));
    let mut sink = SINK.lock().expect("span sink poisoned");
    let mut all = std::mem::take(&mut *sink);
    all.append(&mut mine);
    all.sort_by_key(|s| (s.start_ns, s.id));
    all
}

/// Self time of every span, aligned with `spans`: its duration minus
/// the union of its children's intervals clipped to it. Children on
/// other threads count like any other — time a parent spends blocked on
/// them is theirs, not its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<SpanId, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let duration = s.end_ns.saturating_sub(s.start_ns);
            let Some(kids) = children.get_mut(&s.id) else {
                return duration;
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut frontier = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(frontier), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    frontier = end;
                }
            }
            duration - covered
        })
        .collect()
}

/// Count, total and self time of the spans sharing one `(layer, name)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Per-`(layer, name)` aggregation of one traced repetition.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    pub by_name: BTreeMap<(&'static str, &'static str), Agg>,
}

impl Summary {
    pub fn of(spans: &[Span]) -> Summary {
        let mut by_name: BTreeMap<(&'static str, &'static str), Agg> = BTreeMap::new();
        for (s, own) in spans.iter().zip(self_times(spans)) {
            let agg = by_name.entry((s.layer, s.name)).or_default();
            agg.count += 1;
            agg.total_ns += s.end_ns.saturating_sub(s.start_ns);
            agg.self_ns += own;
        }
        Summary { by_name }
    }

    pub fn get(&self, layer: &'static str, name: &'static str) -> Agg {
        self.by_name
            .get(&(layer, name))
            .copied()
            .unwrap_or_default()
    }

    pub fn self_ms(&self, layer: &'static str, name: &'static str) -> f64 {
        self.get(layer, name).self_ns as f64 / 1e6
    }

    pub fn total_ms(&self, layer: &'static str, name: &'static str) -> f64 {
        self.get(layer, name).total_ns as f64 / 1e6
    }

    /// Self time of every span of a layer, milliseconds.
    pub fn layer_self_ms(&self, layer: &str) -> f64 {
        self.by_name
            .iter()
            .filter(|((l, _), _)| *l == layer)
            .map(|(_, a)| a.self_ns)
            .sum::<u64>() as f64
            / 1e6
    }
}

/// The spans as a JSON array, for `trace-<workload>.json`.
pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .zip(self_times(spans))
            .map(|(s, own)| {
                Json::obj([
                    ("id", Json::Num(s.id as f64)),
                    ("parent", Json::Num(s.parent as f64)),
                    ("unit", Json::Num(s.unit as f64)),
                    ("layer", Json::str(s.layer)),
                    ("name", Json::str(s.name)),
                    ("thread", Json::Num(s.thread as f64)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("self_ns", Json::Num(own as f64)),
                ])
            })
            .collect(),
    )
}

/// Serialises the tests that switch the process-wide recorder on.
#[cfg(test)]
pub static TEST_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    fn s(id: SpanId, parent: SpanId, thread: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            unit: 0,
            layer: "l",
            name: "n",
            thread,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nested_children_subtract_once_per_level() {
        // root 0..100 > a 10..60 > b 20..30
        let spans = [s(1, 0, 1, 0, 100), s(2, 1, 1, 10, 60), s(3, 2, 1, 20, 30)];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
        // Self times of a single-threaded tree sum to the root duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn siblings_subtract_their_union_and_overlaps_count_once() {
        let spans = [
            s(1, 0, 1, 0, 100),
            s(2, 1, 1, 10, 30),
            s(3, 1, 1, 30, 50),
            // Overlaps span 3 and overruns the parent: clipped to 40..100.
            s(4, 1, 2, 40, 120),
        ];
        assert_eq!(self_times(&spans)[0], 10);
    }

    #[test]
    fn cross_thread_child_takes_the_blocked_time_from_its_parent() {
        // The generator waits 0..80 on a request; a worker on another
        // thread serves it 25..75. The wait's own time is the queueing.
        let spans = [s(1, 0, 1, 0, 80), s(2, 1, 7, 25, 75)];
        assert_eq!(self_times(&spans), vec![30, 50]);
    }

    #[test]
    fn summary_groups_by_layer_and_name() {
        let mut spans = vec![s(1, 0, 1, 0, 100), s(2, 1, 1, 10, 60)];
        spans[1].layer = "vgpu";
        spans[1].name = "run_exact";
        let summary = Summary::of(&spans);
        assert_eq!(
            summary.get("vgpu", "run_exact"),
            Agg {
                count: 1,
                total_ns: 50,
                self_ns: 50
            }
        );
        assert_eq!(summary.self_ms("l", "n"), 50.0 / 1e6);
        assert_eq!(summary.layer_self_ms("vgpu"), 50.0 / 1e6);
        assert_eq!(summary.get("absent", "x"), Agg::default());
    }

    #[test]
    fn live_spans_nest_inherit_units_and_cross_threads() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        drain();
        assert!(
            span("x", "off").0.is_none(),
            "disabled recorder opens nothing"
        );
        enable(true);
        let root = unit_span("benchmark", "repetition", 42);
        let root_id = current();
        {
            let _inner = span("core", "compile");
            assert_ne!(current(), root_id);
        }
        std::thread::spawn(move || {
            let _remote = child_span("vgpu", "run_exact", root_id, 42);
        })
        .join()
        .unwrap();
        drop(root);
        enable(false);
        let spans = drain();
        assert_eq!(spans.len(), 3);
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        assert_eq!(by_name("compile").parent, root_id);
        assert_eq!(by_name("compile").unit, 42, "unit is inherited");
        assert_eq!(by_name("run_exact").parent, root_id);
        assert_ne!(by_name("run_exact").thread, by_name("repetition").thread);
        assert!(drain().is_empty());
    }
}
