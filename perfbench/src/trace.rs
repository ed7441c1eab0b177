//! In-memory span recorder for the traced run.
//!
//! The benchmark opens a span around each of its own calls into a crate's
//! public functions. A span records its name, start, end, parent span
//! and request id; spans stay in memory until the run ends and are then
//! written out as TSV. A layer's self time is its span's duration minus
//! the part of that interval its child spans cover.
//!
//! With tracing off every guard is inert: no clock read, no record.

use crate::report::{median, ratio};
use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Clone, Debug)]
pub struct SpanRec {
    pub id: u64,
    /// 0 for a request's root span.
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans a live tracer has room for before its store grows: more than
/// any workload records in a minute-long run.
const SPAN_CAPACITY: usize = 1 << 18;

pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

thread_local! {
    /// Open spans on this thread, innermost last: `(span id, request id)`.
    static OPEN: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        // Reserved up front: growing the store copies every span so far,
        // and that copy would land in the parent of whichever span's
        // guard happened to trigger it.
        let capacity = if on { SPAN_CAPACITY } else { 0 };
        Tracer {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::with_capacity(capacity)),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Open the root span of request `request` on this thread.
    pub fn request(&self, name: &'static str, request: u64) -> Guard<'_> {
        self.open(name, Some(request))
    }

    /// Open a child of the innermost open span on this thread.
    pub fn span(&self, name: &'static str) -> Guard<'_> {
        self.open(name, None)
    }

    fn open(&self, name: &'static str, request: Option<u64>) -> Guard<'_> {
        if !self.on {
            return Guard { tracer: self, rec: None };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (parent, req) = OPEN.with(|s| {
            let s = s.borrow();
            match (request, s.last()) {
                (Some(r), _) => (0, r),
                (None, Some(&(p, r))) => (p, r),
                (None, None) => (0, 0),
            }
        });
        OPEN.with(|s| s.borrow_mut().push((id, req)));
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        Guard {
            tracer: self,
            rec: Some(SpanRec { id, parent, request: req, name, start_ns, end_ns: 0 }),
        }
    }

    /// Every span recorded so far (the recorder keeps them).
    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Write every span as TSV (`id parent request name start_ns end_ns`)
    /// to `<OUT_DIR>/trace-<workload>-<seed>.tsv`; a failure is reported
    /// on standard error and does not fail the run.
    pub fn dump(&self, workload: &str, seed: u64) {
        let path =
            std::path::Path::new(crate::OUT_DIR).join(format!("trace-{workload}-{seed}.tsv"));
        let write = || -> std::io::Result<()> {
            std::fs::create_dir_all(crate::OUT_DIR)?;
            let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
            writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns")?;
            for s in self.spans.lock().expect("span store poisoned").iter() {
                writeln!(
                    out,
                    "{}\t{}\t{}\t{}\t{}\t{}",
                    s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
                )?;
            }
            out.flush()
        };
        if let Err(e) = write() {
            eprintln!("could not write {}: {e}", path.display());
        }
    }

    /// The share of a traced op's wall time no layer span accounts for;
    /// see [`unaccounted_share`]. 0 when tracing is off.
    pub fn unaccounted_share(&self, request: u64, wall: Duration) -> f64 {
        let spans: Vec<SpanRec> = self
            .spans
            .lock()
            .expect("span store poisoned")
            .iter()
            .filter(|s| s.request == request)
            .cloned()
            .collect();
        unaccounted_share(&spans, wall)
    }
}

#[must_use = "a span ends when its guard drops"]
pub struct Guard<'t> {
    tracer: &'t Tracer,
    rec: Option<SpanRec>,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let Some(mut rec) = self.rec.take() else { return };
        rec.end_ns = self.tracer.epoch.elapsed().as_nanos() as u64;
        OPEN.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(i) = s.iter().rposition(|&(id, _)| id == rec.id) {
                s.remove(i);
            }
        });
        self.tracer.spans.lock().expect("span store poisoned").push(rec);
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the parent).
pub fn self_times(spans: &[SpanRec]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut iv = children.remove(&s.id).unwrap_or_default();
            iv.sort_unstable();
            let (mut covered, mut cur) = (0u64, None::<(u64, u64)>);
            for (a, b) in iv {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.id, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

/// |`wall` − Σ self time of the non-root spans| / `wall` for the spans
/// of one request. The root span is the benchmark's own op, so its self
/// time is exactly what the layer spans under it leave uncovered; it is
/// left out of the sum. 0 for a request with no spans.
pub fn unaccounted_share(spans: &[SpanRec], wall: Duration) -> f64 {
    if spans.is_empty() {
        return 0.0;
    }
    let selfs = self_times(spans);
    let layers: u64 = spans.iter().filter(|s| s.parent != 0).map(|s| selfs[&s.id]).sum();
    let wall = wall.as_secs_f64();
    (wall - layers as f64 / 1e9).abs() / wall
}

/// Tracing overhead, measured in one loop: a traced run sends every
/// other op of a kind through the live tracer and the rest through an
/// inert one, so both halves run the same code on the same machine
/// state; an untraced run sends every op through the inert one.
pub struct Alternating {
    pub live: Tracer,
    inert: Tracer,
}

impl Alternating {
    pub fn new(trace: bool) -> Alternating {
        Alternating { live: Tracer::new(trace), inert: Tracer::new(false) }
    }

    /// The tracer for the `n`-th op of its kind.
    pub fn pick(&self, n: u64) -> &Tracer {
        if self.live.on() && n % 2 == 1 {
            &self.live
        } else {
            &self.inert
        }
    }
}

/// Samples of one timed quantity, kept apart by whether their op ran
/// traced.
#[derive(Default)]
pub struct Split {
    pub plain: Vec<f64>,
    pub traced: Vec<f64>,
}

impl Split {
    pub fn push(&mut self, tracer: &Tracer, value: f64) {
        if tracer.on() { &mut self.traced } else { &mut self.plain }.push(value);
    }

    /// Samples of both kinds.
    pub fn count(&self) -> usize {
        self.plain.len() + self.traced.len()
    }
}

/// Σ traced medians / Σ untraced medians − 1 over `splits`: the share of
/// their ops' time that tracing adds.
pub fn overhead<'a>(splits: impl IntoIterator<Item = &'a Split>) -> f64 {
    let (mut traced, mut plain) = (0.0, 0.0);
    for s in splits {
        traced += median(&s.traced);
        plain += median(&s.plain);
    }
    ratio(traced, plain) - 1.0
}

/// Per-request breakdown: for each request id, its root span and the
/// summed self time of every span name in it (ns).
pub struct RequestBreakdown {
    pub root: SpanRec,
    pub self_ns: HashMap<&'static str, u64>,
}

pub fn breakdown(spans: &[SpanRec]) -> Vec<RequestBreakdown> {
    let selfs = self_times(spans);
    let mut by_req: HashMap<u64, RequestBreakdown> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent == 0) {
        by_req.insert(s.request, RequestBreakdown { root: s.clone(), self_ns: HashMap::new() });
    }
    for s in spans {
        if let Some(b) = by_req.get_mut(&s.request) {
            *b.self_ns.entry(s.name).or_default() += selfs[&s.id];
        }
    }
    let mut out: Vec<RequestBreakdown> = by_req.into_values().collect();
    out.sort_by_key(|b| b.root.start_ns);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec { id, parent, request: 7, name: "x", start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans =
            vec![rec(1, 0, 0, 100), rec(2, 1, 10, 40), rec(3, 1, 30, 50), rec(4, 1, 90, 120)];
        let s = self_times(&spans);
        // Children cover [10, 50) and [90, 100) of the root.
        assert_eq!(s[&1], 50);
        assert_eq!((s[&2], s[&3], s[&4]), (30, 20, 30));
    }

    #[test]
    fn nested_guards_link_parent_and_request() {
        let t = Tracer::new(true);
        {
            let _r = t.request("root", 42);
            let _c = t.span("child");
        }
        let spans = t.spans();
        let root = spans.iter().find(|s| s.name == "root").unwrap();
        let child = spans.iter().find(|s| s.name == "child").unwrap();
        assert_eq!((root.parent, child.parent, child.request), (0, root.id, 42));
        let b = breakdown(&spans);
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].self_ns.values().sum::<u64>(), root.dur_ns());
    }

    #[test]
    fn uncovered_root_time_is_unaccounted() {
        // The layer spans cover 60 of the root's 100 ns.
        let partial = vec![rec(1, 0, 0, 100), rec(2, 1, 10, 40), rec(3, 1, 50, 80)];
        let share = unaccounted_share(&partial, Duration::from_nanos(100));
        assert!((share - 0.4).abs() < 1e-9, "{share}");
        assert!(share > 0.05);
        // Fully covered, with a nested grandchild: nothing is unaccounted.
        let full = vec![rec(1, 0, 0, 100), rec(2, 1, 0, 70), rec(3, 2, 20, 30), rec(4, 1, 70, 100)];
        assert_eq!(unaccounted_share(&full, Duration::from_nanos(100)), 0.0);
    }

    #[test]
    fn live_tracer_without_layer_spans_fails_the_check() {
        let t = Tracer::new(true);
        let t0 = Instant::now();
        {
            let _r = t.request("root", 3);
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(t.unaccounted_share(3, t0.elapsed()) > 0.95);
    }

    #[test]
    fn alternating_traces_odd_ops_only_when_live() {
        let off = Alternating::new(false);
        assert!((0..4).all(|n| !off.pick(n).on()));
        let on = Alternating::new(true);
        let picks: Vec<bool> = (0..4).map(|n| on.pick(n).on()).collect();
        assert_eq!(picks, [false, true, false, true]);
        let mut s = Split::default();
        for n in 0..4 {
            s.push(on.pick(n), if n % 2 == 1 { 11.0 } else { 10.0 });
        }
        assert!((overhead([&s]) - 0.1).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        drop(t.request("root", 1));
        assert!(t.spans().is_empty());
    }
}
