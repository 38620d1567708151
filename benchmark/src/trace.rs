//! Spans taken from outside: every call into a layer's public API is
//! wrapped in [`Tracer::span`], which always measures the call and, when
//! recording is on, also keeps `{name, start_ns, end_ns, parent, request}`
//! in memory until the run ends.
//!
//! The driver is single-threaded, so "the span that caused it" is simply
//! the innermost span still open. Spans that share a `request` belong to
//! one loop iteration (or one epoch inside it).
//!
//! The tracer also watches the **host**. The reference machine is a shared
//! two-vCPU VM that alternates, every few seconds, between a fast state and
//! one in which the same code takes 1.25–1.55 × as long (no steal time is
//! reported; a sort-and-hash kernel shows it plainly), so a raw timing says
//! as much about the neighbours as about the code. [`Tracer::probe`] times
//! that fixed kernel; every timed region is bracketed by two probes
//! ([`Tracer::measured`]), its samples carry the bracket's mean
//! ([`Tracer::host_speed`]), and the run reduces every timing normalised to
//! a host on which the kernel takes [`NOMINAL_PROBE_S`] (README, "Host-speed
//! normalisation" and "Measured noise").

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `layer.call` — the layer is the part before the first dot.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Iteration / epoch identifier shared by one request's spans.
    pub request: u32,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Self-time accounting for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed durations minus the part covered by child spans.
    pub self_ns: u64,
}

/// The span recorder. Cheap when off: two `Instant::now()` calls per span,
/// which the end-to-end timings need anyway.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    recording: Cell<bool>,
    request: Cell<u32>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<u32>>,
    depth: Cell<u32>,
    /// Time inside outermost spans since the most recent probe.
    top_level_ns: Cell<u64>,
    /// The same before that probe, each stretch between two probes scaled
    /// to the nominal host by the mean of the two.
    timed_work_ns: Cell<f64>,
    /// Every probe so far, in seconds per kernel run.
    probes: RefCell<Vec<f64>>,
    /// The two most recent probes.
    bracket: Cell<[f64; 2]>,
    /// The probe kernel's scratch buffer.
    scratch: RefCell<Vec<u64>>,
    /// When the most recent probe ended.
    probed_at: Cell<Instant>,
}

/// The probe kernel's time on the host all timings are normalised to: the
/// fast end of the reference machine. A constant, so that two runs (and two
/// commits) are normalised to the same host whatever each of them met.
pub const NOMINAL_PROBE_S: f64 = 0.42e-3;

/// Elements the probe kernel sorts and hashes (200 KB: cache-resident, about
/// half a millisecond — long enough to time, short enough to bracket
/// everything).
const PROBE_ELEMENTS: u64 = 25_000;
/// How long a probe stays good as the opening probe of the next region.
const FRESH_PROBE: Duration = Duration::from_micros(100);

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer with recording off.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            recording: Cell::new(false),
            request: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            depth: Cell::new(0),
            top_level_ns: Cell::new(0),
            timed_work_ns: Cell::new(0.0),
            probes: RefCell::new(Vec::new()),
            bracket: Cell::new([f64::NAN; 2]),
            scratch: RefCell::new(Vec::new()),
            probed_at: Cell::new(Instant::now()),
        }
    }

    /// Times the fixed probe kernel (fill, sort, hash) and remembers the
    /// result: seconds per kernel run, lower = faster host.
    pub fn probe(&self) -> f64 {
        let mut v = self.scratch.borrow_mut();
        let start = Instant::now();
        v.clear();
        v.extend((0..PROBE_ELEMENTS).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 7));
        v.sort_unstable();
        let hash = v
            .iter()
            .fold(0u64, |h, x| (h ^ x).wrapping_mul(0x0000_0100_0000_01B3));
        std::hint::black_box(hash);
        let end = Instant::now();
        self.probed_at.set(end);
        let seconds = (end - start).as_secs_f64();
        self.probes.borrow_mut().push(seconds);
        let [_, previous] = self.bracket.get();
        self.bracket.set([previous, seconds]);
        self.settle_timed_work();
        seconds
    }

    /// Mean of the two most recent probes — the host speed to attach to the
    /// region they bracket (NaN before the second probe).
    pub fn host_speed(&self) -> f64 {
        let [a, b] = self.bracket.get();
        (a + b) / 2.0
    }

    /// Every probe taken so far.
    pub fn probes(&self) -> Vec<f64> {
        self.probes.borrow().clone()
    }

    /// [`Tracer::span`] bracketed by two probes, so that samples pushed
    /// right after it carry the host speed it ran under. A probe that ended
    /// a moment ago (back-to-back measured regions) serves as the opening
    /// one.
    pub fn measured<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, Duration) {
        if self.probed_at.get().elapsed() > FRESH_PROBE || self.probes.borrow().is_empty() {
            self.probe();
        }
        let out = self.span(name, f);
        self.probe();
        out
    }

    /// Turns span recording on or off (between spans only).
    pub fn set_recording(&self, on: bool) {
        assert_eq!(self.depth.get(), 0, "recording toggled inside a span");
        self.recording.set(on);
    }

    /// Tags the spans that follow with a request identifier.
    pub fn set_request(&self, request: u32) {
        self.request.set(request);
    }

    /// The current request identifier.
    pub fn request(&self) -> u32 {
        self.request.get()
    }

    /// Runs `f` as the span `name`, returning its result and duration.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, Duration) {
        let recording = self.recording.get();
        let slot = if recording {
            let mut spans = self.spans.borrow_mut();
            let mut open = self.open.borrow_mut();
            let idx = u32::try_from(spans.len()).expect("fewer than 2^32 spans");
            spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: open.last().copied(),
                request: self.request.get(),
            });
            open.push(idx);
            Some(idx)
        } else {
            None
        };
        self.depth.set(self.depth.get() + 1);
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.depth.set(self.depth.get() - 1);
        let elapsed = end - start;
        if self.depth.get() == 0 {
            self.top_level_ns
                .set(self.top_level_ns.get() + elapsed.as_nanos() as u64);
        }
        if let Some(idx) = slot {
            let mut spans = self.spans.borrow_mut();
            let span = &mut spans[idx as usize];
            span.start_ns = (start - self.origin).as_nanos() as u64;
            span.end_ns = (end - self.origin).as_nanos() as u64;
            self.open.borrow_mut().pop();
        }
        (out, elapsed)
    }

    /// Moves the time inside outermost spans since the previous probe into
    /// the timed work, scaled by the mean of the two most recent probes
    /// (unscaled until there are two).
    fn settle_timed_work(&self) {
        let host = self.host_speed();
        let scale = if host.is_nan() {
            1.0
        } else {
            NOMINAL_PROBE_S / host
        };
        let ns = self.top_level_ns.replace(0) as f64;
        self.timed_work_ns
            .set(self.timed_work_ns.get() + ns * scale);
    }

    /// Nanoseconds spent inside outermost spans since the last call,
    /// normalised to the nominal host, then reset — one iteration's timed
    /// work, recorded or not, so traced and untraced iterations of the same
    /// run can be compared.
    pub fn take_timed_work_ns(&self) -> f64 {
        self.settle_timed_work();
        self.timed_work_ns.replace(0.0)
    }

    /// Number of spans kept so far.
    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Whether no span was kept.
    pub fn is_empty(&self) -> bool {
        self.spans.borrow().is_empty()
    }

    /// Per-name totals and self times (span minus its direct children).
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, &children) in spans.iter().zip(&child_ns) {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += s.duration_ns();
            e.self_ns += s.duration_ns().saturating_sub(children);
        }
        out
    }

    /// For every span name starting with `prefix` that has children: the
    /// share of its total duration its direct children cover — how much of
    /// an end-to-end span the per-layer table accounts for.
    pub fn coverage(&self, prefix: &str) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (name, t) in self.layer_times() {
            if name.starts_with(prefix) && t.total_ns > 0 && t.self_ns < t.total_ns {
                out.insert(name, 1.0 - t.self_ns as f64 / t.total_ns as f64);
            }
        }
        out
    }

    /// Writes one JSON object per span, in start order.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_measures_but_keeps_nothing() {
        let t = Tracer::new();
        let (v, d) = t.span("a.b", || 7);
        assert_eq!(v, 7);
        assert!(d.as_nanos() < 1_000_000_000);
        assert!(t.is_empty());
        assert!(t.take_timed_work_ns() > 0.0 || d.as_nanos() == 0);
    }

    #[test]
    fn measured_brackets_a_span_with_probes() {
        let t = Tracer::new();
        assert!(t.host_speed().is_nan());
        let (v, d) = t.measured("a.b", || 3);
        assert_eq!(v, 3);
        let probes = t.probes();
        assert_eq!(probes.len(), 2);
        assert!(probes.iter().all(|&p| p > 0.0));
        assert_eq!(t.host_speed(), (probes[0] + probes[1]) / 2.0);
        // Probes are not spans and not timed work; the span between them
        // counts at the host speed they bracket it with.
        assert!(t.is_empty());
        let want = d.as_nanos() as f64 * NOMINAL_PROBE_S / t.host_speed();
        assert!((t.take_timed_work_ns() - want).abs() <= 1e-9 * want);
    }

    #[test]
    fn nesting_records_parents_and_self_time() {
        let t = Tracer::new();
        t.set_recording(true);
        t.set_request(3);
        t.span("e2e.outer", || {
            t.span("x.inner", || std::thread::sleep(Duration::from_millis(2)));
            t.span("x.inner", || std::thread::sleep(Duration::from_millis(2)));
        });
        let spans = t.spans.borrow().clone();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 3));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[2].end_ns <= spans[0].end_ns);
        let times = t.layer_times();
        let outer = times["e2e.outer"];
        let inner = times["x.inner"];
        assert_eq!((outer.count, inner.count), (1, 2));
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(inner.self_ns, inner.total_ns);
        let cov = t.coverage("e2e.");
        assert!(cov["e2e.outer"] > 0.9, "{cov:?}");
        // Only the outermost span counts as timed work (as measured while
        // no probe was taken).
        assert_eq!(t.take_timed_work_ns(), outer.total_ns as f64);
        assert_eq!(t.take_timed_work_ns(), 0.0);
    }
}
