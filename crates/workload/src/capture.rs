//! Workload capture: observed operation streams and decayed rate
//! estimation — the observe half of the serve → observe → re-tune loop
//! (DESIGN.md §5.16).
//!
//! The paper's advisor takes query/update rates as *given*; a production
//! advisor derives them from traffic. This module is the derivation
//! substrate, deliberately independent of the advisor so it can sit in
//! front of any consumer:
//!
//! * [`WorkloadEvent`] — one observed operation: a query traversal against
//!   a path's ending attribute with respect to a class, or an object
//!   insertion/deletion on a class. Attribute updates are modeled as a
//!   delete + insert pair, exactly like the paper's load model folds them
//!   into `(β, γ)`.
//! * [`EventLog`] — an append-only, deterministically replayable record of
//!   weighted events, with a bit-exact text encoding for persistence.
//! * [`RateEstimator`] — tick-bucketed exponential decay: events
//!   accumulate into the current tick's bucket; advancing the clock folds
//!   each completed window into per-class `(β, γ)` and per-(path, class)
//!   `α` estimates.
//!
//! # Determinism contract
//!
//! Estimation is bitwise deterministic and **interleaving-invariant**
//! within a tick: every `(signal, tick)` bucket is its own accumulator, so
//! permuting the arrival order of one tick's events cannot change any
//! estimate (summation order only moves *within* a bucket, where all
//! contributions are applied to the same running sum in arrival order —
//! and cross-bucket order never matters). Replaying the same [`EventLog`]
//! twice therefore yields bit-identical estimator state, which
//! [`RateEstimator::fingerprint`] makes checkable in one `u64`.
//!
//! # Stationarity contract
//!
//! The first completed window of a signal is adopted verbatim (`est =
//! bucket`); later windows fold as `est ← est + a·(bucket − est)`. A
//! *stationary* stream — every tick carries the same per-signal mass —
//! thus reproduces its rates **bitwise**: the first window installs the
//! exact value and every later fold adds `a·0.0`. This is what makes the
//! replay-equivalence property of `oic-sim/tests/online.rs` exact rather
//! than approximate.
//!
//! # Storage: an observed event costs an add
//!
//! A path's cells live in one slot of a dense slab; the ordered `PathKey →
//! slot` index serves only what needs a key (first sight, `drop_path`, the
//! key-ordered `fingerprint`, one [`RateEstimator::path`] view per read).
//! `observe` remembers the path it resolved last, so a *run* of same-path
//! events probes once — then an event is a tick compare, a key compare, an
//! index and an add — and a stream with no runs probes once per event
//! ([`RateEstimator::path_probes`]). `drop_path` forgets the remembered
//! path and empties the slot before it is recycled. Neither contract sees
//! any of it: a cell folds the same wherever it sits, the digest walks keys.

use oic_schema::ClassId;
use std::collections::btree_map::{BTreeMap, Entry};
use std::fmt;

/// Ceiling on captured class indexes (over 100× the largest schema the repo
/// generates). Cells are dense by class, so an index is an allocation size:
/// past this a log is a [`CaptureError::ClassRange`], an event is refused.
pub const MAX_CLASS_INDEX: usize = (1 << 16) - 1;

/// Why a captured log failed to decode or to replay.
///
/// The position (`line` / `at`) is the 1-based text line for errors found
/// by [`EventLog::decode`] and the 0-based entry index for errors found by
/// [`EventLog::validate`] / [`EventLog::replay`].
#[derive(Debug, Clone, PartialEq)]
pub enum CaptureError {
    /// A text line does not parse as any entry kind.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What failed to parse.
        reason: String,
    },
    /// A class index exceeds [`MAX_CLASS_INDEX`].
    ClassRange {
        /// Entry position (see type docs).
        line: usize,
        /// The out-of-range value.
        class: u64,
    },
    /// An entry's tick precedes an earlier entry's — a log must replay in
    /// non-decreasing tick order (the estimator's clock never rewinds).
    NonMonotonicTick {
        /// Entry position (see type docs).
        at: usize,
        /// The offending tick.
        tick: u64,
        /// The latest tick seen before it.
        prev: u64,
    },
    /// An entry's weight is not a finite, non-negative rate mass. The text
    /// codec carries raw IEEE-754 bits, so a hand-edited line can spell
    /// NaN, an infinity, or a negative mass — none of which the estimator
    /// accepts.
    BadWeight {
        /// Entry position (see type docs).
        at: usize,
        /// The decoded weight.
        weight: f64,
    },
}

impl fmt::Display for CaptureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CaptureError::Malformed { line, reason } => {
                write!(f, "line {line}: {reason}")
            }
            CaptureError::ClassRange { line, class } => {
                write!(f, "entry {line}: class {class} exceeds {MAX_CLASS_INDEX}")
            }
            CaptureError::NonMonotonicTick { at, tick, prev } => {
                write!(f, "entry {at}: tick {tick} precedes tick {prev}")
            }
            CaptureError::BadWeight { at, weight } => {
                write!(
                    f,
                    "entry {at}: weight {weight} is not a finite non-negative mass"
                )
            }
        }
    }
}

impl std::error::Error for CaptureError {}

/// Opaque identity of a path in a captured stream. Producers choose the
/// value (the advisor-side tuner uses the advisor's raw path handle);
/// the capture layer only requires that live paths have distinct keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PathKey(pub u64);

/// One observed operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadEvent {
    /// A query against `path`'s ending attribute with respect to `class` —
    /// the α signal of the paper's load triplet.
    Query {
        /// The queried path.
        path: PathKey,
        /// The class the query targets (position in the path's scope).
        class: ClassId,
    },
    /// An object insertion on `class` — the β signal.
    Insert {
        /// The inserted object's class.
        class: ClassId,
    },
    /// An object deletion on `class` — the γ signal.
    Delete {
        /// The deleted object's class.
        class: ClassId,
    },
}

impl WorkloadEvent {
    /// The class the event carries, whatever its kind.
    fn class(&self) -> ClassId {
        let (Self::Query { class, .. } | Self::Insert { class } | Self::Delete { class }) = *self;
        class
    }
}

/// One recorded event: when it was observed and with what weight.
///
/// The weight is the event's rate mass: a live executor records `1.0` per
/// operation (a count), while a fluid/expected-traffic generator may
/// record fractional masses directly. The estimator is agnostic — it sums
/// weights per window either way.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogEntry {
    /// Observation tick (window index). Non-decreasing within a log.
    pub tick: u64,
    /// The observed operation.
    pub event: WorkloadEvent,
    /// Rate mass carried by the event.
    pub weight: f64,
}

/// Append-only record of a captured stream, replayable deterministically.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventLog {
    entries: Vec<LogEntry>,
}

impl EventLog {
    /// New, empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one weighted event.
    pub fn push(&mut self, tick: u64, event: WorkloadEvent, weight: f64) {
        self.entries.push(LogEntry {
            tick,
            event,
            weight,
        });
    }

    /// The recorded entries, in arrival order.
    pub fn entries(&self) -> &[LogEntry] {
        &self.entries
    }

    /// Number of recorded entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Checks the invariants replay relies on — non-decreasing ticks,
    /// finite non-negative weights, class indexes within [`MAX_CLASS_INDEX`]
    /// — without feeding anything. A log built through [`EventLog::push`]
    /// can violate them (push never validates: a live recorder must stay
    /// infallible on its hot path), and a decoded log cannot (decode runs
    /// the same checks).
    pub fn validate(&self) -> Result<(), CaptureError> {
        let mut prev: Option<u64> = None;
        for (at, e) in self.entries.iter().enumerate() {
            if let Some(prev) = prev {
                if e.tick < prev {
                    return Err(CaptureError::NonMonotonicTick {
                        at,
                        tick: e.tick,
                        prev,
                    });
                }
            }
            prev = Some(e.tick);
            if e.event.class().index() > MAX_CLASS_INDEX {
                return Err(CaptureError::ClassRange {
                    line: at,
                    class: e.event.class().index() as u64,
                });
            }
            if !e.weight.is_finite() || e.weight < 0.0 {
                return Err(CaptureError::BadWeight {
                    at,
                    weight: e.weight,
                });
            }
        }
        Ok(())
    }

    /// Replays every entry, in order, into `sink`. This is the one
    /// replay primitive — the tuner's log replay and the property tests
    /// both go through it, so "replayed twice ⇒ bit-identical" is a
    /// statement about a single code path.
    ///
    /// The log is [`EventLog::validate`]d up front: on a corrupt log
    /// (rewinding ticks, NaN/infinite/negative weights, class indexes past
    /// the ceiling) the error is returned and **nothing** is fed — a sink
    /// never observes a prefix of a stream that would later have poisoned it.
    pub fn replay(
        &self,
        mut sink: impl FnMut(u64, &WorkloadEvent, f64),
    ) -> Result<(), CaptureError> {
        self.validate()?;
        for e in &self.entries {
            sink(e.tick, &e.event, e.weight);
        }
        Ok(())
    }

    /// Bit-exact text encoding: one line per entry, weights spelled as the
    /// hex of their IEEE-754 bits so decode → encode round-trips to the
    /// identical stream (a decimal float print would not).
    pub fn encode(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for e in &self.entries {
            let w = e.weight.to_bits();
            match e.event {
                WorkloadEvent::Query { path, class } => {
                    let _ = writeln!(out, "q {} {} {} {w:016x}", e.tick, path.0, class.index());
                }
                WorkloadEvent::Insert { class } => {
                    let _ = writeln!(out, "i {} {} {w:016x}", e.tick, class.index());
                }
                WorkloadEvent::Delete { class } => {
                    let _ = writeln!(out, "d {} {} {w:016x}", e.tick, class.index());
                }
            }
        }
        out
    }

    /// Parses the [`EventLog::encode`] format, validating everything a
    /// hand-edited or truncated file can get wrong: field shapes, class
    /// indexes beyond [`MAX_CLASS_INDEX`], weight bits spelling NaN/infinite/
    /// negative masses, and ticks that rewind. A decoded log therefore
    /// always [`EventLog::replay`]s cleanly. The first offending line is
    /// reported; nothing is returned from a corrupt file.
    pub fn decode(text: &str) -> Result<EventLog, CaptureError> {
        let mut log = EventLog::new();
        let mut prev_tick: Option<u64> = None;
        for (no, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let no = no + 1;
            let fields: Vec<&str> = line.split_whitespace().collect();
            let fail = |what: &str| CaptureError::Malformed {
                line: no,
                reason: format!("{what}: {line:?}"),
            };
            let parse_u64 = |s: &str, what: &str| s.parse::<u64>().map_err(|_| fail(what));
            let parse_class = |s: &str| {
                let raw = parse_u64(s, "bad class")?;
                if raw > MAX_CLASS_INDEX as u64 {
                    return Err(CaptureError::ClassRange {
                        line: no,
                        class: raw,
                    });
                }
                Ok(ClassId(raw as u32))
            };
            let parse_tick = |s: &str, prev: &mut Option<u64>| {
                let tick = parse_u64(s, "bad tick")?;
                if let Some(prev) = *prev {
                    if tick < prev {
                        return Err(CaptureError::NonMonotonicTick { at: no, tick, prev });
                    }
                }
                *prev = Some(tick);
                Ok(tick)
            };
            let parse_weight = |s: &str| {
                // The encoder always emits exactly 16 hex digits; a shorter
                // field is a truncated line, not a smaller weight.
                if s.len() != 16 {
                    return Err(fail("bad weight bits"));
                }
                let w = u64::from_str_radix(s, 16)
                    .map(f64::from_bits)
                    .map_err(|_| fail("bad weight bits"))?;
                if !w.is_finite() || w < 0.0 {
                    return Err(CaptureError::BadWeight { at: no, weight: w });
                }
                Ok(w)
            };
            match fields.as_slice() {
                ["q", tick, path, class, w] => {
                    let class = parse_class(class)?;
                    log.push(
                        parse_tick(tick, &mut prev_tick)?,
                        WorkloadEvent::Query {
                            path: PathKey(parse_u64(path, "bad path key")?),
                            class,
                        },
                        parse_weight(w)?,
                    );
                }
                [kind @ ("i" | "d"), tick, class, w] => {
                    let class = parse_class(class)?;
                    let event = if *kind == "i" {
                        WorkloadEvent::Insert { class }
                    } else {
                        WorkloadEvent::Delete { class }
                    };
                    log.push(parse_tick(tick, &mut prev_tick)?, event, parse_weight(w)?);
                }
                _ => return Err(fail("unrecognized entry")),
            }
        }
        Ok(log)
    }
}

/// Estimator tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimatorConfig {
    /// Exponential smoothing factor `a ∈ (0, 1]` of the per-window fold
    /// `est ← est + a·(bucket − est)`. `1.0` trusts only the latest
    /// window; small values average long horizons. The default `0.5`
    /// halves the residue of a rate change every window — ~60 stationary
    /// windows converge the estimate to the true rate *bitwise* (the
    /// residue falls below half an ulp).
    pub smoothing: f64,
}

impl Default for EstimatorConfig {
    fn default() -> Self {
        EstimatorConfig { smoothing: 0.5 }
    }
}

/// One signal's estimation state.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Cell {
    /// The decayed estimate (valid once `seen`).
    est: f64,
    /// Mass accumulated in the currently open window.
    bucket: f64,
    /// Whether any completed window ever observed this signal — the gate
    /// of the adopt-first-window rule.
    seen: bool,
    /// Whether the open window observed it (an untouched bucket folds as
    /// a decay step for seen signals and as nothing for unseen ones).
    touched: bool,
}

impl Cell {
    fn add(&mut self, weight: f64) {
        self.bucket += weight;
        self.touched = true;
    }

    /// Folds the completed window: adopt-first-window for fresh signals,
    /// the exponential fold for established ones. Resets the bucket.
    fn fold(&mut self, a: f64) {
        if self.touched {
            if self.seen {
                self.est += a * (self.bucket - self.est);
            } else {
                self.est = self.bucket;
                self.seen = true;
            }
        } else if self.seen {
            self.est += a * (0.0 - self.est);
        }
        self.bucket = 0.0;
        self.touched = false;
    }

    /// `ticks` empty windows in one call — the idle-gap decay. Applies the
    /// same per-window arithmetic as [`Cell::fold`] with an empty bucket
    /// (never a closed-form power, which would round differently), and
    /// stops at the floating-point fixpoint so astronomically long gaps
    /// terminate.
    fn decay(&mut self, a: f64, ticks: u64) {
        if !self.seen {
            return;
        }
        for _ in 0..ticks {
            let next = self.est + a * (0.0 - self.est);
            if next == self.est {
                break;
            }
            self.est = next;
        }
    }
}

/// Tick-bucketed exponentially-decayed rate estimation over a captured
/// stream: per-class insert/delete rates and per-(path, class) query
/// rates. See the module docs for the determinism and stationarity
/// contracts.
#[derive(Debug, Clone)]
pub struct RateEstimator {
    cfg: EstimatorConfig,
    /// The tick whose bucket is currently open; `None` until the first
    /// observation or seal.
    cursor: Option<u64>,
    /// Cells by slot, dense by class index (grown on demand): the β
    /// signals, the γ signals, then one slot per path's α signals. A freed
    /// slot is empty (it rolls as nothing) and waits in `free` for reuse.
    slab: Vec<Vec<Cell>>,
    free: Vec<usize>,
    /// `PathKey → slot`. A `BTreeMap` so iteration (and the fingerprint) is
    /// deterministic in the key order, never in hash or slot order.
    index: BTreeMap<PathKey, usize>,
    /// The path (and slot) `observe` resolved last; `drop_path` forgets it.
    last: Option<(PathKey, usize)>,
    /// Probes of `index` (a `Cell`: reads count too).
    probes: std::cell::Cell<u64>,
    /// Events accepted (diagnostics).
    observed: u64,
}

const BETA: usize = 0;
const GAMMA: usize = 1;

impl RateEstimator {
    /// New estimator. `cfg.smoothing` must be in `(0, 1]`.
    pub fn new(cfg: EstimatorConfig) -> Self {
        assert!(
            cfg.smoothing > 0.0 && cfg.smoothing <= 1.0,
            "smoothing must be in (0, 1], got {}",
            cfg.smoothing
        );
        RateEstimator {
            cfg,
            cursor: None,
            slab: vec![Vec::new(), Vec::new()],
            free: Vec::new(),
            index: BTreeMap::new(),
            last: None,
            probes: std::cell::Cell::new(0),
            observed: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> EstimatorConfig {
        self.cfg
    }

    /// Whether any event was ever accepted.
    pub fn has_observations(&self) -> bool {
        self.observed > 0
    }

    /// Events accepted so far.
    pub fn observed_events(&self) -> u64 {
        self.observed
    }

    /// Probes of the ordered path index so far: one per run of same-path
    /// `observe`s, one per [`RateEstimator::path`] view. Deterministic.
    pub fn path_probes(&self) -> u64 {
        self.probes.get()
    }

    /// Feeds one weighted event at `tick`. An event whose class index
    /// exceeds [`MAX_CLASS_INDEX`] is refused, leaving no trace.
    ///
    /// # Panics
    /// Panics if `tick` precedes an already-folded window (ticks must be
    /// non-decreasing — a replayed log satisfies this by construction).
    #[inline]
    pub fn observe(&mut self, tick: u64, event: &WorkloadEvent, weight: f64) {
        self.observe_if(tick, event, weight, |_| true);
    }

    /// [`RateEstimator::observe`] behind a gate: `admit` is asked only when
    /// the probe `observe` makes anyway finds no state under a query's key,
    /// and a key it turns away is not started. Returns whether it accepted.
    #[inline]
    pub fn observe_if(
        &mut self,
        tick: u64,
        event: &WorkloadEvent,
        weight: f64,
        admit: impl Fn(PathKey) -> bool,
    ) -> bool {
        let class = event.class().index();
        if class > MAX_CLASS_INDEX {
            return false;
        }
        // Resolved before the clock moves: a refused event leaves no trace.
        let slot = match (*event, self.last) {
            (WorkloadEvent::Insert { .. }, _) => BETA,
            (WorkloadEvent::Delete { .. }, _) => GAMMA,
            (WorkloadEvent::Query { path, .. }, Some((key, slot))) if key == path => slot,
            (WorkloadEvent::Query { path, .. }, _) => match self.resolve(path, admit) {
                Some(slot) => slot,
                None => return false,
            },
        };
        if self.cursor != Some(tick) {
            self.roll_to(tick);
        }
        let cells = &mut self.slab[slot];
        if cells.len() <= class {
            cells.resize(class + 1, Cell::default());
        }
        cells[class].add(weight);
        self.observed += 1;
        true
    }

    /// The slot of `path` through the ordered index (one probe); an
    /// admitted first-seen key takes a recycled slot or a fresh one.
    fn resolve(&mut self, path: PathKey, admit: impl Fn(PathKey) -> bool) -> Option<usize> {
        self.probes.set(self.probes.get() + 1);
        let slot = match self.index.entry(path) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(_) if !admit(path) => return None,
            Entry::Vacant(e) => *e.insert(self.free.pop().unwrap_or_else(|| {
                self.slab.push(Vec::new());
                self.slab.len() - 1
            })),
        };
        self.last = Some((path, slot));
        Some(slot)
    }

    /// Folds every window before `up_to` (the open one and any idle gap)
    /// and leaves the cursor at `up_to` with an empty bucket. Call at the
    /// end of an observation period so the final window enters the
    /// estimates; a no-op when nothing was ever observed at an earlier
    /// tick.
    pub fn seal(&mut self, up_to: u64) {
        if self.cursor.is_some() {
            self.roll_to(up_to);
        }
    }

    /// Removes every trace of `path` (a departed path's estimates must not
    /// outlive it — its key may even be recycled by the producer).
    pub fn drop_path(&mut self, path: PathKey) {
        self.last = None;
        if let Some(slot) = self.index.remove(&path) {
            self.slab[slot].clear();
            self.free.push(slot);
        }
    }

    /// Estimated `(insert, delete)` rates of a class; `0.0` for signals no
    /// completed window ever observed.
    pub fn class_rates(&self, class: ClassId) -> (f64, f64) {
        let get = |slot: usize| self.slab[slot].get(class.index()).map_or(0.0, |c| c.est);
        (get(BETA), get(GAMMA))
    }

    /// `path`'s query-rate estimates as a function of the class, resolved
    /// once (one probe) for any number of reads; `0.0` where unobserved.
    #[inline]
    pub fn path(&self, path: PathKey) -> impl Fn(ClassId) -> f64 + '_ {
        self.probes.set(self.probes.get() + 1);
        let cells: &[Cell] = self.index.get(&path).map_or(&[], |&slot| &self.slab[slot]);
        move |class| cells.get(class.index()).map_or(0.0, |c| c.est)
    }

    /// Estimated query rate of `(path, class)`; `0.0` when unobserved.
    pub fn query_rate(&self, path: PathKey, class: ClassId) -> f64 {
        self.path(path)(class)
    }

    /// The paths with any recorded query state, in key order.
    pub fn observed_paths(&self) -> impl Iterator<Item = PathKey> + '_ {
        self.index.keys().copied()
    }

    /// FNV-1a digest of the complete estimator state (cursor, every cell's
    /// estimate/bucket bits and flags, in deterministic order) — the
    /// one-number witness of the replay-twice bit-identity property.
    pub fn fingerprint(&self) -> u64 {
        struct Fnv(u64);
        impl Fnv {
            fn eat(&mut self, bytes: &[u8]) {
                for &b in bytes {
                    self.0 ^= u64::from(b);
                    self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            fn cells(&mut self, cells: &[Cell]) {
                self.eat(&(cells.len() as u64).to_le_bytes());
                for c in cells {
                    self.eat(&c.est.to_bits().to_le_bytes());
                    self.eat(&c.bucket.to_bits().to_le_bytes());
                    self.eat(&[u8::from(c.seen), u8::from(c.touched)]);
                }
            }
        }
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        h.eat(&self.cfg.smoothing.to_bits().to_le_bytes());
        match self.cursor {
            None => h.eat(&[0]),
            Some(t) => {
                h.eat(&[1]);
                h.eat(&t.to_le_bytes());
            }
        }
        h.cells(&self.slab[BETA]);
        h.cells(&self.slab[GAMMA]);
        for (key, &slot) in &self.index {
            h.eat(&key.0.to_le_bytes());
            h.cells(&self.slab[slot]);
        }
        h.0
    }

    /// Advances the cursor to `tick`, folding the open window and decaying
    /// through any idle gap.
    fn roll_to(&mut self, tick: u64) {
        let Some(cur) = self.cursor else {
            self.cursor = Some(tick);
            return;
        };
        assert!(
            tick >= cur,
            "capture ticks must be non-decreasing: {tick} after {cur}"
        );
        if tick == cur {
            return;
        }
        let a = self.cfg.smoothing;
        let gap = tick - cur - 1;
        for c in self.slab.iter_mut().flatten() {
            c.fold(a);
            if gap > 0 {
                c.decay(a, gap);
            }
        }
        self.cursor = Some(tick);
    }
}

impl Default for RateEstimator {
    fn default() -> Self {
        Self::new(EstimatorConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn q(path: u64, class: u32) -> WorkloadEvent {
        WorkloadEvent::Query {
            path: PathKey(path),
            class: ClassId(class),
        }
    }

    #[test]
    fn first_window_is_adopted_verbatim() {
        let mut est = RateEstimator::default();
        est.observe(0, &q(7, 2), 0.137);
        est.observe(0, &WorkloadEvent::Insert { class: ClassId(1) }, 0.042);
        est.seal(1);
        assert_eq!(
            est.query_rate(PathKey(7), ClassId(2)).to_bits(),
            0.137f64.to_bits()
        );
        assert_eq!(est.class_rates(ClassId(1)).0.to_bits(), 0.042f64.to_bits());
        assert_eq!(est.class_rates(ClassId(1)).1, 0.0, "no deletes observed");
    }

    #[test]
    fn stationary_stream_is_bit_stable() {
        let mut est = RateEstimator::new(EstimatorConfig { smoothing: 0.3 });
        for t in 0..50 {
            est.observe(t, &q(1, 0), 0.123);
            est.observe(t, &WorkloadEvent::Delete { class: ClassId(0) }, 0.456);
        }
        est.seal(50);
        assert_eq!(
            est.query_rate(PathKey(1), ClassId(0)).to_bits(),
            0.123f64.to_bits()
        );
        assert_eq!(est.class_rates(ClassId(0)).1.to_bits(), 0.456f64.to_bits());
    }

    #[test]
    fn interleaving_within_a_tick_is_irrelevant() {
        let events = [
            (q(1, 0), 0.1),
            (q(2, 0), 0.2),
            (WorkloadEvent::Insert { class: ClassId(0) }, 0.3),
            (q(1, 1), 0.4),
            (WorkloadEvent::Delete { class: ClassId(1) }, 0.5),
        ];
        let run = |order: &[usize]| {
            let mut est = RateEstimator::default();
            for t in 0..3 {
                for &i in order {
                    let (e, w) = events[i];
                    est.observe(t, &e, w);
                }
            }
            est.seal(3);
            est.fingerprint()
        };
        let base = run(&[0, 1, 2, 3, 4]);
        assert_eq!(base, run(&[4, 3, 2, 1, 0]));
        assert_eq!(base, run(&[2, 0, 4, 1, 3]));
    }

    #[test]
    fn idle_gaps_decay_like_explicit_empty_windows() {
        let mk = || {
            let mut e = RateEstimator::default();
            e.observe(0, &q(1, 0), 0.8);
            e
        };
        // Jumping to tick 10 must equal stepping through ticks 1..=9.
        let mut jumped = mk();
        jumped.observe(10, &q(1, 0), 0.8);
        jumped.seal(11);
        let mut stepped = mk();
        for t in 1..10 {
            stepped.seal(t + 1);
            let _ = t;
        }
        stepped.observe(10, &q(1, 0), 0.8);
        stepped.seal(11);
        assert_eq!(jumped.fingerprint(), stepped.fingerprint());
        let r = jumped.query_rate(PathKey(1), ClassId(0));
        assert!(r > 0.0 && r < 0.8, "decayed between windows: {r}");
    }

    #[test]
    fn long_idle_gap_terminates_at_the_fixpoint() {
        let mut est = RateEstimator::new(EstimatorConfig { smoothing: 0.01 });
        est.observe(0, &q(1, 0), 0.9);
        est.observe(u64::MAX - 1, &q(1, 0), 0.9);
        est.seal(u64::MAX);
        // The ancient window decayed to nothing; the estimate is dominated
        // by the fresh one.
        let r = est.query_rate(PathKey(1), ClassId(0));
        assert!(r > 0.0 && r <= 0.9);
    }

    #[test]
    fn dropped_paths_leave_no_state() {
        let mut est = RateEstimator::default();
        est.observe(0, &q(3, 0), 1.0);
        est.seal(1);
        est.drop_path(PathKey(3));
        assert_eq!(est.query_rate(PathKey(3), ClassId(0)), 0.0);
        assert_eq!(est.observed_paths().count(), 0);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn time_travel_panics() {
        let mut est = RateEstimator::default();
        est.observe(5, &q(1, 0), 1.0);
        est.observe(4, &q(1, 0), 1.0);
    }

    #[test]
    fn log_encode_decode_roundtrips_bitwise() {
        let mut log = EventLog::new();
        log.push(0, q(17, 2), 0.1 + 0.2); // a value with messy low bits
        log.push(0, WorkloadEvent::Insert { class: ClassId(0) }, 1.0);
        log.push(
            3,
            WorkloadEvent::Delete { class: ClassId(5) },
            f64::MIN_POSITIVE,
        );
        let decoded = EventLog::decode(&log.encode()).expect("well-formed");
        assert_eq!(log, decoded);
        // Replaying either log yields the same estimator bits.
        let feed = |log: &EventLog| {
            let mut est = RateEstimator::default();
            log.replay(|t, e, w| est.observe(t, e, w))
                .expect("well-formed");
            est.seal(4);
            est.fingerprint()
        };
        assert_eq!(feed(&log), feed(&decoded));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(EventLog::decode("q 1 2").is_err());
        assert!(EventLog::decode("x 1 2 3 0").is_err());
        assert!(EventLog::decode("i 1 2 nothex!").is_err());
    }

    #[test]
    fn decode_rejects_rewinding_ticks() {
        let one = 1.0f64.to_bits();
        let text = format!("i 5 0 {one:016x}\ni 4 0 {one:016x}\n");
        assert!(matches!(
            EventLog::decode(&text),
            Err(CaptureError::NonMonotonicTick {
                at: 2,
                tick: 4,
                prev: 5
            })
        ));
    }

    #[test]
    fn decode_rejects_out_of_range_classes() {
        let one = 1.0f64.to_bits();
        let text = format!("i 0 4294967296 {one:016x}\n");
        assert!(matches!(
            EventLog::decode(&text),
            Err(CaptureError::ClassRange { line: 1, .. })
        ));
    }

    #[test]
    fn decode_rejects_nan_infinite_and_negative_weights() {
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let text = format!("i 0 0 {:016x}\n", bad.to_bits());
            assert!(
                matches!(
                    EventLog::decode(&text),
                    Err(CaptureError::BadWeight { at: 1, .. })
                ),
                "weight {bad} must be rejected"
            );
        }
    }

    #[test]
    fn truncated_tail_line_is_an_error_not_a_panic() {
        // Chop the last line of a valid encoding mid-field: the decoder
        // must report it, never panic or silently drop it.
        let mut log = EventLog::new();
        log.push(0, q(1, 0), 0.25);
        log.push(1, WorkloadEvent::Insert { class: ClassId(2) }, 0.5);
        let text = log.encode();
        let truncated = &text[..text.len() - 10];
        assert!(matches!(
            EventLog::decode(truncated),
            Err(CaptureError::Malformed { line: 2, .. })
        ));
    }

    #[test]
    fn corrupt_log_replay_is_fallible_and_feeds_nothing() {
        // A pushed (never-validated) log can rewind its clock; before this
        // was fallible, replay panicked inside the estimator's roll_to.
        let mut log = EventLog::new();
        log.push(5, q(1, 0), 1.0);
        log.push(4, q(1, 0), 1.0);
        let mut est = RateEstimator::default();
        let before = est.fingerprint();
        let err = log
            .replay(|t, e, w| est.observe(t, e, w))
            .expect_err("rewinding ticks");
        assert!(matches!(err, CaptureError::NonMonotonicTick { at: 1, .. }));
        assert_eq!(est.fingerprint(), before, "nothing fed from a bad log");

        let mut log = EventLog::new();
        log.push(0, q(1, 0), f64::NAN);
        assert!(matches!(
            log.replay(|_, _, _| {}),
            Err(CaptureError::BadWeight { at: 0, .. })
        ));
        assert!(log.validate().is_err());
        assert!(EventLog::new().validate().is_ok());
    }

    #[test]
    fn a_class_index_past_the_ceiling_is_an_error_not_an_allocation() {
        // Regression: `i 0 4294967295 3ff0000000000000` decoded cleanly and
        // then aborted the process in `replay` — the estimator resized a
        // dense vector to the class index (a 103 GB allocation).
        let hostile = ClassId(u32::MAX);
        let cases = [
            (
                "i 0 4294967295 3ff0000000000000\n",
                WorkloadEvent::Insert { class: hostile },
            ),
            (
                "d 0 4294967295 3ff0000000000000\n",
                WorkloadEvent::Delete { class: hostile },
            ),
            ("q 0 7 4294967295 3ff0000000000000\n", q(7, u32::MAX)),
        ];
        for (line, event) in cases {
            assert!(matches!(
                EventLog::decode(line),
                Err(CaptureError::ClassRange { line: 1, class }) if class == u64::from(u32::MAX)
            ));
            // A pushed log is never validated on the way in: replay must.
            let mut log = EventLog::new();
            log.push(0, q(1, 0), 1.0);
            log.push(0, event, 1.0);
            assert!(matches!(
                log.validate(),
                Err(CaptureError::ClassRange { line: 1, .. })
            ));
            let mut fed = 0;
            assert!(log.replay(|_, _, _| fed += 1).is_err());
            assert_eq!(fed, 0, "nothing fed from a bad log");
            // The infallible door refuses the event and leaves no trace.
            let mut est = RateEstimator::default();
            est.observe(3, &q(1, 0), 1.0);
            let before = (est.fingerprint(), est.observed_events());
            est.observe(9, &event, 1.0);
            assert_eq!((est.fingerprint(), est.observed_events()), before);
            assert!(!est.observe_if(9, &event, 1.0, |_| true));
        }
        // The ceiling itself is inside the domain.
        let edge = format!("i 0 {MAX_CLASS_INDEX} 3ff0000000000000\n");
        let log = EventLog::decode(&edge).expect("at the ceiling");
        let mut est = RateEstimator::default();
        log.replay(|t, e, w| est.observe(t, e, w)).expect("valid");
        assert_eq!(est.observed_events(), 1);
    }

    /// The parent commit's representation — an ordered map of per-path
    /// cell vectors, probed once per event, its own FNV — kept as the
    /// oracle the slot-addressed estimator must match bit for bit.
    struct Model {
        cfg: EstimatorConfig,
        cursor: Option<u64>,
        inserts: Vec<Cell>,
        deletes: Vec<Cell>,
        queries: BTreeMap<PathKey, Vec<Cell>>,
    }

    impl Model {
        fn new(cfg: EstimatorConfig) -> Self {
            Model {
                cfg,
                cursor: None,
                inserts: Vec::new(),
                deletes: Vec::new(),
                queries: BTreeMap::new(),
            }
        }

        fn class_cell(cells: &mut Vec<Cell>, class: ClassId) -> &mut Cell {
            let i = class.index();
            if cells.len() <= i {
                cells.resize(i + 1, Cell::default());
            }
            &mut cells[i]
        }

        fn observe(&mut self, tick: u64, event: &WorkloadEvent, weight: f64) {
            self.roll_to(tick);
            match *event {
                WorkloadEvent::Query { path, class } => {
                    let cells = self.queries.entry(path).or_default();
                    Self::class_cell(cells, class).add(weight);
                }
                WorkloadEvent::Insert { class } => {
                    Self::class_cell(&mut self.inserts, class).add(weight);
                }
                WorkloadEvent::Delete { class } => {
                    Self::class_cell(&mut self.deletes, class).add(weight);
                }
            }
        }

        fn seal(&mut self, up_to: u64) {
            if self.cursor.is_some() {
                self.roll_to(up_to);
            }
        }

        fn roll_to(&mut self, tick: u64) {
            let Some(cur) = self.cursor else {
                self.cursor = Some(tick);
                return;
            };
            assert!(tick >= cur);
            if tick == cur {
                return;
            }
            let a = self.cfg.smoothing;
            let gap = tick - cur - 1;
            let roll = |cells: &mut [Cell]| {
                for c in cells {
                    c.fold(a);
                    if gap > 0 {
                        c.decay(a, gap);
                    }
                }
            };
            roll(&mut self.inserts);
            roll(&mut self.deletes);
            for cells in self.queries.values_mut() {
                roll(cells);
            }
            self.cursor = Some(tick);
        }

        fn fingerprint(&self) -> u64 {
            fn eat(h: &mut u64, bytes: &[u8]) {
                for &b in bytes {
                    *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            fn cells(h: &mut u64, cells: &[Cell]) {
                eat(h, &(cells.len() as u64).to_le_bytes());
                for c in cells {
                    eat(h, &c.est.to_bits().to_le_bytes());
                    eat(h, &c.bucket.to_bits().to_le_bytes());
                    eat(h, &[u8::from(c.seen), u8::from(c.touched)]);
                }
            }
            let mut h = 0xcbf2_9ce4_8422_2325;
            eat(&mut h, &self.cfg.smoothing.to_bits().to_le_bytes());
            match self.cursor {
                None => eat(&mut h, &[0]),
                Some(t) => {
                    eat(&mut h, &[1]);
                    eat(&mut h, &t.to_le_bytes());
                }
            }
            cells(&mut h, &self.inserts);
            cells(&mut h, &self.deletes);
            for (key, path_cells) in &self.queries {
                eat(&mut h, &key.0.to_le_bytes());
                cells(&mut h, path_cells);
            }
            h
        }

        /// Every observable of `est` equals the model's, bit for bit.
        fn assert_matches(&self, est: &RateEstimator, context: &str) {
            assert_eq!(est.fingerprint(), self.fingerprint(), "{context}");
            assert!(
                est.observed_paths().eq(self.queries.keys().copied()),
                "{context}: observed paths"
            );
            let bits = |cells: Option<&Vec<Cell>>, c: usize| {
                cells
                    .and_then(|v| v.get(c))
                    .map_or(0.0, |c| c.est)
                    .to_bits()
            };
            for c in 0..CLASSES + 1 {
                let class = ClassId(c as u32);
                let (beta, gamma) = est.class_rates(class);
                assert_eq!(beta.to_bits(), bits(Some(&self.inserts), c), "{context}");
                assert_eq!(gamma.to_bits(), bits(Some(&self.deletes), c), "{context}");
                for key in (0..KEYS + 1).map(PathKey) {
                    assert_eq!(
                        est.query_rate(key, class).to_bits(),
                        bits(self.queries.get(&key), c),
                        "{context}: {key:?} class {c}"
                    );
                }
            }
        }
    }

    const KEYS: u64 = 5;
    const CLASSES: usize = 4;

    /// One step of the differential: a window of events at the current
    /// tick (grouped into same-path runs, or in drawn order), a clock
    /// advance, a seal, or a path drop.
    #[derive(Debug, Clone)]
    enum Step {
        Window {
            events: Vec<(u8, u8, u8)>,
            grouped: bool,
        },
        Advance(u64),
        Seal(u64),
        Drop(u64),
    }

    fn step_strategy() -> impl Strategy<Value = Step> {
        prop_oneof![
            6 => (prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..24), any::<bool>())
                .prop_map(|(events, grouped)| Step::Window { events, grouped }),
            2 => (1u64..5).prop_map(Step::Advance),
            2 => (0u64..4).prop_map(Step::Seal),
            3 => (0..KEYS).prop_map(Step::Drop),
        ]
    }

    /// Signal 0 / 1 are β / γ, the rest a query under key `signal - 2`.
    fn event_of(signal: u8, class: u8) -> WorkloadEvent {
        let class = ClassId(u32::from(class) % CLASSES as u32);
        match u64::from(signal) % (KEYS + 2) {
            0 => WorkloadEvent::Insert { class },
            1 => WorkloadEvent::Delete { class },
            key => WorkloadEvent::Query {
                path: PathKey(key - 2),
                class,
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn estimator_matches_the_map_model(
            steps in prop::collection::vec(step_strategy(), 1..60),
            smoothing in prop::sample::select(vec![0.5f64, 0.3, 1.0]),
        ) {
            let cfg = EstimatorConfig { smoothing };
            let (mut est, mut model) = (RateEstimator::new(cfg), Model::new(cfg));
            let mut tick = 0u64;
            for (i, step) in steps.iter().enumerate() {
                match step {
                    Step::Window { events, grouped } => {
                        let mut events = events.clone();
                        if *grouped {
                            events.sort_by_key(|&(signal, _, _)| u64::from(signal) % (KEYS + 2));
                        }
                        for (signal, class, w) in events {
                            let (event, weight) = (event_of(signal, class), f64::from(w) / 7.0);
                            est.observe(tick, &event, weight);
                            model.observe(tick, &event, weight);
                        }
                    }
                    Step::Advance(by) => tick += by,
                    Step::Seal(by) => {
                        tick += by;
                        est.seal(tick);
                        model.seal(tick);
                    }
                    Step::Drop(key) => {
                        est.drop_path(PathKey(*key));
                        model.queries.remove(&PathKey(*key));
                    }
                }
                model.assert_matches(&est, &format!("after step {i} ({step:?})"));
            }
        }
    }

    #[test]
    fn a_dropped_key_and_its_recycled_slot_both_start_fresh() {
        let cfg = EstimatorConfig::default();
        let (mut est, mut model) = (RateEstimator::new(cfg), Model::new(cfg));
        let feed = |est: &mut RateEstimator, model: &mut Model, t, e: WorkloadEvent, w| {
            est.observe(t, &e, w);
            model.observe(t, &e, w);
        };
        for t in 0..3 {
            feed(&mut est, &mut model, t, q(1, 2), 0.7);
            feed(&mut est, &mut model, t, q(2, 0), 0.2);
        }
        // Drop the path observed last, then see the same key again: the
        // remembered slot must not be written through, and the first
        // window is adopted verbatim again — nothing of the old cells.
        est.drop_path(PathKey(2));
        model.queries.remove(&PathKey(2));
        feed(&mut est, &mut model, 3, q(2, 1), 0.4);
        model.assert_matches(&est, "same key re-observed");
        est.seal(4);
        model.seal(4);
        model.assert_matches(&est, "same key re-observed, sealed");
        assert_eq!(est.query_rate(PathKey(2), ClassId(0)), 0.0, "old cell gone");
        assert_eq!(
            est.query_rate(PathKey(2), ClassId(1)).to_bits(),
            0.4f64.to_bits()
        );
        // A different key lands in the slot key 1 frees.
        est.drop_path(PathKey(1));
        model.queries.remove(&PathKey(1));
        feed(&mut est, &mut model, 4, q(9, 0), 0.3);
        est.seal(5);
        model.seal(5);
        model.assert_matches(&est, "recycled slot");
        assert_eq!(
            est.query_rate(PathKey(9), ClassId(2)),
            0.0,
            "no inherited cell"
        );
        assert_eq!(est.slab.len(), 2 + 2, "the freed slot was reused");
    }

    #[test]
    fn the_fingerprint_sees_history_not_slots() {
        // The same per-signal history, with paths first seen, dropped and
        // re-seen in different orders: slot numbers differ, digests do not.
        let run = |order: &[u64], drops: &[u64]| {
            let mut est = RateEstimator::default();
            for &k in order {
                est.observe(0, &q(k, 1), 0.5);
            }
            est.observe(0, &q(40, 0), 1.0);
            est.seal(1);
            for &k in drops {
                est.drop_path(PathKey(k));
            }
            est.drop_path(PathKey(40));
            for &k in order.iter().rev() {
                est.observe(1, &q(k, 0), 0.25 * k as f64);
            }
            est.seal(2);
            est
        };
        let a = run(&[1, 2, 3], &[1, 3]);
        let b = run(&[3, 1, 2], &[3, 1]);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.index, b.index, "the two really are laid out differently");
        assert!(a.observed_paths().eq(b.observed_paths()));
    }

    #[test]
    fn a_run_of_same_path_events_probes_the_index_once() {
        let mut est = RateEstimator::default();
        for t in 0..4 {
            for k in 0..6 {
                for c in 0..10 {
                    est.observe(t, &q(k, c), 1.0);
                }
            }
        }
        assert_eq!(est.path_probes(), 4 * 6, "one probe per run");
        // Insert/delete traffic neither probes nor breaks a run.
        est.observe(4, &q(5, 0), 1.0);
        est.observe(4, &WorkloadEvent::Insert { class: ClassId(0) }, 1.0);
        est.observe(4, &q(5, 1), 1.0);
        assert_eq!(est.path_probes(), 24);
        // A refused key is probed, never started, never remembered.
        assert!(!est.observe_if(4, &q(77, 0), 1.0, |_| false));
        assert!(!est.observe_if(4, &q(77, 0), 1.0, |_| false));
        assert_eq!(est.path_probes(), 26);
        assert_eq!(est.observed_paths().count(), 6);
    }

    #[test]
    fn capture_error_displays_and_sources() {
        use std::error::Error as _;
        let e = CaptureError::NonMonotonicTick {
            at: 3,
            tick: 1,
            prev: 2,
        };
        assert!(e.to_string().contains("precedes"));
        assert!(e.source().is_none());
        let text = "i 0 0 zz\n";
        let e = EventLog::decode(text).expect_err("bad hex");
        assert!(e.to_string().contains("bad weight bits"));
    }
}
