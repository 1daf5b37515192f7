//! The traced run's recorder: spans at campaign, cell and stage level, and
//! folded per-call aggregates for the hot per-cycle and per-block calls.
//!
//! Spans carry a name, a layer, start, end and the id of the span that caused
//! them; they are kept in memory and written out once as Chrome trace-event
//! JSON. Hot calls are too many to keep one by one, so each call site folds
//! into a [`Fold`] (count, total time, self time and a log2 histogram of call
//! durations), which keeps memory bounded however long the run.
//!
//! Self time follows one rule everywhere: a span's or call's duration minus
//! the time of the spans and calls nested inside it on the same thread. The
//! nesting is tracked with a per-thread stack, so `NocSim::step` excludes the
//! decodes it performs and `NocSim::enqueue_data` excludes its encode.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The modules time is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `anoc-exec` and `anoc_harness::campaign`: pool, cache, snapshot store.
    Exec,
    /// `anoc_harness::runner`: the staged driver between the calls below.
    Runner,
    /// `anoc-traffic`: `TrafficSource::tick`.
    Traffic,
    /// `anoc-compression`: block encode and decode.
    Codec,
    /// `anoc-noc`: construction, enqueue, step, drain, snapshots.
    Noc,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 5] = [
        Layer::Exec,
        Layer::Runner,
        Layer::Traffic,
        Layer::Codec,
        Layer::Noc,
    ];

    /// Lower-case name used in metric names and the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Exec => "exec",
            Layer::Runner => "runner",
            Layer::Traffic => "traffic",
            Layer::Codec => "codec",
            Layer::Noc => "noc",
        }
    }
}

/// Mechanisms with their own encode/decode fold slots, in slot order.
pub const MECHS: [&str; 6] = [
    "Baseline", "FP-COMP", "FP-VAXX", "DI-COMP", "DI-VAXX", "LZ-VAXX",
];

/// `TrafficSource::tick`.
pub const TICK: usize = 0;
/// `NocSim::enqueue_data` and `NocSim::enqueue_control`.
pub const ENQUEUE: usize = 1;
/// `NocSim::step`.
pub const STEP: usize = 2;
/// `NocSim::try_drain`.
pub const DRAIN: usize = 3;
/// `NocSim::new`.
pub const SIM_NEW: usize = 4;
/// `NocSim::save_snapshot`.
pub const SNAP_SAVE: usize = 5;
/// `NocSim::restore_snapshot`.
pub const SNAP_RESTORE: usize = 6;
/// `SnapshotStore::get`.
pub const STORE_GET: usize = 7;
/// `SnapshotStore::put`.
pub const STORE_PUT: usize = 8;
const ENCODE_BASE: usize = 9;
const DECODE_BASE: usize = ENCODE_BASE + MECHS.len();
/// Number of fold slots.
pub const SLOTS: usize = DECODE_BASE + MECHS.len();

/// The fold slot of `mech`'s block encoder.
pub fn encode_slot(mech: &str) -> usize {
    ENCODE_BASE + mech_index(mech)
}

/// The fold slot of `mech`'s block decoder.
pub fn decode_slot(mech: &str) -> usize {
    DECODE_BASE + mech_index(mech)
}

fn mech_index(mech: &str) -> usize {
    MECHS
        .iter()
        .position(|m| *m == mech)
        .unwrap_or_else(|| panic!("no fold slot for mechanism {mech}"))
}

/// Whether `slot` is an encode slot.
pub fn is_encode(slot: usize) -> bool {
    (ENCODE_BASE..DECODE_BASE).contains(&slot)
}

/// Whether `slot` is a decode slot.
pub fn is_decode(slot: usize) -> bool {
    (DECODE_BASE..SLOTS).contains(&slot)
}

/// The layer a fold slot belongs to.
pub fn slot_layer(slot: usize) -> Layer {
    match slot {
        TICK => Layer::Traffic,
        ENQUEUE | STEP | DRAIN | SIM_NEW | SNAP_SAVE | SNAP_RESTORE => Layer::Noc,
        STORE_GET | STORE_PUT => Layer::Exec,
        _ => Layer::Codec,
    }
}

/// A name for a fold slot in the trace file.
fn slot_name(slot: usize) -> String {
    match slot {
        TICK => "TrafficSource::tick".into(),
        ENQUEUE => "NocSim::enqueue".into(),
        STEP => "NocSim::step".into(),
        DRAIN => "NocSim::try_drain".into(),
        SIM_NEW => "NocSim::new".into(),
        SNAP_SAVE => "NocSim::save_snapshot".into(),
        SNAP_RESTORE => "NocSim::restore_snapshot".into(),
        STORE_GET => "SnapshotStore::get".into(),
        STORE_PUT => "SnapshotStore::put".into(),
        s if is_encode(s) => format!("{}::encode", MECHS[s - ENCODE_BASE]),
        s => format!("{}::decode", MECHS[s - DECODE_BASE]),
    }
}

/// Buckets of the per-slot duration histogram: bucket `b` holds calls of
/// `[2^b, 2^(b+1))` ns (bucket 0 also holds 0 ns).
pub const HIST_BUCKETS: usize = 40;

/// Folded statistics of one hot call site.
#[derive(Debug, Clone, Copy)]
pub struct Fold {
    /// Calls made.
    pub count: u64,
    /// Summed call durations.
    pub total_ns: u64,
    /// Summed durations minus nested calls.
    pub self_ns: u64,
    /// log2 histogram of call durations.
    pub hist: [u64; HIST_BUCKETS],
}

impl Default for Fold {
    fn default() -> Self {
        Fold {
            count: 0,
            total_ns: 0,
            self_ns: 0,
            hist: [0; HIST_BUCKETS],
        }
    }
}

impl Fold {
    fn add(&mut self, dur: u64, self_ns: u64) {
        self.count += 1;
        self.total_ns += dur;
        self.self_ns += self_ns;
        let b = (63 - dur.max(1).leading_zeros() as usize).min(HIST_BUCKETS - 1);
        self.hist[b] += 1;
    }

    fn merge(&mut self, o: &Fold) {
        self.count += o.count;
        self.total_ns += o.total_ns;
        self.self_ns += o.self_ns;
        for (a, b) in self.hist.iter_mut().zip(o.hist.iter()) {
            *a += b;
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// The causing span, or 0 for a root.
    pub parent: u64,
    /// Span name, e.g. `cell x264/FP-VAXX/s7` or `stage measure`.
    pub name: String,
    /// Layer the span's self time belongs to.
    pub layer: Layer,
    /// Recording thread (small dense index).
    pub tid: u64,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
    /// Duration minus the spans and calls nested in it on the same thread.
    pub self_ns: u64,
}

impl Span {
    /// The span's duration.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Local {
    tid: u64,
    folds: Vec<Fold>,
    /// Child time of every open frame, innermost last.
    frames: Vec<u64>,
    /// Ids of the open spans, innermost last.
    spans: Vec<u64>,
}

static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static FOLDS: Mutex<Vec<Fold>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local {
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        folds: vec![Fold::default(); SLOTS],
        frames: Vec::new(),
        spans: Vec::new(),
    });
}

/// Nanoseconds since the recorder's epoch (set on first use).
pub fn now_ns() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_nanos() as u64
}

/// Times one hot call into fold `slot`.
pub fn timed<R>(slot: usize, f: impl FnOnce() -> R) -> R {
    LOCAL.with(|l| l.borrow_mut().frames.push(0));
    let t = Instant::now();
    let r = f();
    let dur = t.elapsed().as_nanos() as u64;
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let child = l.frames.pop().expect("frame pushed above");
        l.folds[slot].add(dur, dur.saturating_sub(child));
        if let Some(parent) = l.frames.last_mut() {
            *parent += dur;
        }
    });
    r
}

/// Records a span around `f`, which receives the span's id. `parent`
/// overrides the causing span (for work handed to another thread); by
/// default it is the innermost open span on this thread.
pub fn span<R>(
    name: impl Into<String>,
    layer: Layer,
    parent: Option<u64>,
    f: impl FnOnce(u64) -> R,
) -> R {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (tid, parent) = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let parent = parent.or_else(|| l.spans.last().copied()).unwrap_or(0);
        l.frames.push(0);
        l.spans.push(id);
        (l.tid, parent)
    });
    let start_ns = now_ns();
    let r = f(id);
    let end_ns = now_ns();
    let dur = end_ns - start_ns;
    let child = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.spans.pop();
        let child = l.frames.pop().expect("frame pushed above");
        if let Some(parent) = l.frames.last_mut() {
            *parent += dur;
        }
        child
    });
    SPANS.lock().expect("span log poisoned").push(Span {
        id,
        parent,
        name: name.into(),
        layer,
        tid,
        start_ns,
        end_ns,
        self_ns: dur.saturating_sub(child),
    });
    r
}

/// Moves this thread's folds into the shared totals. Call at the end of
/// every unit of work a pool thread runs.
pub fn flush() {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let mut shared = FOLDS.lock().expect("fold totals poisoned");
        if shared.is_empty() {
            shared.resize(SLOTS, Fold::default());
        }
        for (s, f) in shared.iter_mut().zip(l.folds.iter_mut()) {
            s.merge(f);
            *f = Fold::default();
        }
    });
}

/// Everything recorded so far (flushing the calling thread first); the
/// recorder is left empty.
pub fn take() -> (Vec<Span>, Vec<Fold>) {
    flush();
    let spans = std::mem::take(&mut *SPANS.lock().expect("span log poisoned"));
    let folds = std::mem::take(&mut *FOLDS.lock().expect("fold totals poisoned"));
    (spans, folds)
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
pub fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
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

/// Writes spans and folds as a Chrome trace-event JSON document (openable in
/// Perfetto or `chrome://tracing`). Folded calls go under `otherData`.
pub fn chrome_trace(spans: &[Span], folds: &[Fold], meta: &[(String, String)]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut tids: Vec<u64> = spans.iter().map(|s| s.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    let mut first = true;
    let mut push = |out: &mut String, ev: String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&ev);
    };
    for t in &tids {
        let name = if *t == 0 {
            "main".to_string()
        } else {
            format!("worker {t}")
        };
        push(
            &mut out,
            format!("{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{t},\"args\":{{\"name\":\"{name}\"}}}}"),
        );
    }
    for s in spans {
        push(
            &mut out,
            format!(
                "{{\"ph\":\"X\",\"name\":{},\"cat\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"self_us\":{:.3}}}}}",
                json_str(&s.name),
                s.layer.name(),
                s.tid,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.id,
                s.parent,
                s.self_ns as f64 / 1e3,
            ),
        );
    }
    out.push_str("\n],\"otherData\":{");
    for (k, v) in meta {
        out.push_str(&format!("{}:{},", json_str(k), json_str(v)));
    }
    out.push_str("\"folded_calls\":{");
    let mut first = true;
    for (slot, f) in folds.iter().enumerate().filter(|(_, f)| f.count > 0) {
        if !first {
            out.push(',');
        }
        first = false;
        let hist: Vec<String> = f.hist.iter().map(u64::to_string).collect();
        out.push_str(&format!(
            "{}:{{\"layer\":\"{}\",\"count\":{},\"total_ns\":{},\"self_ns\":{},\"log2_ns_histogram\":[{}]}}",
            json_str(&slot_name(slot)),
            slot_layer(slot).name(),
            f.count,
            f.total_ns,
            f.self_ns,
            hist.join(",")
        ));
    }
    out.push_str("}}}\n");
    out
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_of_intervals_is_clipped_and_deduplicated() {
        assert_eq!(covered_ns(vec![(0, 10), (5, 15), (20, 30)], 0, 100), 25);
        assert_eq!(covered_ns(vec![(0, 10), (5, 15)], 8, 12), 4);
        assert_eq!(covered_ns(vec![], 0, 10), 0);
    }

    #[test]
    fn fold_histogram_buckets_by_log2() {
        let mut f = Fold::default();
        f.add(0, 0);
        f.add(1, 1);
        f.add(1024, 1000);
        assert_eq!(f.hist[0], 2);
        assert_eq!(f.hist[10], 1);
        assert_eq!((f.count, f.total_ns, f.self_ns), (3, 1025, 1001));
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
