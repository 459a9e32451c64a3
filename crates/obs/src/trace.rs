//! The flight recorder: a typed, cycle-stamped µarch event trace.
//!
//! Tracing is **off by default**: until [`arm_trace`] runs, every
//! [`trace_event`] site costs one `Relaxed` atomic load and does not even
//! construct its event (the site passes a closure) — the same
//! zero-cost-when-off contract the failpoint registry keeps. When armed,
//! events land in a preallocated per-thread buffer of fixed capacity; a full
//! buffer **drops and counts** instead of reallocating, so an armed
//! recorder never perturbs the allocator mid-run.
//!
//! The buffer is thread-local on purpose: a machine run executes on one
//! thread, so draining the buffer after each run ([`take_thread_trace`])
//! yields that run's events in emission order — a pure function of the
//! scenario. Harness code (the attack runner, the sweep engine)
//! reassembles per-scenario traces in scenario-index order, which is what
//! makes trace artifacts byte-identical at any thread count.
//!
//! The hard artifact contract extends to tracing: hooks only *observe* —
//! arming the recorder never changes a simulated outcome, so
//! `sweep.json`/`leakage.json` stay byte-identical with tracing on.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use crate::snapshot::Value;

static TRACE_ARMED: AtomicBool = AtomicBool::new(false);
static TRACE_CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_TRACE_CAPACITY);

/// Default per-thread event capacity (events, not bytes).
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 20;

/// Whether the flight recorder is armed (events are captured).
#[inline]
pub fn trace_armed() -> bool {
    TRACE_ARMED.load(Ordering::Relaxed)
}

/// Globally arms the flight recorder with a per-thread buffer of
/// `capacity` events. Buffers are preallocated lazily, once per thread,
/// at the first captured event; a full buffer drops further events and
/// counts the drops. Artifacts are byte-identical armed or not — trace
/// hooks only observe.
pub fn arm_trace(capacity: usize) {
    TRACE_CAPACITY.store(capacity.max(1), Ordering::Relaxed);
    TRACE_ARMED.store(true, Ordering::Relaxed);
}

/// Globally disarms the flight recorder. Already-captured events stay in
/// their thread buffers until drained.
pub fn disarm_trace() {
    TRACE_ARMED.store(false, Ordering::Relaxed);
}

/// Identity of one cache array in the hierarchy, packed as
/// `level << 4 | core`: level 1 = L1I, 2 = L1D, 3 = shared L2 (core 0).
/// The simulator assigns these at hierarchy construction.
pub type CacheTag = u8;

/// One cycle-stamped microarchitectural event.
///
/// `at` is always simulated cycles; `line` is a line-aligned address;
/// `cache` is a [`CacheTag`]; `source` is the prefetch-source code the
/// simulator assigns (0 = ScaleTracker, 1 = AccessTracker,
/// 2 = RecordProtector, 3 = Basic, 4 = Other); `level` on
/// [`TraceEvent::Access`] is the serving level (0 = L1, 1 = L2,
/// 2 = memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A demand lookup hit an installed line.
    DemandHit {
        /// Cycle stamp.
        at: u64,
        /// Which cache array.
        cache: CacheTag,
        /// Set index.
        set: u32,
        /// Way index within the set.
        way: u32,
        /// Line-aligned address.
        line: u64,
    },
    /// A demand lookup found neither an installed nor an in-flight line.
    DemandMiss {
        /// Cycle stamp.
        at: u64,
        /// Which cache array.
        cache: CacheTag,
        /// Set index.
        set: u32,
        /// Line-aligned address.
        line: u64,
    },
    /// A fill displaced a valid line.
    Eviction {
        /// Cycle stamp.
        at: u64,
        /// Which cache array.
        cache: CacheTag,
        /// Set index.
        set: u32,
        /// Victim way.
        way: u32,
        /// The displaced line's address (the victim's identity).
        victim: u64,
    },
    /// A prefetcher proposed a prefetch (before the memory system's
    /// dedup) — emitted by the prefetch units themselves.
    PrefetchPropose {
        /// Cycle stamp.
        at: u64,
        /// Proposing core.
        core: u32,
        /// Program counter of the triggering access.
        pc: u64,
        /// Proposed line address.
        line: u64,
    },
    /// The memory system accepted and issued a prefetch.
    PrefetchIssue {
        /// Cycle stamp.
        at: u64,
        /// Target core (whose L1D receives the line).
        core: u32,
        /// Line address.
        line: u64,
        /// Prefetch source code.
        source: u8,
    },
    /// A prefetched line materialized in a cache array.
    PrefetchFill {
        /// Cycle stamp (the fill's completion time).
        at: u64,
        /// Which cache array.
        cache: CacheTag,
        /// Set index.
        set: u32,
        /// Way filled.
        way: u32,
        /// Line address.
        line: u64,
    },
    /// The memory system declined a prefetch (line present or in flight).
    PrefetchDrop {
        /// Cycle stamp.
        at: u64,
        /// Target core.
        core: u32,
        /// Line address.
        line: u64,
        /// Prefetch source code.
        source: u8,
    },
    /// A demand access caught a prefetch still in flight (late but
    /// useful).
    PrefetchLate {
        /// Cycle stamp of the demand access.
        at: u64,
        /// Which cache array.
        cache: CacheTag,
        /// Line address.
        line: u64,
        /// Prefetch source code.
        source: u8,
    },
    /// A prefetched line left the cache without ever being demanded.
    PrefetchExpire {
        /// Cycle stamp.
        at: u64,
        /// Which cache array.
        cache: CacheTag,
        /// Line address.
        line: u64,
    },
    /// The Record Protector granted protection to an access buffer.
    RpGrant {
        /// Cycle stamp.
        at: u64,
        /// The protected buffer's associated load PC.
        pc: u64,
    },
    /// A protection lapsed (guided-prefetch budget spent or idle expiry).
    RpExpire {
        /// Cycle stamp.
        at: u64,
        /// The unprotected buffer's associated load PC.
        pc: u64,
    },
    /// The Access Tracker (re)associated a buffer with a load PC.
    AtAlloc {
        /// Cycle stamp.
        at: u64,
        /// The newly associated PC.
        pc: u64,
        /// Buffer index.
        buffer: u32,
    },
    /// An allocation displaced a live buffer.
    AtEvict {
        /// Cycle stamp.
        at: u64,
        /// The displaced buffer's old PC.
        pc: u64,
        /// Buffer index.
        buffer: u32,
    },
    /// A `clflush` retired.
    Flush {
        /// Cycle stamp.
        at: u64,
        /// Flushed line address.
        line: u64,
        /// Flush latency paid.
        latency: u64,
    },
    /// An MSHR entry was allocated for a memory-bound miss or prefetch.
    MshrAlloc {
        /// Cycle stamp.
        at: u64,
        /// Line address.
        line: u64,
    },
    /// An MSHR entry retired (its fill completed and it was pruned).
    MshrRelease {
        /// Prune stamp (the cycle the file noticed the completion).
        at: u64,
        /// Line address.
        line: u64,
    },
    /// One retired demand access as the core observed it — the stream a
    /// latency-measuring attacker sees.
    Access {
        /// Cycle stamp.
        at: u64,
        /// Issuing core.
        core: u32,
        /// Program counter of the load/store.
        pc: u64,
        /// L1D set index of the target address.
        set: u32,
        /// Load-to-use latency.
        latency: u64,
        /// Serving level code (0 = L1, 1 = L2, 2 = memory).
        level: u8,
    },
}

impl TraceEvent {
    /// The event's class name, as serialized in the `e` field.
    pub fn class(&self) -> &'static str {
        match self {
            TraceEvent::DemandHit { .. } => "demand_hit",
            TraceEvent::DemandMiss { .. } => "demand_miss",
            TraceEvent::Eviction { .. } => "eviction",
            TraceEvent::PrefetchPropose { .. } => "prefetch_propose",
            TraceEvent::PrefetchIssue { .. } => "prefetch_issue",
            TraceEvent::PrefetchFill { .. } => "prefetch_fill",
            TraceEvent::PrefetchDrop { .. } => "prefetch_drop",
            TraceEvent::PrefetchLate { .. } => "prefetch_late",
            TraceEvent::PrefetchExpire { .. } => "prefetch_expire",
            TraceEvent::RpGrant { .. } => "rp_grant",
            TraceEvent::RpExpire { .. } => "rp_expire",
            TraceEvent::AtAlloc { .. } => "at_alloc",
            TraceEvent::AtEvict { .. } => "at_evict",
            TraceEvent::Flush { .. } => "flush",
            TraceEvent::MshrAlloc { .. } => "mshr_alloc",
            TraceEvent::MshrRelease { .. } => "mshr_release",
            TraceEvent::Access { .. } => "access",
        }
    }

    /// The cycle stamp.
    pub fn at(&self) -> u64 {
        match *self {
            TraceEvent::DemandHit { at, .. }
            | TraceEvent::DemandMiss { at, .. }
            | TraceEvent::Eviction { at, .. }
            | TraceEvent::PrefetchPropose { at, .. }
            | TraceEvent::PrefetchIssue { at, .. }
            | TraceEvent::PrefetchFill { at, .. }
            | TraceEvent::PrefetchDrop { at, .. }
            | TraceEvent::PrefetchLate { at, .. }
            | TraceEvent::PrefetchExpire { at, .. }
            | TraceEvent::RpGrant { at, .. }
            | TraceEvent::RpExpire { at, .. }
            | TraceEvent::AtAlloc { at, .. }
            | TraceEvent::AtEvict { at, .. }
            | TraceEvent::Flush { at, .. }
            | TraceEvent::MshrAlloc { at, .. }
            | TraceEvent::MshrRelease { at, .. }
            | TraceEvent::Access { at, .. } => at,
        }
    }

    /// The event as an ordered JSON object (`e` first, then `at`, then
    /// the class-specific fields) — serialize with
    /// [`Value::to_json_inline`] for the JSONL artifact form.
    pub fn to_value(&self) -> Value {
        let mut f: Vec<(String, Value)> = vec![
            ("e".into(), Value::Str(self.class().into())),
            ("at".into(), Value::U64(self.at())),
        ];
        let mut u = |k: &str, v: u64| f.push((k.into(), Value::U64(v)));
        match *self {
            TraceEvent::DemandHit { cache, set, way, line, .. } => {
                u("cache", cache as u64);
                u("set", set as u64);
                u("way", way as u64);
                u("line", line);
            }
            TraceEvent::DemandMiss { cache, set, line, .. } => {
                u("cache", cache as u64);
                u("set", set as u64);
                u("line", line);
            }
            TraceEvent::Eviction { cache, set, way, victim, .. } => {
                u("cache", cache as u64);
                u("set", set as u64);
                u("way", way as u64);
                u("victim", victim);
            }
            TraceEvent::PrefetchPropose { core, pc, line, .. } => {
                u("core", core as u64);
                u("pc", pc);
                u("line", line);
            }
            TraceEvent::PrefetchIssue { core, line, source, .. } => {
                u("core", core as u64);
                u("line", line);
                u("source", source as u64);
            }
            TraceEvent::PrefetchFill { cache, set, way, line, .. } => {
                u("cache", cache as u64);
                u("set", set as u64);
                u("way", way as u64);
                u("line", line);
            }
            TraceEvent::PrefetchDrop { core, line, source, .. } => {
                u("core", core as u64);
                u("line", line);
                u("source", source as u64);
            }
            TraceEvent::PrefetchLate { cache, line, source, .. } => {
                u("cache", cache as u64);
                u("line", line);
                u("source", source as u64);
            }
            TraceEvent::PrefetchExpire { cache, line, .. } => {
                u("cache", cache as u64);
                u("line", line);
            }
            TraceEvent::RpGrant { pc, .. } | TraceEvent::RpExpire { pc, .. } => {
                u("pc", pc);
            }
            TraceEvent::AtAlloc { pc, buffer, .. } | TraceEvent::AtEvict { pc, buffer, .. } => {
                u("pc", pc);
                u("buffer", buffer as u64);
            }
            TraceEvent::Flush { line, latency, .. } => {
                u("line", line);
                u("latency", latency);
            }
            TraceEvent::MshrAlloc { line, .. } | TraceEvent::MshrRelease { line, .. } => {
                u("line", line);
            }
            TraceEvent::Access { core, pc, set, latency, level, .. } => {
                u("core", core as u64);
                u("pc", pc);
                u("set", set as u64);
                u("latency", latency);
                u("level", level as u64);
            }
        }
        Value::Obj(f)
    }
}

/// One drained thread trace: events in emission order, plus how many
/// events a full buffer dropped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceBuf {
    /// Captured events, oldest first.
    pub events: Vec<TraceEvent>,
    /// Events discarded because the buffer was full.
    pub dropped: u64,
}

impl TraceBuf {
    /// Appends another drained buffer (events concatenate, drop counts
    /// sum) — how harnesses stitch per-run drains into a scenario trace.
    pub fn merge(&mut self, mut rhs: TraceBuf) {
        self.events.append(&mut rhs.events);
        self.dropped += rhs.dropped;
    }

    /// Total events this buffer *observed* (captured + dropped).
    pub fn observed(&self) -> u64 {
        self.events.len() as u64 + self.dropped
    }
}

struct ThreadTrace {
    events: Vec<TraceEvent>,
    /// Hard capacity: `events` never grows past this (allocator rounding
    /// of the initial reservation notwithstanding).
    cap: usize,
    dropped: u64,
}

thread_local! {
    static TRACE: RefCell<ThreadTrace> =
        const { RefCell::new(ThreadTrace { events: Vec::new(), cap: 0, dropped: 0 }) };
}

/// Captures one event when the recorder is armed. Disarmed this is one
/// `Relaxed` atomic load; the closure keeping event construction off the
/// disarmed path is the per-site cost contract.
#[inline]
pub fn trace_event(make: impl FnOnce() -> TraceEvent) {
    if !trace_armed() {
        return;
    }
    TRACE.with(|t| {
        let mut t = t.borrow_mut();
        if t.cap == 0 {
            // First event on this thread since the last drain: size the
            // buffer once from the armed capacity.
            t.cap = TRACE_CAPACITY.load(Ordering::Relaxed);
            let cap = t.cap;
            t.events.reserve(cap);
        }
        if t.events.len() >= t.cap {
            t.dropped += 1;
            return;
        }
        t.events.push(make());
    });
}

/// Drains this thread's captured events and drop count, leaving an empty
/// (deallocated) buffer; the next captured event re-reads the armed
/// capacity.
pub fn take_thread_trace() -> TraceBuf {
    TRACE.with(|t| {
        let mut t = t.borrow_mut();
        t.cap = 0;
        TraceBuf { events: std::mem::take(&mut t.events), dropped: std::mem::take(&mut t.dropped) }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // The armed-trace tests share the one global switch; serialize them
    // and restore the disarmed default.
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn ev(at: u64) -> TraceEvent {
        TraceEvent::DemandMiss { at, cache: 0x20, set: 3, line: 0x1040 }
    }

    #[test]
    fn disarmed_captures_nothing_and_never_builds_the_event() {
        let _g = GATE.lock().unwrap();
        disarm_trace();
        let _ = take_thread_trace();
        trace_event(|| unreachable!("disarmed sites must not construct events"));
        assert_eq!(take_thread_trace(), TraceBuf::default());
    }

    #[test]
    fn armed_captures_in_order_and_drains() {
        let _g = GATE.lock().unwrap();
        arm_trace(16);
        let _ = take_thread_trace();
        for i in 0..4 {
            trace_event(|| ev(i));
        }
        disarm_trace();
        let t = take_thread_trace();
        assert_eq!(t.events.len(), 4);
        assert_eq!(t.dropped, 0);
        assert_eq!(t.observed(), 4);
        assert!(t.events.iter().enumerate().all(|(i, e)| e.at() == i as u64));
        assert!(take_thread_trace().events.is_empty(), "drain leaves nothing behind");
    }

    #[test]
    fn full_buffer_drops_and_counts_without_reallocating() {
        let _g = GATE.lock().unwrap();
        arm_trace(8);
        let _ = take_thread_trace();
        trace_event(|| ev(0));
        let ptr = TRACE.with(|t| t.borrow().events.as_ptr());
        for i in 1..20 {
            trace_event(|| ev(i));
        }
        let after = TRACE.with(|t| t.borrow().events.as_ptr());
        assert_eq!(ptr, after, "a full buffer must never reallocate");
        disarm_trace();
        let t = take_thread_trace();
        assert_eq!(t.events.len(), 8, "capacity bounds the capture");
        assert_eq!(t.dropped, 12, "overflow drops and counts");
        assert_eq!(t.observed(), 20);
        // The oldest events survive (drop-newest).
        assert!(t.events.iter().enumerate().all(|(i, e)| e.at() == i as u64));
    }

    #[test]
    fn merge_concatenates() {
        let mut a = TraceBuf { events: vec![ev(0)], dropped: 1 };
        a.merge(TraceBuf { events: vec![ev(1), ev(2)], dropped: 2 });
        assert_eq!(a.events.len(), 3);
        assert_eq!(a.dropped, 3);
    }

    #[test]
    fn jsonl_form_is_stable() {
        let v = ev(7).to_value().to_json_inline();
        assert_eq!(
            v,
            "{\"e\": \"demand_miss\", \"at\": 7, \"cache\": 32, \"set\": 3, \"line\": 4160}"
        );
        let a = TraceEvent::Access { at: 9, core: 0, pc: 0x40, set: 2, latency: 200, level: 2 };
        assert_eq!(
            a.to_value().to_json_inline(),
            "{\"e\": \"access\", \"at\": 9, \"core\": 0, \"pc\": 64, \"set\": 2, \
             \"latency\": 200, \"level\": 2}"
        );
        assert_eq!(a.class(), "access");
        assert_eq!(a.at(), 9);
    }

    #[test]
    fn every_class_serializes_its_fields() {
        let events = [
            TraceEvent::DemandHit { at: 1, cache: 0x20, set: 0, way: 1, line: 64 },
            TraceEvent::Eviction { at: 1, cache: 0x30, set: 0, way: 0, victim: 128 },
            TraceEvent::PrefetchPropose { at: 1, core: 0, pc: 4, line: 64 },
            TraceEvent::PrefetchIssue { at: 1, core: 0, line: 64, source: 3 },
            TraceEvent::PrefetchFill { at: 1, cache: 0x20, set: 0, way: 0, line: 64 },
            TraceEvent::PrefetchDrop { at: 1, core: 0, line: 64, source: 0 },
            TraceEvent::PrefetchLate { at: 1, cache: 0x20, line: 64, source: 1 },
            TraceEvent::PrefetchExpire { at: 1, cache: 0x20, line: 64 },
            TraceEvent::RpGrant { at: 1, pc: 4 },
            TraceEvent::RpExpire { at: 1, pc: 4 },
            TraceEvent::AtAlloc { at: 1, pc: 4, buffer: 2 },
            TraceEvent::AtEvict { at: 1, pc: 4, buffer: 2 },
            TraceEvent::Flush { at: 1, line: 64, latency: 20 },
            TraceEvent::MshrAlloc { at: 1, line: 64 },
            TraceEvent::MshrRelease { at: 1, line: 64 },
        ];
        for e in events {
            let json = e.to_value().to_json_inline();
            assert!(json.starts_with(&format!("{{\"e\": \"{}\", \"at\": 1", e.class())), "{json}");
        }
    }
}
