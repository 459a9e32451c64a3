//! Zero-cost-when-off observability for the PREFENDER reproduction.
//!
//! This crate is dependency-free and sits below every other workspace
//! crate. Every layer keeps one hard contract: **enabling observability
//! never changes an artifact byte**. Wall-clock time is allowed only in
//! obs and bench outputs, never in `sweep.json`/`leakage.json`/CSV/figure
//! artifacts. Wall-clock attribution of a campaign is measured from
//! outside the program, by `perfbench --trace 1`, so nothing here reads
//! the clock on a simulation path.
//!
//! 1. **Counters** ([`ObsCounters`]) — plain-`u64` event counts kept
//!    always-on by the simulator, CPU, defense models and attack runner.
//!    Incrementing one is a single add on an ordinary field; there is no
//!    atomic, no branch, no feature flag. Per-scenario counter blocks are
//!    pure functions of the scenario, so campaign totals are identical at
//!    every thread count (merging is a field-wise sum, plus `max` for
//!    high-water marks — both order-independent).
//! 2. **Flight recorder** ([`trace_event`], [`take_thread_trace`]) — a
//!    typed, cycle-stamped µarch event trace captured into a preallocated
//!    per-thread buffer. Disarmed (the default), each site is one
//!    `Relaxed` load and never constructs its event; armed via
//!    [`arm_trace`], a full buffer drops-and-counts rather than
//!    reallocating. Per-run drains make traces byte-identical at any
//!    thread count.
//! 3. **Snapshots & telemetry** ([`Value`], [`HostInfo`],
//!    [`ProgressReporter`]) — a tiny deterministic JSON tree (the build
//!    environment vendors no serde) for `obs.json` and the bench
//!    records, host identification for bench reports, and a throttled
//!    stderr progress meter for long campaigns.
//! 4. **Crash safety** ([`write_atomic`], [`failpoint`]) — the one
//!    atomic-rename + fsync path every artifact write goes through, and
//!    a deterministic fault-injection registry (env/flag-armed,
//!    zero-cost when off) that can kill the process or fail an I/O
//!    operation at chosen points so the crash-resume story is testable.

mod counters;
mod failpoint;
mod fsio;
mod host;
mod progress;
mod snapshot;
mod trace;

pub use counters::ObsCounters;
pub use failpoint::{
    arm_failpoints, arm_failpoints_from_env, disarm_failpoints, failpoint, FailAction,
    FAILPOINTS_ENV,
};
pub use fsio::{atomic_tmp_pid, is_atomic_tmp, pid_alive, write_atomic};
pub use host::HostInfo;
pub use progress::ProgressReporter;
pub use snapshot::Value;
pub use trace::{
    arm_trace, disarm_trace, take_thread_trace, trace_armed, trace_event, CacheTag, TraceBuf,
    TraceEvent, DEFAULT_TRACE_CAPACITY,
};
