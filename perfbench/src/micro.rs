//! Per-operation micro rows: the public `MemorySystem::access`/
//! `prefetch` and `Prefetcher::on_access_into` APIs, timed in tight
//! loops. Each row is the median ns/op of several repeats.

use std::hint::black_box;
use std::time::Instant;

use prefender_core::Prefender;
use prefender_isa::{Program, Reg};
use prefender_prefetch::{
    AccessEvent, PrefetchRequest, Prefetcher, RetireEvent, StridePrefetcher, TaggedPrefetcher,
};
use prefender_sim::{
    AccessKind, AccessOutcome, Addr, Cycle, HierarchyConfig, Level, MemorySystem, PrefetchSource,
};

use crate::stats::median;

/// Operations per repeat and repeats per row.
const OPS: u64 = 20_000;
const REPEATS: usize = 7;

/// Median ns per call of `op`, called with a running operation counter
/// (warm-up calls first, so caches and lazily grown tables settle).
fn ns_per_op(mut op: impl FnMut(u64)) -> f64 {
    let mut k = 0u64;
    for _ in 0..OPS / 4 {
        k += 1;
        op(k);
    }
    let samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..OPS {
                k += 1;
                op(k);
            }
            t0.elapsed().as_nanos() as f64 / OPS as f64
        })
        .collect();
    median(&samples)
}

fn load_event(pc: u64, addr: u64, l1_hit: bool) -> AccessEvent {
    AccessEvent {
        core: 0,
        pc,
        vaddr: Addr::new(addr),
        base: Some(Reg::R5),
        kind: AccessKind::Read,
        outcome: AccessOutcome {
            latency: if l1_hit { 4 } else { 200 },
            served_by: if l1_hit { Level::L1 } else { Level::Memory },
            first_prefetch_use: false,
            prefetch_source: None,
        },
        now: Cycle::ZERO,
    }
}

/// Times `on_access_into` on `p` with the event `ev(k)` per call.
fn on_access_ns(mut p: impl Prefetcher, ev: impl Fn(u64) -> AccessEvent) -> f64 {
    let mut out: Vec<PrefetchRequest> = Vec::new();
    ns_per_op(|k| {
        out.clear();
        p.on_access_into(&ev(k), &|_| false, &mut out);
        black_box(&out);
    })
}

fn full_prefender() -> Prefender {
    Prefender::builder(64, 4096).access_buffers(32).build()
}

/// Every micro row, `(metric name, ns/op)`.
pub fn rows() -> Vec<(&'static str, f64)> {
    let paper = || HierarchyConfig::paper_baseline(1).expect("the paper hierarchy validates");
    let mut rows = Vec::new();

    // An L1D hit on the settled fast path.
    let mut m = MemorySystem::new(paper());
    m.access(0, Addr::new(0x4000), AccessKind::Read, Cycle::ZERO);
    rows.push((
        "sim.access_hit_ns",
        ns_per_op(|k| {
            black_box(m.access(0, Addr::new(0x4000), AccessKind::Read, Cycle::new(1000 + k)));
        }),
    ));

    // One prefetch plus one demand access while prefetches keep expiring:
    // the completion queues never go idle.
    let mut m = MemorySystem::new(paper());
    rows.push((
        "sim.storm_op_ns",
        ns_per_op(|k| {
            let now = k * 7;
            let line = 0x100_0000 + (k % 4096) * 64;
            m.prefetch(0, Addr::new(line), PrefetchSource::Basic, Cycle::new(now));
            let hot = Addr::new(0x4000 + (k % 16) * 64);
            black_box(m.access(0, hot, AccessKind::Read, Cycle::new(now + 2)));
        }),
    ));

    // PREFENDER's per-load paths. Hit: the same block re-touched.
    rows.push((
        "prefender.on_access_hit_ns",
        on_access_ns(full_prefender(), |_| load_event(0x8008, 0x10_0000, true)),
    ));
    // Insert: a fresh block each call, uniform stride (incremental DiffMin).
    rows.push((
        "prefender.on_access_miss_insert_ns",
        on_access_ns(full_prefender(), |k| load_event(0x8008, 0x10_0000 + k * 0x200, false)),
    ));
    // Quadratic spacing: every eviction removes the minimum pair and
    // forces the full DiffMin rescan.
    rows.push((
        "prefender.on_access_diffmin_recompute_ns",
        on_access_ns(full_prefender(), |k| load_event(0x8008, 0x10_0000 + k * k * 0x40, false)),
    ));
    // Protected buffer: a recorded `mul`-derived scale, then on-pattern
    // probes take the Record-Protector-guided branch.
    let mut protected = full_prefender();
    let victim = Program::parse("ld r1, 0(r0)\nmul r5, r1, 0x200\n").expect("valid victim");
    for instr in victim.instrs() {
        protected.on_retire(&RetireEvent { core: 0, pc: 0, instr, now: Cycle::ZERO });
    }
    protected.on_access_into(&load_event(0x8000, 0x10_0800, false), &|_| false, &mut Vec::new());
    rows.push((
        "prefender.on_access_protected_ns",
        on_access_ns(protected, |k| load_event(0x9000, 0x10_0800 + (k % 61) * 0x200, false)),
    ));

    // Basic prefetchers on a streaming miss sequence.
    rows.push((
        "prefetch.tagged_ns",
        on_access_ns(TaggedPrefetcher::new(64, 1), |k| load_event(0x8008, k * 64, false)),
    ));
    rows.push((
        "prefetch.stride_ns",
        on_access_ns(StridePrefetcher::default_config(), |k| {
            load_event(0x8000 + (k % 8) * 4, 0x20_0000 + k * 0x100, false)
        }),
    ));
    rows
}
