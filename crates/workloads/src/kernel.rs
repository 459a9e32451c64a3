//! Kernel building blocks: one memory idiom each.

use prefender_isa::{ProgramBuilder, Reg};
use prefender_stats::Xoshiro256;

/// One phase of a synthetic workload.
///
/// Each kernel emits a self-contained loop into a shared
/// [`ProgramBuilder`] and describes the data memory it needs. Register
/// usage is confined to `r1`–`r9` so phases compose freely.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Kernel {
    /// `for i: acc += a[i]` — sequential loads at `stride` bytes.
    /// Tagged and stride prefetchers excel; models `462.libquantum`-style
    /// array sweeps.
    Streaming {
        /// Array base address.
        base: u64,
        /// Iterations (one load each).
        n: u64,
        /// Byte stride between loads.
        stride: u64,
        /// Compute cycles of dilution per iteration (real code does work
        /// between misses; without it every covered miss is a full
        /// memory-latency win and speedups inflate absurdly).
        work: u64,
    },
    /// `streams` parallel sequential walks advanced in lockstep, each
    /// through its *own load instruction*. The distinct-PC count is the
    /// knob that separates PC-indexed prefetchers (PREFENDER's Access
    /// Tracker, the stride prefetcher's table) from PC-blind ones
    /// (Tagged): with `streams` above the access-buffer count the AT
    /// thrashes while Tagged still covers everything — the
    /// `456.hmmer` / `554.roms_r` pattern in the paper's tables.
    MultiStream {
        /// First stream's base address.
        base: u64,
        /// Byte distance between stream bases.
        spacing: u64,
        /// Number of streams (= distinct load PCs per iteration).
        streams: usize,
        /// Iterations (each touches every stream once).
        n: u64,
        /// Per-iteration byte stride of every stream.
        stride: u64,
        /// Compute cycles of dilution per iteration.
        work: u64,
    },
    /// Linked-list traversal `p = *p` over a pseudo-random node chain —
    /// nothing prefetches this; models `471.omnetpp` / parts of `429.mcf`.
    PointerChase {
        /// First node address (line-aligned).
        base: u64,
        /// Nodes in the chain (cycle closes back to `base`).
        nodes: u64,
        /// Byte span the nodes are scattered over.
        span: u64,
        /// Traversal steps.
        steps: u64,
        /// Chain layout seed.
        seed: u64,
        /// Compute cycles of dilution per step.
        work: u64,
    },
    /// Uniform random loads with the target address computed by an
    /// in-program LCG — no side table to stream through, so *nothing*
    /// prefetches this and speculative prefetches are pure pollution;
    /// models `445.gobmk` / `458.sjeng` lookups.
    RandomAccess {
        /// Target heap base.
        heap: u64,
        /// Byte span of targets (must be a power of two).
        span: u64,
        /// Loads.
        n: u64,
        /// LCG seed.
        seed: u64,
        /// Compute cycles of dilution per load.
        work: u64,
    },
    /// Scaled indirect gather: `idx = a[i]; load b[idx * scale]` where
    /// consecutive `idx` values random-walk by ±1 — the Scale Tracker
    /// learns `scale` and prefetches `addr ± scale`, which is the next
    /// iteration's line. Models `510.parest_r`'s indirect FE access and
    /// the gather parts of `429.mcf` / `483.xalancbmk`.
    ScaledGather {
        /// Index array base.
        idx_base: u64,
        /// Data array base.
        data_base: u64,
        /// Gathers.
        n: u64,
        /// Byte scale applied to the loaded index (> line, < page).
        scale: u64,
        /// Maximum index value.
        idx_span: u64,
        /// Index walk seed.
        seed: u64,
        /// Compute cycles of dilution per gather.
        work: u64,
    },
    /// Three-point stencil `b[i] = a[i] + a[i+1] + a[i+2]` — streaming
    /// with reuse and a store stream; models `554.roms_r` /
    /// `507.cactuBSSN_r`.
    Stencil {
        /// Input array base.
        a: u64,
        /// Output array base.
        b: u64,
        /// Elements.
        n: u64,
        /// Compute cycles of dilution per element.
        work: u64,
    },
    /// Blocked matrix-multiply inner kernel: row-streaming loads from
    /// `a`, large-stride column loads from `b`; models `456.hmmer` /
    /// `538.imagick_r` regularity.
    Gemm {
        /// Row matrix base.
        a: u64,
        /// Column matrix base.
        b: u64,
        /// Accumulator output base.
        c: u64,
        /// Outer iterations.
        tiles: u64,
        /// Inner (dot-product) length.
        tile: u64,
        /// Column stride in bytes.
        row_stride: u64,
        /// Compute cycles of dilution per inner iteration.
        work: u64,
    },
    /// Pure ALU loop (integer hash mixing); models `999.specrand` /
    /// `548.exchange2_r`.
    Compute {
        /// Iterations (≈10 ALU ops each).
        n: u64,
    },
}

/// Emits a compute-dilution inner loop costing roughly `work` cycles
/// (3 instructions per inner iteration on `r24`/`r25`).
fn emit_work(b: &mut ProgramBuilder, work: u64) {
    if work == 0 {
        return;
    }
    let iters = (work / 3).max(1);
    b.li(Reg::R24, iters as i64);
    let top = b.label();
    b.add(Reg::R25, Reg::R25, 1);
    b.sub(Reg::R24, Reg::R24, 1);
    b.bnz(Reg::R24, top);
}

impl Kernel {
    /// Emits the kernel's loop into `b`.
    pub fn emit(&self, b: &mut ProgramBuilder) {
        match *self {
            Kernel::Streaming { base, n, stride, work } => {
                b.li(Reg::R1, base as i64);
                b.li(Reg::R2, n as i64);
                b.li(Reg::R3, 0);
                let top = b.label();
                b.ld(Reg::R4, 0, Reg::R1);
                b.add(Reg::R3, Reg::R3, Reg::R4);
                emit_work(b, work);
                b.add(Reg::R1, Reg::R1, stride as i64);
                b.sub(Reg::R2, Reg::R2, 1);
                b.bnz(Reg::R2, top);
            }
            Kernel::MultiStream { base, spacing, streams, n, stride, work } => {
                b.li(Reg::R1, 0); //             running offset
                b.li(Reg::R2, n as i64);
                b.li(Reg::R3, base as i64);
                let top = b.label();
                b.add(Reg::R4, Reg::R3, Reg::R1);
                for s in 0..streams {
                    // One load instruction (distinct PC) per stream.
                    b.ld(Reg::R5, (s as u64 * spacing) as i64, Reg::R4);
                }
                emit_work(b, work);
                b.add(Reg::R1, Reg::R1, stride as i64);
                b.sub(Reg::R2, Reg::R2, 1);
                b.bnz(Reg::R2, top);
            }
            Kernel::PointerChase { base, steps, work, .. } => {
                b.li(Reg::R1, base as i64);
                b.li(Reg::R2, steps as i64);
                let top = b.label();
                b.ld(Reg::R1, 0, Reg::R1);
                emit_work(b, work);
                b.sub(Reg::R2, Reg::R2, 1);
                b.bnz(Reg::R2, top);
            }
            Kernel::RandomAccess { heap, span, n, seed, work } => {
                assert!(span.is_power_of_two(), "random span must be a power of two");
                let line_mask = (span - 1) & !63; // line-aligned offset mask
                b.li(Reg::R1, seed as i64 | 1);
                b.li(Reg::R2, n as i64);
                b.li(Reg::R3, heap as i64);
                let top = b.label();
                // LCG state update, then offset = (state >> 24) & mask.
                b.mul(Reg::R1, Reg::R1, 6364136223846793005i64);
                b.add(Reg::R1, Reg::R1, 1442695040888963407i64);
                b.shr(Reg::R4, Reg::R1, 24);
                b.and(Reg::R4, Reg::R4, line_mask as i64);
                b.add(Reg::R4, Reg::R3, Reg::R4);
                b.ld(Reg::R5, 0, Reg::R4);
                emit_work(b, work);
                b.sub(Reg::R2, Reg::R2, 1);
                b.bnz(Reg::R2, top);
            }
            Kernel::ScaledGather { idx_base, data_base, n, scale, work, .. } => {
                b.li(Reg::R1, idx_base as i64);
                b.li(Reg::R2, n as i64);
                b.li(Reg::R3, data_base as i64);
                b.li(Reg::R5, scale as i64);
                let top = b.label();
                b.ld(Reg::R4, 0, Reg::R1); //  idx (variable to the ST)
                b.mul(Reg::R6, Reg::R4, Reg::R5); // sc = scale
                b.add(Reg::R6, Reg::R3, Reg::R6);
                b.ld(Reg::R7, 0, Reg::R6); //  the gather — ST prefetches ±scale
                emit_work(b, work);
                b.add(Reg::R1, Reg::R1, 8);
                b.sub(Reg::R2, Reg::R2, 1);
                b.bnz(Reg::R2, top);
            }
            Kernel::Stencil { a, b: out, n, work } => {
                b.li(Reg::R1, a as i64);
                b.li(Reg::R2, n as i64);
                b.li(Reg::R3, out as i64);
                let top = b.label();
                b.ld(Reg::R4, 0, Reg::R1);
                b.ld(Reg::R5, 8, Reg::R1);
                b.ld(Reg::R6, 16, Reg::R1);
                b.add(Reg::R4, Reg::R4, Reg::R5);
                b.add(Reg::R4, Reg::R4, Reg::R6);
                b.st(Reg::R4, 0, Reg::R3);
                emit_work(b, work);
                b.add(Reg::R1, Reg::R1, 8);
                b.add(Reg::R3, Reg::R3, 8);
                b.sub(Reg::R2, Reg::R2, 1);
                b.bnz(Reg::R2, top);
            }
            Kernel::Gemm { a, b: bb, c, tiles, tile, row_stride, work } => {
                b.li(Reg::R1, tiles as i64);
                b.li(Reg::R8, c as i64);
                let outer = b.label();
                b.li(Reg::R2, a as i64);
                b.li(Reg::R3, bb as i64);
                b.li(Reg::R4, tile as i64);
                b.li(Reg::R5, 0); // acc
                let inner = b.label();
                b.ld(Reg::R6, 0, Reg::R2);
                b.ld(Reg::R7, 0, Reg::R3);
                b.mul(Reg::R6, Reg::R6, Reg::R7);
                b.add(Reg::R5, Reg::R5, Reg::R6);
                emit_work(b, work);
                b.add(Reg::R2, Reg::R2, 8);
                b.add(Reg::R3, Reg::R3, row_stride as i64);
                b.sub(Reg::R4, Reg::R4, 1);
                b.bnz(Reg::R4, inner);
                b.st(Reg::R5, 0, Reg::R8);
                b.add(Reg::R8, Reg::R8, 8);
                b.sub(Reg::R1, Reg::R1, 1);
                b.bnz(Reg::R1, outer);
            }
            Kernel::Compute { n } => {
                b.li(Reg::R1, n as i64);
                b.li(Reg::R2, 0x9E37_79B9);
                b.li(Reg::R3, 0x85EB_CA6B);
                let top = b.label();
                b.mul(Reg::R2, Reg::R2, Reg::R3);
                b.xor(Reg::R2, Reg::R2, Reg::R3);
                b.shl(Reg::R4, Reg::R2, 13);
                b.add(Reg::R2, Reg::R2, Reg::R4);
                b.shr(Reg::R4, Reg::R2, 7);
                b.xor(Reg::R2, Reg::R2, Reg::R4);
                b.add(Reg::R3, Reg::R3, 1);
                b.sub(Reg::R1, Reg::R1, 1);
                b.bnz(Reg::R1, top);
            }
        }
    }

    /// The data memory this kernel needs: `(address, value)` pairs.
    pub fn data(&self) -> Vec<(u64, u64)> {
        match *self {
            Kernel::Streaming { .. }
            | Kernel::MultiStream { .. }
            | Kernel::Stencil { .. }
            | Kernel::Gemm { .. }
            | Kernel::Compute { .. } => {
                Vec::new() // values irrelevant; unwritten memory reads 0
            }
            Kernel::PointerChase { base, nodes, span, seed, .. } => {
                // Nodes live at `nodes` *distinct uniformly random* line
                // slots of the span (a partial Fisher-Yates draw — a
                // strided grid would alias cache sets and thrash).
                let mut rng = Xoshiro256::new(seed);
                let slots = (span / 64).max(nodes);
                let mut all: Vec<u64> = (0..slots).collect();
                for i in 0..nodes as usize {
                    let j = i + rng.below((all.len() - i) as u64) as usize;
                    all.swap(i, j);
                }
                let mut pos: Vec<u64> = all[..nodes as usize].to_vec();
                let mut order: Vec<u64> = (0..nodes).collect();
                rng.shuffle(&mut order);
                // The chain visits nodes in `order`, closing the cycle;
                // the first hop starts at `base`, so node order[0]'s slot
                // is forced to 0.
                let first = order[0] as usize;
                let zero_at = pos.iter().position(|&p| p == 0);
                if let Some(z) = zero_at {
                    pos.swap(z, first);
                } else {
                    pos[first] = 0;
                }
                let addr_of = |k: usize| base + pos[k] * 64;
                let mut data = Vec::with_capacity(order.len());
                for w in 0..order.len() {
                    let cur = order[w] as usize;
                    let next = order[(w + 1) % order.len()] as usize;
                    data.push((addr_of(cur), addr_of(next)));
                }
                data
            }
            Kernel::RandomAccess { .. } => Vec::new(), // addresses come from the LCG
            Kernel::ScaledGather { idx_base, n, idx_span, seed, .. } => {
                // Indices random-walk by ±1 so `addr ± scale` (the Scale
                // Tracker's prediction) is usually the next gather target.
                let mut rng = Xoshiro256::new(seed);
                let mut idx: i64 = (idx_span / 2) as i64;
                (0..n)
                    .map(|i| {
                        let step: i64 = if rng.next_u64() < 1 << 63 { 1 } else { -1 };
                        idx = (idx + step).clamp(1, idx_span as i64 - 2);
                        (idx_base + i * 8, idx as u64)
                    })
                    .collect()
            }
        }
    }

    /// Short idiom name for stats output.
    pub fn idiom(&self) -> &'static str {
        match self {
            Kernel::Streaming { .. } => "streaming",
            Kernel::MultiStream { .. } => "multi-stream",
            Kernel::PointerChase { .. } => "pointer-chase",
            Kernel::RandomAccess { .. } => "random",
            Kernel::ScaledGather { .. } => "scaled-gather",
            Kernel::Stencil { .. } => "stencil",
            Kernel::Gemm { .. } => "gemm",
            Kernel::Compute { .. } => "compute",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prefender_cpu::Machine;
    use prefender_isa::ProgramBuilder;
    use prefender_sim::HierarchyConfig;

    fn run(k: &Kernel) -> Machine {
        let mut b = ProgramBuilder::new();
        k.emit(&mut b);
        b.halt();
        let p = b.build().unwrap();
        let mut m = Machine::new(HierarchyConfig::paper_baseline(1).unwrap());
        for (a, v) in k.data() {
            m.write_data(a, v);
        }
        m.trace_mut().set_enabled(true);
        m.load_program(0, p);
        let s = m.run();
        assert!(!s.truncated);
        m
    }

    #[test]
    fn streaming_touches_sequential_lines() {
        let k = Kernel::Streaming { base: 0x100_0000, n: 64, stride: 64, work: 0 };
        let m = run(&k);
        let addrs: Vec<u64> = m.trace().entries().iter().map(|e| e.addr.raw()).collect();
        assert_eq!(addrs.len(), 64);
        assert_eq!(addrs[0], 0x100_0000);
        assert_eq!(addrs[63], 0x100_0000 + 63 * 64);
    }

    #[test]
    fn pointer_chase_cycles_through_all_nodes() {
        let k = Kernel::PointerChase {
            base: 0x200_0000,
            nodes: 32,
            span: 32 * 64 * 4,
            steps: 64,
            seed: 7,
            work: 0,
        };
        let m = run(&k);
        let addrs: Vec<u64> = m.trace().entries().iter().map(|e| e.addr.raw()).collect();
        assert_eq!(addrs.len(), 64);
        assert_eq!(addrs[0], 0x200_0000, "chain starts at base");
        // Two full cycles: the second 32 hops repeat the first 32.
        assert_eq!(&addrs[..32], &addrs[32..64]);
        let mut uniq = addrs[..32].to_vec();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 32, "all nodes visited once per cycle");
    }

    #[test]
    fn random_access_targets_are_in_span() {
        let k = Kernel::RandomAccess { heap: 0x400_0000, span: 1 << 16, n: 50, seed: 3, work: 0 };
        let m = run(&k);
        let targets: Vec<u64> = m.trace().entries().iter().map(|e| e.addr.raw()).collect();
        assert_eq!(targets.len(), 50);
        assert!(targets.iter().all(|a| (0x400_0000..0x400_0000 + (1 << 16)).contains(a)));
        assert!(targets.iter().all(|a| a % 64 == 0));
        // Genuinely scattered: many distinct lines.
        let mut uniq = targets.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert!(uniq.len() > 40, "only {} distinct lines", uniq.len());
    }

    #[test]
    fn scaled_gather_computes_scaled_addresses() {
        let k = Kernel::ScaledGather {
            idx_base: 0x500_0000,
            data_base: 0x600_0000,
            n: 40,
            scale: 0x200,
            idx_span: 128,
            seed: 11,
            work: 0,
        };
        let m = run(&k);
        let gathers: Vec<u64> =
            m.trace().entries().iter().map(|e| e.addr.raw()).filter(|a| *a >= 0x600_0000).collect();
        assert_eq!(gathers.len(), 40);
        for g in &gathers {
            assert_eq!((g - 0x600_0000) % 0x200, 0, "gather at a scale multiple");
        }
        // Consecutive gathers differ by exactly one scale (random ±1 walk).
        for w in gathers.windows(2) {
            assert_eq!(w[0].abs_diff(w[1]), 0x200);
        }
    }

    #[test]
    fn stencil_stores_sum() {
        let k = Kernel::Stencil { a: 0x700_0000, b: 0x800_0000, n: 8, work: 0 };
        let mut b = ProgramBuilder::new();
        k.emit(&mut b);
        b.halt();
        let p = b.build().unwrap();
        let mut m = Machine::new(HierarchyConfig::paper_baseline(1).unwrap());
        for i in 0..10u64 {
            m.write_data(0x700_0000 + i * 8, i);
        }
        m.load_program(0, p);
        m.run();
        // b[0] = a[0]+a[1]+a[2] = 3; b[7] = 7+8+9 = 24.
        assert_eq!(m.read_data(0x800_0000), 3);
        assert_eq!(m.read_data(0x800_0000 + 7 * 8), 24);
    }

    #[test]
    fn gemm_runs_expected_instruction_count() {
        let k = Kernel::Gemm {
            a: 0x900_0000,
            b: 0xA00_0000,
            c: 0xB00_0000,
            tiles: 4,
            tile: 8,
            row_stride: 0x400,
            work: 0,
        };
        let m = run(&k);
        // 2 loads per inner iteration.
        assert_eq!(
            m.trace()
                .entries()
                .iter()
                .filter(|e| e.kind == prefender_sim::AccessKind::Read)
                .count(),
            4 * 8 * 2
        );
    }

    #[test]
    fn compute_touches_no_data_memory() {
        let k = Kernel::Compute { n: 100 };
        let m = run(&k);
        assert!(m.trace().entries().is_empty());
    }

    #[test]
    fn data_is_deterministic() {
        let k = Kernel::ScaledGather {
            idx_base: 0x500_0000,
            data_base: 0x600_0000,
            n: 20,
            scale: 0x200,
            idx_span: 128,
            seed: 5,
            work: 0,
        };
        assert_eq!(k.data(), k.data());
    }

    #[test]
    fn idioms_named() {
        assert_eq!(Kernel::Compute { n: 1 }.idiom(), "compute");
        assert_eq!(Kernel::Streaming { base: 0, n: 1, stride: 64, work: 0 }.idiom(), "streaming");
    }
}
