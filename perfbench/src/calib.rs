//! Host-speed calibration. A shared host's speed drifts by tens of
//! percent within minutes, and a CPU-bound program slows with it, so
//! each campaign sample is read against a fixed kernel timed right
//! before and right after it. The kernel is the benchmark's own code, so
//! no change to the program moves it.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats::median;

/// The kernel's time on the reference host (a 2-vCPU Intel Xeon VM at
/// an ordinary moment). A time divided by the host factor reads in that
/// host's seconds.
pub const REFERENCE: Duration = Duration::from_millis(7);

/// Kernel repeats per calibration.
const REPEATS: usize = 5;
/// Guest instructions the kernel interprets per repeat.
const STEPS: u32 = 600_000;
/// Guest instructions in the kernel's program.
const PROGRAM: usize = 512;
/// Guest memory, in 8-byte words (1 MiB).
const WORDS: usize = 1 << 17;
/// Sets and ways of the kernel's cache model: 1 MiB of tags and 512 KiB
/// of stamps.
const SETS: usize = 1 << 14;
const WAYS: usize = 8;

/// One instruction of the kernel's toy machine: 16 registers, `WORDS`
/// words of memory behind one cache level.
#[derive(Clone, Copy)]
enum Op {
    Alu {
        dst: usize,
        a: usize,
        b: usize,
        f: u8,
    },
    /// `hot` confines the address to 16K words, which the cache holds.
    Load {
        dst: usize,
        addr: usize,
        hot: bool,
    },
    Store {
        src: usize,
        addr: usize,
    },
    /// Skips `skip` instructions forward when the register's low bit is
    /// set (forward only, so every instruction keeps running).
    Branch {
        reg: usize,
        skip: usize,
    },
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The fixed program: a xorshift-drawn mix of ALU work, loads, stores
/// and branches.
fn program() -> Vec<Op> {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    (0..PROGRAM)
        .map(|_| {
            let r = xorshift(&mut x);
            let reg = |shift: u32| (r >> shift) as usize & 15;
            match r % 10 {
                0..=4 => Op::Alu { dst: reg(8), a: reg(12), b: reg(16), f: (r >> 20) as u8 & 3 },
                5 | 6 => Op::Load { dst: reg(8), addr: reg(12), hot: r & (1 << 24) != 0 },
                7 => Op::Store { src: reg(8), addr: reg(12) },
                _ => Op::Branch { reg: reg(8), skip: 1 + (r >> 32) as usize % 8 },
            }
        })
        .collect()
}

/// The toy machine: its program, memory and cache-model tables.
struct Machine {
    program: Vec<Op>,
    mem: Vec<u64>,
    tags: Vec<u64>,
    stamps: Vec<u32>,
}

impl Machine {
    fn new() -> Machine {
        Machine {
            program: program(),
            mem: vec![0; WORDS],
            tags: vec![0; SETS * WAYS],
            stamps: vec![0; SETS * WAYS],
        }
    }

    /// One access through the LRU cache model; true on a hit.
    fn access(&mut self, word: usize, now: u32) -> bool {
        let line = (word / 8) as u64;
        let base = (line as usize & (SETS - 1)) * WAYS;
        let set = &mut self.tags[base..base + WAYS];
        if let Some(w) = set.iter().position(|&tag| tag == line) {
            self.stamps[base + w] = now;
            return true;
        }
        let victim = (0..WAYS).min_by_key(|&w| self.stamps[base + w]).unwrap_or(0);
        set[victim] = line;
        self.stamps[base + victim] = now;
        false
    }

    /// Interprets `STEPS` instructions from a fixed start: instruction
    /// dispatch, register and memory traffic and cache lookups, the
    /// simulator's own mix. Returns the cache hits plus a register digest.
    fn run(&mut self) -> u64 {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for w in self.mem.iter_mut() {
            *w = xorshift(&mut x);
        }
        self.tags.fill(u64::MAX);
        self.stamps.fill(0);
        let mut regs: [u64; 16] = std::array::from_fn(|i| (i as u64 + 1) * 0x9E37_79B9);
        let (mut pc, mut hits) = (0, 0u64);
        for now in 0..STEPS {
            match self.program[pc] {
                Op::Alu { dst, a, b, f } => {
                    regs[dst] = match f {
                        0 => regs[a].wrapping_add(regs[b]),
                        1 => regs[a] ^ regs[b].rotate_left(7),
                        2 => regs[a].wrapping_mul(regs[b] | 1),
                        _ => regs[a].rotate_left(regs[b] as u32 & 63) ^ 0x5851_F42D,
                    };
                }
                Op::Load { dst, addr, hot } => {
                    let mask = if hot { (1 << 14) - 1 } else { WORDS - 1 };
                    let word = regs[addr] as usize & mask;
                    hits += u64::from(self.access(word, now));
                    regs[dst] = regs[dst].wrapping_add(self.mem[word]);
                }
                Op::Store { src, addr } => {
                    let word = regs[addr] as usize & (WORDS - 1);
                    hits += u64::from(self.access(word, now));
                    self.mem[word] = regs[src];
                }
                Op::Branch { reg, skip } => {
                    if regs[reg] & 1 == 1 {
                        pc += skip;
                    }
                }
            }
            pc = (pc + 1) % PROGRAM;
        }
        hits ^ regs.iter().fold(0, |acc, r| acc ^ r)
    }
}

/// The kernel's state, allocated once per run, so calibrating neither
/// churns the allocator the campaign uses nor moves the peak RSS.
pub struct Calibrator(Machine);

impl Calibrator {
    pub fn new() -> Calibrator {
        Calibrator(Machine::new())
    }

    /// One calibration: the median kernel time of a few repeats.
    pub fn measure(&mut self) -> Duration {
        let times: Vec<f64> = (0..REPEATS)
            .map(|_| {
                let t0 = Instant::now();
                black_box(self.0.run());
                t0.elapsed().as_secs_f64()
            })
            .collect();
        Duration::from_secs_f64(median(&times))
    }
}

/// How much slower than the reference host this host ran between two
/// calibrations: their mean over [`REFERENCE`].
pub fn host_factor(before: Duration, after: Duration) -> f64 {
    (before + after).as_secs_f64() / 2.0 / REFERENCE.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        let mut m = Machine::new();
        let first = m.run();
        assert_eq!(first, m.run());
        assert_eq!(first, Machine::new().run());
    }

    #[test]
    fn kernel_mixes_every_instruction_kind() {
        let p = program();
        let count = |f: fn(&Op) -> bool| p.iter().filter(|op| f(op)).count();
        assert!(count(|op| matches!(op, Op::Alu { .. })) > PROGRAM / 3);
        assert!(count(|op| matches!(op, Op::Load { hot: true, .. })) > PROGRAM / 20);
        assert!(count(|op| matches!(op, Op::Load { hot: false, .. })) > PROGRAM / 20);
        assert!(count(|op| matches!(op, Op::Store { .. })) > PROGRAM / 20);
        assert!(count(|op| matches!(op, Op::Branch { .. })) > PROGRAM / 20);
    }

    #[test]
    fn host_factor_is_the_mean_over_the_reference() {
        let f = host_factor(REFERENCE, REFERENCE * 3);
        assert!((f - 2.0).abs() < 1e-12);
    }
}
