//! The multi-core machine: time-ordered execution with prefetcher plumbing.

use std::fmt;

use prefender_core::{Prefender, Prefetcher};
use prefender_isa::{Instr, Operand, Reg};
use prefender_prefetch::{AccessEvent, PrefetchRequest, RetireEvent};
use prefender_sim::{AccessKind, Addr, Cycle, FetchRun, HierarchyConfig, MemorySystem};

use crate::core_model::{Core, CoreState};
use crate::trace::{MemTrace, TraceEntry};

/// Cycles for simple ALU ops, moves, `li`, `rdtsc`, `nop`.
const ALU_COST: u64 = 1;
/// Cycles for multiplication.
const MUL_COST: u64 = 3;
/// Cycles for branches (taken or not).
const BRANCH_COST: u64 = 1;
/// Retire cost of a store (the cache access happens asynchronously
/// through a store buffer; only state effects are modelled).
const STORE_COST: u64 = 1;
/// Base cost of a `flush`, added to the hierarchy's flush latency.
const FLUSH_COST: u64 = 1;

/// Execution options: instruction fetch and the instruction cap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpuConfig {
    /// Model instruction fetch through the L1I (misses stall the core).
    pub model_fetch: bool,
    /// Safety cap on totally retired instructions per [`Machine::run`].
    pub max_instructions: u64,
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig { model_fetch: true, max_instructions: 200_000_000 }
    }
}

/// What a [`Machine::run`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    /// Wall-clock cycles: the latest `ready_at` over all cores.
    pub cycles: u64,
    /// Instructions retired across all cores during this run.
    pub instructions: u64,
    /// `true` when the run stopped at the instruction cap, not at `halt`.
    pub truncated: bool,
}

impl RunSummary {
    /// Instructions per cycle across the whole machine.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

impl fmt::Display for RunSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} instructions in {} cycles (IPC {:.3})",
            self.instructions,
            self.cycles,
            self.ipc()
        )
    }
}

/// The sparse data memory: keyed by 64-bit addresses and never iterated,
/// so the shared SplitMix64-finalizer hasher applies (see
/// [`prefender_sim::Mix64Map`]) — it just makes every simulated
/// load/store cheaper.
type AddrMap = prefender_sim::Mix64Map<u64>;

/// A yield point no core reaches: [`Machine::step`]'s, and a lone core's.
const NEVER: Cycle = Cycle::new(u64::MAX);

/// Emits the flight recorder's retired-access event — the latency stream a
/// measuring attacker observes. Disarmed (the default) this is one relaxed
/// atomic load; the set index is only computed inside the armed closure.
fn record_access(
    mem: &MemorySystem,
    core: usize,
    pc: u64,
    addr: Addr,
    now: Cycle,
    outcome: &prefender_sim::AccessOutcome,
) {
    let latency = outcome.latency;
    let served_by = outcome.served_by;
    prefender_obs::trace_event(|| prefender_obs::TraceEvent::Access {
        at: u64::from(now),
        core: core as u32,
        pc,
        set: mem.config().l1d.set_index(addr) as u32,
        latency,
        level: match served_by {
            prefender_sim::Level::L1 => 0,
            prefender_sim::Level::L2 => 1,
            prefender_sim::Level::Memory => 2,
        },
    });
}

/// Notifies a core's prefetcher of one demand access and issues the
/// proposed prefetches — over the caller's already-destructured machine
/// fields so `run_core`'s disjoint borrows stay intact. The scratch
/// buffer is cleared (not shrunk) per access: no allocation once warm.
fn notify_access(
    mem: &mut MemorySystem,
    pf: &mut Prefender,
    scratch: &mut Vec<PrefetchRequest>,
    ev: &AccessEvent,
) {
    scratch.clear();
    pf.on_access_into(ev, &|a| mem.probe_l1d(ev.core, a), scratch);
    for r in scratch.iter() {
        mem.prefetch(ev.core, r.addr, r.source, ev.now);
    }
}

/// Hands one register write to the core's Scale Tracker, the only unit
/// that observes retires. `run_core` calls it from each register-writing
/// arm, so the Table III rule can be chosen at compile time.
#[inline(always)]
fn retire(prefetcher: &mut Option<Prefender>, core: usize, pc: u64, instr: &Instr, now: Cycle) {
    debug_assert!(instr.writes_reg(), "`{instr}` retired as a register write");
    if let Some(pf) = prefetcher {
        pf.on_retire(&RetireEvent { core, pc, instr, now });
    }
}

/// `(rX, imm)` for `add rX, rX, imm` and `(rX, -imm)` for `sub rX, rX,
/// imm`: a self-update by an immediate, as the step it adds (wrapping).
fn self_update(instr: &Instr) -> Option<(Reg, u64)> {
    match *instr {
        Instr::Add { rd, a, b: Operand::Imm(imm) } if a == rd => Some((rd, imm as u64)),
        Instr::Sub { rd, a, b: Operand::Imm(imm) } if a == rd => {
            Some((rd, (imm as u64).wrapping_neg()))
        }
        _ => None,
    }
}

/// The step per trip of `cond`, `1` or `u64::MAX` (-1), when `body`, the
/// instructions a backward `bnz cond` jumps over, makes a counted
/// register-only loop: all of them `nop`s or self-updates by an
/// immediate, and their steps to `cond` adding up to +1 or -1.
fn counted_step(body: &[Instr], cond: Reg) -> Option<u64> {
    let mut step = 0u64;
    for instr in body {
        if matches!(instr, Instr::Nop) {
            continue;
        }
        let (rd, delta) = self_update(instr)?;
        if rd == cond {
            step = step.wrapping_add(delta);
        }
    }
    matches!(step, 1 | u64::MAX).then_some(step)
}

/// A multi-core machine: cores + hierarchy + per-core prefetchers + sparse
/// data memory + access trace.
///
/// Cores execute in global time order: each [`Machine::step`] runs one
/// instruction on the core whose `ready_at` is earliest, so two cores'
/// memory accesses interleave exactly as their latencies dictate — the
/// paper's cross-core attacks depend on this.
pub struct Machine {
    cfg: CpuConfig,
    mem: MemorySystem,
    cores: Vec<Core>,
    prefetchers: Vec<Option<Prefender>>,
    data: AddrMap,
    trace: MemTrace,
    /// Reusable prefetch-request buffer handed to
    /// `Prefetcher::on_access_into`: cleared (not shrunk) per access, so
    /// the notify path performs no allocation once warm.
    prefetch_scratch: Vec<PrefetchRequest>,
    /// Observability: runs of consecutive `nop`s that [`Machine::run`]
    /// retired in one dispatch each (always-on plain counter).
    retire_fast_dispatches: u64,
    /// Observability: instructions retired through those batches.
    retire_fast_nops: u64,
    /// Observability: counted-loop fast-forwards (see [`Machine::run`]).
    loop_skips: u64,
    /// Observability: instructions retired through them.
    loop_skipped: u64,
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("cores", &self.cores.len())
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

impl Machine {
    /// Builds a machine over a fresh hierarchy with default CPU options.
    pub fn new(hierarchy: HierarchyConfig) -> Self {
        Self::with_cpu_config(hierarchy, CpuConfig::default())
    }

    /// Builds a machine with explicit CPU options.
    pub fn with_cpu_config(hierarchy: HierarchyConfig, cfg: CpuConfig) -> Self {
        let n = hierarchy.n_cores;
        Machine {
            cfg,
            mem: MemorySystem::new(hierarchy),
            cores: (0..n).map(Core::new).collect(),
            prefetchers: (0..n).map(|_| None).collect(),
            data: AddrMap::default(),
            trace: MemTrace::new(),
            prefetch_scratch: Vec::new(),
            retire_fast_dispatches: 0,
            retire_fast_nops: 0,
            loop_skips: 0,
            loop_skipped: 0,
        }
    }

    /// Returns the machine to its just-constructed state without
    /// releasing any allocation: the hierarchy and every core reset in
    /// place, attached prefetchers keep their configuration but lose all
    /// learned state and counters, and the sparse data memory and trace
    /// are cleared (trace enablement is kept). Behaviour after `reset`
    /// is bit-identical to a freshly built machine with the same
    /// hierarchy, CPU config and prefetcher stack — the contract the
    /// reusable attack runner in `prefender-attacks` builds on.
    pub fn reset(&mut self) {
        self.mem.reset();
        for c in &mut self.cores {
            c.reset();
        }
        for p in self.prefetchers.iter_mut().flatten() {
            p.reset();
        }
        self.data.clear();
        self.trace.clear();
        self.retire_fast_dispatches = 0;
        self.retire_fast_nops = 0;
        self.loop_skips = 0;
        self.loop_skipped = 0;
    }

    /// The memory hierarchy (stats, probes).
    pub fn mem(&self) -> &MemorySystem {
        &self.mem
    }

    /// Mutable hierarchy access (warm-up fills, stat resets).
    pub fn mem_mut(&mut self) -> &mut MemorySystem {
        &mut self.mem
    }

    /// A core, for inspection.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn core(&self, core: usize) -> &Core {
        &self.cores[core]
    }

    /// Number of cores.
    pub fn n_cores(&self) -> usize {
        self.cores.len()
    }

    /// Batched consecutive-`nop` retire dispatches (see [`Machine::run`])
    /// and the instructions they retired — how often the hottest dispatch
    /// shortcut actually fires.
    pub fn retire_fast_path(&self) -> (u64, u64) {
        (self.retire_fast_dispatches, self.retire_fast_nops)
    }

    /// Counted-loop fast-forwards (see [`Machine::run`]) and the
    /// instructions they retired without interpreting them.
    pub fn loop_skips(&self) -> (u64, u64) {
        (self.loop_skips, self.loop_skipped)
    }

    /// The access trace.
    pub fn trace(&self) -> &MemTrace {
        &self.trace
    }

    /// Mutable trace access (enable, clear).
    pub fn trace_mut(&mut self) -> &mut MemTrace {
        &mut self.trace
    }

    /// Attaches a prefetcher to `core`'s L1D, replacing any previous one.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn set_prefetcher(&mut self, core: usize, p: Prefender) {
        self.prefetchers[core] = Some(p);
    }

    /// The prefetcher attached to `core`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn prefetcher(&self, core: usize) -> Option<&Prefender> {
        self.prefetchers[core].as_ref()
    }

    /// Loads `program` on `core`, starting when the core is next free.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn load_program(&mut self, core: usize, program: prefender_isa::Program) {
        let at = self.cores[core].ready_at;
        self.cores[core].load(program, at);
    }

    /// Loads `program` on `core` to begin no earlier than `start`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn load_program_at(&mut self, core: usize, program: prefender_isa::Program, start: Cycle) {
        let at = self.cores[core].ready_at.max(start);
        self.cores[core].load(program, at);
    }

    /// Writes a 64-bit word of simulated data memory.
    pub fn write_data(&mut self, addr: u64, value: u64) {
        self.data.insert(addr, value);
    }

    /// Reads a 64-bit word of simulated data memory (unwritten = 0).
    pub fn read_data(&self, addr: u64) -> u64 {
        self.data.get(&addr).copied().unwrap_or(0)
    }

    /// Latest point in simulated time any core has reached.
    pub fn now(&self) -> Cycle {
        self.cores.iter().map(|c| c.ready_at).max().unwrap_or(Cycle::ZERO)
    }

    fn runnable(&self) -> Option<usize> {
        match self.cores.as_slice() {
            // The overwhelmingly common shapes (single-core cells and
            // two-core cross-core attacks) resolve without the iterator
            // chain; ties keep `min_by_key`'s first-wins order.
            [a] => (a.state == CoreState::Running).then_some(0),
            [a, b] => match (a.state == CoreState::Running, b.state == CoreState::Running) {
                (true, true) => Some(usize::from(b.ready_at < a.ready_at)),
                (true, false) => Some(0),
                (false, true) => Some(1),
                (false, false) => None,
            },
            _ => self
                .cores
                .iter()
                .filter(|c| c.state == CoreState::Running)
                .min_by_key(|c| c.ready_at)
                .map(|c| c.id()),
        }
    }

    /// Where core `c`, the scheduler's choice, stops being it: the
    /// earliest `ready_at` among the other running cores, plus 1 for a
    /// core with a higher index (a tie goes to the lower index, as in
    /// [`Machine::runnable`]). Other cores do not move while `c` runs.
    fn yield_at(&self, c: usize) -> Cycle {
        self.cores
            .iter()
            .enumerate()
            .filter(|&(j, core)| j != c && core.state == CoreState::Running)
            .map(|(j, core)| core.ready_at + u64::from(j > c))
            .min()
            .unwrap_or(NEVER)
    }

    /// Executes one instruction on the earliest-ready running core.
    ///
    /// Returns `false` when no core is runnable. Never batches `nop`s or
    /// skips loop trips.
    pub fn step(&mut self) -> bool {
        let Some(c) = self.runnable() else { return false };
        self.run_core(c, 1, NEVER, false);
        true
    }

    /// Runs until no core is runnable, one [`Machine::step`] at a time,
    /// and calls `sample` whenever [`Machine::now`] reaches the next
    /// sample point (the first `every` cycles after the call, then every
    /// `every` cycles), and once more at the end. Like `step`, it has no
    /// instruction cap.
    pub fn run_sampled(&mut self, every: u64, mut sample: impl FnMut(&Machine)) {
        let mut next = self.now().raw() + every;
        while self.step() {
            if self.now().raw() >= next {
                sample(self);
                next += every;
            }
        }
        sample(self);
    }

    /// Runs until every core halts (or the instruction cap trips), on
    /// exactly the schedule of repeated [`Machine::step`] calls: the
    /// earliest-ready core runs until another core becomes the earliest,
    /// `nop` runs retire in one dispatch where that is unobservable, and
    /// the trips of counted register-only loops are skipped in O(1).
    pub fn run(&mut self) -> RunSummary {
        let start_retired: u64 = self.cores.iter().map(|c| c.retired).sum();
        let mut executed = 0u64;
        while executed < self.cfg.max_instructions {
            let Some(c) = self.runnable() else { break };
            let until = self.yield_at(c);
            let steps = self.run_core(c, self.cfg.max_instructions - executed, until, true);
            debug_assert!(steps > 0, "the scheduler's choice is ready before its yield point");
            executed += steps;
        }
        let total: u64 = self.cores.iter().map(|c| c.retired).sum();
        RunSummary {
            cycles: self.now().raw(),
            instructions: total - start_retired,
            truncated: self.runnable().is_some(),
        }
    }

    /// Runs core `c` until it has taken `budget` steps, halts, or its
    /// `ready_at` reaches `until`. Returns the steps taken: one per
    /// instruction, one for running off the program's end, and a whole
    /// batch's length for a batch of `nop`s.
    ///
    /// `batch_nops` retires a run of consecutive `nop`s (at most the rest
    /// of `budget`) in one dispatch. That is only legal when instruction
    /// fetch is unmodelled (each fetch would touch the L1I). A `nop`
    /// writes no register, so no prefetcher observes its retire: it has
    /// *no* effect beyond `ready_at`/`pc_index`/`retired`
    /// bookkeeping, so retiring `k` of them at once is indistinguishable
    /// from `k` single steps (including to the other cores: a `nop`
    /// never touches the memory system, so interleaving order against
    /// other cores' accesses is unobservable). Attack programs spend
    /// ~80% of their retired instructions in measurement-spacing `nop`
    /// runs, which makes this the single hottest dispatch shortcut.
    ///
    /// With fetch modelled, fetches of the line just fetched form a
    /// [`FetchRun`], handed to the hierarchy before each `ld`, `st` or
    /// `flush` and on return. Only those three and fetches reach the
    /// hierarchy, and another core never runs inside this call, so the
    /// L1I ends each run exactly as one fetch at a time would leave it.
    ///
    /// A taken backward `bnz cond, top` at `j` closes a *counted
    /// register-only loop* when every instruction in `top..j` is a `nop`
    /// or an `add`/`sub rX, rX, imm`, their steps to `cond` add up to +1
    /// or -1 per trip, and, with fetch modelled, `top` and `j` lie on the
    /// line of the open fetch run (so every fetch of a trip is a counted
    /// repeat hit; an armed flight recorder never opens a run). Such a
    /// loop reads no register but its own, touches no memory and only
    /// feeds the Scale Tracker's additive rule, so the state `k` more
    /// trips leave is known in closed form: each register gains `k` times
    /// its steps, the Scale Tracker takes
    /// [`Prefender::on_retire_repeated`], the fetch run counts `k` trips'
    /// fetches, and `ready_at`, `retired` and the steps grow by `k`
    /// trips' worth. `k` is the fewest of the trips left before the one
    /// that exits, the whole trips the rest of `budget` allows (so
    /// [`Machine::step`] never skips) and the trips whose `bnz` starts
    /// before `until`: the exiting trip, a partial trip at the cap and
    /// the other cores' turns stay interpreted.
    fn run_core(&mut self, c: usize, budget: u64, until: Cycle, batch_nops: bool) -> u64 {
        // One destructure up front: every field borrow below is disjoint,
        // so the dispatch loop pays the `cores[c]` bounds check once
        // instead of once per register access.
        let Machine {
            cfg,
            mem,
            cores,
            prefetchers,
            data,
            trace,
            prefetch_scratch,
            retire_fast_dispatches,
            retire_fast_nops,
            loop_skips,
            loop_skipped,
        } = self;
        let core = &mut cores[c];
        let prog = core.program.as_ref().expect("running core has a program");
        let prefetcher = &mut prefetchers[c];
        let batch_nops = batch_nops && !cfg.model_fetch;
        let mut pc_index = core.pc_index;
        let mut ready_at = core.ready_at;
        let mut retired = core.retired;
        let mut steps = 0u64;
        let mut run = FetchRun::default();
        while steps < budget && ready_at < until {
            let Some(&instr) = prog.instr(pc_index) else {
                core.state = CoreState::Halted;
                steps += 1;
                break;
            };
            if batch_nops && matches!(instr, Instr::Nop) {
                let mut k = 1u64;
                while k < budget - steps
                    && matches!(prog.instr(pc_index + k as usize), Some(Instr::Nop))
                {
                    k += 1;
                }
                pc_index += k as usize;
                ready_at += k * ALU_COST;
                retired += k;
                steps += k;
                *retire_fast_dispatches += 1;
                *retire_fast_nops += k;
                continue;
            }
            let pc = prog.pc_of(pc_index);
            let mut t = ready_at;

            if cfg.model_fetch {
                t += mem.fetch_in_run(c, Addr::new(pc), t, &mut run);
            }

            let mut next = pc_index + 1;
            let cost = match instr {
                Instr::LoadImm { rd, imm } => {
                    core.regs.write(rd, imm as u64);
                    retire(prefetcher, c, pc, &instr, t);
                    ALU_COST
                }
                Instr::Load { rd, base, offset } => {
                    mem.end_fetch_run(c, &mut run);
                    let addr = Addr::new(core.regs.read(base).wrapping_add(offset as u64));
                    let outcome = mem.access(c, addr, AccessKind::Read, t);
                    let value = data.get(&addr.raw()).copied().unwrap_or(0);
                    core.regs.write(rd, value);
                    trace.record(TraceEntry {
                        core: c,
                        pc,
                        addr,
                        kind: AccessKind::Read,
                        latency: outcome.latency,
                        served_by: outcome.served_by,
                        at: t,
                    });
                    record_access(mem, c, pc, addr, t, &outcome);
                    if let Some(pf) = prefetcher.as_mut() {
                        let ev = AccessEvent {
                            core: c,
                            pc,
                            vaddr: addr,
                            base: Some(base),
                            kind: AccessKind::Read,
                            outcome,
                            now: t,
                        };
                        notify_access(mem, pf, prefetch_scratch, &ev);
                    }
                    retire(prefetcher, c, pc, &instr, t);
                    outcome.latency
                }
                Instr::Store { src, base, offset } => {
                    mem.end_fetch_run(c, &mut run);
                    let addr = Addr::new(core.regs.read(base).wrapping_add(offset as u64));
                    let outcome = mem.access(c, addr, AccessKind::Write, t);
                    let value = core.regs.read(src);
                    data.insert(addr.raw(), value);
                    trace.record(TraceEntry {
                        core: c,
                        pc,
                        addr,
                        kind: AccessKind::Write,
                        latency: outcome.latency,
                        served_by: outcome.served_by,
                        at: t,
                    });
                    record_access(mem, c, pc, addr, t, &outcome);
                    if let Some(pf) = prefetcher.as_mut() {
                        let ev = AccessEvent {
                            core: c,
                            pc,
                            vaddr: addr,
                            base: Some(base),
                            kind: AccessKind::Write,
                            outcome,
                            now: t,
                        };
                        notify_access(mem, pf, prefetch_scratch, &ev);
                    }
                    STORE_COST
                }
                Instr::Add { rd, a, b } => {
                    let v = core.regs.read(a).wrapping_add(core.regs.value(b));
                    core.regs.write(rd, v);
                    retire(prefetcher, c, pc, &instr, t);
                    ALU_COST
                }
                Instr::Sub { rd, a, b } => {
                    let v = core.regs.read(a).wrapping_sub(core.regs.value(b));
                    core.regs.write(rd, v);
                    retire(prefetcher, c, pc, &instr, t);
                    ALU_COST
                }
                Instr::Mul { rd, a, b } => {
                    let v = core.regs.read(a).wrapping_mul(core.regs.value(b));
                    core.regs.write(rd, v);
                    retire(prefetcher, c, pc, &instr, t);
                    MUL_COST
                }
                Instr::Shl { rd, a, b } => {
                    let sh = core.regs.value(b) & 63;
                    let v = core.regs.read(a).wrapping_shl(sh as u32);
                    core.regs.write(rd, v);
                    retire(prefetcher, c, pc, &instr, t);
                    ALU_COST
                }
                Instr::Shr { rd, a, b } => {
                    let sh = core.regs.value(b) & 63;
                    let v = core.regs.read(a).wrapping_shr(sh as u32);
                    core.regs.write(rd, v);
                    retire(prefetcher, c, pc, &instr, t);
                    ALU_COST
                }
                Instr::And { rd, a, b } => {
                    let v = core.regs.read(a) & core.regs.value(b);
                    core.regs.write(rd, v);
                    retire(prefetcher, c, pc, &instr, t);
                    ALU_COST
                }
                Instr::Or { rd, a, b } => {
                    let v = core.regs.read(a) | core.regs.value(b);
                    core.regs.write(rd, v);
                    retire(prefetcher, c, pc, &instr, t);
                    ALU_COST
                }
                Instr::Xor { rd, a, b } => {
                    let v = core.regs.read(a) ^ core.regs.value(b);
                    core.regs.write(rd, v);
                    retire(prefetcher, c, pc, &instr, t);
                    ALU_COST
                }
                Instr::Mov { rd, rs } => {
                    let v = core.regs.read(rs);
                    core.regs.write(rd, v);
                    retire(prefetcher, c, pc, &instr, t);
                    ALU_COST
                }
                Instr::Flush { base, offset } => {
                    mem.end_fetch_run(c, &mut run);
                    let addr = Addr::new(core.regs.read(base).wrapping_add(offset as u64));
                    let lat = mem.flush(addr, t);
                    FLUSH_COST + lat
                }
                Instr::Rdtsc { rd } => {
                    core.regs.write(rd, t.raw());
                    retire(prefetcher, c, pc, &instr, t);
                    ALU_COST
                }
                Instr::Nop => ALU_COST,
                Instr::Jmp { target } => {
                    next = target;
                    BRANCH_COST
                }
                Instr::Bnz { cond, target } => {
                    let r = core.regs.read(cond);
                    let mut cost = BRANCH_COST;
                    if r != 0 {
                        next = target;
                        // A counted register-only loop: skip `k` trips.
                        let body = prog.instrs().get(target..pc_index).unwrap_or_default();
                        let on_run = |i| {
                            !cfg.model_fetch || mem.in_fetch_run(&run, Addr::new(prog.pc_of(i)))
                        };
                        let step =
                            counted_step(body, cond).filter(|_| on_run(target) && on_run(pc_index));
                        if let Some(step) = step {
                            let len = body.len() as u64 + 1;
                            let trip = (len - 1) * ALU_COST + BRANCH_COST;
                            // Trips until `cond` reaches 0, the exiting
                            // one included. Trip i's `bnz` starts at
                            // t + i·trip; `trip.max(1)` only skips fewer
                            // zero-cost trips, which is still exact.
                            let to_exit = if step == 1 { r.wrapping_neg() } else { r };
                            let k = (to_exit - 1)
                                .min((budget - steps - 1) / len)
                                .min(until.raw().saturating_sub(t.raw() + 1) / trip.max(1));
                            if k > 0 {
                                for instr in body {
                                    if let Some((rd, delta)) = self_update(instr) {
                                        let v =
                                            core.regs.read(rd).wrapping_add(delta.wrapping_mul(k));
                                        core.regs.write(rd, v);
                                    }
                                }
                                if let Some(pf) = prefetcher.as_mut() {
                                    pf.on_retire_repeated(body, k);
                                }
                                if cfg.model_fetch {
                                    run.repeat(k * len, t + k * trip);
                                }
                                cost += k * trip;
                                retired += k * len;
                                steps += k * len;
                                *loop_skips += 1;
                                *loop_skipped += k * len;
                            }
                        }
                    }
                    cost
                }
                Instr::Beq { a, b, target } => {
                    if core.regs.read(a) == core.regs.read(b) {
                        next = target;
                    }
                    BRANCH_COST
                }
                Instr::Blt { a, b, target } => {
                    if core.regs.read(a) < core.regs.read(b) {
                        next = target;
                    }
                    BRANCH_COST
                }
                Instr::Halt => {
                    core.state = CoreState::Halted;
                    0
                }
            };

            pc_index = next;
            ready_at = t + cost;
            retired += 1;
            steps += 1;
            if matches!(instr, Instr::Halt) {
                break;
            }
        }
        mem.end_fetch_run(c, &mut run);
        core.pc_index = pc_index;
        core.ready_at = ready_at;
        core.retired = retired;
        steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prefender_core::BasicPrefetcher;
    use prefender_isa::Program;
    use prefender_prefetch::TaggedPrefetcher;

    fn machine() -> Machine {
        Machine::new(HierarchyConfig::paper_baseline(1).unwrap())
    }

    /// A Tagged prefetcher alone: PREFENDER with every unit off.
    fn tagged() -> Prefender {
        Prefender::builder(64, 4096)
            .scale_tracker(false)
            .access_tracker(false)
            .record_protector(false)
            .basic(BasicPrefetcher::Tagged(TaggedPrefetcher::new(64, 1)))
            .build()
    }

    #[test]
    fn arithmetic_program_computes() {
        let mut m = machine();
        m.load_program(
            0,
            Program::parse(
                "
                li r1, 6
                li r2, 7
                mul r3, r1, r2
                add r3, r3, 0x100
                halt
                ",
            )
            .unwrap(),
        );
        m.run();
        assert_eq!(m.core(0).regs().read(Reg::R3), 42 + 0x100);
        assert_eq!(m.core(0).state(), CoreState::Halted);
    }

    #[test]
    fn loads_return_stored_data() {
        let mut m = machine();
        m.write_data(0x5000, 0xDEAD);
        m.load_program(0, Program::parse("li r1, 0x5000\nld r2, 0(r1)\nhalt\n").unwrap());
        m.run();
        assert_eq!(m.core(0).regs().read(Reg::R2), 0xDEAD);
    }

    #[test]
    fn store_then_load_round_trips() {
        let mut m = machine();
        m.load_program(
            0,
            Program::parse("li r1, 0x6000\nli r2, 99\nst r2, 8(r1)\nld r3, 8(r1)\nhalt\n").unwrap(),
        );
        m.run();
        assert_eq!(m.core(0).regs().read(Reg::R3), 99);
        assert_eq!(m.read_data(0x6008), 99);
    }

    #[test]
    fn loop_executes_expected_iterations() {
        let mut m = machine();
        m.load_program(
            0,
            Program::parse(
                "
                li r1, 10
                li r2, 0
                top:
                add r2, r2, 1
                sub r1, r1, 1
                bnz r1, top
                halt
                ",
            )
            .unwrap(),
        );
        let s = m.run();
        assert_eq!(m.core(0).regs().read(Reg::R2), 10);
        assert_eq!(s.instructions, 2 + 3 * 10 + 1);
    }

    #[test]
    fn cold_load_costs_memory_latency() {
        let mut m = machine();
        m.trace_mut().set_enabled(true);
        m.load_program(
            0,
            Program::parse("li r1, 0x9000\nld r2, 0(r1)\nld r3, 0(r1)\nhalt\n").unwrap(),
        );
        m.run();
        let t = m.trace().entries();
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].latency, 200);
        assert_eq!(t[1].latency, 4);
    }

    #[test]
    fn rdtsc_measures_latency_difference() {
        let mut m = machine();
        // Warm r4's line, then time a hit and a (flushed) miss.
        m.load_program(
            0,
            Program::parse(
                "
                li r1, 0x9000
                ld r2, 0(r1)      ; warm
                rdtsc r5
                ld r2, 0(r1)      ; hit
                rdtsc r6
                flush 0(r1)
                rdtsc r7
                ld r2, 0(r1)      ; miss
                rdtsc r8
                halt
                ",
            )
            .unwrap(),
        );
        m.run();
        let hit = m.core(0).regs().read(Reg::R6) - m.core(0).regs().read(Reg::R5);
        let miss = m.core(0).regs().read(Reg::R8) - m.core(0).regs().read(Reg::R7);
        assert!(miss > hit + 100, "hit {hit} vs miss {miss}");
    }

    #[test]
    fn flush_forces_next_load_to_memory() {
        let mut m = machine();
        m.trace_mut().set_enabled(true);
        m.load_program(
            0,
            Program::parse("li r1, 0x9000\nld r2, 0(r1)\nflush 0(r1)\nld r2, 0(r1)\nhalt\n")
                .unwrap(),
        );
        m.run();
        let t = m.trace().entries();
        assert_eq!(t[1].latency, 200);
    }

    #[test]
    fn prefetcher_receives_events_and_prefetches() {
        let mut m = machine();
        m.set_prefetcher(0, tagged());
        m.trace_mut().set_enabled(true);
        // Miss on 0x9000 triggers next-line prefetch of 0x9040; a later
        // access to 0x9040 should be (at least partially) covered.
        m.load_program(
            0,
            Program::parse(
                "
                li r1, 0x9000
                ld r2, 0(r1)
                li r3, 1000
                spin:
                sub r3, r3, 1
                bnz r3, spin
                ld r2, 64(r1)
                halt
                ",
            )
            .unwrap(),
        );
        m.run();
        assert_eq!(m.prefetcher(0).unwrap().issued(), 2, "miss + chained tag-bit use");
        let entries = m.trace().entries();
        let covered = entries.iter().find(|e| e.addr.raw() == 0x9040).unwrap();
        assert!(covered.latency <= 4, "prefetched line should be an L1 hit");
    }

    #[test]
    fn two_cores_interleave_in_time() {
        let mut m = Machine::new(HierarchyConfig::paper_baseline(2).unwrap());
        m.trace_mut().set_enabled(true);
        m.load_program(0, Program::parse("li r1, 0x9000\nld r2, 0(r1)\nhalt\n").unwrap());
        m.load_program(1, Program::parse("li r1, 0xA000\nld r2, 0(r1)\nhalt\n").unwrap());
        m.run();
        assert_eq!(m.core(0).state(), CoreState::Halted);
        assert_eq!(m.core(1).state(), CoreState::Halted);
        assert_eq!(m.trace().by_core(0).count(), 1);
        assert_eq!(m.trace().by_core(1).count(), 1);
    }

    #[test]
    fn cross_core_sharing_through_l2() {
        let mut m = Machine::new(HierarchyConfig::paper_baseline(2).unwrap());
        m.trace_mut().set_enabled(true);
        m.load_program(0, Program::parse("li r1, 0x9000\nld r2, 0(r1)\nhalt\n").unwrap());
        m.run();
        m.load_program(1, Program::parse("li r1, 0x9000\nld r2, 0(r1)\nhalt\n").unwrap());
        m.run();
        let second = m.trace().by_core(1).next().unwrap();
        assert_eq!(second.served_by, prefender_sim::Level::L2);
    }

    #[test]
    fn instruction_cap_truncates() {
        let mut m = Machine::with_cpu_config(
            HierarchyConfig::paper_baseline(1).unwrap(),
            CpuConfig { max_instructions: 10, ..CpuConfig::default() },
        );
        m.load_program(0, Program::parse("top: jmp top\n").unwrap());
        let s = m.run();
        assert!(s.truncated);
        assert_eq!(s.instructions, 10);
    }

    #[test]
    fn retire_fast_path_counters_track_batches() {
        let mut m = Machine::with_cpu_config(
            HierarchyConfig::paper_baseline(1).unwrap(),
            CpuConfig { model_fetch: false, ..CpuConfig::default() },
        );
        m.load_program(0, Program::parse("nop\nnop\nnop\nli r1, 1\nnop\nnop\nhalt\n").unwrap());
        m.run();
        let (dispatches, nops) = m.retire_fast_path();
        assert_eq!(dispatches, 2, "two separate nop runs");
        assert_eq!(nops, 5);
        m.reset();
        assert_eq!(m.retire_fast_path(), (0, 0));
        // With fetch modelled the fast path must not fire at all.
        let mut slow = machine();
        slow.load_program(0, Program::parse("nop\nnop\nhalt\n").unwrap());
        slow.run();
        assert_eq!(slow.retire_fast_path(), (0, 0));
    }

    #[test]
    fn running_off_the_end_halts() {
        let mut m = machine();
        m.load_program(0, Program::parse("nop\n").unwrap());
        let s = m.run();
        assert!(!s.truncated);
        assert_eq!(m.core(0).state(), CoreState::Halted);
    }

    #[test]
    fn halting_at_the_cap_is_not_truncation() {
        let capped = |src: &str| {
            let mut m = Machine::with_cpu_config(
                HierarchyConfig::paper_baseline(1).unwrap(),
                CpuConfig { max_instructions: 3, ..CpuConfig::default() },
            );
            m.load_program(0, Program::parse(src).unwrap());
            let s = m.run();
            assert_eq!(m.core(0).state(), CoreState::Halted, "{src:?}");
            s
        };
        assert_eq!(
            capped("li r1, 1\nli r2, 2\nhalt\n"),
            RunSummary { cycles: 202, instructions: 3, truncated: false }
        );
        // Running off the end is the third step: still a halt, not a cut.
        assert_eq!(
            capped("li r1, 1\nli r2, 2\n"),
            RunSummary { cycles: 202, instructions: 2, truncated: false }
        );
    }

    /// Three code lines A, B and C of one set of the tiny 2-way L1I, 128
    /// instructions apart (the gaps are never executed), visited A, B, A,
    /// C each trip. B is a lone `jmp`, so A's second visit starts as a
    /// repeat hit: which line C's miss evicts depends on the recency that
    /// visit leaves. Each trip stores to and loads from two data lines of
    /// A's L2 set, which soon evicts A from the L2, and so from the L1I,
    /// in the middle of a visit; C flushes itself while it runs and sums
    /// `rdtsc` readings, so a fetch that should have missed shows in r5.
    fn one_set_code_lines(trips: usize) -> Program {
        let a = format!(
            "li r1, 0x8800\nli r7, 0x8400\nli r4, {trips}\ntop:\nxor r9, r3, r4\n\
             st r3, 2048(r1)\njmp lb\nla:\nadd r3, r3, r2\nld r2, 0(r1)\nshl r6, r3, 2\n\
             or r6, r6, 1\nadd r1, r1, 4096\njmp lc\n"
        );
        let a_len = a.lines().filter(|l| !l.ends_with(':')).count();
        let pad = |from: usize, to: usize| "nop\n".repeat(to - from);
        let src = format!(
            "{a}{}lb:\njmp la\n{}lc:\nsub r4, r4, 1\nrdtsc r8\nadd r5, r5, r8\nflush 0(r7)\n\
             bnz r4, top\nhalt\n",
            pad(a_len, 128),
            pad(129, 256),
        );
        Program::parse(&src).unwrap()
    }

    /// PREFENDER with every unit on and no basic prefetcher: the Scale
    /// Tracker sees every retire.
    fn full() -> Prefender {
        Prefender::builder(64, 4096).build()
    }

    /// Three counted register-only loops on the tiny hierarchy. The first
    /// steps its counter by -1 on one L1I line; a run capped at 17 ends
    /// right after its skipped trips. It steps r2, loaded from memory (its
    /// fixed value NA) and scaled by `mul`, and r3, set by `li` (its fixed
    /// value known). The second, also on one line, holds a `nop` and
    /// steps its counter by +3 and -2, from -40 or below up to 0. Then the
    /// program flushes that line, which another core may still be looping
    /// on. The third straddles L1I lines 1 to 17, three lines of one
    /// 2-way set, so each of its trips misses; with fetch modelled it is
    /// never skipped. A last load through r2 lets the Scale Tracker
    /// prefetch.
    fn counted_loops(trips: usize) -> Program {
        let src = format!(
            "li r1, 0x9000\nld r2, 0(r1)\nmul r2, r2, 0x200\nli r3, 0x40\nli r4, {}\n\
             top1:\nadd r2, r2, 64\nadd r3, r3, 8\nsub r4, r4, 1\nbnz r4, top1\n\
             li r5, -{}\ntop2:\nnop\nadd r5, r5, 3\nadd r6, r6, 5\nsub r5, r5, 2\nbnz r5, top2\n\
             li r11, 0x8000\nflush 0(r11)\nli r7, {trips}\n\
             top3:\nadd r8, r8, 1\n{}sub r7, r7, 1\nbnz r7, top3\n\
             add r9, r1, r2\nld r10, 0(r9)\nhalt\n",
            4 * trips,
            8 * trips + 16,
            "nop\n".repeat(254),
        );
        let p = Program::parse(&src).unwrap();
        assert_eq!((p.pc_of(5) >> 6, p.pc_of(8) >> 6), (0x200, 0x200));
        assert_eq!((p.pc_of(10) >> 6, p.pc_of(14) >> 6), (0x200, 0x200));
        assert_eq!((p.pc_of(18) >> 6, p.pc_of(274) >> 6), (0x201, 0x211));
        p
    }

    #[test]
    fn run_takes_the_single_step_schedule() {
        // Every core runs the same loop over shared lines, a different
        // number of times, so the cores tie, interleave and flush each
        // other's lines; `run` must take exactly the schedule of `step`.
        fn strided(trips: usize) -> Program {
            let src = format!(
                "li r1, 0x9000\nli r4, {trips}\ntop:\nld r2, 0(r1)\nnop\nnop\nnop\n\
                 st r2, 64(r1)\nflush 0(r1)\nadd r1, r1, 64\nsub r4, r4, 1\nbnz r4, top\nhalt\n"
            );
            Program::parse(&src).unwrap()
        }
        type Input = (
            fn(usize) -> Result<HierarchyConfig, prefender_sim::ConfigError>,
            fn(usize) -> Program,
            fn() -> Prefender,
        );
        let build =
            |(hierarchy, program, prefetcher): Input, cores: usize, model_fetch: bool, cap: u64| {
                let mut m = Machine::with_cpu_config(
                    hierarchy(cores).unwrap(),
                    CpuConfig { model_fetch, max_instructions: cap },
                );
                m.trace_mut().set_enabled(true);
                for c in 0..cores {
                    m.set_prefetcher(c, prefetcher());
                    m.load_program(c, program(3 + 2 * c));
                }
                m
            };
        let uncapped = CpuConfig::default().max_instructions;
        let strided: Input = (HierarchyConfig::paper_baseline, strided, tagged);
        let code_lines: Input = (HierarchyConfig::tiny, one_set_code_lines, tagged);
        let counted: Input = (HierarchyConfig::tiny, counted_loops, full);
        for (name, input) in
            [("strided", strided), ("code lines", code_lines), ("counted", counted)]
        {
            for cores in 1..=3 {
                for model_fetch in [true, false] {
                    for cap in [uncapped, 17] {
                        let case = format!(
                            "{name}: {cores} cores, fetch modelled {model_fetch}, cap {cap}"
                        );
                        let mut run = build(input, cores, model_fetch, cap);
                        run.run();
                        let mut stepped = build(input, cores, model_fetch, cap);
                        let mut steps = 0;
                        while steps < cap && stepped.step() {
                            steps += 1;
                        }
                        assert_eq!(run.trace().entries(), stepped.trace().entries(), "{case}");
                        assert!(!run.trace().entries().is_empty(), "{case}");
                        assert_eq!(run.now(), stepped.now(), "{case}");
                        // The equivalence must not hold for want of a skip.
                        assert_eq!(stepped.loop_skips(), (0, 0), "{case}");
                        if name == "counted" && cap == uncapped {
                            assert!(run.loop_skips().0 > 0, "{case}");
                        }
                        for c in 0..cores {
                            let (r, s) = (run.core(c), stepped.core(c));
                            assert_eq!(
                                (r.ready_at(), r.retired()),
                                (s.ready_at(), s.retired()),
                                "{case}"
                            );
                            assert_eq!(r.regs(), s.regs(), "{case}");
                            let calc = |m: &Machine| {
                                m.prefetcher(c)
                                    .and_then(Prefender::scale_tracker)
                                    .map(|st| st.calc().clone())
                            };
                            assert_eq!(calc(&run), calc(&stepped), "{case}");
                            assert_eq!(
                                run.prefetcher(c).unwrap().stats(),
                                stepped.prefetcher(c).unwrap().stats(),
                                "{case}"
                            );
                            let (rm, sm) = (run.mem(), stepped.mem());
                            assert_eq!(rm.l1i(c).stats(), sm.l1i(c).stats(), "{case}");
                            assert_eq!(rm.l1i(c).recency(), sm.l1i(c).recency(), "{case}");
                            assert_eq!(rm.l1d(c).stats(), sm.l1d(c).stats(), "{case}");
                        }
                        assert_eq!(run.mem().l2().stats(), stepped.mem().l2().stats(), "{case}");
                    }
                }
            }
        }

        // No artifact records the L1I counters, so the code-lines run on
        // one core is pinned as golden values.
        let mut m = build(code_lines, 1, true, uncapped);
        assert_eq!(m.run(), RunSummary { cycles: 2185, instructions: 49, truncated: false });
        assert_eq!(m.core(0).regs().read(Reg::R5), 4261);
        let stats = |s: &prefender_sim::CacheStats| {
            [
                s.demand_accesses,
                s.demand_hits,
                s.demand_misses,
                s.demand_miss_latency,
                s.evictions,
                s.invalidations,
                s.flushes,
                s.writebacks,
                s.prefetch_fills,
                s.prefetch_useful,
                s.prefetch_late,
                s.prefetch_unused,
            ]
        };
        assert_eq!(stats(m.mem().l1i(0).stats()), [49, 38, 11, 1480, 5, 4, 3, 0, 0, 0, 0, 0]);
        assert_eq!(stats(m.mem().l1d(0).stats()), [6, 0, 6, 1200, 8, 0, 0, 0, 6, 0, 0, 4]);
        assert_eq!(stats(m.mem().l2().stats()), [17, 4, 13, 2600, 6, 3, 3, 2, 6, 0, 0, 2]);
        assert_eq!(m.mem().l1i(0).resident_lines(), vec![Addr::new(0x8000), Addr::new(0x8400)]);
    }

    #[test]
    fn run_sampled_takes_the_step_loop() {
        type Sample = (Cycle, u64, prefender_core::PrefenderStats, usize);
        let sample = |m: &Machine| {
            let pf = m.prefetcher(0).unwrap();
            (m.now(), m.core(0).retired(), pf.stats(), pf.protected_count())
        };
        // The loop `run_sampled` replaces.
        let stepped = |m: &mut Machine, every: u64, out: &mut Vec<Sample>| {
            let mut next = m.now().raw() + every;
            while m.step() {
                if m.now().raw() >= next {
                    out.push(sample(m));
                    next += every;
                }
            }
            out.push(sample(m));
        };
        for cores in [1, 2] {
            for every in [150, 1 << 40] {
                let build = || {
                    let mut m = Machine::new(HierarchyConfig::tiny(cores).unwrap());
                    m.trace_mut().set_enabled(true);
                    for c in 0..cores {
                        m.set_prefetcher(c, full());
                    }
                    m
                };
                let (mut sampled, mut step) = (build(), build());
                let (mut got, mut want) = (Vec::new(), Vec::new());
                // Two phases, so the second starts its sample points late.
                for trips in [3, 5] {
                    for c in 0..cores {
                        sampled.load_program(c, counted_loops(trips + 2 * c));
                        step.load_program(c, counted_loops(trips + 2 * c));
                    }
                    sampled.run_sampled(every, |m| got.push(sample(m)));
                    stepped(&mut step, every, &mut want);
                }
                let case = format!("{cores} cores, every {every}");
                assert_eq!(got, want, "{case}");
                if every == 150 {
                    assert!(got.len() > 2, "{case}: {} samples", got.len());
                } else {
                    assert_eq!(got.len(), 2, "{case}: only each phase's final sample");
                }
                assert_eq!(got.last().unwrap().0, sampled.now(), "{case}");
                assert_eq!(sampled.trace().entries(), step.trace().entries(), "{case}");
                for c in 0..cores {
                    let (a, b) = (sampled.core(c), step.core(c));
                    assert_eq!((a.ready_at(), a.retired()), (b.ready_at(), b.retired()), "{case}");
                    assert_eq!(a.regs(), b.regs(), "{case}");
                    assert_eq!(sampled.mem().l1d(c).stats(), step.mem().l1d(c).stats(), "{case}");
                }
            }
        }
    }

    #[test]
    fn summary_display() {
        let s = RunSummary { cycles: 100, instructions: 50, truncated: false };
        assert!(s.to_string().contains("IPC 0.500"));
    }

    fn attack_like_program() -> Program {
        Program::parse(
            "
            li r1, 0x9000
            ld r2, 0(r1)
            ld r3, 64(r1)
            flush 0(r1)
            ld r2, 0(r1)
            st r2, 128(r1)
            halt
            ",
        )
        .unwrap()
    }

    #[test]
    fn reset_replays_bit_identically_to_fresh() {
        let build = || {
            let mut m = Machine::new(HierarchyConfig::paper_baseline(1).unwrap());
            m.set_prefetcher(0, tagged());
            m.trace_mut().set_enabled(true);
            m
        };
        let mut fresh = build();
        fresh.write_data(0x9000, 7);
        fresh.load_program(0, attack_like_program());
        let fresh_summary = fresh.run();

        let mut reused = build();
        reused.write_data(0x9040, 99); // different data, to be wiped
        reused.load_program(0, attack_like_program());
        reused.run();
        reused.reset();
        assert_eq!(reused.now(), Cycle::ZERO);
        assert_eq!(reused.core(0).state(), CoreState::Idle);
        assert_eq!(reused.read_data(0x9040), 0, "data memory cleared");
        assert_eq!(reused.prefetcher(0).unwrap().issued(), 0);
        assert!(reused.trace().entries().is_empty());
        assert!(reused.trace().is_enabled(), "enablement survives reset");

        reused.write_data(0x9000, 7);
        reused.load_program(0, attack_like_program());
        let replay = reused.run();
        assert_eq!(replay, fresh_summary);
        assert_eq!(reused.trace().entries(), fresh.trace().entries());
        assert_eq!(reused.mem().l1d(0).stats(), fresh.mem().l1d(0).stats());
        assert_eq!(reused.core(0).regs().read(Reg::R2), fresh.core(0).regs().read(Reg::R2));
    }
}
