//! # prefender-cpu — timing interpreter and machine model
//!
//! Executes [`prefender-isa`](prefender_isa) programs against a
//! [`prefender-sim`](prefender_sim) memory hierarchy with per-instruction
//! cycle accounting:
//!
//! * loads block the core for their full load-to-use latency — exactly the
//!   signal cache side-channel attacks measure;
//! * a per-core [`Prefender`](prefender_core::Prefender) (PREFENDER's
//!   units over an optional basic prefetcher) observes every retired
//!   register writer and every L1D access, and its requests are issued
//!   into the hierarchy;
//! * multiple cores interleave in time order, sharing the inclusive L2 —
//!   the substrate for the paper's cross-core attacks (Figure 4);
//! * an optional memory-access trace records `(pc, addr, latency)` for the
//!   attack analysis harness.
//!
//! The paper evaluated on gem5's out-of-order CPU. This model is in-order;
//! see DESIGN.md for why that substitution preserves both the security and
//! the relative-performance results.
//!
//! ```
//! use prefender_cpu::Machine;
//! use prefender_isa::Program;
//! use prefender_sim::HierarchyConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut m = Machine::new(HierarchyConfig::paper_baseline(1)?);
//! m.load_program(0, Program::parse("li r1, 0x1000\nld r2, 0(r1)\nhalt\n")?);
//! let summary = m.run();
//! assert_eq!(summary.instructions, 3);
//! assert!(summary.cycles > 200, "the cold load missed to memory");
//! # Ok(())
//! # }
//! ```

mod core_model;
mod machine;
mod regfile;
mod trace;

pub use core_model::{Core, CoreState};
pub use machine::{CpuConfig, Machine, RunSummary};
pub use regfile::RegFile;
pub use trace::{MemTrace, TraceEntry};
