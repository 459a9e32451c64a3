//! Performance sweep: run the synthetic SPEC-like workloads under every
//! prefetcher and print a Table IV-style speedup summary — the
//! performance half of the paper's claim ("security *and* performance").
//!
//! ```sh
//! cargo run --release --example performance_sweep
//! ```

use prefender::attacks::Basic;
use prefender::stats::{speedup_pct, Table};
use prefender::sweep::{workload_machine, DefensePoint, Hierarchy};
use prefender::{spec2006, DefenseConfig, Workload};

fn run_once(w: &Workload, defense: DefenseConfig, basic: Basic) -> u64 {
    workload_machine(w, DefensePoint::new(defense), basic, Hierarchy::Paper).run().cycles
}

fn main() {
    let configs = [
        ("Tagged", DefenseConfig::None, Basic::Tagged),
        ("Stride", DefenseConfig::None, Basic::Stride),
        ("Prefender", DefenseConfig::Full, Basic::None),
        ("Prefender(Stride)", DefenseConfig::Full, Basic::Stride),
    ];

    let mut headers = vec!["Benchmark".to_string(), "Base cycles".to_string()];
    headers.extend(configs.iter().map(|(n, ..)| n.to_string()));
    let mut table = Table::new(headers);

    for w in spec2006() {
        let base = run_once(&w, DefenseConfig::None, Basic::None);
        let mut cells = vec![w.name().to_string(), base.to_string()];
        for &(_, defense, basic) in &configs {
            let cycles = run_once(&w, defense, basic);
            cells.push(format!("{:+.2}%", speedup_pct(base as f64, cycles as f64)));
        }
        table.row(cells);
    }
    println!("{table}");
    println!("(speedup vs. a machine with no prefetcher; positive = faster)");
}
