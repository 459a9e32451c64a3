//! Performance sweep: run the synthetic SPEC-like workloads under every
//! prefetcher and print a Table IV-style speedup summary — the
//! performance half of the paper's claim ("security *and* performance").
//!
//! ```sh
//! cargo run --release --example performance_sweep
//! ```

use prefender::attacks::Basic;
use prefender::stats::{speedup_pct, Table};
use prefender::{
    spec2006, BasicPrefetcher, DefenseConfig, HierarchyConfig, Machine, Prefender,
    StridePrefetcher, Workload,
};

fn run_once(w: &Workload, prefetcher: Option<Prefender>) -> u64 {
    let mut m = Machine::new(HierarchyConfig::paper_baseline(1).expect("valid baseline"));
    if let Some(p) = prefetcher {
        m.set_prefetcher(0, p);
    }
    w.install(&mut m);
    m.run().cycles
}

type BuildFn = fn() -> Option<Prefender>;

fn main() {
    let configs: Vec<(&str, BuildFn)> = vec![
        ("Tagged", || DefenseConfig::None.build_prefetcher(64, 4096, 32, Basic::Tagged)),
        ("Stride", || DefenseConfig::None.build_prefetcher(64, 4096, 32, Basic::Stride)),
        ("Prefender", || Some(Prefender::builder(64, 4096).build())),
        ("Prefender(Stride)", || {
            let stride = BasicPrefetcher::Stride(StridePrefetcher::default_config());
            Some(Prefender::builder(64, 4096).basic(stride).build())
        }),
    ];

    let mut headers = vec!["Benchmark".to_string(), "Base cycles".to_string()];
    headers.extend(configs.iter().map(|(n, _)| n.to_string()));
    let mut table = Table::new(headers);

    for w in spec2006() {
        let base = run_once(&w, None);
        let mut cells = vec![w.name().to_string(), base.to_string()];
        for (_, build) in &configs {
            let cycles = run_once(&w, build());
            cells.push(format!("{:+.2}%", speedup_pct(base as f64, cycles as f64)));
        }
        table.row(cells);
    }
    println!("{table}");
    println!("(speedup vs. a machine with no prefetcher; positive = faster)");
}
