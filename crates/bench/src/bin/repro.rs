//! `repro` — regenerate every table and figure of the PREFENDER paper.
//!
//! ```text
//! repro <experiment> [experiment ...]
//!
//! experiments:
//!   fig8      Figure 8  — attack latency panels, all defenses/challenges
//!   fig9      Figure 9  — prefetch counts over time during attacks
//!   fig10     Figure 10 — normalized total L1D miss latency
//!   fig11     Figure 11 — prefetch counts by unit per benchmark
//!   fig12     Figure 12 — protected access buffers over execution
//!   table4    Table IV  — SPEC 2006 speedups without the Record Protector
//!   table5    Table V   — SPEC 2006 speedups with the Record Protector
//!   table6    Table VI  — SPEC 2017 speedups
//!   hwcost    Section V-E — hardware resource budget
//!   ablate-buffers | ablate-threshold | ablate-unprotect | ablate-replacement
//!   sweep     full attack x defense grid through the sweep engine
//!   leakage   Figure 8 re-measured in bits: secret-sweep campaigns per
//!             panel, mutual information calibrated against a
//!             200-permutation null (* = rejects 0-bit leakage, p<0.01)
//!   forensics differential leakage forensics: re-run key leakage cells
//!             with the flight recorder armed, rank trace-feature
//!             streams (event class x cache set) by MI against the
//!             secret, and name the attacker-visible features surviving
//!             a Bonferroni-corrected permutation null; writes
//!             forensics.json in the working directory
//!   bench-sim simulator-throughput microbenches (access fast path,
//!             prefetch storm, fresh-vs-runner leakage cells); writes
//!             BENCH_sim.json in the working directory, then fails if
//!             the headline cell's runner/fresh speedup is below 1.5x or
//!             the trace-armed access-hit loop is below 0.40x of the
//!             disarmed one
//!   audit     static secret-dependence audit: taint-analyze every attack
//!             and workload program, predict DataScale coverage per sink,
//!             and cross-validate against a compact measured leakage grid
//!             (zero static false negatives); writes AUDIT.json in the
//!             working directory. Arguments after `audit` are its
//!             flags:
//!             audit --list             list auditable programs
//!             audit --program <name>   analyze one program, no leakage run
//!   all       everything above except forensics (a deliberately slow
//!             trace-armed deep dive) and bench-sim (whose output is
//!             timing-dependent, not a paper artifact)
//! ```
//!
//! Wall-clock attribution of a campaign, layer by layer, is measured
//! from outside the program by `perfbench` (its own workspace under
//! `perfbench/`).
//!
//! Every grid-shaped experiment is sharded across the sweep engine's
//! worker pool; the dedicated `sweep` binary in `prefender-sweep` adds
//! grid selection and JSON/CSV artifacts on top of the same engine.

use std::env;
use std::process::ExitCode;

use prefender_bench::simbench::SimBenchReport;
use prefender_bench::{ablation, audit, figures, hwcost, leakage, security, tables};

/// `bench-sim`'s floor for the headline cell's runner/fresh speedup:
/// runner reuse must stay a clear win over a fresh machine per trial.
const MIN_RUNNER_SPEEDUP: f64 = 1.5;
/// `bench-sim`'s floor for trace-armed over disarmed access-hit
/// throughput (both best-of-3). The armed recorder builds and pushes two
/// events per hit; only a real regression (an allocation in the record
/// path, a lock, an O(n) drain) should trip this.
const MIN_TRACE_RATIO: f64 = 0.40;

/// What `repro audit [--list | --program <name>]` should do.
enum AuditMode {
    /// Full audit: every program plus the measured cross-validation.
    Full,
    /// Print the auditable program names and exit.
    List,
    /// Analyze one named program; skips the leakage run.
    One(String),
}

/// Parses the arguments after `audit`, validating program names at parse
/// time (same conventions as the sweep CLI: `Err` carries the message,
/// `"help"` prints usage).
fn parse_audit_args(args: &[String]) -> Result<AuditMode, String> {
    let mut mode = AuditMode::Full;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--list" => mode = AuditMode::List,
            "--program" => {
                let name = it.next().ok_or("--program needs a value; try --list")?;
                if !audit::entry_names().iter().any(|(n, _)| n == name) {
                    return Err(format!("unknown program `{name}`; try --list"));
                }
                mode = AuditMode::One(name.clone());
            }
            "--help" | "-h" => return Err("help".into()),
            other => return Err(format!("unknown audit flag `{other}`; try --help")),
        }
    }
    Ok(mode)
}

fn run_audit(args: &[String]) -> Result<(), String> {
    let mode = match parse_audit_args(args) {
        Ok(m) => m,
        Err(e) if e == "help" => {
            println!("usage: repro audit [--list | --program <name>]");
            return Ok(());
        }
        Err(e) => return Err(e),
    };
    match mode {
        AuditMode::List => {
            for (i, (name, group)) in audit::entry_names().iter().enumerate() {
                println!("{i:>6}  {name:<24} {group}");
            }
        }
        AuditMode::One(name) => {
            let entry = audit::audit_one(&name).expect("validated at parse time");
            print!("{}", entry.report.render());
        }
        AuditMode::Full => {
            println!("=== Static audit: secret-dependence across every guest program ===\n");
            let report = audit::run();
            print!("{}", report.render());
            prefender_obs::write_atomic("AUDIT.json", report.to_json())
                .map_err(|e| format!("writing AUDIT.json: {e}"))?;
            println!("\nwrote AUDIT.json");
        }
    }
    Ok(())
}

/// Checks `bench-sim`'s two gates, printing both measured ratios.
fn check_sim_gates(report: &SimBenchReport) -> Result<(), String> {
    let gates = [
        ("headline runner/fresh speedup", report.headline_speedup(), MIN_RUNNER_SPEEDUP),
        (
            "trace-armed/disarmed access-hit throughput",
            report.access_hit_trace_per_sec / report.access_hit_per_sec,
            MIN_TRACE_RATIO,
        ),
    ];
    for (what, got, floor) in gates {
        println!("gate: {what} {got:.2}x (floor {floor:.2}x)");
    }
    match gates.iter().find(|&&(_, got, floor)| got < floor) {
        Some((what, got, floor)) => {
            Err(format!("bench-sim: {what} {got:.2}x is below {floor:.2}x"))
        }
        None => Ok(()),
    }
}

/// Runs one experiment; `audit_flags` are the arguments `audit` reads.
fn run_one(name: &str, audit_flags: &[String]) -> Result<(), String> {
    match name {
        "fig8" => {
            println!("=== Figure 8: security evaluation ===\n");
            for panel in security::figure8() {
                println!("{}", panel.render());
            }
        }
        "fig9" => {
            println!("=== Figure 9: prefetches over time ===\n");
            for panel in security::figure9(2_000) {
                println!("{}", panel.render());
            }
        }
        "fig10" => {
            println!("=== Figure 10: normalized total L1D miss latency ===\n");
            println!("{}", figures::figure10(None).render());
        }
        "fig11" => {
            println!("=== Figure 11: prefetch counts by unit (ST/AT/RP) ===\n");
            println!("{}", figures::figure11(None).render());
        }
        "fig12" => {
            println!("=== Figure 12: protected access buffers over execution ===\n");
            for s in figures::figure12(None, 32) {
                let peak = s.points().iter().map(|&(_, y)| y).fold(0.0, f64::max);
                println!("{:<18} peak {:>4}  {}", s.name(), peak, s.sparkline(48));
            }
        }
        "table4" => {
            println!("=== Table IV: SPEC 2006, without Record Protector ===\n");
            println!("{}", tables::table4().render());
        }
        "table5" => {
            println!("=== Table V: SPEC 2006, with Record Protector ===\n");
            println!("{}", tables::table5().render());
        }
        "table6" => {
            println!("=== Table VI: SPEC 2017 ===\n");
            println!("{}", tables::table6().render());
        }
        "hwcost" => {
            println!("=== Section V-E: hardware resource budget ===\n");
            println!("{}", hwcost::report());
        }
        "ablate-buffers" => {
            println!("=== Ablation: access-buffer count ===\n");
            println!("{}", ablation::ablate_buffers());
        }
        "ablate-threshold" => {
            println!("=== Ablation: DiffMin prefetch threshold ===\n");
            println!("{}", ablation::ablate_threshold());
        }
        "ablate-unprotect" => {
            println!("=== Ablation: RP unprotect threshold ===\n");
            println!("{}", ablation::ablate_unprotect());
        }
        "ablate-replacement" => {
            println!("=== Ablation: cache replacement policy ===\n");
            println!("{}", ablation::ablate_replacement());
        }
        "sweep" => {
            println!("=== Sweep: full attack x defense grid ===\n");
            let report = prefender_sweep::run_sweep(
                &prefender_sweep::SweepGrid::security_full(),
                &prefender_sweep::SweepOptions::default(),
            );
            println!("{}", report.render_table());
        }
        "leakage" => {
            println!("=== Leakage map: Figure 8 measured in bits (permutation-calibrated) ===\n");
            println!("{}", leakage::leakage_map().render());
        }
        "forensics" => {
            println!("=== Leakage forensics: which mechanism carries the secret ===\n");
            let run = prefender_bench::forensics::run();
            println!("{}", run.render());
            prefender_obs::write_atomic("forensics.json", run.to_json())
                .map_err(|e| format!("writing forensics.json: {e}"))?;
            println!("wrote forensics.json");
        }
        "audit" => run_audit(audit_flags)?,
        "bench-sim" => {
            println!("=== Simulator throughput: hot path + fresh-vs-runner cells ===\n");
            let report = prefender_bench::simbench::run(200);
            print!("{}", report.render());
            prefender_obs::write_atomic("BENCH_sim.json", report.to_json())
                .map_err(|e| format!("writing BENCH_sim.json: {e}"))?;
            println!("\nwrote BENCH_sim.json");
            check_sim_gates(&report)?;
        }
        "all" => {
            for e in [
                "fig8",
                "fig9",
                "fig10",
                "fig11",
                "fig12",
                "table4",
                "table5",
                "table6",
                "hwcost",
                "ablate-buffers",
                "ablate-threshold",
                "ablate-unprotect",
                "ablate-replacement",
                "sweep",
                "leakage",
                "audit",
            ] {
                run_one(e, &[])?;
            }
        }
        other => return Err(format!("unknown experiment `{other}`")),
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!(
            "usage: repro <fig8|fig9|fig10|fig11|fig12|table4|table5|table6|hwcost|ablate-*|sweep|leakage|forensics|audit|bench-sim|all> ..."
        );
        return ExitCode::FAILURE;
    }
    // `audit` takes the rest of the line as its own flags.
    let (names, audit_flags) = match args.iter().position(|a| a == "audit") {
        Some(i) => args.split_at(i + 1),
        None => (&args[..], &[][..]),
    };
    for a in names {
        if let Err(e) = run_one(a, audit_flags) {
            eprintln!("repro: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use prefender_bench::simbench::CellBench;

    fn report(speedup: f64, trace_per_sec: f64) -> SimBenchReport {
        SimBenchReport {
            access_hit_per_sec: 1000.0,
            access_hit_trace_per_sec: trace_per_sec,
            storm_ops_per_sec: 1.0,
            cells: vec![CellBench {
                label: "fr/base/cross-core",
                trials: 1,
                fresh_sims_per_sec: 1.0,
                runner_sims_per_sec: speedup,
                speedup,
            }],
        }
    }

    #[test]
    fn sim_gates_pass_at_their_floors_and_fail_below() {
        assert!(check_sim_gates(&report(1.5, 400.0)).is_ok());
        assert!(check_sim_gates(&report(1.49, 1000.0)).unwrap_err().contains("speedup"));
        assert!(check_sim_gates(&report(3.0, 399.0)).unwrap_err().contains("trace-armed"));
    }
}
