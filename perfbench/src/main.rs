//! `perfbench` — the campaign benchmark of the PREFENDER reproduction.
//!
//! ```text
//! perfbench --workload leakage|spec-perf|serve-shards [--seed N]
//!           [--seconds S] [--trace 0|1] [--commit ID] [--small]
//! ```
//!
//! `--trace 0` runs the named workload's campaign repeatedly for
//! `--seconds` and prints its end-to-end metrics; `--trace 1` rebuilds
//! every workload from the crates' public calls, times each call, and
//! prints the per-layer metrics. Either way every campaign's artifacts
//! are checked byte for byte against a 1-thread in-process reference.
//! The last line of standard output is the result object; the line
//! before it carries host and run metadata. Campaign directories go
//! under `.bench_work` in the working directory, and the sharded
//! workload spawns its workers from the `sweep` binary next to this one.
//! See `perfbench/README.md`.

mod calib;
mod campaign;
mod host;
mod micro;
mod stats;
mod traced;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use prefender_obs::{HostInfo, Value};
use prefender_sweep::{
    run_sweep_observed, work_campaign, SweepGrid, SweepReport, WorkOptions, SHARD_DIR,
};

use crate::campaign::{
    artifact_files, invariants, nproc, serve_faults, write_files, Campaign, Reference, Workload,
    SERVE_WORKERS,
};
use crate::stats::{median, ratio, secs};

const USAGE: &str = "usage: perfbench --workload leakage|spec-perf|serve-shards [--seed N] \
                     [--seconds S] [--trace 0|1] [--commit ID] [--small]";

/// Where campaign directories go: relative, so the `serve` socket path
/// inside them stays short.
const WORK_DIR: &str = ".bench_work";

/// Set-ups of campaigns that are not run; `setup_s` is their median.
const SETUPS: usize = 200;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    sweep_bin: PathBuf,
    commit: String,
    small: bool,
}

fn parse_u64(s: &str) -> Result<u64, String> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    }
    .map_err(|_| format!("invalid number `{s}`"))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::Leakage,
        seed: 0xC0FFEE,
        seconds: 10.0,
        trace: false,
        sweep_bin: std::env::current_exe()
            .map_err(|e| format!("locating own binary: {e}"))?
            .with_file_name("sweep"),
        commit: "unknown".into(),
        small: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().cloned().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = val()?;
                workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => args.seed = parse_u64(&val()?)?,
            "--seconds" => {
                args.seconds = val()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("invalid --seconds")?;
            }
            "--trace" => {
                args.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--commit" => args.commit = val()?,
            "--small" => args.small = true,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// Metrics in print order, `(name, value, unit)`.
type Metrics = Vec<(String, f64, &'static str)>;

/// What one invocation measured.
#[derive(Default)]
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    samples: usize,
    /// The campaign time as measured, before host normalization.
    raw_wall_s: f64,
    /// Median host factor of the samples, on a host-normalized workload.
    host_factor: Option<f64>,
}

impl Outcome {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        fs::remove_dir_all(dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))
}

/// Removes a finished campaign directory and commits the removal to
/// disk, so the next set-up's fsyncs do not pay for it.
fn remove_campaign(dir: &Path) -> Result<(), String> {
    fs::remove_dir_all(dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
    let parent = dir.parent().unwrap_or(Path::new("."));
    fs::File::open(parent)
        .and_then(|d| d.sync_all())
        .map_err(|e| format!("syncing {}: {e}", parent.display()))
}

fn peak_rss_mib() -> f64 {
    let (own, child) = (host::self_peak_rss_kib(), host::child_usage().max_rss_kib);
    eprintln!("perfbench: peak RSS {own} KiB in this process, {child} KiB in the largest child");
    own.max(child) as f64 / 1024.0
}

/// The reference artifacts and model invariants of `c`, with the
/// violations counted as failures.
fn load_reference(
    c: &Campaign,
    root: &Path,
    out: &mut Outcome,
) -> Result<(Reference, Duration), String> {
    let (reference, wall) = c.reference(&root.join("reference"))?;
    count_invariants(&reference.report, &c.workload.grid(c.small), out);
    Ok((reference, wall))
}

/// Checks the model invariants of `report`, a whole campaign of `grid`,
/// counting its scenarios as attempted and the violations as failures.
fn count_invariants(report: &SweepReport, grid: &SweepGrid, out: &mut Outcome) {
    let violations = invariants(report, grid);
    for v in &violations {
        eprintln!("perfbench: invariant violated: {v}");
    }
    out.attempted += report.results.len() as u64;
    out.failed += violations.len() as u64;
}

/// Counts the artifact mismatches in `dir` against `reference`.
fn check(reference: &Reference, dir: &Path, what: &str, out: &mut Outcome) {
    let bad = reference.mismatches(dir);
    if bad > 0 {
        eprintln!("perfbench: {what}: {bad} artifact lines differ from the reference");
    }
    out.attempted += reference.report.results.len() as u64;
    out.failed += bad;
}

/// Times `count` more set-ups of `c`'s whole campaign, each in a fresh
/// directory removed afterwards.
fn time_setups(
    c: &Campaign,
    root: &Path,
    count: usize,
    setups: &mut Vec<Duration>,
) -> Result<(), String> {
    for _ in 0..count {
        let dir = root.join(format!("setup-{}", setups.len()));
        let t0 = Instant::now();
        c.setup(&dir)?;
        setups.push(t0.elapsed());
        remove_campaign(&dir)?;
    }
    Ok(())
}

/// `--trace 0`: the named workload's campaign, repeated for `seconds`.
fn measure(args: &Args, c: &Campaign, root: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let units = c.workload.units(c.small);
    let mut references = Vec::new();
    for (k, grid) in units.iter().enumerate() {
        references.push(c.reference_of(grid, &root.join(format!("reference-{k}")))?.0);
    }
    let whole = SweepReport {
        campaign_seed: c.seed,
        results: references.iter().flat_map(|r| r.report.results.iter().cloned()).collect(),
    };
    count_invariants(&whole, &c.workload.grid(c.small), &mut out);
    let (ipc_gain, leak_bits) = c.model(&whole)?;

    // Each sample runs the next unit, round robin; on a host-normalized
    // workload, a calibration after each brackets it with the one before.
    let normalized = c.workload.host_normalized();
    let mut raw = vec![Vec::new(); units.len()];
    let mut scaled = vec![Vec::new(); units.len()];
    let mut factors = Vec::new();
    if normalized {
        match host::pin_to_current_cpu() {
            Some(cpu) => eprintln!("perfbench: samples and calibrations pinned to CPU {cpu}"),
            None => eprintln!("perfbench: could not pin to one CPU; samples may move between CPUs"),
        }
    }
    let mut calibrator = normalized.then(calib::Calibrator::new);
    let mut cal = calibrator.as_mut().map_or(Duration::ZERO, |k| k.measure());
    // Set-ups of the whole campaign (not run) go between the samples, as
    // many as the share of the run gone, so their median reads the
    // filesystem over the whole run rather than at one moment.
    let mut setups = Vec::new();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(args.seconds);
    let mut n = 0;
    while n < units.len() || Instant::now() < deadline {
        let gone = ratio(started.elapsed().as_secs_f64(), args.seconds).min(1.0);
        let due = (SETUPS as f64 * gone).ceil() as usize;
        time_setups(c, root, due.saturating_sub(setups.len()), &mut setups)?;
        let k = n % units.len();
        let dir = root.join(format!("run-{n}"));
        let prepared = c.setup_grid(units[k].clone(), &dir)?;
        let t0 = Instant::now();
        let serve = c.run(&prepared, &dir)?;
        let wall = t0.elapsed().as_secs_f64();
        let factor = match calibrator.as_mut() {
            Some(calibrator) => {
                let after = calibrator.measure();
                let f = calib::host_factor(cal, after);
                cal = after;
                f
            }
            None => 1.0,
        };
        factors.push(factor);
        eprintln!("perfbench: sample {n} unit {k} wall {wall:.6} factor {factor:.6}");
        raw[k].push(wall);
        scaled[k].push(wall / factor);
        check(&references[k], &dir, &format!("run {n}"), &mut out);
        if let Some(summary) = &serve {
            out.failed += serve_faults(summary);
        }
        remove_campaign(&dir)?;
        n += 1;
    }

    time_setups(c, root, SETUPS.saturating_sub(setups.len()), &mut setups)?;

    // A unit's median time, summed over the units: one whole campaign.
    let total = |times: &[Vec<f64>]| times.iter().map(|t| median(t)).sum::<f64>();
    let wall = total(&scaled);
    out.samples = n;
    out.raw_wall_s = total(&raw);
    out.host_factor = normalized.then(|| median(&factors));
    eprintln!(
        "perfbench: {n} samples over {} units: campaign {:.3} s as measured, {wall:.3} s in \
         reference-host seconds (host factor median {:.3}, range {:.3}-{:.3})",
        units.len(),
        out.raw_wall_s,
        median(&factors),
        stats::quantile(&factors, 0.0),
        stats::quantile(&factors, 1.0)
    );
    let sims: u64 = units.iter().map(SweepGrid::sims).sum();
    let instructions = campaign::instructions(&whole) as f64;
    out.push("wall_s", wall, "s");
    out.push("setup_s", median(&secs(&setups)), "s");
    out.push("sims_per_s", ratio(sims as f64, wall), "1/s");
    out.push("sim_mips", ratio(instructions, wall) / 1e6, "MIPS");
    out.push("peak_rss_mib", peak_rss_mib(), "MiB");
    out.push("model_ipc_gain", ipc_gain, "ratio");
    out.push("model_leak_bits_full", leak_bits, "bits");
    Ok(out)
}

/// Prints a traced rebuild's rows and attribution to stderr.
fn report_trace(name: &str, trace: &traced::Trace, baseline: Duration) {
    eprintln!(
        "perfbench: traced {name}: {:.3} s traced vs {:.3} s untraced, {:.1}% attributed",
        trace.wall.as_secs_f64(),
        baseline.as_secs_f64(),
        trace.attributed_frac() * 100.0
    );
    for (row, calls, total) in trace.rows() {
        eprintln!("perfbench:   {row:<20} {calls:>8} calls {:>10.3} ms", total.as_secs_f64() * 1e3);
    }
    let (phase, gap) = trace.largest_gap();
    eprintln!(
        "perfbench:   largest unattributed remainder: {:.3} ms outside timed calls in phase `{phase}`",
        gap.as_secs_f64() * 1e3
    );
}

/// The whole-run rows of one traced rebuild.
fn push_attribution(out: &mut Outcome, w: Workload, trace: &traced::Trace, baseline: Duration) {
    let name = w.name();
    out.push(
        format!("obs.trace_overhead.{name}"),
        ratio(trace.wall.as_secs_f64(), baseline.as_secs_f64()),
        "ratio",
    );
    out.push(format!("obs.attributed_frac.{name}"), trace.attributed_frac(), "ratio");
    let (_, gap) = trace.largest_gap();
    out.push(format!("obs.unattributed_ms.{name}"), gap.as_secs_f64() * 1e3, "ms");
    report_trace(name, trace, baseline);
}

/// `--trace 1`: every workload rebuilt and timed call by call, plus the
/// engine and `serve` probes and the micro rows.
fn trace(args: &Args, root: &Path) -> Result<Outcome, String> {
    let mut out = Outcome { samples: 1, ..Outcome::default() };
    let campaign = |workload| Campaign {
        workload,
        small: args.small,
        seed: args.seed,
        sweep_bin: args.sweep_bin.clone(),
    };
    let mut artifact_encode = Duration::ZERO;
    let mut artifact_bytes = 0u64;

    // leakage: the 1-thread rebuild right after its 1-thread baseline,
    // then the real engine at nproc threads for its telemetry and the
    // model counters.
    let c = campaign(Workload::Leakage);
    let wroot = root.join(c.workload.name());
    let (reference, baseline) = load_reference(&c, &wroot, &mut out)?;
    let dir = wroot.join("traced");
    let (t, tallies) = traced::leakage(&c, &dir)?;
    check(&reference, &dir, "traced leakage", &mut out);
    out.push("leakage.simulate_ms", t.total("leakage.simulate").as_secs_f64() * 1e3, "ms");
    out.push("leakage.resample_ms", t.total("leakage.resample").as_secs_f64() * 1e3, "ms");
    out.push(
        "leakage.resample_share",
        ratio(t.total("leakage.resample").as_secs_f64(), t.wall.as_secs_f64()),
        "ratio",
    );
    artifact_encode += t.total("artifact.encode");
    artifact_bytes += tallies.artifact_bytes;
    push_attribution(&mut out, c.workload, &t, baseline);
    let (report, obs) = run_sweep_observed(&c.workload.grid(c.small), &c.options(nproc()), None);
    let engine_dir = wroot.join("engine");
    fresh_dir(&engine_dir)?;
    write_files(&engine_dir, &artifact_files(&report))?;
    check(&reference, &engine_dir, "engine run", &mut out);
    let tel = &obs.telemetry;
    let util: Vec<f64> = tel.workers.iter().map(|w| w.utilization).collect();
    let first_idle = tel
        .workers
        .iter()
        .map(|w| {
            tel.events
                .iter()
                .filter(|e| e.worker == w.worker)
                .map(|e| e.done_ms)
                .fold(0.0, f64::max)
        })
        .fold(f64::INFINITY, f64::min);
    out.push("engine.worker_util", ratio(util.iter().sum(), util.len() as f64), "ratio");
    out.push("engine.tail_idle_ms", (tel.elapsed_ms - first_idle).max(0.0), "ms");
    out.push("engine.chunks", tel.events.len() as f64, "count");
    let k = &obs.counters;
    for (name, v) in [
        ("sim.demand_hits", k.cache_demand_hits),
        ("sim.demand_misses", k.cache_demand_misses),
        ("sim.evictions", k.cache_evictions),
        ("sim.prefetch_issued", k.prefetch_issued),
        ("sim.prefetch_late", k.prefetch_late),
        ("sim.mshr_high_water", k.mshr_high_water),
        ("prefender.at_allocs", k.at_buffer_allocs),
        ("prefender.at_evictions", k.at_buffer_evictions),
        ("prefender.diffmin_incremental", k.diffmin_incremental),
        ("prefender.diffmin_rescans", k.diffmin_rescans),
        ("prefender.rp_grants", k.rp_protections_granted),
    ] {
        out.push(name, v as f64, "count");
    }

    // spec-perf: the 1-thread rebuild against the 1-thread reference.
    let c = campaign(Workload::SpecPerf);
    let wroot = root.join(c.workload.name());
    let (reference, baseline) = load_reference(&c, &wroot, &mut out)?;
    let dir = wroot.join("traced");
    let (t, tallies) = traced::spec_perf(&c, &dir)?;
    check(&reference, &dir, "traced spec-perf", &mut out);
    let n = tallies.scenarios as f64;
    let run = t.total("cpu.run").as_secs_f64();
    out.push("cpu.build_us", ratio(t.total("cpu.build").as_secs_f64() * 1e6, n), "us");
    out.push(
        "workloads.program_us",
        ratio(t.total("workloads.program").as_secs_f64() * 1e6, n),
        "us",
    );
    out.push("cpu.run_ms", run * 1e3, "ms");
    out.push("cpu.ns_per_instr", ratio(run * 1e9, tallies.instructions as f64), "ns");
    out.push(
        "cpu.fast_nop_share",
        ratio(tallies.fast_nops as f64, tallies.instructions as f64),
        "ratio",
    );
    artifact_encode += t.total("artifact.encode");
    artifact_bytes += tallies.artifact_bytes;
    push_attribution(&mut out, c.workload, &t, baseline);

    // serve-shards: one in-process worker untraced, the same traced,
    // then the real supervised run for the lease and serve counters.
    let c = campaign(Workload::ServeShards);
    let wroot = root.join(c.workload.name());
    let (reference, _) = load_reference(&c, &wroot, &mut out)?;
    let dir = wroot.join("worker");
    let t0 = Instant::now();
    c.setup(&dir)?;
    let (report, _, summary) =
        work_campaign(&dir, &WorkOptions::default(), &mut |_| {}).map_err(|e| e.to_string())?;
    write_files(&dir, &artifact_files(&report))?;
    let baseline = t0.elapsed();
    check(&reference, &dir, "in-process worker", &mut out);
    out.failed += summary.counters.lease_breaks + summary.counters.shard_quarantines;
    let dir = wroot.join("traced");
    let (t, tallies, times) = traced::serve_shards(&c, &dir)?;
    check(&reference, &dir, "traced serve-shards", &mut out);
    out.push("runner.rebuilds", tallies.runner_rebuilds as f64, "count");
    out.push("runner.resets", tallies.runner_resets as f64, "count");
    out.push("runner.build_us", t.mean_us("runner.build"), "us");
    out.push("runner.run_us", t.mean_us("runner.run"), "us");
    out.push("fsio.write_atomic_us_p50", t.quantile_us("fsio.write_atomic", 0.5), "us");
    out.push("fsio.write_atomic_us_p90", t.quantile_us("fsio.write_atomic", 0.9), "us");
    out.push("fsio.calls", t.calls("fsio.write_atomic") as f64, "count");
    out.push("shard.encode_us", t.mean_us("shard.encode"), "us");
    out.push("shard.decode_us", t.mean_us("shard.decode"), "us");
    out.push("checkpoint.init_ms", t.total("checkpoint.init").as_secs_f64() * 1e3, "ms");
    out.push("checkpoint.merge_ms", t.phase_wall("merge").as_secs_f64() * 1e3, "ms");
    out.push("lease.claim_us", t.mean_us("lease.claim"), "us");
    out.push("lease.hb_start_us", t.mean_us("lease.hb_start"), "us");
    out.push("lease.hb_stop_us", t.mean_us("lease.hb_stop"), "us");
    out.push("lease.release_us", t.mean_us("lease.release"), "us");
    let shard_ms: Vec<f64> = times.shard.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    out.push("lease.shard_ms_p50", stats::quantile(&shard_ms, 0.5), "ms");
    out.push("lease.shard_ms_p90", stats::quantile(&shard_ms, 0.9), "ms");
    let shards = t.phase_wall("shards").as_secs_f64();
    eprintln!(
        "perfbench: Heartbeat::stop took {:.0} us per shard on average, {:.3} s of the {:.3} s \
         shard loop ({} shards, {:.1}%)",
        t.mean_us("lease.hb_stop"),
        t.total("lease.hb_stop").as_secs_f64(),
        shards,
        t.calls("lease.hb_stop"),
        ratio(t.total("lease.hb_stop").as_secs_f64(), shards) * 100.0
    );
    artifact_encode += t.total("artifact.encode");
    artifact_bytes += tallies.artifact_bytes;
    push_attribution(&mut out, c.workload, &t, baseline);

    let dir = wroot.join("serve");
    let probe = serve_probe(&c, &dir)?;
    check(&reference, &dir, "serve run", &mut out);
    let lease = &probe.summary.counters;
    out.failed += serve_faults(&probe.summary);
    for (name, v) in [
        ("lease.claims", lease.lease_claims),
        ("lease.renewals", lease.lease_renewals),
        ("lease.breaks", lease.lease_breaks),
        ("lease.reclaims", lease.lease_reclaims),
        ("lease.quarantines", lease.shard_quarantines),
    ] {
        out.push(name, v as f64, "count");
    }
    out.push("serve.first_commit_ms", probe.first_commit.as_secs_f64() * 1e3, "ms");
    out.push("serve.restarts", probe.summary.restarts as f64, "count");
    out.push("serve.idle_frac", probe.idle_frac, "ratio");

    out.push("artifact.encode_ms", artifact_encode.as_secs_f64() * 1e3, "ms");
    out.push("artifact.bytes", artifact_bytes as f64, "B");
    for (name, ns) in micro::rows() {
        out.push(name, ns, "ns");
    }
    out.push("failed_frac", ratio(out.failed as f64, out.attempted as f64), "ratio");
    Ok(out)
}

/// What the supervised `serve` run reveals from outside.
struct ServeProbe {
    summary: prefender_sweep::ServeSummary,
    /// From the campaign call to the first committed shard file.
    first_commit: Duration,
    /// Share of the workers' wall-time capacity they spent off CPU.
    idle_frac: f64,
}

/// One supervised `serve` run, watched: a thread polls the shard
/// directory for the first commit, and the reaped workers' CPU time
/// gives their idle share.
fn serve_probe(c: &Campaign, dir: &Path) -> Result<ServeProbe, String> {
    let prepared = c.setup(dir)?;
    let shard_dir = dir.join(SHARD_DIR);
    let cpu0 = host::child_usage().cpu;
    let started = Instant::now();
    let done = std::sync::atomic::AtomicBool::new(false);
    let (ran, first_commit) = std::thread::scope(|s| {
        let watcher = s.spawn(|| loop {
            let committed = fs::read_dir(&shard_dir).is_ok_and(|entries| {
                entries.filter_map(Result::ok).any(|e| !prefender_obs::is_atomic_tmp(&e.path()))
            });
            if committed || done.load(std::sync::atomic::Ordering::Relaxed) {
                return started.elapsed();
            }
            std::thread::sleep(Duration::from_micros(500));
        });
        let ran = c.run(&prepared, dir);
        done.store(true, std::sync::atomic::Ordering::Relaxed);
        (ran, watcher.join().expect("the watcher thread does not panic"))
    });
    let wall = started.elapsed();
    let ran = ran?;
    let cpu = host::child_usage().cpu.saturating_sub(cpu0);
    let capacity = wall.as_secs_f64() * SERVE_WORKERS as f64;
    Ok(ServeProbe {
        summary: ran.ok_or("the sharded workload returns a serve summary")?,
        first_commit,
        idle_frac: (1.0 - ratio(cpu.as_secs_f64(), capacity)).max(0.0),
    })
}

fn run(args: &Args) -> Result<(Outcome, String), String> {
    let root = Path::new(WORK_DIR).join(args.workload.name());
    fresh_dir(&root)?;
    let fs_type = host::fs_type(&root);
    let outcome = if args.trace {
        trace(args, &root)?
    } else {
        let c = Campaign {
            workload: args.workload,
            small: args.small,
            seed: args.seed,
            sweep_bin: args.sweep_bin.clone(),
        };
        measure(args, &c, &root)?
    };
    fs::remove_dir_all(&root).map_err(|e| format!("removing {}: {e}", root.display()))?;
    Ok((outcome, fs_type))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (outcome, fs_type) = match run(&args) {
        Ok(done) => done,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let host = HostInfo::capture();
    let meta = Value::Obj(vec![(
        "meta".into(),
        Value::Obj(vec![
            ("workload".into(), Value::Str(args.workload.name().into())),
            ("trace".into(), Value::Bool(args.trace)),
            ("small".into(), Value::Bool(args.small)),
            ("campaign_seed".into(), Value::U64(args.seed)),
            ("seconds".into(), Value::F64(args.seconds)),
            ("samples".into(), Value::U64(outcome.samples as u64)),
            ("raw_wall_s".into(), Value::F64(outcome.raw_wall_s)),
            ("host_factor".into(), outcome.host_factor.map_or(Value::Null, Value::F64)),
            ("nproc".into(), Value::U64(host.nproc as u64)),
            ("cpu_model".into(), host.model_name.map_or(Value::Null, Value::Str)),
            ("commit".into(), Value::Str(args.commit.clone())),
            ("campaign_fs".into(), Value::Str(fs_type)),
        ]),
    )]);
    let metrics = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let m = vec![
                ("value".into(), Value::F64(*value)),
                ("unit".into(), Value::Str((*unit).into())),
            ];
            (name.clone(), Value::Obj(m))
        })
        .collect();
    let result = Value::Obj(vec![
        ("correct".into(), Value::Bool(outcome.failed == 0)),
        ("attempted".into(), Value::U64(outcome.attempted.max(1))),
        ("failed".into(), Value::U64(outcome.failed)),
        ("metrics".into(), Value::Obj(metrics)),
    ]);
    println!("{}", meta.to_json_inline());
    println!("{}", result.to_json_inline());
    ExitCode::SUCCESS
}
