//! `sweep` — run a scenario grid in parallel and emit artifacts.
//!
//! `sweep --help` prints every flag of `sweep`, `sweep work` and
//! `sweep serve` (the multi-process modes, EXPERIMENTS.md "Multi-process
//! campaigns"), with its class, default and the values each grid axis
//! takes.
//!
//! Leakage campaigns (`--leakage`) share the noise / cross-core /
//! defense / basic / hierarchy axes with `--attacks`; each campaign runs
//! its attack for every secret × trial and reports the channel in bits
//! (see `prefender-leakage`). With `--permutations` each campaign also
//! reports the label-permutation null of its MI estimate (`mi_p_value`,
//! `mi_null_q95`) and with `--bootstrap` a `1 − alpha` confidence
//! interval (`mi_ci_lo`/`mi_ci_hi`) — both fully deterministic, so
//! artifacts stay byte-identical at any `--threads` value.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Instant;

use prefender_obs::{write_atomic, HostInfo, ProgressReporter, Value};
use prefender_sweep::{
    basic_from_tag, basic_tag, resume_sharded, run_sharded, run_sweep_observed, AttackCase,
    AttackKind, Basic, DefenseConfig, DefensePoint, Hierarchy, NoiseSpec, SweepGrid, SweepOptions,
    SweepReport, WorkSummary,
};
use Class::{Exec, Grid, Output, Stream};

/// What a flag touches, which decides the flags it combines with:
/// `--resume` takes only `Exec` flags (the manifest fixes the rest),
/// `--shard-size` refuses `Stream` flags, and `serve` creates a
/// campaign from `Grid` flags only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// Shapes the grid, its seed or its shard plan.
    Grid,
    /// Changes how a run executes, never what it writes.
    Exec,
    /// An in-process observation stream or listing.
    Stream,
    /// Where results go.
    Output,
}

/// One flag of one subcommand.
#[derive(Debug, PartialEq)]
struct Flag {
    name: &'static str,
    /// The value's metavar; empty for a switch.
    value: &'static str,
    class: Class,
    help: &'static str,
}

const fn row(name: &'static str, value: &'static str, class: Class, help: &'static str) -> Flag {
    Flag { name, value, class, help }
}

/// `sweep`'s flags.
const SWEEP: &[Flag] = &[
    row("--attacks", "LIST", Grid, "attack kinds, all or none [default: all]"),
    row("--noise", "LIST", Grid, "challenge-noise mixes [default: all four]"),
    row("--cross-core", "MODE", Grid, "single, cross or both [default: single]"),
    row("--defenses", "LIST", Grid, "defense configurations or all [default: all]"),
    row("--buffers", "LIST", Grid, "access-buffer counts [default: 32]"),
    row("--basics", "LIST", Grid, "basic prefetchers [default: no basic prefetcher]"),
    row("--hierarchies", "LIST", Grid, "cache hierarchies or all [default: the paper's]"),
    row("--workloads", "LIST", Grid, "names, spec2006, spec2017, all or none [default: none]"),
    row("--leakage", "LIST", Grid, "leakage campaigns: attack kinds, all or none [default: none]"),
    row("--secrets", "N", Grid, "secrets per leakage campaign [default: 8]"),
    row("--trials", "N", Grid, "trials per secret [default: 4]"),
    row("--jitter", "N", Grid, "attacker timer noise, cycles per probe [default: 0]"),
    row("--permutations", "N", Grid, "label permutations for the MI null test [default: 0]"),
    row("--bootstrap", "N", Grid, "bootstrap resamples for the MI interval [default: 0]"),
    row("--alpha", "F", Grid, "bootstrap CI level, in (0,1) [default: 0.05]"),
    row("--seeds", "N", Grid, "seed repetitions per grid point [default: 1]"),
    row("--seed", "S", Grid, "campaign seed, hex or decimal [default: 0xC0FFEE]"),
    row("--shard-size", "N", Grid, "crash-safe campaign: commit shards of at most N scenarios"),
    row("--threads", "N", Exec, "worker threads, 0 = all CPUs [default: 0]"),
    row("--quiet", "", Exec, "no per-scenario table, summary only"),
    row("--out", "DIR", Output, "artifact directory [default: .]"),
    row("--resume", "DIR", Output, "finish the sharded campaign in DIR, byte-identically"),
    row("--bench-json", "PATH", Output, "also write a throughput record"),
    row("--list", "", Stream, "print the enumerated grid and exit without running"),
    row("--progress", "", Stream, "throttled stderr progress line (rate + ETA)"),
    row("--obs", "", Stream, "write DIR/obs.json: counters plus a marked timing section"),
    row("--obs-out", "PATH", Stream, "write the chunk-claim event stream as JSONL"),
    row("--trace", "", Stream, "arm the flight recorder; write DIR/trace.jsonl"),
    row("--trace-out", "PATH", Stream, "trace JSONL destination (requires --trace)"),
];

/// `sweep work DIR`'s flags.
const WORK: &[Flag] = &[
    row("--threads", "N", Exec, "worker threads [default: 1]"),
    row("--lease-ttl-ms", "MS", Exec, "lease staleness horizon [default: 5000]"),
    row("--quiet", "", Exec, "no claim, commit or waiting lines"),
];

/// `sweep serve DIR`'s own flags; it also takes `sweep`'s `Grid` flags
/// when DIR holds no campaign yet.
const SERVE: &[Flag] = &[
    row("--workers", "N", Exec, "worker processes to spawn (required)"),
    row("--worker-threads", "N", Exec, "threads per worker [default: 1]"),
    row("--restart-budget", "N", Exec, "restarts before degrading [default: 2 x workers]"),
    row("--lease-ttl-ms", "MS", Exec, "lease staleness horizon [default: 5000]"),
    row("--stall-timeout-ms", "MS", Exec, "kill workers stalled this long [default: 60000]"),
    row("--worker-failpoints", "SPEC", Exec, "failpoints armed in the workers only"),
    row("--quiet", "", Exec, "no per-shard progress lines"),
];

/// The flags an argv named, each with its last value (empty for a
/// switch), in the order first named.
#[derive(Debug, Default)]
struct Given(Vec<(&'static Flag, String)>);

impl Given {
    fn flags(&self) -> impl Iterator<Item = &'static Flag> + '_ {
        self.0.iter().map(|&(f, _)| f)
    }

    fn value(&self, name: &str) -> Option<&str> {
        debug_assert!(
            [SWEEP, WORK, SERVE].iter().any(|t| t.iter().any(|f| f.name == name)),
            "no flag row named {name}"
        );
        self.0.iter().find(|(f, _)| f.name == name).map(|(_, v)| v.as_str())
    }

    fn has(&self, name: &str) -> bool {
        self.value(name).is_some()
    }

    fn path(&self, name: &str) -> Option<PathBuf> {
        self.value(name).map(PathBuf::from)
    }

    fn parse<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name).map(|v| v.parse().map_err(|_| format!("invalid {name}"))).transpose()
    }
}

/// Checks `argv` against `tables` (the first row of a name wins):
/// unknown flags and missing values are errors, and a repeated flag
/// keeps its last value.
fn scan(argv: &[String], tables: &[&'static [Flag]], unknown: &str) -> Result<Given, String> {
    let mut given = Given::default();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let flag = tables
            .iter()
            .flat_map(|t| t.iter())
            .find(|f| f.name == arg)
            .ok_or_else(|| format!("unknown {unknown} `{arg}`"))?;
        let value = if flag.value.is_empty() {
            String::new()
        } else {
            it.next().cloned().ok_or_else(|| format!("{arg} needs a value"))?
        };
        match given.0.iter_mut().find(|(f, _)| f.name == flag.name) {
            Some(slot) => slot.1 = value,
            None => given.0.push((flag, value)),
        }
    }
    Ok(given)
}

/// `--help`: the three flag tables, then the values of each grid axis.
fn help() -> String {
    let mut out = String::from(
        "usage: sweep [FLAG]...\n       sweep work DIR [FLAG]...\n       \
         sweep serve DIR --workers N [FLAG]...\n\n\
         --resume takes only exec flags, --shard-size refuses stream flags, and\n\
         serve creates a campaign from sweep's grid flags only.\n",
    );
    for (title, table) in [
        ("sweep", SWEEP),
        ("sweep work DIR", WORK),
        ("sweep serve DIR (plus sweep's grid flags when DIR has no campaign)", SERVE),
    ] {
        out += &format!("\n{title}:\n");
        for f in table {
            let flag = format!("{} {}", f.name, f.value);
            let class = format!("{:?}", f.class).to_lowercase();
            out += &format!("  {flag:<25} {class:<7} {}\n", f.help);
        }
    }
    let axes: [(&str, Vec<String>); 5] = [
        ("--attacks, --leakage", kind_names().into_iter().map(|(n, _)| n).collect()),
        ("--noise", noise_names().into_iter().map(|(n, _)| n).collect()),
        ("--defenses", defense_names().into_iter().map(|(n, _)| n).collect()),
        ("--basics", Basic::ALL.iter().map(|&b| basic_tag(b).to_string()).collect()),
        ("--hierarchies", Hierarchy::ALL.iter().map(|h| h.tag().to_string()).collect()),
    ];
    out += "\naxis values:\n";
    for (flags, values) in axes {
        out += &format!("  {flags:<25} {}\n", values.join(","));
    }
    out
}

#[derive(Debug)]
struct Args {
    grid: SweepGrid,
    threads: usize,
    campaign_seed: u64,
    out: PathBuf,
    bench_json: Option<PathBuf>,
    quiet: bool,
    list: bool,
    progress: bool,
    obs: bool,
    obs_out: Option<PathBuf>,
    trace: bool,
    trace_out: Option<PathBuf>,
    shard_size: Option<usize>,
    resume: Option<PathBuf>,
}

fn parse_u64(s: &str) -> Result<u64, String> {
    let parsed = if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse()
    };
    parsed.map_err(|_| format!("invalid number `{s}`"))
}

fn parse_list<'s, T>(
    s: &'s str,
    what: &str,
    one: impl Fn(&'s str) -> Option<T>,
) -> Result<Vec<T>, String> {
    s.split(',')
        .filter(|p| !p.is_empty())
        .map(|p| one(p.trim()).ok_or_else(|| format!("unknown {what} `{p}`")))
        .collect()
}

// The command line names each axis value by the grid's own tags: an
// attack kind by its bare case tag (`fr`), a noise mix by its tag suffix
// (`fr+c3` → `c3`, the clean mix `none`), a defense configuration by its
// tag less the buffer count (`full32` → `full`).

fn kind_names() -> Vec<(String, AttackKind)> {
    let panels = AttackCase::figure8_panels().into_iter();
    panels.filter(|c| c.noise == NoiseSpec::NONE).map(|c| (c.tag(), c.kind)).collect()
}

fn noise_names() -> Vec<(String, NoiseSpec)> {
    let panels = AttackCase::figure8_panels();
    let name = |c: &AttackCase| c.tag().split_once('+').map_or("none".into(), |(_, n)| n.into());
    panels.iter().filter(|c| c.kind == panels[0].kind).map(|c| (name(c), c.noise)).collect()
}

fn defense_names() -> Vec<(String, DefenseConfig)> {
    let name = |c| DefensePoint::new(c).tag().trim_end_matches(|d: char| d.is_ascii_digit()).into();
    DefenseConfig::ALL.into_iter().map(|c| (name(c), c)).collect()
}

fn lookup<T: Copy>(names: &[(String, T)], name: &str) -> Option<T> {
    names.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
}

fn parse_kinds(sel: &str) -> Result<Vec<AttackKind>, String> {
    let names = kind_names();
    match sel {
        "none" => Ok(Vec::new()),
        "all" => Ok(names.iter().map(|&(_, kind)| kind).collect()),
        list => parse_list(list, "attack", |s| lookup(&names, s)),
    }
}

fn workload_names(spec: &str) -> Result<Vec<String>, String> {
    let names = |ws: Vec<prefender_workloads::Workload>| {
        ws.into_iter().map(|w| w.name().to_string()).collect::<Vec<_>>()
    };
    match spec {
        "none" => Ok(Vec::new()),
        "all" => Ok(names(prefender_workloads::all())),
        "spec2006" => Ok(names(prefender_workloads::spec2006())),
        "spec2017" => Ok(names(prefender_workloads::spec2017())),
        list => {
            let all = names(prefender_workloads::all());
            parse_list(list, "workload", |n| all.iter().any(|w| w == n).then(|| n.to_string()))
        }
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    args_from(&scan(argv, &[SWEEP], "option")?)
}

/// Builds a run from scanned `sweep` flags: the class rules first, then
/// the grid and its own constraints.
fn args_from(given: &Given) -> Result<Args, String> {
    if given.has("--resume") {
        if let Some(bad) = given.flags().find(|f| f.class != Exec && f.name != "--resume") {
            let exec: Vec<&str> =
                SWEEP.iter().filter(|f| f.class == Exec).map(|f| f.name).collect();
            return Err(format!(
                "{} conflicts with --resume: the campaign manifest fixes the grid, seed and \
                 output directory (only {} may vary)",
                bad.name,
                exec.join("/")
            ));
        }
    }
    let shard_size = given.parse("--shard-size")?;
    if let Some(size) = shard_size {
        if size == 0 {
            return Err("--shard-size must be at least 1".to_string());
        }
        if let Some(bad) = given.flags().find(|f| f.class == Stream) {
            return Err(format!(
                "{} is not available with --shard-size (sharded campaigns commit shard \
                 artifacts, not obs/trace streams)",
                bad.name
            ));
        }
    }

    let mut grid = SweepGrid::empty();
    grid.leakage_secrets = given.parse("--secrets")?.unwrap_or(grid.leakage_secrets);
    grid.leakage_trials = given.parse("--trials")?.unwrap_or(grid.leakage_trials);
    grid.leakage_jitter = given.parse("--jitter")?.unwrap_or(grid.leakage_jitter);
    grid.leakage_permutations = given.parse("--permutations")?.unwrap_or(grid.leakage_permutations);
    grid.leakage_bootstrap = given.parse("--bootstrap")?.unwrap_or(grid.leakage_bootstrap);
    grid.leakage_alpha = given.parse("--alpha")?.unwrap_or(grid.leakage_alpha);
    grid.seeds = given.parse("--seeds")?.unwrap_or(grid.seeds).max(1);

    let crosses: &[bool] = match given.value("--cross-core").unwrap_or("single") {
        "single" => &[false],
        "cross" => &[true],
        "both" => &[false, true],
        other => return Err(format!("unknown --cross-core mode `{other}`")),
    };
    let noise_names = noise_names();
    let noises: Vec<NoiseSpec> = match given.value("--noise") {
        Some(list) => parse_list(list, "noise", |s| lookup(&noise_names, s))?,
        None => noise_names.iter().map(|&(_, noise)| noise).collect(),
    };
    let cases = |flag: &str, default: &str| -> Result<Vec<AttackCase>, String> {
        let mut cases = Vec::new();
        for kind in parse_kinds(given.value(flag).unwrap_or(default))? {
            for &noise in &noises {
                for &cross_core in crosses {
                    cases.push(AttackCase { kind, noise, cross_core });
                }
            }
        }
        Ok(cases)
    };
    grid.attacks = cases("--attacks", "all")?;
    grid.leakages = cases("--leakage", "none")?;

    let configs = match given.value("--defenses").unwrap_or("all") {
        "all" => DefenseConfig::ALL.to_vec(),
        list => {
            let names = defense_names();
            parse_list(list, "defense", |s| lookup(&names, s))?
        }
    };
    let buffers: Vec<usize> =
        parse_list(given.value("--buffers").unwrap_or("32"), "buffer count", |s| s.parse().ok())?;
    // `base` and `st` ignore the count, and their tags drop it: each gets
    // one point, at the first count, so no scenario id repeats.
    grid.defenses.clear();
    for config in configs {
        for &buffers in &buffers {
            let point = DefensePoint { config, buffers };
            if !grid.defenses.iter().any(|p| p.tag() == point.tag()) {
                grid.defenses.push(point);
            }
        }
    }
    if let Some(list) = given.value("--basics") {
        grid.basics = parse_list(list, "basic prefetcher", basic_from_tag)?;
    }
    if let Some(sel) = given.value("--hierarchies") {
        grid.hierarchies = match sel {
            "all" => Hierarchy::ALL.to_vec(),
            list => parse_list(list, "hierarchy", Hierarchy::from_tag)?,
        };
    }
    if let Some(sel) = given.value("--workloads") {
        grid.workloads = workload_names(sel)?;
    }

    if !grid.leakages.is_empty() {
        // Secrets are placed at distinct indices of the paper probe
        // window; reject impossible campaign shapes up front.
        let window = prefender_attacks::AttackLayout::paper().n_indices as u32;
        if grid.leakage_secrets < 1 || grid.leakage_secrets > window {
            return Err(format!(
                "--secrets must be 1..={window} (the probe-window width), got {}",
                grid.leakage_secrets
            ));
        }
        if grid.leakage_trials < 1 {
            return Err("--trials must be at least 1".to_string());
        }
    }
    if grid.leakage_jitter > u32::MAX.into() {
        return Err(format!("--jitter must be 0..={}, got {}", u32::MAX, grid.leakage_jitter));
    }
    // Resampling knobs only make sense when a leakage campaign runs, and
    // alpha must be a usable significance level.
    grid.resample().validate().map_err(|e| format!("--alpha: {e}"))?;
    if grid.resample().is_enabled() && grid.leakages.is_empty() {
        return Err("--permutations/--bootstrap need at least one --leakage campaign".to_string());
    }
    if given.has("--trace-out") && !given.has("--trace") {
        return Err("--trace-out requires --trace".to_string());
    }
    Ok(Args {
        grid,
        threads: given.parse("--threads")?.unwrap_or(0),
        campaign_seed: given.value("--seed").map_or(Ok(0xC0FFEE), parse_u64)?,
        out: given.path("--out").unwrap_or_else(|| ".".into()),
        bench_json: given.path("--bench-json"),
        quiet: given.has("--quiet"),
        list: given.has("--list"),
        progress: given.has("--progress"),
        obs: given.has("--obs"),
        obs_out: given.path("--obs-out"),
        trace: given.has("--trace"),
        trace_out: given.path("--trace-out"),
        shard_size,
        resume: given.path("--resume"),
    })
}

/// Writes `body` to `path` through [`write_atomic`]: a crash leaves
/// either the old bytes or the new bytes, never a torn file.
fn write(path: &Path, body: impl AsRef<[u8]>) -> Result<(), String> {
    write_atomic(path, body).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Writes the report's artifact files into `out` and returns the
/// `wrote ...` line naming them.
fn write_report_artifacts(out: &Path, report: &SweepReport) -> Result<String, String> {
    let mut wrote = Vec::new();
    for (name, body) in report.artifacts() {
        let path = out.join(name);
        write(&path, body)?;
        wrote.push(path.display().to_string());
    }
    Ok(format!("wrote {}", wrote.join(", ")))
}

/// The closing line of `--shard-size` and `--resume`, e.g. `9 shards: 2
/// skipped (complete), 1 quarantined, 7 executed`.
fn shard_line(s: &WorkSummary) -> String {
    format!(
        "{} shards: {} skipped (complete), {} quarantined, {} executed",
        s.shards, s.loaded, s.counters.shard_quarantines, s.committed
    )
}

/// Validates the output directory *before* running anything: hours of
/// compute should not be lost to an unwritable `--out` discovered at
/// artifact time.
fn ensure_writable_dir(dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let probe = dir.join(format!(".sweep-writable.tmp.{}", std::process::id()));
    std::fs::write(&probe, b"probe")
        .map_err(|e| format!("{} is not writable: {e}", dir.display()))?;
    let _ = std::fs::remove_file(&probe);
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sweep: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    // Fault injection for the crash-resume harness: honor
    // PREFENDER_FAILPOINTS before anything touches the filesystem.
    prefender_obs::arm_failpoints_from_env()
        .map_err(|e| format!("{}: {e}", prefender_obs::FAILPOINTS_ENV))?;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", help());
        return Ok(());
    }
    match argv.first().map(String::as_str) {
        Some("work") => subcmd::run_work(&argv[1..]),
        Some("serve") => subcmd::run_serve(&argv[1..]),
        _ => sweep(parse_args(&argv)?),
    }
}

/// Runs the campaign in process, sharded or resumed, and writes its
/// artifacts and any obs/trace/bench outputs.
fn sweep(mut args: Args) -> Result<(), String> {
    if args.resume.is_none() && args.grid.is_empty() {
        return Err(
            "the selected grid is empty (no attacks, workloads or leakage campaigns)".to_string()
        );
    }

    if args.list {
        let n = args.grid.len();
        let sims = args.grid.sims();
        // Dry run: print the enumerated work-list for campaign sizing.
        let scenarios = args.grid.enumerate();
        for s in &scenarios {
            println!("{:>6}  {}", s.index, s.id());
        }
        // Distinct machine-shaping keys = the machine-rebuild floor under
        // config-major scheduling (each worker rebuilds at most once per
        // distinct configuration; everything else is an in-place reset).
        let mut keys: Vec<_> = scenarios.iter().map(|s| s.machine_key()).collect();
        keys.sort();
        keys.dedup();
        println!(
            "{n} scenarios ({sims} estimated simulations, {} distinct machine configs), \
             not executed (--list)",
            keys.len()
        );
        if args.trace {
            // Coarse planning estimate: attack/leakage sims emit on the
            // order of ~25k flight-recorder events each (demand + MSHR +
            // prefetch traffic over a paper probe schedule).
            const EST_EVENTS_PER_SIM: u64 = 25_000;
            let cap = prefender_obs::DEFAULT_TRACE_CAPACITY;
            let event_size = std::mem::size_of::<prefender_obs::TraceEvent>();
            println!(
                "trace: ~{} events estimated ({sims} sims x ~{EST_EVENTS_PER_SIM}/sim); \
                 ring buffer {cap} events ({} KiB) per worker thread",
                sims * EST_EVENTS_PER_SIM,
                cap * event_size / 1024,
            );
        }
        return Ok(());
    }
    if args.resume.is_none() {
        let (n, sims) = (args.grid.len(), args.grid.sims());
        eprintln!(
            "sweep: {n} scenarios / {sims} sims ({} attack cases, {} workloads, {} leakage campaigns) x {} defenses x {} basics x {} hierarchies x {} seeds",
            args.grid.attacks.len(),
            args.grid.workloads.len(),
            args.grid.leakages.len(),
            args.grid.defenses.len(),
            args.grid.basics.len(),
            args.grid.hierarchies.len(),
            args.grid.seeds,
        );
        // Fail fast on an unusable --out, before any compute runs.
        ensure_writable_dir(&args.out)?;
    }
    let opts = SweepOptions { threads: args.threads, campaign_seed: args.campaign_seed };
    if args.trace {
        prefender_obs::arm_trace(prefender_obs::DEFAULT_TRACE_CAPACITY);
    }
    let start = Instant::now();
    let (report, obs) = if let Some(dir) = args.resume.clone() {
        // The manifest carries the grid and seed; the command line only
        // chose the directory. Rebind args so reporting below sees the
        // campaign's real shape.
        let (report, manifest, summary) =
            resume_sharded(&dir, args.threads).map_err(|e| e.to_string())?;
        eprintln!("sweep: resume: {}", shard_line(&summary));
        args.grid = manifest.grid;
        args.campaign_seed = manifest.campaign_seed;
        args.out = dir;
        (report, None)
    } else if let Some(size) = args.shard_size {
        let (report, summary) =
            run_sharded(&args.out, &args.grid, &opts, size).map_err(|e| e.to_string())?;
        eprintln!("sweep: shards: {}", shard_line(&summary));
        (report, None)
    } else {
        // `run_sweep` is `run_sweep_observed` minus the extras, so running
        // observed unconditionally cannot change the artifacts — the obs
        // outputs are simply dropped unless a flag asks for them.
        let total = args.grid.len() as u64;
        let reporter =
            args.progress.then(|| std::sync::Mutex::new(ProgressReporter::new("sweep", total)));
        let on_chunk = |done: usize, _total: usize| {
            if let Some(r) = &reporter {
                r.lock().expect("progress reporter").update(done as u64);
            }
        };
        let progress: Option<&(dyn Fn(usize, usize) + Sync)> =
            if args.progress { Some(&on_chunk) } else { None };
        let (report, obs) = run_sweep_observed(&args.grid, &opts, progress);
        if let Some(r) = &reporter {
            r.lock().expect("progress reporter").finish(total);
        }
        (report, Some(obs))
    };
    if args.trace {
        prefender_obs::disarm_trace();
    }
    let n = args.grid.len();
    let sims = args.grid.sims();
    let elapsed = start.elapsed();
    let per_sec = n as f64 / elapsed.as_secs_f64().max(1e-9);

    let wrote = write_report_artifacts(&args.out, &report)?;
    if !args.quiet {
        println!("{}", report.render_table());
    }
    let leaked = report.results.iter().filter(|r| r.leaked == Some(true)).count();
    let defended = report.results.iter().filter(|r| r.leaked == Some(false)).count();
    println!(
        "{n} scenarios / {sims} sims in {:.2?} ({per_sec:.1} scenarios/s, threads={}): {leaked} leaked, {defended} defended, {} campaigns, {} perf runs",
        elapsed,
        args.threads,
        report.results.iter().filter(|r| r.is_leakage()).count(),
        report.results.iter().filter(|r| r.leaked.is_none() && !r.is_leakage()).count(),
    );
    println!("{wrote}");

    // The obs/trace flags conflict with --shard-size/--resume at parse
    // time, so `obs` is always present on these paths.
    if args.obs {
        let path = args.out.join("obs.json");
        write(&path, obs.as_ref().expect("--obs runs the in-memory path").to_json() + "\n")?;
        println!("wrote {}", path.display());
    }
    if let Some(path) = &args.obs_out {
        write(path, obs.as_ref().expect("--obs-out runs the in-memory path").events_jsonl())?;
        println!("wrote {}", path.display());
    }
    if args.trace {
        let obs = obs.as_ref().expect("--trace runs the in-memory path");
        let path = args.trace_out.clone().unwrap_or_else(|| args.out.join("trace.jsonl"));
        write(&path, obs.trace_jsonl())?;
        println!(
            "wrote {} ({} events, {} dropped)",
            path.display(),
            obs.trace_events(),
            obs.trace_dropped()
        );
    }

    if let Some(path) = &args.bench_json {
        let secs = elapsed.as_secs_f64();
        let record = Value::Obj(vec![
            ("bench".into(), Value::Str("sweep".into())),
            ("scenarios".into(), Value::U64(n as u64)),
            ("sims".into(), Value::U64(sims)),
            ("threads".into(), Value::U64(args.threads as u64)),
            ("elapsed_secs".into(), Value::F64(secs)),
            ("scenarios_per_sec".into(), Value::F64(per_sec)),
            ("sims_per_sec".into(), Value::F64(sims as f64 / secs.max(1e-9))),
            ("host".into(), HostInfo::capture().to_value()),
        ]);
        write(path, record.to_json_inline() + "\n")?;
        println!("wrote {}", path.display());
    }
    Ok(())
}

/// The `work`/`serve` subcommands — the multi-process campaign modes.
mod subcmd {
    use std::io::Write as _;
    use std::path::PathBuf;
    use std::time::Duration;

    use prefender_sweep::{
        init_campaign, load_manifest, serve_campaign, work_campaign, LeaseConfig, ServeOptions,
        SweepOptions, WorkEvent, WorkOptions, MANIFEST_NAME,
    };

    use super::{
        args_from, ensure_writable_dir, scan, write_report_artifacts, Class, Given, SERVE, SWEEP,
        WORK,
    };

    /// Splits off the campaign DIR that `work` and `serve` take first.
    fn split_dir<'a>(argv: &'a [String], sub: &str) -> Result<(PathBuf, &'a [String]), String> {
        match argv.split_first() {
            Some((dir, rest)) if !dir.starts_with("--") => Ok((dir.into(), rest)),
            _ => Err(format!("{sub} needs a campaign DIR as its first argument")),
        }
    }

    pub(super) struct WorkArgs {
        pub(super) dir: PathBuf,
        pub(super) threads: usize,
        pub(super) ttl_ms: u64,
        pub(super) quiet: bool,
    }

    pub(super) fn parse_work(argv: &[String]) -> Result<WorkArgs, String> {
        let (dir, rest) = split_dir(argv, "work")?;
        let given = scan(rest, &[WORK], "work option")?;
        Ok(WorkArgs {
            dir,
            threads: given.parse("--threads")?.unwrap_or(1),
            ttl_ms: given.parse("--lease-ttl-ms")?.unwrap_or(LeaseConfig::default().ttl_ms),
            quiet: given.has("--quiet"),
        })
    }

    /// Prints one `sweep: work: …` line in a single write, so the
    /// supervisor's reader never wakes for part of a line. A closed
    /// stderr (a supervisor that died) is ignored: the worker still
    /// finishes the campaign.
    fn say(line: impl std::fmt::Display) {
        let _ = std::io::stderr().write_all(format!("sweep: work: {line}\n").as_bytes());
    }

    pub(super) fn run_work(argv: &[String]) -> Result<(), String> {
        let wargs = parse_work(argv)?;
        let opts =
            WorkOptions { threads: wargs.threads, lease: LeaseConfig::with_ttl_ms(wargs.ttl_ms) };
        let mut on_event = |e: &WorkEvent| {
            if e.is_fault() || !wargs.quiet {
                say(e);
            }
        };
        let (report, _, summary) =
            work_campaign(&wargs.dir, &opts, &mut on_event).map_err(|e| format!("work: {e}"))?;
        say(summary.render());
        // Every worker reaching this point holds the complete converged
        // report; concurrent writers commit identical bytes through the
        // atomic-rename path.
        let wrote = write_report_artifacts(&wargs.dir, &report)?;
        if !wargs.quiet {
            println!("{wrote}");
        }
        Ok(())
    }

    #[derive(Debug)]
    pub(super) struct ServeArgs {
        pub(super) dir: PathBuf,
        pub(super) opts: ServeOptions,
        /// The `sweep` grid flags that create the campaign when DIR has
        /// none yet.
        pub(super) grid: Given,
    }

    pub(super) fn parse_serve(argv: &[String]) -> Result<ServeArgs, String> {
        let (dir, rest) = split_dir(argv, "serve")?;
        let given = scan(rest, &[SERVE, SWEEP], "option")?;
        let grid = Given(given.0.iter().filter(|(f, _)| !SERVE.contains(f)).cloned().collect());
        if let Some(bad) = grid.flags().find(|f| f.class != Class::Grid) {
            return Err(format!(
                "serve: only grid/--seed/--shard-size flags apply when creating a campaign \
                 ({} does not)",
                bad.name
            ));
        }
        let workers = given.parse("--workers")?.unwrap_or(0);
        if workers == 0 {
            return Err("serve needs --workers N (at least 1)".into());
        }
        let exe = std::env::current_exe()
            .map_err(|e| format!("cannot locate own binary to spawn workers: {e}"))?;
        let mut opts = ServeOptions::new(exe, workers);
        opts.worker_threads = given.parse("--worker-threads")?.unwrap_or(opts.worker_threads);
        opts.restart_budget = given.parse("--restart-budget")?.unwrap_or(opts.restart_budget);
        opts.lease =
            LeaseConfig::with_ttl_ms(given.parse("--lease-ttl-ms")?.unwrap_or(opts.lease.ttl_ms));
        if let Some(ms) = given.parse("--stall-timeout-ms")? {
            opts.stall_timeout = Duration::from_millis(ms);
        }
        opts.worker_failpoints = given.value("--worker-failpoints").map(String::from);
        opts.quiet = given.has("--quiet");
        Ok(ServeArgs { dir, opts, grid })
    }

    pub(super) fn run_serve(argv: &[String]) -> Result<(), String> {
        let sargs = parse_serve(argv)?;
        if sargs.dir.join(MANIFEST_NAME).exists() {
            if !sargs.grid.0.is_empty() {
                let flags: Vec<String> =
                    sargs.grid.0.iter().map(|(f, v)| format!("{} {v}", f.name)).collect();
                return Err(format!(
                    "serve: {} already holds a campaign; `{}` conflicts — the manifest fixes \
                     the grid, seed and shard size",
                    sargs.dir.display(),
                    flags.join(" ")
                ));
            }
            load_manifest(&sargs.dir).map_err(|e| e.to_string())?;
        } else {
            let gargs = args_from(&sargs.grid).map_err(|e| format!("serve: {e}"))?;
            if gargs.grid.is_empty() {
                return Err("the selected grid is empty".to_string());
            }
            ensure_writable_dir(&sargs.dir)?;
            let n = gargs.grid.len();
            // Default to ~8 shards per worker: fine-grained enough to
            // balance, coarse enough to amortize commit overhead.
            let shard_size =
                gargs.shard_size.unwrap_or_else(|| n.div_ceil(sargs.opts.workers * 8)).max(1);
            let opts = SweepOptions { threads: 0, campaign_seed: gargs.campaign_seed };
            let manifest = init_campaign(&sargs.dir, &gargs.grid, &opts, shard_size)
                .map_err(|e| e.to_string())?;
            eprintln!(
                "sweep: serve: initialized campaign ({n} scenarios, {} shards of <= {shard_size})",
                manifest.plan().n_shards()
            );
        }
        let (report, _, summary) =
            serve_campaign(&sargs.dir, &sargs.opts).map_err(|e| format!("serve: {e}"))?;
        for w in &summary.per_worker {
            eprintln!(
                "sweep: serve: worker {}: {} shards (pids {})",
                w.worker,
                w.committed,
                w.pids.iter().map(|p| p.to_string()).collect::<Vec<_>>().join(",")
            );
        }
        eprintln!("sweep: serve: {}", summary.render());
        println!("{}", write_report_artifacts(&sargs.dir, &report)?);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::{parse_args, Class, Flag, SWEEP};

    fn parse(line: &str) -> Result<super::Args, String> {
        parse_args(&line.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    /// `flag` as it appears on a command line, with a placeholder value
    /// when it takes one.
    fn written(flag: &Flag) -> String {
        if flag.value.is_empty() {
            flag.name.to_string()
        } else {
            format!("{} 1", flag.name)
        }
    }

    #[test]
    fn resume_conflicts_with_every_grid_shaping_flag() {
        let conflicting = SWEEP.iter().filter(|f| f.class != Class::Exec && f.name != "--resume");
        assert_eq!(conflicting.clone().count(), 26);
        for flag in conflicting {
            let line = format!("--resume d {}", written(flag));
            let err = parse(&line).expect_err(&line);
            assert!(err.contains("conflicts with --resume"), "`{line}` -> {err}");
        }
    }

    #[test]
    fn resume_allows_execution_knobs_only() {
        // A misfiled row would widen what a resume may vary.
        let exec: Vec<&str> =
            SWEEP.iter().filter(|f| f.class == Class::Exec).map(|f| f.name).collect();
        assert_eq!(exec, ["--threads", "--quiet"]);
        let err = parse("--resume d --seed 7").unwrap_err();
        assert!(err.contains("(only --threads/--quiet may vary)"), "{err}");
        let args = parse("--resume some/dir --threads 8 --quiet").expect("compatible flags");
        assert_eq!(args.resume.as_deref(), Some(std::path::Path::new("some/dir")));
        assert_eq!(args.threads, 8);
        assert!(args.quiet);
    }

    #[test]
    fn shard_size_must_be_positive() {
        let err = parse("--shard-size 0").unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let err = parse("--shard-size nope").unwrap_err();
        assert!(err.contains("invalid --shard-size"), "{err}");
        assert_eq!(parse("--shard-size 16").expect("valid").shard_size, Some(16));
    }

    #[test]
    fn jitter_is_capped_at_u32_max() {
        let max = "--attacks none --leakage fr --jitter 4294967295";
        assert_eq!(parse(max).expect("valid").grid.leakage_jitter, u64::from(u32::MAX));
        let err = parse("--attacks none --leakage fr --jitter 18446744073709551615").unwrap_err();
        assert!(err.contains("--jitter must be 0..=4294967295"), "{err}");
    }

    #[test]
    fn shard_size_conflicts_with_obs_and_trace_streams() {
        let streams = SWEEP.iter().filter(|f| f.class == Class::Stream);
        assert_eq!(streams.clone().count(), 6);
        for flag in streams {
            let line = format!("--shard-size 4 {}", written(flag));
            let err = parse(&line).expect_err(&line);
            assert!(err.contains("not available with --shard-size"), "`{line}` -> {err}");
        }
    }

    #[test]
    fn flags_that_need_values_say_so() {
        let valued: Vec<&Flag> = SWEEP.iter().filter(|f| !f.value.is_empty()).collect();
        assert_eq!(valued.len(), 24);
        for flag in valued {
            let err = parse(flag.name).unwrap_err();
            assert!(err.contains("needs a value"), "`{}` -> {err}", flag.name);
        }
    }

    #[test]
    fn repeated_flags_keep_the_last_value_and_unknown_ones_fail() {
        let args = parse("--threads 2 --seed 7 --threads 3").expect("valid");
        assert_eq!((args.threads, args.campaign_seed), (3, 7));
        let err = parse("--bogus").unwrap_err();
        assert!(err.contains("unknown option `--bogus`"), "{err}");
    }

    #[test]
    fn buffer_counts_give_bufferless_defenses_one_point() {
        let line =
            "--attacks none --workloads 999.specrand --defenses base,st,stat --buffers 16,32";
        let grid = parse(line).expect("valid").grid;
        let tags: Vec<String> = grid.defenses.iter().map(|d| d.tag()).collect();
        assert_eq!(tags, ["base", "st", "stat16", "stat32"]);
        assert_eq!(grid.defenses[0].buffers, 16, "the first listed count");
        let mut ids: Vec<String> = grid.enumerate().iter().map(|s| s.id()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 4, "{ids:?}");
    }

    #[test]
    fn help_lists_every_row() {
        let help = super::help();
        for flag in SWEEP.iter().chain(super::WORK).chain(super::SERVE) {
            assert!(help.contains(&format!("{} {}", flag.name, flag.value)), "{}", flag.name);
            assert!(help.contains(flag.help), "{}", flag.name);
        }
    }

    mod subcmd {
        use super::written;
        use crate::subcmd::{parse_serve, parse_work};
        use crate::{Class, Flag, SERVE, SWEEP, WORK};

        fn argv(line: &str) -> Vec<String> {
            line.split_whitespace().map(String::from).collect()
        }

        #[test]
        fn work_parses_its_flags_and_requires_a_dir() {
            let args = parse_work(&argv("camp --threads 2 --lease-ttl-ms 750 --quiet"))
                .expect("valid work line");
            assert_eq!(args.dir, std::path::Path::new("camp"));
            assert_eq!(args.threads, 2);
            assert_eq!(args.ttl_ms, 750);
            assert!(args.quiet);
            for bad in ["", "--threads 2", "camp --bogus"] {
                assert!(parse_work(&argv(bad)).is_err(), "`{bad}` must be rejected");
            }
            // The supervisor reads a worker's stderr: no socket to name.
            for gone in ["sock", "worker-id"] {
                let err = parse_work(&argv(&format!("camp --{gone} 1"))).err().unwrap_or_default();
                assert_eq!(err, format!("unknown work option `--{gone}`"));
            }
        }

        #[test]
        fn serve_requires_workers_and_forwards_grid_flags_in_order() {
            let args = parse_serve(&argv(
                "camp --workers 4 --leakage fr --restart-budget 9 --seed 0x2A \
                 --stall-timeout-ms 500 --shard-size 6",
            ))
            .expect("valid serve line");
            assert_eq!(args.dir, std::path::Path::new("camp"));
            assert_eq!(args.opts.workers, 4);
            assert_eq!(args.opts.restart_budget, 9);
            assert_eq!(args.opts.stall_timeout, std::time::Duration::from_millis(500));
            // The grid flags are kept with their values, in order, to
            // create the campaign.
            let grid: Vec<(&str, &str)> =
                args.grid.0.iter().map(|(f, v)| (f.name, v.as_str())).collect();
            assert_eq!(grid, [("--leakage", "fr"), ("--seed", "0x2A"), ("--shard-size", "6")]);
            let err = parse_serve(&argv("camp --leakage fr")).unwrap_err();
            assert!(err.contains("--workers"), "{err}");
            assert!(parse_serve(&argv("--workers 2")).is_err(), "DIR must come first");
        }

        #[test]
        fn serve_refuses_the_flags_it_would_ignore() {
            for flags in ["--out elsewhere", "--threads 8", "--bench-json b.json"] {
                let line = format!("camp --workers 1 {flags} --attacks fr");
                let err = parse_serve(&argv(&line)).expect_err(&line);
                assert!(err.contains("only grid/--seed/--shard-size flags apply"), "{err}");
            }
        }

        #[test]
        fn serve_creates_campaigns_from_grid_flags_only() {
            // `--quiet` is serve's own flag, so sweep's row never applies.
            let refused: Vec<_> = SWEEP
                .iter()
                .filter(|f| f.class != Class::Grid && !SERVE.iter().any(|s| s.name == f.name))
                .collect();
            assert_eq!(refused.len(), 10);
            for flag in refused {
                let line = format!("camp --workers 1 {}", written(flag));
                let err = parse_serve(&argv(&line)).expect_err(&line);
                assert!(err.contains("only grid/--seed/--shard-size flags apply"), "{err}");
            }
        }

        #[test]
        fn subcommand_flags_that_need_values_say_so() {
            let line = |flag: &Flag| argv(&format!("camp {}", flag.name));
            let valued = |table: &'static [Flag]| table.iter().filter(|f| !f.value.is_empty());
            for flag in valued(WORK) {
                let err = parse_work(&line(flag)).err().unwrap_or_default();
                assert!(err.contains("needs a value"), "work {} -> {err}", flag.name);
            }
            for flag in valued(SERVE) {
                let err = parse_serve(&line(flag)).err().unwrap_or_default();
                assert!(err.contains("needs a value"), "serve {} -> {err}", flag.name);
            }
        }
    }
}
