//! The deterministic sharded executor.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use prefender_attacks::Runner;
use prefender_obs::{ObsCounters, TraceBuf, Value};

use crate::artifact::SweepReport;
use crate::grid::SweepGrid;
use crate::scenario::{run_on, Ran, Scenario};

/// Campaign-level execution options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepOptions {
    /// Worker threads; `0` means one per available CPU.
    pub threads: usize,
    /// Campaign seed every per-scenario seed is derived from.
    pub campaign_seed: u64,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions { threads: 0, campaign_seed: 0xC0FFEE }
    }
}

fn effective_threads(requested: usize, items: usize) -> usize {
    let t = if requested == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        requested
    };
    t.clamp(1, items.max(1))
}

/// The dynamic-sharding chunk size: small enough that stragglers cannot
/// idle the pool (at least eight claims per worker on balanced grids),
/// large enough that workers keep runs of *consecutive* items — which is
/// what lets a config-major-ordered work-list reuse per-worker machines —
/// and the cursor is touched once per chunk instead of once per item.
fn chunk_size(items: usize, threads: usize) -> usize {
    (items / (threads * 8)).clamp(1, 64)
}

/// The one worker pool: runs `f(state, start, chunk)` over `items` in
/// chunks of consecutive items (see [`chunk_size`]), one worker per entry
/// of `workers` (at most one per item), each on its own caller-owned
/// state, and returns every result in item order.
///
/// Every worker starts on its own chunk and then claims the next free
/// one off an atomic cursor, so sharding is dynamic but each worker keeps
/// runs of consecutive items — which is what lets a config-major
/// work-list reuse the runner a worker's state holds. Workers share
/// nothing mutable beyond the cursor; each buffers its chunks locally,
/// and the final assembly orders the chunks by start index. With one
/// worker everything runs inline on the calling thread, chunk by chunk,
/// so a one-thread run spawns no thread.
///
/// # Panics
///
/// Panics when `workers` is empty; propagates a worker panic once every
/// worker has stopped.
pub(crate) fn run_pool<T, R, W, F>(items: &[T], workers: &mut [W], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    W: Send,
    F: Fn(&mut W, usize, &[T]) -> Vec<R> + Sync,
{
    let n = items.len();
    let used = workers.len().min(n).max(1);
    let workers = &mut workers[..used];
    let chunk = chunk_size(n, workers.len());
    let cursor = AtomicUsize::new(workers.len() * chunk);
    let work = |wid: usize, state: &mut W| {
        let mut chunks = Vec::new();
        let mut start = wid * chunk;
        while start < n {
            let end = (start + chunk).min(n);
            chunks.push((start, f(state, start, &items[start..end])));
            start = cursor.fetch_add(chunk, Ordering::Relaxed);
        }
        chunks
    };
    let mut chunks = match workers {
        [only] => work(0, only),
        _ => std::thread::scope(|scope| {
            let work = &work;
            let handles: Vec<_> = workers
                .iter_mut()
                .enumerate()
                .map(|(wid, state)| scope.spawn(move || work(wid, state)))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
                .collect()
        }),
    };
    chunks.sort_unstable_by_key(|&(start, _)| start);
    chunks.into_iter().flat_map(|(_, out)| out).collect()
}

/// Applies `f` to every item on a worker pool and returns the results in
/// item order — [`run_pool`] with stateless workers. As long as `f` is a
/// pure function of its item, the result vector is identical for every
/// thread count; this is the primitive the bench ablations build on.
///
/// # Panics
///
/// Propagates a worker panic once every worker has stopped.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let mut workers = vec![(); effective_threads(threads, items.len())];
    run_pool(items, &mut workers, |_, _, chunk| chunk.iter().map(&f).collect())
}

/// Runs `scenarios` on the pool **config-major**: stably sorted by
/// [`Scenario::machine_key`] (cross-core scope, defense point, basic
/// prefetcher, hierarchy), so a worker's consecutive claims overwhelmingly
/// share one machine configuration and the runner its state holds resets
/// in place instead of rebuilding. `run` gets each chunk with its
/// worker's state. Results come back in `scenarios` order, which erases
/// the scheduling choice — the one dispatch behind [`run_sweep`] and
/// every shard of a sharded campaign.
pub(crate) fn run_config_major<W, R, F>(scenarios: &[Scenario], workers: &mut [W], run: F) -> Vec<R>
where
    W: Send,
    R: Send,
    F: Fn(&mut W, usize, &[&Scenario]) -> Vec<R> + Sync,
{
    let mut order: Vec<usize> = (0..scenarios.len()).collect();
    order.sort_by_key(|&k| scenarios[k].machine_key());
    let queue: Vec<&Scenario> = order.iter().map(|&k| &scenarios[k]).collect();
    let mut out: Vec<Option<R>> = std::iter::repeat_with(|| None).take(order.len()).collect();
    for (k, r) in order.into_iter().zip(run_pool(&queue, workers, run)) {
        out[k] = Some(r);
    }
    out.into_iter().map(|r| r.expect("every scenario produces exactly one result")).collect()
}

/// One empty runner slot per worker that `threads` yields on work-lists
/// of `items` scenarios: a sharded campaign creates these once and lends
/// them to every shard, so its machines outlive shard boundaries.
pub(crate) fn runner_slots(threads: usize, items: usize) -> Vec<Option<Runner>> {
    std::iter::repeat_with(|| None).take(effective_threads(threads, items)).collect()
}

/// Applies `f` to every `(row, col)` cell of a 2-D grid on the worker
/// pool and returns the results as one `Vec` per row.
///
/// This owns the flatten-and-reslice arithmetic so callers sweeping a
/// (workload × column)-shaped space never hand-roll stride indexing.
/// Same determinism contract as [`parallel_map`].
pub fn parallel_map_2d<R, F>(rows: usize, cols: usize, threads: usize, f: F) -> Vec<Vec<R>>
where
    R: Send,
    F: Fn(usize, usize) -> R + Sync,
{
    let cells: Vec<(usize, usize)> =
        (0..rows).flat_map(|r| (0..cols).map(move |c| (r, c))).collect();
    let mut flat = parallel_map(&cells, threads, |&(r, c)| f(r, c));
    let mut out = Vec::with_capacity(rows);
    for _ in 0..rows {
        let rest = flat.split_off(cols.min(flat.len()));
        out.push(std::mem::replace(&mut flat, rest));
    }
    out
}

/// Enumerates `grid` and runs every scenario on the worker pool.
///
/// Scenarios are dispatched config-major ([`run_config_major`]): each
/// worker owns one runner for the whole sweep, and consecutive claims
/// sharing a machine configuration reset it in place instead of
/// rebuilding the hierarchy. This is purely a *scheduling* choice: every
/// scenario's seed is derived from `opts.campaign_seed` + its grid index
/// (never from execution order) and the report is in scenario-index
/// order — so the same grid and campaign seed produce **bit-identical
/// artifacts at any thread count**, pinned against plain index-order
/// execution by `tests/scheduling_props.rs`.
pub fn run_sweep(grid: &SweepGrid, opts: &SweepOptions) -> SweepReport {
    run_sweep_observed(grid, opts, None).0
}

/// One chunk claim of the observed executor: which worker took which run
/// of consecutive work-list slots, and when (milliseconds since the sweep
/// started). Wall-clock — scheduling-dependent, `timing`-section data.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkEvent {
    /// Claiming worker (0-based).
    pub worker: usize,
    /// First work-list slot of the chunk (config-major order, not
    /// scenario index).
    pub start: usize,
    /// Scenarios in the chunk.
    pub len: usize,
    /// When the worker started the chunk, ms since the sweep started.
    /// The gap from the previous `done_ms` on the same worker is its
    /// claim latency (result-buffer bookkeeping and the cursor claim).
    pub claim_ms: f64,
    /// When the chunk's last scenario finished, ms since the sweep start.
    pub done_ms: f64,
}

/// Per-worker utilization over one observed sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerStats {
    /// Worker id (0-based).
    pub worker: usize,
    /// Chunks claimed.
    pub chunks: usize,
    /// Scenarios executed.
    pub scenarios: usize,
    /// Time spent inside scenario execution, ms.
    pub busy_ms: f64,
    /// `busy_ms` over the sweep's wall-clock span (0..=1).
    pub utilization: f64,
}

/// Scheduling- and wall-clock-dependent telemetry of one observed sweep:
/// everything here may change between runs and thread counts, which is
/// why obs reports keep it in the explicitly-marked `timing` section.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepTelemetry {
    /// Worker threads actually used.
    pub threads: usize,
    /// Chunk size the cursor handed out.
    pub chunk: usize,
    /// Wall-clock duration of the whole sweep, ms.
    pub elapsed_ms: f64,
    /// Scenarios per wall-clock second.
    pub scenarios_per_sec: f64,
    /// Runner runs served by the in-place reset path, summed over workers.
    pub resets: u64,
    /// Machine constructions, summed over workers.
    pub rebuilds: u64,
    /// Per-worker utilization, sorted by worker id.
    pub workers: Vec<WorkerStats>,
    /// Every chunk claim, sorted by `(worker, start)`.
    pub events: Vec<ChunkEvent>,
}

/// The observability output of one sweep: the deterministic counter
/// merge and the wall-clock telemetry, kept strictly apart.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepObs {
    /// Per-scenario counters merged in scenario-index order. A pure
    /// function of the grid and campaign seed: identical at every thread
    /// count (pinned by `tests/obs_props.rs`).
    pub counters: ObsCounters,
    /// Per-scenario flight-recorder traces, `(scenario id, trace)` in
    /// scenario-index order. Empty buffers when tracing was disarmed.
    /// Like `counters`, a pure function of the grid and campaign seed:
    /// the JSONL rendering is byte-identical at every thread count.
    pub traces: Vec<(String, TraceBuf)>,
    /// Scheduling/wall-clock telemetry — everything non-deterministic.
    pub telemetry: SweepTelemetry,
}

impl SweepObs {
    /// The `obs.json` document: a `counters` section (deterministic) and
    /// an explicitly-marked `timing` section (wall-clock, varies run to
    /// run). Chunk events are left to the JSONL stream (`--obs-out`).
    pub fn to_json(&self) -> String {
        let t = &self.telemetry;
        let workers = t
            .workers
            .iter()
            .map(|w| {
                Value::Obj(vec![
                    ("worker".into(), Value::U64(w.worker as u64)),
                    ("chunks".into(), Value::U64(w.chunks as u64)),
                    ("scenarios".into(), Value::U64(w.scenarios as u64)),
                    ("busy_ms".into(), Value::F64(w.busy_ms)),
                    ("utilization".into(), Value::F64(w.utilization)),
                ])
            })
            .collect();
        let doc = Value::Obj(vec![
            ("schema_version".into(), Value::U64(1)),
            ("counters".into(), self.counters.to_value()),
            (
                "timing".into(),
                Value::Obj(vec![
                    ("threads".into(), Value::U64(t.threads as u64)),
                    ("chunk".into(), Value::U64(t.chunk as u64)),
                    ("elapsed_ms".into(), Value::F64(t.elapsed_ms)),
                    ("scenarios_per_sec".into(), Value::F64(t.scenarios_per_sec)),
                    ("runner_resets".into(), Value::U64(t.resets)),
                    ("runner_rebuilds".into(), Value::U64(t.rebuilds)),
                    ("workers".into(), Value::Arr(workers)),
                ]),
            ),
        ]);
        doc.to_json(0)
    }

    /// The flight-recorder stream as JSONL: per scenario (in scenario
    ///-index order) one `{"scenario": …, "events": …, "dropped": …}`
    /// header line followed by one object per trace event — the
    /// `--trace-out` format. Deterministic: byte-identical at every
    /// thread count for a fixed grid and campaign seed.
    pub fn trace_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, buf) in &self.traces {
            let header = Value::Obj(vec![
                ("scenario".into(), Value::Str(id.clone())),
                ("events".into(), Value::U64(buf.events.len() as u64)),
                ("dropped".into(), Value::U64(buf.dropped)),
            ]);
            out.push_str(&header.to_json_inline());
            out.push('\n');
            for e in &buf.events {
                out.push_str(&e.to_value().to_json_inline());
                out.push('\n');
            }
        }
        out
    }

    /// Total captured trace events across all scenarios.
    pub fn trace_events(&self) -> u64 {
        self.traces.iter().map(|(_, b)| b.events.len() as u64).sum()
    }

    /// Total trace events dropped to full ring buffers.
    pub fn trace_dropped(&self) -> u64 {
        self.traces.iter().map(|(_, b)| b.dropped).sum()
    }

    /// The chunk-event stream as JSONL: one `{"worker": …}` object per
    /// line, the `--obs-out` format.
    pub fn events_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.telemetry.events {
            let v = Value::Obj(vec![
                ("worker".into(), Value::U64(e.worker as u64)),
                ("start".into(), Value::U64(e.start as u64)),
                ("len".into(), Value::U64(e.len as u64)),
                ("claim_ms".into(), Value::F64(e.claim_ms)),
                ("done_ms".into(), Value::F64(e.done_ms)),
            ]);
            out.push_str(&v.to_json_inline());
            out.push('\n');
        }
        out
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// [`run_sweep`] plus observability: returns the report together with the
/// merged per-scenario counters and the run's scheduling telemetry, and
/// calls `progress(done, total)` after every completed chunk (from
/// whichever worker finished it — the callback must be `Sync`).
///
/// `run_sweep` *is* this function without the extras, so the artifact is
/// byte-identical whether or not observability is consumed; the counter
/// merge runs in scenario-index order, making `counters` a pure function
/// of the grid and campaign seed at any thread count. Each worker's state
/// is its runner plus its telemetry, all dropped on return, so one call's
/// runner reuse never leaks into the next. At `threads <= 1` everything
/// executes inline on the calling thread (no pool).
pub fn run_sweep_observed(
    grid: &SweepGrid,
    opts: &SweepOptions,
    progress: Option<&(dyn Fn(usize, usize) + Sync)>,
) -> (SweepReport, SweepObs) {
    let scenarios = grid.enumerate();
    let resample = grid.resample();
    let n = scenarios.len();
    let threads = effective_threads(opts.threads, n);
    let mut workers: Vec<(Option<Runner>, WorkerStats, Vec<ChunkEvent>)> = (0..threads)
        .map(|worker| {
            let stats =
                WorkerStats { worker, chunks: 0, scenarios: 0, busy_ms: 0.0, utilization: 0.0 };
            (None, stats, Vec::new())
        })
        .collect();
    let started = Instant::now();
    let done = AtomicUsize::new(0);
    let ran =
        run_config_major(&scenarios, &mut workers, |(runner, stats, events), start, chunk| {
            let claim_ms = ms(started.elapsed());
            let out: Vec<Ran> =
                chunk.iter().map(|s| run_on(runner, s, opts.campaign_seed, &resample)).collect();
            let done_ms = ms(started.elapsed());
            let len = chunk.len();
            stats.chunks += 1;
            stats.scenarios += len;
            stats.busy_ms += done_ms - claim_ms;
            events.push(ChunkEvent { worker: stats.worker, start, len, claim_ms, done_ms });
            if let Some(p) = progress {
                p(done.fetch_add(len, Ordering::Relaxed) + len, n);
            }
            out
        });
    let elapsed_ms = ms(started.elapsed());

    // Fold the counters in scenario-index order — the merge is
    // commutative anyway, but a fixed order makes the determinism
    // contract self-evident.
    let mut counters = ObsCounters::new();
    let (mut resets, mut rebuilds) = (0u64, 0u64);
    let mut results = Vec::with_capacity(n);
    let mut traces = Vec::with_capacity(n);
    for (result, obs, (rs, rb), trace) in ran {
        counters.merge(&obs);
        resets += rs;
        rebuilds += rb;
        traces.push((result.id.clone(), trace));
        results.push(result);
    }
    let mut stats = Vec::with_capacity(threads);
    let mut events = Vec::new();
    for (_, mut w, ev) in workers {
        w.utilization = if elapsed_ms > 0.0 { (w.busy_ms / elapsed_ms).min(1.0) } else { 0.0 };
        stats.push(w);
        events.extend(ev);
    }
    let telemetry = SweepTelemetry {
        threads,
        chunk: chunk_size(n, threads),
        elapsed_ms,
        scenarios_per_sec: if elapsed_ms > 0.0 { n as f64 / (elapsed_ms / 1e3) } else { 0.0 },
        resets,
        rebuilds,
        workers: stats,
        events,
    };
    let report = SweepReport { campaign_seed: opts.campaign_seed, results };
    (report, SweepObs { counters, traces, telemetry })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..257).collect();
        for threads in [1, 2, 8, 64] {
            let out = parallel_map(&items, threads, |&x| x * x);
            assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn parallel_map_handles_more_threads_than_items() {
        let out = parallel_map(&[1u32, 2], 16, |&x| x + 1);
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn parallel_map_2d_reshapes_by_row() {
        let grid = parallel_map_2d(3, 4, 2, |r, c| r * 10 + c);
        assert_eq!(grid.len(), 3);
        assert_eq!(grid[0], vec![0, 1, 2, 3]);
        assert_eq!(grid[2], vec![20, 21, 22, 23]);
        assert_eq!(parallel_map_2d(0, 4, 2, |r, c| r + c), Vec::<Vec<usize>>::new());
        assert_eq!(parallel_map_2d(2, 0, 2, |r, c| r + c), vec![vec![], vec![]]);
    }

    #[test]
    fn effective_thread_clamp() {
        assert_eq!(effective_threads(8, 3), 3);
        assert_eq!(effective_threads(2, 100), 2);
        assert!(effective_threads(0, 100) >= 1);
        assert_eq!(effective_threads(5, 0), 1);
    }
}
