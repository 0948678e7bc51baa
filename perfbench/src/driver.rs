//! The benchmark driver: set up over a daemon in its own process, run the
//! closed loop, and turn what the probes saw into metrics.

use std::path::Path;
use std::time::{Duration, Instant};

use dps_net::{RemoteServer, Timeouts};
use dps_server::CostStats;

use crate::child::{Daemon, DaemonReport};
use crate::host;
use crate::probe::ClientProbe;
use crate::serve::BackendKind;
use crate::workload::{setup, Inputs, Session, Sizes, Workload};

/// Times the scheme is set up (each over a fresh daemon) per run;
/// `setup_s` is their median and the last one is measured.
const SETUP_REPS: usize = 5;

/// Connect, read and write deadline on the wire: a stalled daemon ends
/// the run as a failed op instead of hanging it.
const IO_DEADLINE: Duration = Duration::from_secs(10);

/// Operations per block in a traced run; blocks alternate untraced and
/// traced so both see the same drift.
const TRACE_BLOCK: usize = 128;

/// The window is cut into slices of at least this length. The run's
/// latency percentiles are the lower quartile of the slices' values, its
/// throughput the upper quartile: interference from the host (other
/// tenants, stolen CPU time) only ever slows a slice, and it comes in
/// phases of seconds that can cover most of a run; a run with a quarter
/// of its slices clean still reads clean. Costs of the program itself,
/// such as checkpoint stalls, recur in every slice.
const SLICE: Duration = Duration::from_millis(500);

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Seed of every input.
    pub seed: u64,
    /// Measured window length (ignored when `ops` is set).
    pub seconds: f64,
    /// Per-layer run (spans on in alternate blocks) instead of the
    /// end-to-end run.
    pub trace: bool,
    /// Measure exactly this many operations instead of `seconds`.
    pub ops: Option<usize>,
    /// Smoke-test sizes.
    pub small: bool,
}

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// What a run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted (warm-up included).
    pub attempted: u64,
    /// Operations that failed or answered wrongly.
    pub failed: u64,
    /// The first failure, if any.
    pub first_error: Option<String>,
    /// The metrics of the run's kind (none after a wire fault).
    pub metrics: Vec<Metric>,
}

/// Where daemons keep their stores, relative to the working directory.
pub const STORE_ROOT: &str = ".perfbench_store";

/// Everything measured inside the window, before it becomes metrics.
#[derive(Debug, Default)]
struct Window {
    ops: u64,
    /// Untraced-run slices: (ops completed, elapsed) at each slice end.
    slices: Vec<(usize, Duration)>,
    untraced_ns: Vec<u64>,
    traced_ns: Vec<u64>,
    /// Σ over traced ops of the client `Storage` time inside the op.
    traced_storage_ns: u64,
}

/// Runs one benchmark.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let store_root = Path::new(STORE_ROOT);
    std::fs::create_dir_all(store_root).map_err(|e| format!("{STORE_ROOT}: {e}"))?;
    let swept = host::sweep_stale_stores(store_root);
    // The fingerprint first: pinning narrows what it would see.
    println!("# host {}", host::fingerprint(store_root));
    let daemon_cpu = place_processes();
    if swept > 0 {
        println!("# removed {swept} store directories left by killed runs");
    }

    let sizes = Sizes::of(cfg.workload, cfg.small);
    let backend = sizes.backend(cfg.workload);
    let inputs = Inputs::draw(cfg.workload, sizes, cfg.seed);

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut live = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous daemon (stopping it and removing its store)
        // before the next set-up is timed.
        if let Some((session, daemon)) = live.take() {
            drop::<Box<dyn Session>>(session);
            Daemon::finish(daemon)?;
        }
        let start = Instant::now();
        let daemon = Daemon::spawn(backend, store_root, daemon_cpu)?;
        let remote = RemoteServer::connect_with(daemon.addr(), Timeouts::all(IO_DEADLINE))
            .map_err(|e| format!("connect: {e}"))?;
        let mut session = setup(&inputs, sizes, cfg.seed, ClientProbe::new(remote))?;
        if let Some(fault) = session.probe().fault() {
            return Err(format!("setup: {fault}"));
        }
        setup_s.push(start.elapsed().as_secs_f64());
        live = Some((session, daemon));
    }
    let (mut session, mut daemon) = live.expect("at least one set-up");

    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut first_error = None;
    let mut note = |result: Result<(), String>, failed: &mut u64| {
        if let Err(e) = result {
            *failed += 1;
            first_error.get_or_insert(e);
        }
    };

    for k in 0..sizes.warmup_ops {
        attempted += 1;
        note(session.op(k).1, &mut failed);
        if session.probe().fault().is_some() {
            break;
        }
    }

    // Start-of-window mark: resets the server counters (and the daemon
    // probe's window) and the client's wire counters.
    session
        .probe()
        .remote()
        .try_reset_stats()
        .map_err(|e| format!("reset stats: {e}"))?;
    let none_start = session.none_answers();
    let mut w = Window::default();
    let mut traced = false;
    let start = Instant::now();
    while session.probe().fault().is_none() {
        if cfg.trace && w.ops > 0 && w.ops.is_multiple_of(TRACE_BLOCK as u64) {
            traced = !traced;
            daemon.set_tracing(traced)?;
            session.probe().set_tracing(traced);
        }
        let (ns, result) = session.op(sizes.warmup_ops + w.ops as usize);
        attempted += 1;
        w.ops += 1;
        note(result, &mut failed);
        if traced {
            w.traced_storage_ns += session.probe().take_storage_ns();
            w.traced_ns.push(ns);
        } else {
            w.untraced_ns.push(ns);
        }
        let now = start.elapsed();
        if !cfg.trace && now >= w.slices.last().map_or(Duration::ZERO, |s| s.1) + SLICE {
            w.slices.push((w.ops as usize, now));
        }
        let done = match cfg.ops {
            Some(ops) => w.ops >= ops as u64,
            None => now.as_secs_f64() >= cfg.seconds,
        };
        if done {
            if !cfg.trace && w.slices.is_empty() {
                // A window shorter than one slice is one slice.
                w.slices.push((w.ops as usize, now));
            }
            break;
        }
    }
    if traced {
        daemon.set_tracing(false)?;
        session.probe().set_tracing(false);
    }

    // End of window: the client's wire counters are read locally and
    // first, so the exchanges that follow are not counted.
    let probe = session.probe();
    if let Some(fault) = probe.fault() {
        // The connection is gone: no counters to read, only the failure
        // to report.
        first_error.get_or_insert(format!("wire: {fault}"));
        return Ok(Outcome { attempted, failed, first_error, metrics: Vec::new() });
    }
    let wire = probe.remote().wire_stats();
    let server = probe.remote().try_stats().map_err(|e| format!("stats: {e}"))?;
    let stored = probe
        .remote()
        .try_stored_bytes()
        .map_err(|e| format!("stored bytes: {e}"))?;
    let client_calls = probe.take_data_calls();
    let client_cells = session.client_cells();
    let none = session.none_answers() - none_start;
    let user_bytes = session.user_bytes();
    drop(session);
    let report = daemon.finish()?;
    let space_bytes = match backend {
        BackendKind::Disk { .. } => report.get("disk_bytes"),
        BackendKind::Mem => stored,
    };
    let r = Readings {
        wire,
        server,
        client_calls,
        client_cells,
        none,
        space_bytes,
        user_bytes,
        report,
    };
    let metrics = if cfg.trace {
        let fail_frac = ratio(failed as f64, attempted as f64);
        layer_metrics(&w, &r, fail_frac)
    } else {
        e2e_metrics(&w, &r, &mut setup_s, sizes.record)
    };
    Ok(Outcome { attempted, failed, first_error, metrics })
}

/// What was read once the window closed.
#[derive(Debug)]
struct Readings {
    /// The client's wire counters over the window.
    wire: CostStats,
    /// The server's counters over the window.
    server: CostStats,
    /// Client-side durations of the traced data calls.
    client_calls: Vec<u64>,
    client_cells: usize,
    /// DP-IR α misses in the window.
    none: u64,
    /// Server bytes held: store files on disk, `stored_bytes` in memory.
    space_bytes: u64,
    user_bytes: u64,
    report: DaemonReport,
}

/// The `--trace 1` metrics.
fn layer_metrics(w: &Window, r: &Readings, fail_frac: f64) -> Vec<Metric> {
    let (wire, server, report) = (&r.wire, &r.server, &r.report);
    let per_op = |x: u64| ratio(x as f64, w.ops as f64);
    let traced_ops = w.traced_ns.len() as f64;
    let traced_op_ns: u64 = w.traced_ns.iter().sum();
    let split = split_layers(&r.client_calls, &report.calls, w.traced_storage_ns, traced_op_ns);
    let cache_lookups = server.cache_hits + server.cache_misses;
    let checkpoints = report.get("stamp_end").saturating_sub(report.get("stamp_start"));
    vec![
        ("core.self_us", us(ratio(split.core_ns, traced_ops)), "us"),
        ("core.stash_cells", r.client_cells as f64, "count"),
        ("core.ir_none_frac", per_op(r.none), "ratio"),
        ("net.calls_per_op", per_op(wire.wire_round_trips), "count"),
        ("net.self_us", us(ratio(split.net_ns, traced_ops)), "us"),
        ("net.call_p50_us", us(percentile(&r.client_calls, 0.5)), "us"),
        ("net.bytes_up_per_op", per_op(wire.wire_bytes_up), "B"),
        ("net.bytes_down_per_op", per_op(wire.wire_bytes_down), "B"),
        ("net.reconnects", wire.wire_reconnects as f64, "count"),
        ("daemon.protocol_errors", report.get("protocol_errors") as f64, "count"),
        ("daemon.read_stalls", report.get("read_stalls") as f64, "count"),
        ("server.read_us_per_call", us(mean(report, "read_ns", "read_calls")), "us"),
        ("server.write_us_per_call", us(mean(report, "write_ns", "write_calls")), "us"),
        ("server.busy_us_per_op", us(ratio(split.server_ns, traced_ops)), "us"),
        ("server.flush_us_per_op", us(ratio(report.get("flush_ns") as f64, traced_ops)), "us"),
        ("server.cells_down_per_op", per_op(server.downloads), "count"),
        ("server.cells_up_per_op", per_op(server.uploads), "count"),
        ("cache.hit_ratio", ratio(server.cache_hits as f64, cache_lookups as f64), "ratio"),
        ("cache.misses_per_op", per_op(server.cache_misses), "count"),
        ("cache.evictions_per_op", per_op(server.cache_evictions), "count"),
        ("wal.checkpoints_per_kop", 1000.0 * per_op(checkpoints), "count"),
        ("wal.checkpoint_call_us", us(mean(report, "checkpoint_ns", "checkpoint_calls")), "us"),
        ("trace.overhead_pct", overhead_pct(w), "%"),
        ("trace.coverage_pct", 100.0 * ratio(split.covered_ns, traced_op_ns as f64), "%"),
        ("op_fail_frac", fail_frac, "ratio"),
    ]
}

/// The `--trace 0` metrics. `record` is the user payload of one op.
fn e2e_metrics(w: &Window, r: &Readings, setup_s: &mut [f64], record: usize) -> Vec<Metric> {
    let slices = w.slice_stats();
    println!("# window: {} ops in {} slices of >= {SLICE:?}", w.ops, slices.len());
    let across =
        |f: fn(&SliceStats) -> f64, q| quantile(&mut slices.iter().map(f).collect::<Vec<_>>(), q);
    let wire_bytes = r.wire.wire_bytes_up + r.wire.wire_bytes_down;
    vec![
        ("setup_s", quantile(setup_s, 0.5), "s"),
        ("op_p50_us", us(across(|s| s.p50_ns, 0.25)), "us"),
        ("op_p90_us", us(across(|s| s.p90_ns, 0.25)), "us"),
        ("ops_per_s", across(|s| s.ops_per_s, 0.75), "1/s"),
        ("bw_overhead_x", ratio(ratio(wire_bytes as f64, w.ops as f64), record as f64), "ratio"),
        ("space_x", ratio(r.space_bytes as f64, r.user_bytes as f64), "ratio"),
        ("client_rss_mb", host::peak_rss_kib("self").unwrap_or(0) as f64 / 1024.0, "MiB"),
        ("server_rss_mb", r.report.get("rss_kib") as f64 / 1024.0, "MiB"),
    ]
}

/// Latency percentiles and throughput of one slice of an untraced window.
#[derive(Debug)]
struct SliceStats {
    p50_ns: f64,
    p90_ns: f64,
    ops_per_s: f64,
}

impl Window {
    /// Per-slice figures; the slices tile the window, the last one ending
    /// where the last complete slice did.
    fn slice_stats(&self) -> Vec<SliceStats> {
        let mut prev = (0, Duration::ZERO);
        self.slices
            .iter()
            .map(|&(end, at)| {
                let ops = &self.untraced_ns[prev.0..end];
                let stats = SliceStats {
                    p50_ns: percentile(ops, 0.5),
                    p90_ns: percentile(ops, 0.9),
                    ops_per_s: ratio(ops.len() as f64, (at - prev.1).as_secs_f64()),
                };
                prev = (end, at);
                stats
            })
            .collect()
    }
}

/// Pins the driver to the last CPU it may use and returns the first for
/// the daemon, so the two busy threads each keep a core of their own.
/// Left to the scheduler, they sometimes share a core and sometimes do
/// not, and the per-op latency of a run flips between the two regimes.
/// With one CPU, or without the right to pin, nothing is pinned.
fn place_processes() -> Option<usize> {
    let cpus = host::allowed_cpus().ok()?;
    let (&daemon, &client) = (cpus.first()?, cpus.last()?);
    if daemon == client {
        return None;
    }
    match host::pin_to_cpu(client) {
        Ok(()) => {
            println!("# pinned driver to cpu {client}, daemon to cpu {daemon}");
            Some(daemon)
        }
        Err(e) => {
            println!("# not pinned: {e}");
            None
        }
    }
}

/// Per-layer self times over the traced operations, in ns.
#[derive(Debug, Default, PartialEq)]
struct Split {
    core_ns: f64,
    net_ns: f64,
    server_ns: f64,
    /// The part of the traced op time the three account for.
    covered_ns: f64,
}

/// Splits traced op time by layer. `client` and `backend` are the data
/// calls' durations as timed in the driver and in the daemon; with one
/// request in flight the k-th of each is the same call. `core` is op time
/// outside the client's `Storage` calls; a matched call's `net` share is
/// its client time minus its backend time, and `server` is the backend
/// time. A call whose backend time exceeds its client time, or a pair of
/// lists that do not line up, is not split; its time is left out of
/// `covered_ns`, which is how a broken match shows in `trace.coverage_pct`.
fn split_layers(client: &[u64], backend: &[u64], storage_ns: u64, op_ns: u64) -> Split {
    let client_ns: u64 = client.iter().sum();
    // Client calls outside the data path (metadata queries) are all wire.
    let meta_ns = storage_ns.saturating_sub(client_ns) as f64;
    let core_ns = op_ns.saturating_sub(storage_ns) as f64;
    let (mut net_ns, mut server_ns) = (meta_ns, 0.0);
    if client.len() == backend.len() {
        for (&c, &b) in client.iter().zip(backend) {
            if b <= c {
                net_ns += (c - b) as f64;
                server_ns += b as f64;
            }
        }
    }
    Split { core_ns, net_ns, server_ns, covered_ns: core_ns + net_ns + server_ns }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn us(ns: f64) -> f64 {
    ns / 1000.0
}

fn mean(report: &DaemonReport, total: &str, count: &str) -> f64 {
    ratio(report.get(total) as f64, report.get(count) as f64)
}

/// Nearest-rank percentile `q` of `ns`.
fn percentile(ns: &[u64], q: f64) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    let mut sorted = ns.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// Nearest-rank quantile `q` of `xs` (sorts them).
fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

/// How much slower the median op is in traced blocks than in the untraced
/// blocks interleaved with them, in percent.
fn overhead_pct(w: &Window) -> f64 {
    let untraced = percentile(&w.untraced_ns, 0.5);
    100.0 * ratio(percentile(&w.traced_ns, 0.5) - untraced, untraced)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matched_calls_cover_the_whole_op() {
        // Two ops of 100 ns each; 2 calls of 30 ns with 10 ns in the
        // backend each, plus 5 ns of metadata calls.
        let s = split_layers(&[30, 30], &[10, 10], 65, 200);
        assert_eq!(s, Split { core_ns: 135.0, net_ns: 45.0, server_ns: 20.0, covered_ns: 200.0 });
    }

    #[test]
    fn a_broken_match_lowers_coverage() {
        let shifted = split_layers(&[30, 30], &[10], 60, 200);
        assert_eq!(shifted.covered_ns, 140.0);
        let inverted = split_layers(&[30, 30], &[40, 10], 60, 200);
        assert_eq!(inverted.covered_ns, 170.0);
    }

    #[test]
    fn slices_tile_the_window() {
        let w = Window {
            ops: 6,
            slices: vec![(4, Duration::from_secs(1)), (6, Duration::from_secs(3))],
            untraced_ns: vec![10, 20, 30, 40, 50, 60],
            ..Window::default()
        };
        let s = w.slice_stats();
        assert_eq!((s[0].p50_ns, s[0].p90_ns, s[0].ops_per_s), (20.0, 40.0, 4.0));
        assert_eq!((s[1].p50_ns, s[1].p90_ns, s[1].ops_per_s), (50.0, 60.0, 1.0));
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let xs: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&xs, 0.5), 5.0);
        assert_eq!(percentile(&xs, 0.9), 9.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(quantile(&mut [3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(&mut [4.0, 3.0, 1.0, 2.0], 0.25), 1.0);
        assert_eq!(quantile(&mut [4.0, 3.0, 1.0, 2.0], 0.75), 3.0);
    }
}
