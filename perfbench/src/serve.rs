//! The daemon role: `perfbench serve`, run by the driver as a child
//! process. It builds the backend, serves it with `NetDaemon::spawn`, and
//! takes control lines on stdin:
//!
//! ```text
//! trace 1 | trace 0   start / stop timing backend calls   -> "ok"
//! quit                stop; print the report, then exit
//! EOF                 stop and exit without a report
//! ```
//!
//! Startup prints `listening <addr>`. The report is two lines:
//! `report key=value ...` and `calls <ns> <ns> ...` (backend time per
//! traced data call). The store directory is removed on every exit path
//! that runs destructors; the driver sweeps directories of killed daemons.

use std::io::{BufRead, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use dps_net::NetDaemon;
use dps_server::{DiskOptions, DiskStore, ShardedServer, SyncPolicy};

use crate::host::{dir_bytes, peak_rss_kib, pin_to_cpu, StoreDir};
use crate::probe::{Backend, BackendProbe, BackendWindow};

/// The backend a daemon serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// `DiskStore` with the given cache budget in bytes.
    Disk { cache_bytes: usize },
    /// In-memory `ShardedServer`.
    Mem,
}

/// Shards of the in-memory backend.
const MEM_SHARDS: usize = 2;

/// Serves until `quit` or EOF on stdin, pinned to `cpu` if given.
pub fn serve(kind: BackendKind, store_root: &Path, cpu: Option<usize>) -> Result<(), String> {
    if let Some(cpu) = cpu {
        // Before the event loop thread exists, so it inherits the pin.
        pin_to_cpu(cpu).map_err(|e| format!("pin to cpu {cpu}: {e}"))?;
    }
    let tracing = Arc::new(AtomicBool::new(false));
    let out = Arc::new(Mutex::new(None));
    match kind {
        BackendKind::Disk { cache_bytes } => {
            let dir = StoreDir::create(store_root).map_err(|e| format!("store dir: {e}"))?;
            let opts = DiskOptions {
                // The store lives inside the checkout, on whatever
                // filesystem that is; device fsync latency would
                // dominate the spread there. The WAL and commit code
                // still run on every write.
                sync: SyncPolicy::Never,
                wal_checkpoint_bytes: 1 << 20,
                cache_bytes,
                wal_group_commit: 1,
            };
            let store = DiskStore::open_with(dir.path(), opts).map_err(|e| format!("open: {e}"))?;
            run(store, &tracing, &out, Some(dir.path()))
        }
        BackendKind::Mem => run(ShardedServer::new(MEM_SHARDS), &tracing, &out, None),
    }
}

fn run<S: Backend>(
    backend: S,
    tracing: &Arc<AtomicBool>,
    out: &Arc<Mutex<Option<BackendWindow>>>,
    dir: Option<&Path>,
) -> Result<(), String> {
    let probe = BackendProbe::new(backend, Arc::clone(tracing), Arc::clone(out));
    let daemon = NetDaemon::spawn(probe).map_err(|e| format!("spawn daemon: {e}"))?;
    let mut stdout = std::io::stdout().lock();
    let say = |stdout: &mut std::io::StdoutLock<'_>, line: &str| {
        writeln!(stdout, "{line}")
            .and_then(|()| stdout.flush())
            .map_err(|e| format!("stdout: {e}"))
    };
    say(&mut stdout, &format!("listening {}", daemon.local_addr()))?;
    let mut quit = false;
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| format!("stdin: {e}"))?;
        match line.trim() {
            "trace 1" => tracing.store(true, Ordering::Relaxed),
            "trace 0" => tracing.store(false, Ordering::Relaxed),
            "quit" => {
                quit = true;
                break;
            }
            other => return Err(format!("unknown control line {other:?}")),
        }
        say(&mut stdout, "ok")?;
    }
    let metrics = daemon.metrics();
    daemon.shutdown();
    if !quit {
        // EOF: the driver is gone or gave up on this daemon; nobody reads
        // a report.
        return Ok(());
    }
    let window = out
        .lock()
        .map_err(|_| "probe window lock poisoned".to_string())?
        .take()
        .ok_or("the backend probe published no window")?;
    let report = format!(
        "report rss_kib={} disk_bytes={} protocol_errors={} read_stalls={} \
         stamp_start={} stamp_end={} read_calls={} read_ns={} write_calls={} write_ns={} \
         flush_ns={} checkpoint_calls={} checkpoint_ns={}",
        peak_rss_kib("self").unwrap_or(0),
        dir.map_or(0, dir_bytes),
        metrics.protocol_errors,
        metrics.read_stalls,
        window.stamp_start,
        window.stamp_end,
        window.read_calls,
        window.read_ns,
        window.write_calls,
        window.write_ns,
        window.flush_ns,
        window.checkpoint_calls,
        window.checkpoint_ns,
    );
    say(&mut stdout, &report)?;
    let mut calls = String::with_capacity(window.call_ns.len() * 6 + 8);
    calls.push_str("calls");
    for ns in &window.call_ns {
        calls.push(' ');
        calls.push_str(&ns.to_string());
    }
    say(&mut stdout, &calls)
}
