//! Benchmark-owned [`Storage`] wrappers that time each layer from outside.
//!
//! [`ClientProbe`] sits between a scheme and its [`RemoteServer`]: every
//! call the scheme makes into the network client is timed there.
//! [`BackendProbe`] sits between the daemon and its backend: every call the
//! daemon dispatches into the store is timed there. With one client and
//! one request in flight, the k-th data call timed on the client is the
//! k-th data call timed in the daemon, so the two span lists match by
//! position.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dps_net::{RemoteError, RemoteServer};
use dps_server::{CostStats, DiskStore, ServerError, ShardedServer, Storage, Transcript};

fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The scheme-facing side of the wire: forwards every call to the fallible
/// `try_*` surface of a [`RemoteServer`], so a dead or stalled daemon ends
/// the run as a typed error instead of a panic or a hang.
///
/// The first wire failure is kept in [`ClientProbe::fault`] and every later
/// call fails fast with [`ServerError::Interrupted`]: a connection cut
/// mid-frame cannot be resumed.
#[derive(Debug)]
pub struct ClientProbe {
    remote: RemoteServer,
    fault: RefCell<Option<RemoteError>>,
    tracing: bool,
    /// Durations of the traced data calls, in call order.
    data_call_ns: RefCell<Vec<u64>>,
    /// Time spent in this wrapper's calls since the last
    /// [`ClientProbe::take_storage_ns`] (traced calls only).
    storage_ns: Cell<u64>,
}

impl ClientProbe {
    /// Wraps a connected client; tracing starts off.
    pub fn new(remote: RemoteServer) -> Self {
        Self {
            remote,
            fault: RefCell::new(None),
            tracing: false,
            data_call_ns: RefCell::new(Vec::new()),
            storage_ns: Cell::new(0),
        }
    }

    /// The wrapped client, for counters read outside the scheme.
    pub fn remote(&self) -> &RemoteServer {
        &self.remote
    }

    /// The first wire-level failure, if any.
    pub fn fault(&self) -> Option<RemoteError> {
        self.fault.borrow().clone()
    }

    /// Turns span recording on or off.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    /// Client `Storage` time accumulated since the previous call.
    pub fn take_storage_ns(&self) -> u64 {
        self.storage_ns.replace(0)
    }

    /// Durations of every traced data call so far.
    pub fn take_data_calls(&self) -> Vec<u64> {
        std::mem::take(&mut *self.data_call_ns.borrow_mut())
    }

    fn call<T>(
        &self,
        data: bool,
        f: impl FnOnce(&RemoteServer) -> Result<T, RemoteError>,
    ) -> Result<T, ServerError> {
        if self.fault.borrow().is_some() {
            return Err(ServerError::Interrupted);
        }
        let result = if self.tracing {
            let start = Instant::now();
            let result = f(&self.remote);
            let ns = ns_since(start);
            self.storage_ns.set(self.storage_ns.get() + ns);
            if data {
                self.data_call_ns.borrow_mut().push(ns);
            }
            result
        } else {
            f(&self.remote)
        };
        match result {
            Ok(v) => Ok(v),
            Err(RemoteError::Server(e)) => Err(e),
            Err(e) => {
                *self.fault.borrow_mut() = Some(e);
                Err(ServerError::Interrupted)
            }
        }
    }

    /// For the trait's infallible methods: any failure is kept as the
    /// fault and a placeholder returned; the driver checks the fault.
    fn meta<T: Default>(&self, f: impl FnOnce(&RemoteServer) -> Result<T, RemoteError>) -> T {
        let result = self.call(false, f);
        if let Err(e) = &result {
            self.fault
                .borrow_mut()
                .get_or_insert(RemoteError::Server(e.clone()));
        }
        result.unwrap_or_default()
    }
}

impl Storage for ClientProbe {
    fn init(&mut self, cells: Vec<Vec<u8>>) {
        self.meta(|r| r.try_init(cells));
    }

    fn init_empty(&mut self, capacity: usize) {
        self.meta(|r| r.try_init_empty(capacity));
    }

    fn capacity(&self) -> usize {
        self.meta(RemoteServer::try_capacity)
    }

    fn stored_bytes(&self) -> u64 {
        self.meta(RemoteServer::try_stored_bytes)
    }

    fn cell_stride(&self) -> usize {
        self.meta(RemoteServer::try_cell_stride)
    }

    fn start_recording(&mut self) {
        self.meta(RemoteServer::try_start_recording);
    }

    fn take_transcript(&mut self) -> Transcript {
        self.meta(RemoteServer::try_take_transcript)
    }

    fn is_recording(&self) -> bool {
        self.meta(RemoteServer::try_is_recording)
    }

    fn stats(&self) -> CostStats {
        self.meta(RemoteServer::try_stats)
    }

    fn reset_stats(&mut self) {
        self.meta(RemoteServer::try_reset_stats);
    }

    fn read_batch_with(
        &mut self,
        addrs: &[usize],
        visit: impl FnMut(usize, &[u8]),
    ) -> Result<(), ServerError> {
        self.call(true, |r| r.try_read_batch_with(addrs, visit))
    }

    fn write_batch(&mut self, writes: Vec<(usize, Vec<u8>)>) -> Result<(), ServerError> {
        self.call(true, |r| r.try_write_batch(writes))
    }

    fn write_from(&mut self, addr: usize, cell: &[u8]) -> Result<(), ServerError> {
        self.call(true, |r| r.try_write_from(addr, cell))
    }

    fn write_batch_strided(&mut self, addrs: &[usize], flat: &[u8]) -> Result<(), ServerError> {
        self.call(true, |r| r.try_write_batch_strided(addrs, flat))
    }

    fn access_batch(
        &mut self,
        reads: &[usize],
        writes: Vec<(usize, Vec<u8>)>,
    ) -> Result<Vec<Vec<u8>>, ServerError> {
        self.call(true, |r| r.try_access_batch(reads, writes))
    }

    fn xor_cells_into(&mut self, addrs: &[usize], acc: &mut Vec<u8>) -> Result<(), ServerError> {
        self.call(true, |r| r.try_xor_cells_into(addrs, acc))
    }
}

/// A backend the daemon can serve, plus the counter the probe reads from
/// it that the [`Storage`] surface does not carry.
pub trait Backend: Storage + 'static {
    /// The write-ahead log's checkpoint generation (0 without a log).
    fn checkpoint_stamp(&self) -> u64 {
        0
    }
}

impl Backend for ShardedServer {}

impl Backend for DiskStore {
    fn checkpoint_stamp(&self) -> u64 {
        DiskStore::checkpoint_stamp(self)
    }
}

/// What the daemon-side probe measured since the last `reset_stats` (the
/// driver's start-of-window mark). Spans cover traced calls only.
#[derive(Debug, Default)]
pub struct BackendWindow {
    /// Checkpoint stamp at the start-of-window mark.
    pub stamp_start: u64,
    /// Checkpoint stamp when the daemon stopped.
    pub stamp_end: u64,
    /// Backend time per traced data call, including the flushes that
    /// followed it before the response left.
    pub call_ns: Vec<u64>,
    /// Traced read calls and their total time.
    pub read_calls: u64,
    /// Total time of traced read calls.
    pub read_ns: u64,
    /// Traced write calls.
    pub write_calls: u64,
    /// Total time of traced write calls.
    pub write_ns: u64,
    /// Total time of traced flushes.
    pub flush_ns: u64,
    /// Traced calls during which the checkpoint stamp moved.
    pub checkpoint_calls: u64,
    /// Total time of those calls.
    pub checkpoint_ns: u64,
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Read,
    Write,
    Flush,
}

/// The daemon-facing side of the backend: forwards every call to the
/// wrapped store, timing the data path while the shared tracing flag is
/// set. Its window is published to `out` when the daemon drops it at
/// shutdown.
#[derive(Debug)]
pub struct BackendProbe<S: Backend> {
    inner: S,
    tracing: Arc<AtomicBool>,
    window: BackendWindow,
    out: Arc<Mutex<Option<BackendWindow>>>,
}

impl<S: Backend> BackendProbe<S> {
    /// Wraps `inner`; spans are recorded while `tracing` is set.
    pub fn new(inner: S, tracing: Arc<AtomicBool>, out: Arc<Mutex<Option<BackendWindow>>>) -> Self {
        Self { inner, tracing, window: BackendWindow::default(), out }
    }

    fn timed<T>(&mut self, kind: Kind, f: impl FnOnce(&mut S) -> T) -> T {
        // Relaxed: the flag publishes no other data. The driver flips it
        // only between operations, with no request in flight.
        if !self.tracing.load(Ordering::Relaxed) {
            return f(&mut self.inner);
        }
        let stamp = self.inner.checkpoint_stamp();
        let start = Instant::now();
        let out = f(&mut self.inner);
        let ns = ns_since(start);
        let w = &mut self.window;
        match kind {
            Kind::Read => {
                w.read_calls += 1;
                w.read_ns += ns;
                w.call_ns.push(ns);
            }
            Kind::Write => {
                w.write_calls += 1;
                w.write_ns += ns;
                w.call_ns.push(ns);
            }
            Kind::Flush => {
                w.flush_ns += ns;
                if let Some(last) = w.call_ns.last_mut() {
                    *last += ns;
                }
            }
        }
        if self.inner.checkpoint_stamp() != stamp {
            w.checkpoint_calls += 1;
            w.checkpoint_ns += ns;
        }
        out
    }
}

impl<S: Backend> Drop for BackendProbe<S> {
    fn drop(&mut self) {
        let mut window = std::mem::take(&mut self.window);
        window.stamp_end = self.inner.checkpoint_stamp();
        // A poisoned lock means the reader panicked; nothing to publish to.
        if let Ok(mut slot) = self.out.lock() {
            *slot = Some(window);
        }
    }
}

impl<S: Backend> Storage for BackendProbe<S> {
    fn init(&mut self, cells: Vec<Vec<u8>>) {
        self.inner.init(cells);
    }

    fn init_empty(&mut self, capacity: usize) {
        self.inner.init_empty(capacity);
    }

    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn stored_bytes(&self) -> u64 {
        self.inner.stored_bytes()
    }

    fn cell_stride(&self) -> usize {
        self.inner.cell_stride()
    }

    fn start_recording(&mut self) {
        self.inner.start_recording();
    }

    fn take_transcript(&mut self) -> Transcript {
        self.inner.take_transcript()
    }

    fn is_recording(&self) -> bool {
        self.inner.is_recording()
    }

    fn stats(&self) -> CostStats {
        self.inner.stats()
    }

    /// The driver's start-of-window mark: resets the backend's counters
    /// and this probe's window together.
    fn reset_stats(&mut self) {
        self.inner.reset_stats();
        self.window = BackendWindow {
            stamp_start: self.inner.checkpoint_stamp(),
            ..BackendWindow::default()
        };
    }

    fn flush(&mut self) -> Result<(), ServerError> {
        self.timed(Kind::Flush, Storage::flush)
    }

    fn read_batch_with(
        &mut self,
        addrs: &[usize],
        visit: impl FnMut(usize, &[u8]),
    ) -> Result<(), ServerError> {
        self.timed(Kind::Read, |s| s.read_batch_with(addrs, visit))
    }

    fn write_batch(&mut self, writes: Vec<(usize, Vec<u8>)>) -> Result<(), ServerError> {
        self.timed(Kind::Write, |s| s.write_batch(writes))
    }

    fn write_from(&mut self, addr: usize, cell: &[u8]) -> Result<(), ServerError> {
        self.timed(Kind::Write, |s| s.write_from(addr, cell))
    }

    fn write_batch_strided(&mut self, addrs: &[usize], flat: &[u8]) -> Result<(), ServerError> {
        self.timed(Kind::Write, |s| s.write_batch_strided(addrs, flat))
    }

    fn access_batch(
        &mut self,
        reads: &[usize],
        writes: Vec<(usize, Vec<u8>)>,
    ) -> Result<Vec<Vec<u8>>, ServerError> {
        self.timed(Kind::Write, |s| s.access_batch(reads, writes))
    }

    fn xor_cells_into(&mut self, addrs: &[usize], acc: &mut Vec<u8>) -> Result<(), ServerError> {
        self.timed(Kind::Read, |s| s.xor_cells_into(addrs, acc))
    }

    // The provided methods are forwarded too, so each backend keeps its
    // own fast path and the daemon's call reaches it as one span.

    fn read_batch(&mut self, addrs: &[usize]) -> Result<Vec<Vec<u8>>, ServerError> {
        self.timed(Kind::Read, |s| s.read_batch(addrs))
    }

    fn read(&mut self, addr: usize) -> Result<Vec<u8>, ServerError> {
        self.timed(Kind::Read, |s| s.read(addr))
    }

    fn read_into(&mut self, addr: usize, out: &mut [u8]) -> Result<usize, ServerError> {
        self.timed(Kind::Read, |s| s.read_into(addr, out))
    }

    fn read_batch_strided(&mut self, addrs: &[usize], out: &mut [u8]) -> Result<(), ServerError> {
        self.timed(Kind::Read, |s| s.read_batch_strided(addrs, out))
    }

    fn write(&mut self, addr: usize, cell: Vec<u8>) -> Result<(), ServerError> {
        self.timed(Kind::Write, |s| s.write(addr, cell))
    }

    fn xor_cells(&mut self, addrs: &[usize]) -> Result<Vec<u8>, ServerError> {
        self.timed(Kind::Read, |s| s.xor_cells(addrs))
    }
}
