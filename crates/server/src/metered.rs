//! The one metering layer: [`Metered`] implements [`Storage`] once over a
//! byte-moving [`Backend`].
//!
//! The paper's overhead is measured in [`CostStats`] and its privacy is
//! judged on the [`Transcript`]. `Metered` owns every rule that produces
//! them, so backends cannot disagree about them:
//!
//! - **Bounds.** Every address is checked against the backend's capacity
//!   before the backend sees it. Writes and combined accesses check the
//!   whole batch first and fail without touching anything. Reads and XORs
//!   hand the backend the in-bounds prefix and fail at the first
//!   out-of-bounds address once that prefix is served.
//! - **Charging.** A download (or compute) is charged per cell the backend
//!   actually served, so a batch that fails midway — out of bounds, an
//!   uninitialized cell, or a backend failure such as a cache refill off a
//!   failed disk — charges exactly the prefix before the failure. Uploads
//!   are all-or-nothing and are charged only when the backend accepts them.
//!   A round trip is charged only for a batch that succeeds.
//! - **Transcript.** Each successful batch records one transcript batch, in
//!   request order; nothing is recorded for a failed batch.
//!
//! These are exactly the rules of [`crate::SimServer`], which keeps its
//! own independent copy as the oracle the `shard_equivalence`,
//! `store_equivalence` and `disk_twins` suites compare `Metered` backends
//! against. [`crate::ShardedServer`] and [`crate::DiskStore`] are
//! `Metered` over their backends.

use crate::server::ServerError;
use crate::stats::CostStats;
use crate::storage::Storage;
use crate::store::xor_slices;
use crate::transcript::{AccessEvent, Transcript};

/// How far a backend got through an in-order batch.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Served {
    /// Cells served: the batch prefix `addrs[..cells]`.
    pub cells: usize,
    /// Payload bytes of the served cells.
    pub bytes: u64,
    /// What stopped the backend at `addrs[cells]`, if it stopped early.
    pub error: Option<ServerError>,
}

impl Served {
    fn add(&mut self, cell: &[u8]) {
        self.cells += 1;
        self.bytes += cell.len() as u64;
    }
}

/// A storage backend that only moves bytes: it never checks bounds,
/// charges costs or records transcripts — [`Metered`] does. Every address
/// a backend is handed is below its [`Backend::capacity`].
pub trait Backend: std::fmt::Debug + Send {
    /// Number of cell slots.
    fn capacity(&self) -> usize;

    /// Total bytes of initialized cell content.
    fn stored_bytes(&self) -> u64;

    /// The fixed cell stride of the backing arena (0 before any init).
    fn cell_stride(&self) -> usize;

    /// Replaces the contents with `cells`.
    fn init(&mut self, cells: Vec<Vec<u8>>);

    /// Reserves `capacity` uninitialized cells.
    fn init_empty(&mut self, capacity: usize);

    /// Makes every previously applied mutation durable (see
    /// [`Storage::flush`]).
    fn flush(&mut self) -> Result<(), ServerError> {
        Ok(())
    }

    /// Hands the cells at `addrs` to `visit` (batch position, bytes) in
    /// order, stopping with an error at the first cell it cannot serve.
    fn read_with(
        &mut self,
        addrs: &[usize],
        visit: impl FnMut(usize, &[u8]),
    ) -> Result<(), ServerError>;

    /// Copies the cells at `addrs` into the `stride`-wide slots of `out`
    /// (slot `i` at `i * stride`), reporting the served prefix.
    fn read_strided(&mut self, addrs: &[usize], out: &mut [u8], stride: usize) -> Served {
        copy_in_order(self, addrs, out, stride)
    }

    /// Stores every cell or none of them.
    fn write(&mut self, cells: &[(usize, &[u8])]) -> Result<(), ServerError>;

    /// Stores the `stride`-wide cells packed back-to-back in `flat`, every
    /// cell or none of them.
    fn write_strided(
        &mut self,
        addrs: &[usize],
        flat: &[u8],
        stride: usize,
    ) -> Result<(), ServerError> {
        let cells: Vec<(usize, &[u8])> = addrs
            .iter()
            .enumerate()
            .map(|(i, &addr)| (addr, &flat[i * stride..(i + 1) * stride]))
            .collect();
        self.write(&cells)
    }

    /// XORs the cells at `addrs` into the empty `acc`, reporting the prefix
    /// it folded.
    fn xor_into(&mut self, addrs: &[usize], acc: &mut Vec<u8>) -> Served {
        fold_in_order(self, addrs, acc)
    }

    /// The backend's own `cache_*` counters, merged into
    /// [`Storage::stats`].
    fn cache_stats(&self) -> CostStats {
        CostStats::default()
    }

    /// Zeroes the counters [`Backend::cache_stats`] reports.
    fn reset_cache_stats(&mut self) {}
}

/// The in-order strided copy over [`Backend::read_with`]: the default
/// [`Backend::read_strided`], and the fallback of backends that fan large
/// copies out.
pub(crate) fn copy_in_order<B: Backend + ?Sized>(
    backend: &mut B,
    addrs: &[usize],
    out: &mut [u8],
    stride: usize,
) -> Served {
    let mut served = Served::default();
    let result = backend.read_with(addrs, |i, cell| {
        out[i * stride..i * stride + cell.len()].copy_from_slice(cell);
        served.add(cell);
    });
    served.error = result.err();
    served
}

/// The in-order XOR fold over [`Backend::read_with`]: the default
/// [`Backend::xor_into`], and the fallback of backends that fan large
/// folds out.
pub(crate) fn fold_in_order<B: Backend + ?Sized>(
    backend: &mut B,
    addrs: &[usize],
    acc: &mut Vec<u8>,
) -> Served {
    let mut served = Served::default();
    let result = backend.read_with(addrs, |_, cell| {
        if served.cells == 0 {
            acc.extend_from_slice(cell);
        } else {
            debug_assert_eq!(acc.len(), cell.len(), "XOR over unequal cells");
            xor_slices(acc, cell);
        }
        served.add(cell);
    });
    served.error = result.err();
    served
}

/// A [`Backend`] behind the balls-and-bins metering rules (see the
/// [module docs](self)).
#[derive(Debug)]
pub struct Metered<B> {
    pub(crate) backend: B,
    stats: CostStats,
    transcript: Option<Transcript>,
}

fn events(addrs: &[usize], event: fn(usize) -> AccessEvent) -> Vec<AccessEvent> {
    addrs.iter().map(|&addr| event(addr)).collect()
}

impl<B: Backend> From<B> for Metered<B> {
    /// Meters `backend`, with zeroed counters and recording off.
    fn from(backend: B) -> Self {
        Self { backend, stats: CostStats::default(), transcript: None }
    }
}

impl<B: Backend> Metered<B> {
    /// Fails on the first address of `addrs` outside the capacity.
    fn check_all(&self, mut addrs: impl Iterator<Item = usize>) -> Result<(), ServerError> {
        let capacity = self.backend.capacity();
        match addrs.find(|&addr| addr >= capacity) {
            Some(addr) => Err(ServerError::OutOfBounds { addr, capacity }),
            None => Ok(()),
        }
    }

    /// Splits `addrs` at its first out-of-bounds address: the prefix the
    /// backend serves, and how the batch ends once that prefix is served.
    fn in_bounds_prefix<'a>(&self, addrs: &'a [usize]) -> (&'a [usize], Result<(), ServerError>) {
        let capacity = self.backend.capacity();
        match addrs.iter().position(|&addr| addr >= capacity) {
            Some(j) => (&addrs[..j], Err(ServerError::OutOfBounds { addr: addrs[j], capacity })),
            None => (addrs, Ok(())),
        }
    }

    /// Reads in-bounds `addrs` in order, charging each served cell.
    fn download(
        &mut self,
        addrs: &[usize],
        mut visit: impl FnMut(usize, &[u8]),
    ) -> Result<(), ServerError> {
        let mut served = Served::default();
        let result = self.backend.read_with(addrs, |i, cell| {
            served.add(cell);
            visit(i, cell);
        });
        self.charge_downloads(&served);
        result
    }

    fn charge_downloads(&mut self, served: &Served) {
        self.stats.downloads += served.cells as u64;
        self.stats.bytes_down += served.bytes;
    }

    /// Writes bounds-checked cells, charging them only if all are stored.
    fn upload(&mut self, cells: &[(usize, &[u8])]) -> Result<(), ServerError> {
        self.backend.write(cells)?;
        self.stats.uploads += cells.len() as u64;
        self.stats.bytes_up += cells.iter().map(|(_, cell)| cell.len() as u64).sum::<u64>();
        Ok(())
    }

    /// Charges one round trip and records its events, built only when a
    /// transcript is being captured.
    fn round_trip(&mut self, events: impl FnOnce() -> Vec<AccessEvent>) {
        self.stats.round_trips += 1;
        if let Some(t) = self.transcript.as_mut() {
            t.push_batch(events());
        }
    }

    fn write_cells(&mut self, cells: &[(usize, &[u8])]) -> Result<(), ServerError> {
        self.check_all(cells.iter().map(|&(addr, _)| addr))?;
        self.upload(cells)?;
        self.round_trip(|| {
            cells
                .iter()
                .map(|&(addr, _)| AccessEvent::Upload(addr))
                .collect()
        });
        Ok(())
    }
}

fn borrow_cells(writes: &[(usize, Vec<u8>)]) -> Vec<(usize, &[u8])> {
    writes
        .iter()
        .map(|(addr, cell)| (*addr, cell.as_slice()))
        .collect()
}

impl<B: Backend> Storage for Metered<B> {
    fn init(&mut self, cells: Vec<Vec<u8>>) {
        self.backend.init(cells);
    }

    fn init_empty(&mut self, capacity: usize) {
        self.backend.init_empty(capacity);
    }

    fn capacity(&self) -> usize {
        self.backend.capacity()
    }

    fn stored_bytes(&self) -> u64 {
        self.backend.stored_bytes()
    }

    fn cell_stride(&self) -> usize {
        self.backend.cell_stride()
    }

    fn start_recording(&mut self) {
        self.transcript.get_or_insert_with(Transcript::new);
    }

    fn take_transcript(&mut self) -> Transcript {
        self.transcript.take().unwrap_or_default()
    }

    fn is_recording(&self) -> bool {
        self.transcript.is_some()
    }

    fn stats(&self) -> CostStats {
        self.stats.plus(&self.backend.cache_stats())
    }

    fn reset_stats(&mut self) {
        self.stats = CostStats::default();
        self.backend.reset_cache_stats();
    }

    fn flush(&mut self) -> Result<(), ServerError> {
        self.backend.flush()
    }

    #[inline]
    fn read_batch_with(
        &mut self,
        addrs: &[usize],
        visit: impl FnMut(usize, &[u8]),
    ) -> Result<(), ServerError> {
        let (valid, bounds) = self.in_bounds_prefix(addrs);
        self.download(valid, visit).and(bounds)?;
        self.round_trip(|| events(addrs, AccessEvent::Download));
        Ok(())
    }

    fn read_batch_strided(&mut self, addrs: &[usize], out: &mut [u8]) -> Result<(), ServerError> {
        if addrs.is_empty() {
            assert!(out.is_empty(), "output bytes without addresses");
            self.round_trip(Vec::new);
            return Ok(());
        }
        assert_eq!(out.len() % addrs.len(), 0, "output length not a multiple of cell count");
        let stride = out.len() / addrs.len();
        let (valid, bounds) = self.in_bounds_prefix(addrs);
        let served = self.backend.read_strided(valid, out, stride);
        self.charge_downloads(&served);
        served.error.map_or(bounds, Err)?;
        self.round_trip(|| events(addrs, AccessEvent::Download));
        Ok(())
    }

    fn write_batch(&mut self, writes: Vec<(usize, Vec<u8>)>) -> Result<(), ServerError> {
        self.write_cells(&borrow_cells(&writes))
    }

    #[inline]
    fn write_from(&mut self, addr: usize, cell: &[u8]) -> Result<(), ServerError> {
        self.write_cells(&[(addr, cell)])
    }

    fn write_batch_strided(&mut self, addrs: &[usize], flat: &[u8]) -> Result<(), ServerError> {
        let stride = if addrs.is_empty() {
            assert!(flat.is_empty(), "flat bytes without addresses");
            0
        } else {
            assert_eq!(flat.len() % addrs.len(), 0, "flat length not a multiple of cell count");
            flat.len() / addrs.len()
        };
        self.check_all(addrs.iter().copied())?;
        self.backend.write_strided(addrs, flat, stride)?;
        self.stats.uploads += addrs.len() as u64;
        self.stats.bytes_up += flat.len() as u64;
        self.round_trip(|| events(addrs, AccessEvent::Upload));
        Ok(())
    }

    fn access_batch(
        &mut self,
        reads: &[usize],
        writes: Vec<(usize, Vec<u8>)>,
    ) -> Result<Vec<Vec<u8>>, ServerError> {
        self.check_all(reads.iter().copied().chain(writes.iter().map(|&(addr, _)| addr)))?;
        // Reads are copied out before any write applies, so a read and a
        // write of the same address observe the old cell.
        let mut out = Vec::with_capacity(reads.len());
        self.download(reads, |_, cell| out.push(cell.to_vec()))?;
        self.upload(&borrow_cells(&writes))?;
        self.round_trip(|| {
            let mut events = events(reads, AccessEvent::Download);
            events.extend(writes.iter().map(|&(addr, _)| AccessEvent::Upload(addr)));
            events
        });
        Ok(out)
    }

    fn xor_cells_into(&mut self, addrs: &[usize], acc: &mut Vec<u8>) -> Result<(), ServerError> {
        acc.clear();
        let (valid, bounds) = self.in_bounds_prefix(addrs);
        let served = self.backend.xor_into(valid, acc);
        self.stats.computed += served.cells as u64;
        served.error.map_or(bounds, Err)?;
        self.stats.bytes_down += acc.len() as u64;
        self.round_trip(|| events(addrs, AccessEvent::Compute));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A backend of 2-byte cells that stops every read at batch position
    /// `fail_at` and rejects every write when `fail_writes` is set.
    #[derive(Debug)]
    struct Flaky {
        cells: Vec<Vec<u8>>,
        fail_at: Option<usize>,
        fail_writes: bool,
    }

    impl Backend for Flaky {
        fn capacity(&self) -> usize {
            self.cells.len()
        }

        fn stored_bytes(&self) -> u64 {
            self.cells.iter().map(|c| c.len() as u64).sum()
        }

        fn cell_stride(&self) -> usize {
            2
        }

        fn init(&mut self, cells: Vec<Vec<u8>>) {
            self.cells = cells;
        }

        fn init_empty(&mut self, capacity: usize) {
            self.cells = vec![Vec::new(); capacity];
        }

        fn read_with(
            &mut self,
            addrs: &[usize],
            mut visit: impl FnMut(usize, &[u8]),
        ) -> Result<(), ServerError> {
            for (i, &addr) in addrs.iter().enumerate() {
                if self.fail_at == Some(i) {
                    return Err(ServerError::Interrupted);
                }
                visit(i, &self.cells[addr]);
            }
            Ok(())
        }

        fn write(&mut self, cells: &[(usize, &[u8])]) -> Result<(), ServerError> {
            if self.fail_writes {
                return Err(ServerError::Interrupted);
            }
            for &(addr, cell) in cells {
                self.cells[addr] = cell.to_vec();
            }
            Ok(())
        }
    }

    fn metered(fail_at: Option<usize>, fail_writes: bool) -> Metered<Flaky> {
        let cells = (0..4).map(|i| vec![i as u8; 2]).collect();
        let mut m = Metered::from(Flaky { cells, fail_at, fail_writes });
        m.start_recording();
        m
    }

    /// The stats after `op`, asserting it recorded no transcript batch.
    fn charged_without_a_batch(m: &mut Metered<Flaky>) -> CostStats {
        assert_eq!(m.take_transcript().round_trips(), 0, "a failed batch was recorded");
        m.start_recording();
        let stats = m.stats();
        m.reset_stats();
        stats
    }

    fn down(cells: u64) -> CostStats {
        CostStats { downloads: cells, bytes_down: 2 * cells, ..CostStats::default() }
    }

    #[test]
    fn out_of_bounds_at_j_charges_the_cells_before_j() {
        let mut m = metered(None, false);
        let oob = Err(ServerError::OutOfBounds { addr: 9, capacity: 4 });
        assert_eq!(m.read_batch(&[0, 1, 9, 2]).map(drop), oob);
        assert_eq!(charged_without_a_batch(&mut m), down(2));
        assert_eq!(m.read_batch_strided(&[0, 1, 9, 2], &mut [0; 8]), oob);
        assert_eq!(charged_without_a_batch(&mut m), down(2));
        assert_eq!(m.xor_cells(&[0, 1, 9, 2]).map(drop), oob);
        let computed = CostStats { computed: 2, ..CostStats::default() };
        assert_eq!(charged_without_a_batch(&mut m), computed);
        // Writes and combined accesses check the whole batch first.
        assert_eq!(m.access_batch(&[0, 9], vec![(1, vec![7; 2])]).map(drop), oob);
        assert_eq!(m.write_batch_strided(&[0, 9], &[7; 4]), oob);
        assert_eq!(charged_without_a_batch(&mut m), CostStats::default());
        assert_eq!(m.backend.cells[1], vec![1; 2], "a failed batch wrote");
    }

    #[test]
    fn backend_failure_at_k_charges_exactly_the_prefix() {
        let mut m = metered(Some(1), false);
        assert_eq!(m.read_batch(&[3, 2, 1]).map(drop), Err(ServerError::Interrupted));
        assert_eq!(charged_without_a_batch(&mut m), down(1));
        assert_eq!(m.read_batch_strided(&[3, 2, 1], &mut [0; 6]), Err(ServerError::Interrupted));
        assert_eq!(charged_without_a_batch(&mut m), down(1));
        assert_eq!(m.xor_cells(&[3, 2, 1]).map(drop), Err(ServerError::Interrupted));
        let computed = CostStats { computed: 1, ..CostStats::default() };
        assert_eq!(charged_without_a_batch(&mut m), computed);
        // The backend stops before an out-of-bounds address would.
        assert_eq!(m.read_batch(&[3, 2, 9]).map(drop), Err(ServerError::Interrupted));
        assert_eq!(charged_without_a_batch(&mut m), down(1));
    }

    #[test]
    fn a_failed_write_charges_nothing() {
        let mut m = metered(None, true);
        assert_eq!(m.write(0, vec![7; 2]), Err(ServerError::Interrupted));
        assert_eq!(m.write_batch(vec![(0, vec![7; 2])]), Err(ServerError::Interrupted));
        assert_eq!(m.write_batch_strided(&[0, 1], &[7; 4]), Err(ServerError::Interrupted));
        assert_eq!(charged_without_a_batch(&mut m), CostStats::default());
        // The reads of a combined access were served before its write failed.
        let got = m.access_batch(&[2, 3], vec![(0, vec![7; 2])]);
        assert_eq!(got, Err(ServerError::Interrupted));
        assert_eq!(charged_without_a_batch(&mut m), down(2));
    }

    #[test]
    fn an_empty_strided_write_is_one_round_trip_with_an_empty_batch() {
        let mut m = metered(None, false);
        m.write_batch_strided(&[], &[]).unwrap();
        assert_eq!(m.stats(), CostStats { round_trips: 1, ..CostStats::default() });
        let t = m.take_transcript();
        assert_eq!(t.batches().collect::<Vec<_>>(), vec![&[] as &[AccessEvent]]);
    }
}
