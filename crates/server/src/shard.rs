//! The sharded storage server.
//!
//! [`ShardedServer`] splits the flat [`CellStore`] arena into `S`
//! *contiguous* address ranges. Shard `i` owns addresses
//! `[i·⌈n/S⌉, min((i+1)·⌈n/S⌉, n))` with its own arena, length table and
//! init-bitmap. It is [`Metered`] over [`ShardBackend`], which only moves
//! bytes: bounds checks, [`crate::CostStats`] and the transcript are
//! charged by the [`crate::metered`] layer.
//!
//! # Determinism contract
//!
//! A `ShardedServer` is **observationally identical** to
//! [`crate::SimServer`] for every shard count and worker-pool width: same
//! cells, same `CostStats` (including the partial charges of a mid-batch
//! failure), same [`crate::Transcript`] in the same deterministic global
//! order. This holds because routing decisions and error detection happen
//! on the caller thread in request order; the worker pool only fans out
//! the *data movement* (cell copies, XOR folding) over disjoint regions,
//! and XOR partials are merged in ascending shard order (commutativity
//! makes the merge order invisible). The `shard_equivalence` property
//! suite pins this bit-for-bit.

use std::ops::Range;

use crate::metered::{copy_in_order, fold_in_order, Backend, Metered, Served};
use crate::pool::{Task, WorkerPool};
use crate::server::ServerError;
use crate::store::{xor_slices, CellStore};

/// Minimum batch size (in cells) before an operation fans out over the
/// worker pool; smaller batches run inline — scoped-thread spawn costs a
/// few microseconds, which would swamp a handful of memcpys.
const PAR_MIN_CELLS: usize = 64;

/// Per-shard `(local address, batch position)` lists of one batch.
type Groups = Vec<Vec<(usize, usize)>>;

/// A passive storage server sharded over contiguous address ranges.
///
/// See the [module docs](self) for the determinism contract. Construct
/// with [`ShardedServer::new`] (shard count) and optionally
/// [`ShardedServer::with_pool`] (intra-batch fan-out width); populate via
/// [`crate::Storage::init`]/[`crate::Storage::init_empty`] exactly like a
/// [`crate::SimServer`].
pub type ShardedServer = Metered<ShardBackend>;

/// The byte-moving backend of [`ShardedServer`]: one [`CellStore`] per
/// contiguous address range, plus the pool that fans large batches out.
#[derive(Debug)]
pub struct ShardBackend {
    shards: Vec<CellStore>,
    /// Addresses per shard (`⌈capacity / S⌉`; 0 while empty).
    chunk: usize,
    /// Total cell slots across all shards.
    capacity: usize,
    pool: WorkerPool,
}

impl Default for ShardedServer {
    /// A single-shard, sequential-pool server: the drop-in twin of
    /// [`crate::SimServer::new`].
    fn default() -> Self {
        Self::new(1)
    }
}

impl ShardedServer {
    /// An empty server split into `shard_count` contiguous ranges (clamped
    /// to at least 1), with a sequential worker pool.
    pub fn new(shard_count: usize) -> Self {
        Metered::from(ShardBackend {
            shards: vec![CellStore::new(); shard_count.max(1)],
            chunk: 0,
            capacity: 0,
            pool: WorkerPool::single(),
        })
    }

    /// Sets the worker pool used to fan one batch's data movement across
    /// threads. `WorkerPool::single()` (the default) keeps everything on
    /// the caller thread.
    pub fn with_pool(mut self, pool: WorkerPool) -> Self {
        self.backend.pool = pool;
        self
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.backend.shards.len()
    }

    /// The worker pool in force.
    pub fn pool(&self) -> WorkerPool {
        self.backend.pool
    }

    /// The contiguous global address range shard `s` owns (empty for
    /// trailing shards when the capacity does not fill them).
    pub fn shard_range(&self, s: usize) -> Range<usize> {
        assert!(s < self.shard_count(), "shard {s} out of range");
        self.backend.range(s)
    }

    /// The shard owning `addr`, or `None` when out of bounds.
    pub fn shard_of(&self, addr: usize) -> Option<usize> {
        (addr < self.backend.capacity).then(|| self.backend.locate(addr).0)
    }
}

impl ShardBackend {
    fn range(&self, s: usize) -> Range<usize> {
        (s * self.chunk).min(self.capacity)..((s + 1) * self.chunk).min(self.capacity)
    }

    /// The shard and shard-local address of the in-bounds `addr`.
    #[inline]
    fn locate(&self, addr: usize) -> (usize, usize) {
        (addr / self.chunk, addr % self.chunk)
    }

    fn cell(&self, addr: usize) -> Option<&[u8]> {
        let (s, local) = self.locate(addr);
        self.shards[s].get(local)
    }

    /// The length every cell at `addrs` has, if all are initialized and
    /// equally long.
    fn common_len(&self, addrs: &[usize]) -> Option<usize> {
        let mut lens = addrs.iter().map(|&addr| self.cell(addr).map(<[u8]>::len));
        let len = lens.next()??;
        lens.all(|l| l == Some(len)).then_some(len)
    }

    /// Re-splits `capacity` cells into ranges, building each shard's store
    /// from its range.
    fn reshape(&mut self, capacity: usize, store: impl Fn(Range<usize>) -> CellStore) {
        self.capacity = capacity;
        self.chunk = capacity.div_ceil(self.shards.len());
        self.shards = (0..self.shards.len()).map(|s| store(self.range(s))).collect();
    }

    /// The batch grouped by shard, when it is worth fanning over the pool:
    /// a parallel pool, at least [`PAR_MIN_CELLS`] cells, and more than one
    /// shard touched.
    fn fan_out(&self, addrs: &[usize]) -> Option<Groups> {
        if self.pool.is_sequential() || addrs.len() < PAR_MIN_CELLS {
            return None;
        }
        let mut groups: Groups = vec![Vec::new(); self.shards.len()];
        for (i, &addr) in addrs.iter().enumerate() {
            let (s, local) = self.locate(addr);
            groups[s].push((local, i));
        }
        (groups.iter().filter(|g| !g.is_empty()).count() > 1).then_some(groups)
    }
}

impl Backend for ShardBackend {
    fn capacity(&self) -> usize {
        self.capacity
    }

    fn stored_bytes(&self) -> u64 {
        self.shards.iter().map(CellStore::stored_bytes).sum()
    }

    fn cell_stride(&self) -> usize {
        // Per-shard strides grow independently, but the max over shards is
        // the longest cell ever seen anywhere — exactly SimServer's stride.
        self.shards.iter().map(CellStore::stride).max().unwrap_or(0)
    }

    fn init(&mut self, cells: Vec<Vec<u8>>) {
        self.reshape(cells.len(), |r| CellStore::from_cells(&cells[r]));
    }

    fn init_empty(&mut self, capacity: usize) {
        self.reshape(capacity, |r| CellStore::with_capacity(r.len()));
    }

    #[inline]
    fn read_with(
        &mut self,
        addrs: &[usize],
        mut visit: impl FnMut(usize, &[u8]),
    ) -> Result<(), ServerError> {
        for (i, &addr) in addrs.iter().enumerate() {
            visit(i, self.cell(addr).ok_or(ServerError::Uninitialized { addr })?);
        }
        Ok(())
    }

    /// Fans the per-shard copies of a large, fully initialized batch over
    /// the pool; anything else copies in order, stopping where
    /// `SimServer` would.
    fn read_strided(&mut self, addrs: &[usize], out: &mut [u8], stride: usize) -> Served {
        let groups = self
            .fan_out(addrs)
            .filter(|_| stride > 0 && addrs.iter().all(|&a| self.cell(a).is_some()));
        let Some(groups) = groups else {
            return copy_in_order(self, addrs, out, stride);
        };
        // Disjoint `&mut` slot views, split once on the caller thread.
        let mut slots: Vec<Option<&mut [u8]>> = out.chunks_mut(stride).map(Some).collect();
        let tasks: Vec<Task<'_, u64>> = self
            .shards
            .iter()
            .zip(groups)
            .filter(|(_, group)| !group.is_empty())
            .map(|(store, group)| {
                let views: Vec<(usize, &mut [u8])> = group
                    .into_iter()
                    .map(|(local, i)| (local, slots[i].take().expect("one slot per position")))
                    .collect();
                Box::new(move || {
                    let mut bytes = 0;
                    for (local, view) in views {
                        let cell = store.get(local).expect("checked initialized");
                        view[..cell.len()].copy_from_slice(cell);
                        bytes += cell.len() as u64;
                    }
                    bytes
                }) as Task<'_, u64>
            })
            .collect();
        let bytes = self.pool.run(tasks).into_iter().sum();
        Served { cells: addrs.len(), bytes, error: None }
    }

    fn write(&mut self, cells: &[(usize, &[u8])]) -> Result<(), ServerError> {
        for &(addr, cell) in cells {
            let (s, local) = self.locate(addr);
            self.shards[s].set(local, cell);
        }
        Ok(())
    }

    /// The upload hot path: per-shard cell copies fan out over the pool
    /// for large batches.
    fn write_strided(
        &mut self,
        addrs: &[usize],
        flat: &[u8],
        stride: usize,
    ) -> Result<(), ServerError> {
        let cell = |i: usize| &flat[i * stride..(i + 1) * stride];
        let Some(groups) = self.fan_out(addrs) else {
            for (i, &addr) in addrs.iter().enumerate() {
                let (s, local) = self.locate(addr);
                self.shards[s].set(local, cell(i));
            }
            return Ok(());
        };
        let tasks: Vec<Task<'_, ()>> = self
            .shards
            .iter_mut()
            .zip(groups)
            .filter(|(_, group)| !group.is_empty())
            .map(|(store, group)| {
                Box::new(move || {
                    for (local, i) in group {
                        store.set(local, cell(i));
                    }
                }) as Task<'_, ()>
            })
            .collect();
        self.pool.run(tasks);
        Ok(())
    }

    /// Folds per-shard XOR partials in parallel for large batches of
    /// initialized, equal-length cells (the XOR contract) and merges them
    /// in ascending shard order; anything else folds in order, stopping
    /// where `SimServer` would.
    fn xor_into(&mut self, addrs: &[usize], acc: &mut Vec<u8>) -> Served {
        let plan = self
            .fan_out(addrs)
            .and_then(|groups| Some((groups, self.common_len(addrs)?)));
        let Some((groups, len)) = plan else {
            return fold_in_order(self, addrs, acc);
        };
        let tasks: Vec<Task<'_, Vec<u8>>> = self
            .shards
            .iter()
            .zip(groups)
            .filter(|(_, group)| !group.is_empty())
            .map(|(store, group)| {
                Box::new(move || {
                    let mut partial: Vec<u8> = Vec::new();
                    for (k, (local, _)) in group.into_iter().enumerate() {
                        let cell = store.get(local).expect("checked initialized");
                        if k == 0 {
                            partial.extend_from_slice(cell);
                        } else {
                            xor_slices(&mut partial, cell);
                        }
                    }
                    partial
                }) as Task<'_, Vec<u8>>
            })
            .collect();
        for partial in self.pool.run(tasks) {
            if acc.is_empty() {
                acc.extend_from_slice(&partial);
            } else {
                xor_slices(acc, &partial);
            }
        }
        Served { cells: addrs.len(), bytes: (addrs.len() * len) as u64, error: None }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Storage;

    fn server_with(shards: usize, n: usize) -> ShardedServer {
        let mut s = ShardedServer::new(shards);
        Storage::init(&mut s, (0..n).map(|i| vec![i as u8; 4]).collect());
        s
    }

    #[test]
    fn routes_reads_across_shard_boundaries() {
        let mut s = server_with(4, 10);
        assert_eq!(s.shard_count(), 4);
        assert_eq!(s.shard_range(0), 0..3);
        assert_eq!(s.shard_range(3), 9..10);
        let cells = s.read_batch(&[0, 5, 9]).unwrap();
        assert_eq!(cells, vec![vec![0u8; 4], vec![5u8; 4], vec![9u8; 4]]);
    }

    #[test]
    fn cross_shard_read_is_charged_once() {
        let mut s = server_with(2, 8);
        s.read_batch(&[0, 1, 6]).unwrap();
        assert_eq!((s.shard_of(1), s.shard_of(6)), (Some(0), Some(1)));
        let total = Storage::stats(&s);
        assert_eq!(total.downloads, 3);
        assert_eq!(total.round_trips, 1);
    }

    #[test]
    fn cross_shard_batch_is_one_round_trip() {
        let mut s = server_with(4, 16);
        let flat: Vec<u8> = (0..4 * 4).map(|i| i as u8).collect();
        s.write_batch_strided(&[0, 5, 10, 15], &flat).unwrap();
        let total = Storage::stats(&s);
        assert_eq!(total.uploads, 4);
        assert_eq!(total.round_trips, 1);
        assert_eq!(s.read(15).unwrap(), vec![12, 13, 14, 15]);
    }

    #[test]
    fn out_of_bounds_reports_global_capacity() {
        let mut s = server_with(4, 10);
        assert_eq!(s.read(10), Err(ServerError::OutOfBounds { addr: 10, capacity: 10 }));
    }

    #[test]
    fn xor_matches_across_shards() {
        let mut s = ShardedServer::new(3);
        Storage::init(&mut s, vec![vec![0b1010], vec![0b0110], vec![0b0001]]);
        assert_eq!(s.xor_cells(&[0, 1, 2]).unwrap(), vec![0b1101]);
        assert_eq!(Storage::stats(&s).computed, 3);
    }

    #[test]
    fn empty_trailing_shards_are_harmless() {
        let mut s = server_with(8, 3);
        assert_eq!(s.shard_range(7), 3..3);
        assert_eq!(s.read(2).unwrap(), vec![2u8; 4]);
        assert_eq!(s.shard_of(2), Some(2));
        assert_eq!(s.shard_of(3), None);
    }

    #[test]
    fn default_is_single_shard() {
        let s = ShardedServer::default();
        assert_eq!(s.shard_count(), 1);
        assert!(s.pool().is_sequential());
    }
}
