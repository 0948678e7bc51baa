//! Flat-arena cell storage.
//!
//! The original in-process server held cells as `Vec<Option<Vec<u8>>>`:
//! one heap allocation per cell, pointer-chasing on every access, and a
//! mandatory `clone` to hand a cell to the client. [`CellStore`] replaces
//! that with a single contiguous `Vec<u8>` arena sliced at a fixed *stride*
//! (the largest cell length seen at init), a per-cell length table, and an
//! initialized-bitmap. Reads hand out `&[u8]` slices straight into the
//! arena — no allocation, no copy — which is what makes the zero-copy API
//! ([`crate::Storage::read_batch_with`]) possible.
//!
//! `CellStore` is also the [`Backend`] of [`crate::SimServer`]: it only
//! moves bytes, and [`crate::Metered`] adds the bounds checks, charging
//! and transcript.
//!
//! Cells are *usually* uniform-length (every scheme in this workspace pads
//! cells to equal length for length-indistinguishability), but the store
//! stays observationally equivalent to the old per-cell model: shorter
//! cells record their true length, and a write longer than the current
//! stride triggers a (rare, amortized) re-stride of the arena.

use crate::metered::Backend;
use crate::server::ServerError;

/// Contiguous fixed-stride storage for optional variable-length cells.
#[derive(Debug, Clone, Default)]
pub struct CellStore {
    /// The arena: `capacity * stride` bytes, cell `i` at `i * stride`.
    data: Vec<u8>,
    /// Actual byte length of each cell (≤ `stride`).
    lens: Vec<u32>,
    /// Initialized-bitmap, one bit per cell.
    init: Vec<u64>,
    /// Slot width in bytes.
    stride: usize,
}

impl CellStore {
    /// An empty store with no cells.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a store holding `cells`, all initialized. The stride is the
    /// longest cell's length.
    pub fn from_cells(cells: &[Vec<u8>]) -> Self {
        let stride = cells.iter().map(Vec::len).max().unwrap_or(0);
        let mut store = Self::with_capacity_and_stride(cells.len(), stride);
        for (i, cell) in cells.iter().enumerate() {
            store.set(i, cell);
        }
        store
    }

    /// Builds a store of `capacity` uninitialized cells. The stride starts
    /// at 0 and grows on the first write.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_capacity_and_stride(capacity, 0)
    }

    /// Builds a store of `capacity` uninitialized cells with a preallocated
    /// stride (avoids the first-write re-stride when the cell size is known
    /// up front).
    pub fn with_capacity_and_stride(capacity: usize, stride: usize) -> Self {
        Self {
            data: vec![0u8; capacity * stride],
            lens: vec![0u32; capacity],
            init: vec![0u64; capacity.div_ceil(64)],
            stride,
        }
    }

    /// Number of cell slots.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.lens.len()
    }

    /// True if the store holds no slots.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lens.is_empty()
    }

    /// Current slot width in bytes.
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Whether the cell at `addr` has ever been written.
    #[inline]
    pub fn is_initialized(&self, addr: usize) -> bool {
        self.init[addr >> 6] & (1 << (addr & 63)) != 0
    }

    /// The cell at `addr`, or `None` if it was never written. The returned
    /// slice borrows the arena directly: zero-copy.
    #[inline]
    pub fn get(&self, addr: usize) -> Option<&[u8]> {
        if !self.is_initialized(addr) {
            return None;
        }
        let start = addr * self.stride;
        Some(&self.data[start..start + self.lens[addr] as usize])
    }

    /// Stores `bytes` at `addr`, marking the cell initialized. Grows the
    /// stride (re-laying out the arena) if `bytes` is longer than every
    /// cell seen so far — rare in practice, since schemes use equal-length
    /// cells.
    ///
    /// # Panics
    /// Panics if `addr` is out of range.
    #[inline]
    pub fn set(&mut self, addr: usize, bytes: &[u8]) {
        assert!(addr < self.lens.len(), "cell address {addr} out of range");
        if bytes.len() > self.stride {
            self.restride(bytes.len());
        }
        let start = addr * self.stride;
        self.data[start..start + bytes.len()].copy_from_slice(bytes);
        self.lens[addr] = bytes.len() as u32;
        self.init[addr >> 6] |= 1 << (addr & 63);
    }

    /// Total bytes of initialized cell content (the server-storage
    /// measure; slack between a cell's length and the stride is not
    /// counted, matching the old per-cell model).
    pub fn stored_bytes(&self) -> u64 {
        (0..self.capacity())
            .filter(|&a| self.is_initialized(a))
            .map(|a| u64::from(self.lens[a]))
            .sum()
    }

    fn restride(&mut self, new_stride: usize) {
        let mut data = vec![0u8; self.capacity() * new_stride];
        for addr in 0..self.capacity() {
            let len = self.lens[addr] as usize;
            if len > 0 {
                data[addr * new_stride..addr * new_stride + len]
                    .copy_from_slice(&self.data[addr * self.stride..addr * self.stride + len]);
            }
        }
        self.data = data;
        self.stride = new_stride;
    }
}

/// The byte-moving backend of [`crate::SimServer`]: one arena, no fan-out.
impl Backend for CellStore {
    fn capacity(&self) -> usize {
        CellStore::capacity(self)
    }

    fn stored_bytes(&self) -> u64 {
        CellStore::stored_bytes(self)
    }

    fn cell_stride(&self) -> usize {
        self.stride
    }

    fn init(&mut self, cells: Vec<Vec<u8>>) {
        *self = Self::from_cells(&cells);
    }

    fn init_empty(&mut self, capacity: usize) {
        *self = Self::with_capacity(capacity);
    }

    #[inline]
    fn read_with(
        &mut self,
        addrs: &[usize],
        mut visit: impl FnMut(usize, &[u8]),
    ) -> Result<(), ServerError> {
        for (i, &addr) in addrs.iter().enumerate() {
            visit(i, self.get(addr).ok_or(ServerError::Uninitialized { addr })?);
        }
        Ok(())
    }

    fn write(&mut self, cells: &[(usize, &[u8])]) -> Result<(), ServerError> {
        for &(addr, cell) in cells {
            self.set(addr, cell);
        }
        Ok(())
    }
}

/// XORs `src` into `acc` (`acc[i] ^= src[i]`), eight bytes at a time over
/// the aligned prefix. Both slices must have equal length.
pub(crate) fn xor_slices(acc: &mut [u8], src: &[u8]) {
    debug_assert_eq!(acc.len(), src.len(), "XOR over unequal cells");
    let mut acc_chunks = acc.chunks_exact_mut(8);
    let mut src_chunks = src.chunks_exact(8);
    for (a, s) in (&mut acc_chunks).zip(&mut src_chunks) {
        let v = u64::from_le_bytes(a[..8].try_into().expect("8-byte chunk"))
            ^ u64::from_le_bytes(s.try_into().expect("8-byte chunk"));
        a.copy_from_slice(&v.to_le_bytes());
    }
    for (a, s) in acc_chunks
        .into_remainder()
        .iter_mut()
        .zip(src_chunks.remainder())
    {
        *a ^= s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_cells_round_trips() {
        let cells = vec![vec![1u8, 2, 3], vec![], vec![9u8; 3]];
        let store = CellStore::from_cells(&cells);
        assert_eq!(store.capacity(), 3);
        assert_eq!(store.stride(), 3);
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(store.get(i).unwrap(), cell.as_slice());
        }
    }

    #[test]
    fn uninitialized_cells_are_none() {
        let mut store = CellStore::with_capacity(70);
        assert!(store.get(69).is_none());
        store.set(69, &[7, 8]);
        assert_eq!(store.get(69).unwrap(), &[7, 8]);
        assert!(store.get(68).is_none());
    }

    #[test]
    fn empty_cell_is_initialized_but_empty() {
        let mut store = CellStore::with_capacity(2);
        store.set(0, &[]);
        assert_eq!(store.get(0).unwrap(), &[] as &[u8]);
        assert!(store.get(1).is_none());
    }

    #[test]
    fn longer_write_restrides_preserving_contents() {
        let mut store = CellStore::from_cells(&[vec![1u8; 4], vec![2u8; 4]]);
        store.set(1, &[3u8; 10]);
        assert_eq!(store.stride(), 10);
        assert_eq!(store.get(0).unwrap(), &[1u8; 4]);
        assert_eq!(store.get(1).unwrap(), &[3u8; 10]);
    }

    #[test]
    fn shorter_write_shrinks_reported_length() {
        let mut store = CellStore::from_cells(&[vec![5u8; 8]]);
        store.set(0, &[1u8]);
        assert_eq!(store.get(0).unwrap(), &[1u8]);
        assert_eq!(store.stored_bytes(), 1);
    }

    #[test]
    fn stored_bytes_sums_true_lengths() {
        let store = CellStore::from_cells(&[vec![0u8; 4], vec![0u8; 2], vec![]]);
        assert_eq!(store.stored_bytes(), 6);
    }

    #[test]
    fn xor_slices_matches_bytewise() {
        for len in [0usize, 1, 7, 8, 9, 16, 31] {
            let a: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let b: Vec<u8> = (0..len).map(|i| (i * 91 + 3) as u8).collect();
            let expected: Vec<u8> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
            let mut acc = a.clone();
            xor_slices(&mut acc, &b);
            assert_eq!(acc, expected, "len {len}");
        }
    }
}
