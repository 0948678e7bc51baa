//! The zero-copy storage-server trait surface.
//!
//! Every scheme in this workspace drives its server through this trait, so
//! the in-process [`crate::SimServer`], the [`crate::ShardedServer`] and
//! [`crate::DiskStore`] backends, and the network client of `dps_net` are
//! interchangeable at setup time. Every implementation is required to be
//! *observationally equivalent*: identical cells, identical [`CostStats`]
//! charging (down to the partial charges of a mid-batch failure), and an
//! identical [`Transcript`]. The three in-process servers get that
//! charging from the one [`crate::Metered`] layer; the `store_equivalence`
//! property suite checks them against its independent per-cell
//! `ReferenceServer`, and `loopback_equivalence` checks the network client
//! against a local server.

use crate::server::ServerError;
use crate::stats::CostStats;
use crate::transcript::Transcript;

/// A passive balls-and-bins storage server (Definition 3.1), plus the
/// PIR-style XOR compute extension.
///
/// `Default` is deliberately *not* a supertrait — a network-backed server
/// has no meaningful "from nothing" constructor. The convenience
/// constructors that mint internal servers (`OramKvs::new_on`,
/// `RecursivePathOram::setup_on`, `ReplicatedServers::replicate_on`, …)
/// take a local `S: Storage + Default` bound instead; backends without a
/// `Default` use the `*_with` variants that accept a server or factory.
pub trait Storage: std::fmt::Debug + Send {
    /// Replaces the server contents with `cells` (uncharged setup).
    fn init(&mut self, cells: Vec<Vec<u8>>);

    /// Reserves `capacity` uninitialized cells (uncharged setup).
    fn init_empty(&mut self, capacity: usize);

    /// Number of cell slots.
    fn capacity(&self) -> usize;

    /// Total bytes of initialized cell content.
    fn stored_bytes(&self) -> u64;

    /// The fixed cell stride of the backing arena (0 before any init).
    fn cell_stride(&self) -> usize;

    /// Starts recording the adversarial transcript.
    fn start_recording(&mut self);

    /// Stops recording and returns the transcript captured so far.
    fn take_transcript(&mut self) -> Transcript;

    /// Whether a transcript is being recorded.
    fn is_recording(&self) -> bool;

    /// Cumulative cost counters.
    fn stats(&self) -> CostStats;

    /// Resets cost counters.
    fn reset_stats(&mut self);

    /// Makes every previously applied mutation durable before returning.
    ///
    /// Backends with deferred durability (e.g. a [`crate::DiskStore`] with
    /// a group-commit window open) override this to close the window; the
    /// network daemon calls it before acknowledging responses on the wire.
    /// Purely in-memory backends are always "durable" to the extent they
    /// can be, so the default is a no-op.
    fn flush(&mut self) -> Result<(), ServerError> {
        Ok(())
    }

    /// Downloads the cells at `addrs` in one round trip, handing each cell
    /// to `visit` (batch position, cell bytes) as a borrowed slice.
    fn read_batch_with(
        &mut self,
        addrs: &[usize],
        visit: impl FnMut(usize, &[u8]),
    ) -> Result<(), ServerError>;

    /// Uploads the given cells in one round trip.
    fn write_batch(&mut self, writes: Vec<(usize, Vec<u8>)>) -> Result<(), ServerError>;

    /// Uploads a single borrowed cell (one round trip).
    fn write_from(&mut self, addr: usize, cell: &[u8]) -> Result<(), ServerError>;

    /// Uploads equal-length cells packed back-to-back in `flat` in one
    /// round trip.
    ///
    /// # Panics
    /// Panics if `flat.len()` is not a multiple of `addrs.len()`.
    fn write_batch_strided(&mut self, addrs: &[usize], flat: &[u8]) -> Result<(), ServerError>;

    /// Downloads `reads` and uploads `writes` in one combined round trip.
    fn access_batch(
        &mut self,
        reads: &[usize],
        writes: Vec<(usize, Vec<u8>)>,
    ) -> Result<Vec<Vec<u8>>, ServerError>;

    /// XORs the cells at `addrs` into `acc` (cleared first), charging one
    /// compute operation per cell.
    fn xor_cells_into(&mut self, addrs: &[usize], acc: &mut Vec<u8>) -> Result<(), ServerError>;

    /// Returns true if no cells are allocated.
    #[inline]
    fn is_empty(&self) -> bool {
        self.capacity() == 0
    }

    /// Downloads the cells at `addrs` in one round trip, owning copies.
    #[inline]
    fn read_batch(&mut self, addrs: &[usize]) -> Result<Vec<Vec<u8>>, ServerError> {
        let mut out = Vec::with_capacity(addrs.len());
        self.read_batch_with(addrs, |_, cell| out.push(cell.to_vec()))?;
        Ok(out)
    }

    /// Downloads a single cell (one round trip).
    #[inline]
    fn read(&mut self, addr: usize) -> Result<Vec<u8>, ServerError> {
        Ok(self.read_batch(&[addr])?.pop().expect("one cell requested"))
    }

    /// Downloads a single cell into the caller's scratch, returning its
    /// length.
    ///
    /// # Panics
    /// Panics if `out` is shorter than the cell.
    #[inline]
    fn read_into(&mut self, addr: usize, out: &mut [u8]) -> Result<usize, ServerError> {
        let mut len = 0;
        self.read_batch_with(&[addr], |_, cell| {
            out[..cell.len()].copy_from_slice(cell);
            len = cell.len();
        })?;
        Ok(len)
    }

    /// Bulk zero-copy download: copies the cells at `addrs` into
    /// back-to-back slots of `out` (slot `i` at `i * (out.len() /
    /// addrs.len())`), one round trip. The read twin of
    /// [`Storage::write_batch_strided`]; sharded implementations fan the
    /// per-shard copies across their worker pool. Stats, transcript and
    /// error semantics are those of [`Storage::read_batch_with`]; on error
    /// the contents of `out` are unspecified.
    ///
    /// # Panics
    /// Panics if `out.len()` is not a multiple of `addrs.len()`, or if any
    /// cell is longer than its slot.
    #[inline]
    fn read_batch_strided(&mut self, addrs: &[usize], out: &mut [u8]) -> Result<(), ServerError> {
        if addrs.is_empty() {
            assert!(out.is_empty(), "output bytes without addresses");
            return self.read_batch_with(&[], |_, _| {});
        }
        assert_eq!(out.len() % addrs.len(), 0, "output length not a multiple of cell count");
        let stride = out.len() / addrs.len();
        self.read_batch_with(addrs, |i, cell| {
            out[i * stride..i * stride + cell.len()].copy_from_slice(cell);
        })
    }

    /// Uploads a single owned cell (one round trip).
    #[inline]
    fn write(&mut self, addr: usize, cell: Vec<u8>) -> Result<(), ServerError> {
        self.write_from(addr, &cell)
    }

    /// XORs the cells at `addrs` together, returning the result.
    #[inline]
    fn xor_cells(&mut self, addrs: &[usize]) -> Result<Vec<u8>, ServerError> {
        let mut out = Vec::new();
        self.xor_cells_into(addrs, &mut out)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimServer;

    /// Drives a server purely through the trait, as a generic scheme would.
    fn exercise<S: Storage>(server: &mut S) {
        server.init((0..8).map(|i| vec![i as u8; 4]).collect());
        assert_eq!(server.capacity(), 8);
        assert!(!server.is_empty());
        server.start_recording();
        assert!(server.is_recording());
        assert_eq!(server.read(3).unwrap(), vec![3u8; 4]);
        server.write(5, vec![9u8; 4]).unwrap();
        let cells = server.read_batch(&[5, 0]).unwrap();
        assert_eq!(cells, vec![vec![9u8; 4], vec![0u8; 4]]);
        let x = server.xor_cells(&[0, 1]).unwrap();
        assert_eq!(x, vec![1u8; 4]);
        let t = server.take_transcript();
        assert_eq!(t.round_trips(), 4);
        assert!(server.stats().operations() > 0);
        server.reset_stats();
        assert_eq!(server.stats(), CostStats::default());
    }

    #[test]
    fn sim_server_implements_the_trait_faithfully() {
        exercise(&mut SimServer::new());
    }
}
