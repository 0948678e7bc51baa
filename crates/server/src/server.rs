//! The simulated passive storage server.

use crate::metered::Metered;
use crate::store::CellStore;

/// Errors returned by server operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerError {
    /// An address outside `[0, capacity)` was touched.
    OutOfBounds {
        /// The offending address.
        addr: usize,
        /// The server's capacity in cells.
        capacity: usize,
    },
    /// A cell was read before ever being written.
    Uninitialized {
        /// The offending address.
        addr: usize,
    },
    /// The operation was cut off mid-flight by infrastructure failure
    /// (e.g. the network connection carrying it dropped before the
    /// acknowledgement arrived): whether it was applied server-side is
    /// unknown, and the caller must re-verify before retrying anything
    /// non-idempotent. In-process servers never return this; it exists so
    /// a network-backed [`Storage`](crate::Storage) can surface an
    /// interrupted write as a typed error instead of a panic.
    Interrupted,
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::OutOfBounds { addr, capacity } => {
                write!(f, "address {addr} out of bounds (capacity {capacity})")
            }
            ServerError::Uninitialized { addr } => {
                write!(f, "cell {addr} read before initialization")
            }
            ServerError::Interrupted => {
                write!(f, "operation interrupted mid-flight; application state unknown")
            }
        }
    }
}

impl std::error::Error for ServerError {}

/// An in-process passive storage server (Definition 3.1): the
/// balls-and-bins rules of [`Metered`] over one flat [`CellStore`] arena.
///
/// Cells are opaque byte strings. The server never interprets them; the
/// only operations are batched downloads and uploads, plus the PIR-style
/// [`xor_cells`](crate::Storage::xor_cells) active operation. Each batch
/// counts as one round trip. The zero-copy reads
/// ([`read_batch_with`](crate::Storage::read_batch_with),
/// [`read_into`](crate::Storage::read_into)) hand out slices borrowed from
/// the arena without any per-cell heap traffic — the hot path every scheme
/// in this workspace uses.
pub type SimServer = Metered<CellStore>;

impl SimServer {
    /// Creates an empty server with no cells. Call
    /// [`init`](crate::Storage::init) (or a scheme's setup) to populate it.
    pub fn new() -> Self {
        Metered::from(CellStore::new())
    }
}

impl Default for SimServer {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::CostStats;
    use crate::transcript::AccessEvent;
    use crate::Storage;

    fn server_with(n: usize) -> SimServer {
        let mut s = SimServer::new();
        s.init((0..n).map(|i| vec![i as u8; 4]).collect());
        s
    }

    #[test]
    fn read_returns_stored_cell() {
        let mut s = server_with(8);
        assert_eq!(s.read(3).unwrap(), vec![3u8; 4]);
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut s = server_with(8);
        s.write(5, vec![9u8; 4]).unwrap();
        assert_eq!(s.read(5).unwrap(), vec![9u8; 4]);
    }

    #[test]
    fn out_of_bounds_is_reported() {
        let mut s = server_with(4);
        assert_eq!(s.read(4), Err(ServerError::OutOfBounds { addr: 4, capacity: 4 }));
        assert_eq!(s.write(9, vec![]), Err(ServerError::OutOfBounds { addr: 9, capacity: 4 }));
    }

    #[test]
    fn uninitialized_cell_is_reported() {
        let mut s = SimServer::new();
        s.init_empty(4);
        assert_eq!(s.read(2), Err(ServerError::Uninitialized { addr: 2 }));
        s.write(2, vec![1]).unwrap();
        assert_eq!(s.read(2).unwrap(), vec![1]);
    }

    #[test]
    fn stats_track_ops_bytes_and_round_trips() {
        let mut s = server_with(8);
        s.read_batch(&[0, 1, 2]).unwrap();
        s.write(3, vec![0u8; 10]).unwrap();
        let stats = s.stats();
        assert_eq!(stats.downloads, 3);
        assert_eq!(stats.uploads, 1);
        assert_eq!(stats.bytes_down, 12);
        assert_eq!(stats.bytes_up, 10);
        assert_eq!(stats.round_trips, 2);
    }

    #[test]
    fn access_batch_is_one_round_trip() {
        let mut s = server_with(8);
        let before = s.stats();
        let cells = s.access_batch(&[1, 2], vec![(3, vec![7u8; 4])]).unwrap();
        assert_eq!(cells.len(), 2);
        let diff = s.stats().since(&before);
        assert_eq!(diff.round_trips, 1);
        assert_eq!(diff.downloads, 2);
        assert_eq!(diff.uploads, 1);
    }

    #[test]
    fn transcript_records_exact_view() {
        let mut s = server_with(4);
        s.start_recording();
        s.read_batch(&[2, 0]).unwrap();
        s.write(1, vec![0u8; 4]).unwrap();
        let t = s.take_transcript();
        let batches: Vec<Vec<AccessEvent>> = t.batches().map(|b| b.to_vec()).collect();
        assert_eq!(
            batches,
            vec![
                vec![AccessEvent::Download(2), AccessEvent::Download(0)],
                vec![AccessEvent::Upload(1)],
            ]
        );
        // Recording stops after take_transcript.
        assert!(!s.is_recording());
    }

    #[test]
    fn xor_cells_computes_parity_and_charges_ops() {
        let mut s = SimServer::new();
        s.init(vec![vec![0b1010], vec![0b0110], vec![0b0001]]);
        let before = s.stats();
        let x = s.xor_cells(&[0, 1, 2]).unwrap();
        assert_eq!(x, vec![0b1101]);
        let diff = s.stats().since(&before);
        assert_eq!(diff.computed, 3);
        assert_eq!(diff.round_trips, 1);
    }

    #[test]
    fn xor_cells_empty_set_is_empty() {
        let mut s = server_with(2);
        assert_eq!(s.xor_cells(&[]).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn failed_batch_mutates_nothing() {
        let mut s = server_with(2);
        let before_stats = s.stats();
        // Second write is out of bounds: the whole batch must be rejected
        // without applying the first write.
        let err = s.write_batch(vec![(0, vec![9u8; 4]), (7, vec![1u8; 4])]);
        assert!(err.is_err());
        assert_eq!(s.read(0).unwrap(), vec![0u8; 4]);
        // Only the successful read above should have been charged.
        assert_eq!(s.stats().since(&before_stats).uploads, 0);
    }

    #[test]
    fn stored_bytes_counts_cells() {
        let s = server_with(4);
        assert_eq!(s.stored_bytes(), 16);
    }

    #[test]
    fn reset_stats_zeroes() {
        let mut s = server_with(2);
        s.read(0).unwrap();
        s.reset_stats();
        assert_eq!(s.stats(), CostStats::default());
    }

    #[test]
    fn read_batch_with_visits_cells_in_order() {
        let mut s = server_with(8);
        let before = s.stats();
        let mut seen = Vec::new();
        s.read_batch_with(&[5, 1, 5], |i, cell| seen.push((i, cell.to_vec())))
            .unwrap();
        assert_eq!(seen, vec![(0, vec![5u8; 4]), (1, vec![1u8; 4]), (2, vec![5u8; 4])]);
        let diff = s.stats().since(&before);
        assert_eq!(diff.downloads, 3);
        assert_eq!(diff.bytes_down, 12);
        assert_eq!(diff.round_trips, 1);
    }

    #[test]
    fn read_into_copies_without_allocating() {
        let mut s = server_with(4);
        let mut scratch = [0u8; 8];
        let len = s.read_into(2, &mut scratch).unwrap();
        assert_eq!(len, 4);
        assert_eq!(&scratch[..4], &[2u8; 4]);
        assert_eq!(s.stats().round_trips, 1);
    }

    #[test]
    fn write_from_and_strided_match_owning_writes() {
        let mut s = server_with(8);
        s.write_from(1, &[9u8; 4]).unwrap();
        assert_eq!(s.read(1).unwrap(), vec![9u8; 4]);

        let flat = [7u8, 7, 7, 7, 8, 8, 8, 8];
        s.write_batch_strided(&[2, 3], &flat).unwrap();
        assert_eq!(s.read(2).unwrap(), vec![7u8; 4]);
        assert_eq!(s.read(3).unwrap(), vec![8u8; 4]);
        // Same stats accounting as the owning write path.
        let mut reference = server_with(8);
        reference.write(1, vec![9u8; 4]).unwrap();
        reference
            .write_batch(vec![(2, vec![7u8; 4]), (3, vec![8u8; 4])])
            .unwrap();
        let mut lhs = s.stats();
        let mut rhs = reference.stats();
        // Cancel the three verification reads done above.
        lhs.downloads = 0;
        lhs.bytes_down = 0;
        lhs.round_trips -= 3;
        rhs.downloads = 0;
        rhs.bytes_down = 0;
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn strided_write_out_of_bounds_mutates_nothing() {
        let mut s = server_with(2);
        let err = s.write_batch_strided(&[0, 9], &[1u8, 1, 1, 1, 2, 2, 2, 2]);
        assert!(err.is_err());
        assert_eq!(s.read(0).unwrap(), vec![0u8; 4]);
        assert_eq!(s.stats().uploads, 0);
    }

    #[test]
    fn xor_cells_into_reuses_scratch() {
        let mut s = SimServer::new();
        s.init(vec![vec![0b1010], vec![0b0110], vec![0b0001]]);
        let mut acc = vec![0xFFu8; 16]; // stale contents must be cleared
        s.xor_cells_into(&[0, 1, 2], &mut acc).unwrap();
        assert_eq!(acc, vec![0b1101]);
    }

    #[test]
    fn zero_copy_paths_record_same_transcript_as_owning() {
        let mut a = server_with(4);
        a.start_recording();
        a.read_batch(&[2, 0]).unwrap();
        a.write(1, vec![0u8; 4]).unwrap();
        a.write_batch(vec![(2, vec![1u8; 4]), (3, vec![2u8; 4])])
            .unwrap();
        let view_a = a.take_transcript().canonical_encoding();

        let mut b = server_with(4);
        b.start_recording();
        b.read_batch_with(&[2, 0], |_, _| {}).unwrap();
        b.write_from(1, &[0u8; 4]).unwrap();
        b.write_batch_strided(&[2, 3], &[1, 1, 1, 1, 2, 2, 2, 2])
            .unwrap();
        let view_b = b.take_transcript().canonical_encoding();
        assert_eq!(view_a, view_b);
    }

    #[test]
    fn cell_stride_tracks_arena_geometry() {
        let s = server_with(4);
        assert_eq!(s.cell_stride(), 4);
        let mut empty = SimServer::new();
        assert_eq!(empty.cell_stride(), 0);
        empty.init_empty(4);
        empty.write(0, vec![0u8; 7]).unwrap();
        assert_eq!(empty.cell_stride(), 7);
    }

    /// Cells 0 and 2 of 4 hold `[i; 4]`; 1 and 3 were never written.
    /// Counters are zeroed and recording is on.
    fn server_with_a_hole() -> SimServer {
        let mut s = SimServer::new();
        s.init_empty(4);
        s.write_batch(vec![(0, vec![0u8; 4]), (2, vec![2u8; 4])])
            .unwrap();
        s.reset_stats();
        s.start_recording();
        s
    }

    #[test]
    fn uninitialized_read_charges_the_prefix_and_records_nothing() {
        let mut s = server_with_a_hole();
        let mut seen = Vec::new();
        let got = s.read_batch_with(&[0, 1, 2], |i, _| seen.push(i));
        assert_eq!(got, Err(ServerError::Uninitialized { addr: 1 }));
        assert_eq!(seen, vec![0]);
        assert_eq!(s.stats(), CostStats { downloads: 1, bytes_down: 4, ..CostStats::default() });
        assert_eq!(s.take_transcript().round_trips(), 0);
    }

    #[test]
    fn uninitialized_xor_charges_one_compute_and_no_bytes() {
        let mut s = server_with_a_hole();
        let mut acc = Vec::new();
        let got = s.xor_cells_into(&[0, 1, 2], &mut acc);
        assert_eq!(got, Err(ServerError::Uninitialized { addr: 1 }));
        assert_eq!(s.stats(), CostStats { computed: 1, ..CostStats::default() });
        assert_eq!(s.take_transcript().round_trips(), 0);
    }

    #[test]
    fn uninitialized_access_read_uploads_nothing() {
        let mut s = server_with_a_hole();
        let got = s.access_batch(&[0, 1], vec![(2, vec![9u8; 4])]);
        assert_eq!(got, Err(ServerError::Uninitialized { addr: 1 }));
        assert_eq!(s.stats(), CostStats { downloads: 1, bytes_down: 4, ..CostStats::default() });
        assert_eq!(s.take_transcript().round_trips(), 0);
        assert_eq!(s.read(2).unwrap(), vec![2u8; 4]);
    }
}
