//! Integrity-verified storage: a [`SimServer`] checked by a Merkle tree.
//!
//! The paper's model trusts the server to *store* faithfully and only
//! distrusts what it *observes*. [`VerifiedServer`] upgrades the model to
//! an actively malicious server: every download is verified against a
//! 32-byte root held in trusted client state, and every upload refreshes
//! that root. Corruption, cell swaps, and rollbacks all surface as
//! [`VerifiedError::IntegrityViolation`] instead of silently wrong data.
//!
//! The Merkle tree itself lives on the *untrusted* side (in deployment the
//! server stores it and ships `O(log n)` sibling digests per access); only
//! `root` is trusted. The adversary handle for tests is
//! [`VerifiedServer::adversary_cells_mut`], which mutates stored cells
//! and/or tree nodes without touching the trusted root — exactly what a
//! malicious server can do.

use dps_crypto::merkle::{Digest, MerkleTree};

use crate::server::{ServerError, SimServer};
use crate::stats::CostStats;
use crate::storage::Storage;

/// Errors from verified storage operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifiedError {
    /// The cell (or its authentication path) failed verification against
    /// the trusted root: the server tampered, swapped, or rolled back.
    IntegrityViolation {
        /// The address whose verification failed.
        addr: usize,
    },
    /// Underlying storage failure.
    Server(ServerError),
}

impl std::fmt::Display for VerifiedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifiedError::IntegrityViolation { addr } => {
                write!(f, "integrity violation at address {addr} (tampered/swapped/rolled back)")
            }
            VerifiedError::Server(e) => write!(f, "server failure: {e}"),
        }
    }
}

impl std::error::Error for VerifiedError {}

impl From<ServerError> for VerifiedError {
    fn from(e: ServerError) -> Self {
        VerifiedError::Server(e)
    }
}

/// A passive storage server whose responses are Merkle-verified.
#[derive(Debug, Clone)]
pub struct VerifiedServer {
    server: SimServer,
    /// Untrusted: in deployment this is server-side state.
    tree: MerkleTree,
    /// Trusted client state — the only thing the client must protect.
    root: Digest,
}

impl VerifiedServer {
    /// Stores `cells` and commits to them in the trusted root.
    ///
    /// # Panics
    /// Panics if `cells` is empty.
    pub fn init(cells: Vec<Vec<u8>>) -> Self {
        let tree = MerkleTree::build(&cells);
        let root = tree.root();
        let mut server = SimServer::new();
        server.init(cells);
        Self { server, tree, root }
    }

    /// Number of cells stored.
    pub fn capacity(&self) -> usize {
        self.server.capacity()
    }

    /// Cost counters of the underlying server. (Verification hashes are
    /// client-side compute and are not charged as server operations,
    /// matching how the paper counts only balls moved.)
    pub fn stats(&self) -> CostStats {
        self.server.stats()
    }

    /// The trusted root (e.g. to persist across client restarts).
    pub fn trusted_root(&self) -> Digest {
        self.root
    }

    /// **Adversary handle**: mutate stored cells without updating the
    /// trusted root, as a malicious server would. Tests use this to inject
    /// corruption/swap/rollback attacks.
    pub fn adversary_cells_mut(&mut self) -> &mut SimServer {
        &mut self.server
    }

    /// **Adversary handle**: overwrite the untrusted tree (e.g. with one
    /// recomputed over tampered cells — still caught, because the *root*
    /// does not match).
    pub fn adversary_replace_tree(&mut self, tree: MerkleTree) {
        self.tree = tree;
    }

    /// Downloads a batch in one round trip, verifying each cell against
    /// the trusted root and handing the verified bytes to `visit` as a
    /// slice borrowed from the storage arena (zero-copy). Fails on the
    /// first address whose verification fails; `visit` is never called on
    /// an unverified cell.
    pub fn read_batch_with(
        &mut self,
        addrs: &[usize],
        mut visit: impl FnMut(usize, &[u8]),
    ) -> Result<(), VerifiedError> {
        let (tree, root) = (&self.tree, &self.root);
        let mut violation: Option<usize> = None;
        self.server.read_batch_with(addrs, |i, cell| {
            if violation.is_some() {
                return;
            }
            let addr = addrs[i];
            let proof = tree.prove(addr);
            if MerkleTree::verify(root, cell, &proof) {
                visit(i, cell);
            } else {
                violation = Some(addr);
            }
        })?;
        if let Some(addr) = violation {
            return Err(VerifiedError::IntegrityViolation { addr });
        }
        Ok(())
    }

    /// Downloads and verifies the cell at `addr`.
    pub fn read(&mut self, addr: usize) -> Result<Vec<u8>, VerifiedError> {
        let mut out = Vec::new();
        self.read_batch_with(&[addr], |_, cell| out.extend_from_slice(cell))?;
        Ok(out)
    }

    /// Downloads and verifies a batch in one round trip. Fails on the
    /// first address whose verification fails.
    pub fn read_batch(&mut self, addrs: &[usize]) -> Result<Vec<Vec<u8>>, VerifiedError> {
        let mut out = Vec::with_capacity(addrs.len());
        self.read_batch_with(addrs, |_, cell| out.push(cell.to_vec()))?;
        Ok(out)
    }

    /// Uploads a cell and refreshes the trusted root.
    pub fn write(&mut self, addr: usize, cell: Vec<u8>) -> Result<(), VerifiedError> {
        self.write_from(addr, &cell)
    }

    /// Uploads a borrowed cell and refreshes the trusted root — the
    /// hot-path form of [`VerifiedServer::write`], no allocation.
    pub fn write_from(&mut self, addr: usize, cell: &[u8]) -> Result<(), VerifiedError> {
        self.tree.update(addr, cell);
        self.root = self.tree.root();
        self.server.write_from(addr, cell)?;
        Ok(())
    }

    /// Uploads a batch in one round trip, refreshing the root.
    pub fn write_batch(&mut self, writes: Vec<(usize, Vec<u8>)>) -> Result<(), VerifiedError> {
        for (addr, cell) in &writes {
            self.tree.update(*addr, cell);
        }
        self.root = self.tree.root();
        self.server.write_batch(writes)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(n: usize) -> VerifiedServer {
        VerifiedServer::init((0..n).map(|i| vec![i as u8; 8]).collect())
    }

    #[test]
    fn honest_reads_and_writes_verify() {
        let mut s = build(16);
        assert_eq!(s.read(3).unwrap(), vec![3u8; 8]);
        s.write(3, vec![0xAA; 8]).unwrap();
        assert_eq!(s.read(3).unwrap(), vec![0xAA; 8]);
        assert_eq!(s.read_batch(&[0, 3, 15]).unwrap()[1], vec![0xAA; 8]);
    }

    #[test]
    fn corruption_is_detected() {
        let mut s = build(16);
        s.adversary_cells_mut().write(5, vec![0xFF; 8]).unwrap();
        assert_eq!(s.read(5), Err(VerifiedError::IntegrityViolation { addr: 5 }));
    }

    #[test]
    fn swap_is_detected() {
        let mut s = build(16);
        // Adversary swaps cells 2 and 9 (and even fixes up its own tree).
        let c2 = s.adversary_cells_mut().read(2).unwrap();
        let c9 = s.adversary_cells_mut().read(9).unwrap();
        s.adversary_cells_mut().write(2, c9.clone()).unwrap();
        s.adversary_cells_mut().write(9, c2.clone()).unwrap();
        let mut tampered: Vec<Vec<u8>> = (0..16).map(|i| vec![i as u8; 8]).collect();
        tampered.swap(2, 9);
        s.adversary_replace_tree(MerkleTree::build(&tampered));
        assert!(matches!(s.read(2), Err(VerifiedError::IntegrityViolation { addr: 2 })));
    }

    #[test]
    fn rollback_is_detected() {
        let mut s = build(8);
        let old = s.read(1).unwrap();
        s.write(1, vec![0xBB; 8]).unwrap();
        // Adversary rolls the cell back to its old value and rebuilds the
        // untrusted tree to match — the trusted root still catches it.
        let mut rolled: Vec<Vec<u8>> = (0..8).map(|i| vec![i as u8; 8]).collect();
        rolled[1] = old.clone();
        s.adversary_cells_mut().write(1, old).unwrap();
        s.adversary_replace_tree(MerkleTree::build(&rolled));
        assert_eq!(s.read(1), Err(VerifiedError::IntegrityViolation { addr: 1 }));
    }

    #[test]
    fn batch_read_detects_single_bad_cell() {
        let mut s = build(8);
        s.adversary_cells_mut().write(6, vec![0u8; 8]).unwrap();
        assert_eq!(s.read_batch(&[0, 6, 7]), Err(VerifiedError::IntegrityViolation { addr: 6 }));
    }

    #[test]
    fn root_changes_on_every_write() {
        let mut s = build(4);
        let r0 = s.trusted_root();
        s.write(0, vec![1u8; 8]).unwrap();
        let r1 = s.trusted_root();
        assert_ne!(r0, r1);
        s.write(0, vec![1u8; 8]).unwrap();
        assert_eq!(s.trusted_root(), r1, "same content, same root");
    }

    #[test]
    fn server_errors_pass_through() {
        let mut s = build(4);
        assert!(matches!(s.read(9), Err(VerifiedError::Server(_))));
    }
}
