//! Multi-server DP-IR (Appendix C).
//!
//! The database is replicated across `D` non-colluding servers; an
//! adversary corrupts a `t`-fraction of them and sees only their
//! transcripts. Theorem C.1: any such (ε, δ)-DP-IR with error `α` performs
//! `Ω(((1−α)t − δ)·n / e^ε)` expected operations *across all servers* —
//! i.e. splitting work over servers buys a factor `1/t`, nothing more.
//!
//! The construction here (a subset-noise scheme in the style of the
//! lower-cost ε-private IR of Toledo, Danezis and Goldberg \[49\], which the
//! paper proves optimal for constant `t`): with probability `1 − α` the
//! client sends the real index to one uniformly chosen server, hidden among
//! `K − 1` uniform decoys, while every other server receives `K` uniform
//! decoys; with probability `α` (the error case) all servers receive only
//! decoys. Each individual server's view is exactly a single-server DP-IR
//! view with a diluted inclusion probability, so privacy against a
//! `t`-fraction adversary improves as `t` shrinks.

use std::collections::BTreeSet;

use dps_crypto::ChaChaRng;
use dps_server::{ReplicatedServers, ServerError};

/// Parameters of a multi-server DP-IR instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiServerDpIrConfig {
    /// Number of records `n`.
    pub n: usize,
    /// Number of servers `D`.
    pub servers: usize,
    /// Records downloaded per server per query.
    pub k: usize,
    /// Error probability `α`.
    pub alpha: f64,
}

impl MultiServerDpIrConfig {
    /// Per-server epsilon when the adversary corrupts `d_a` of the `D`
    /// servers: the real index lands at a corrupted server with probability
    /// `(1 − α)·d_a/D`, so the single-server analysis of Theorem 5.1
    /// applies with effective inclusion `(1 − α)·t`:
    /// `e^ε = (1 − α)·t·n/(K·(1 − (1 − α)·t)) + 1` where the per-server
    /// decoy mass mirrors the single-server case.
    pub fn epsilon_against(&self, corrupted: usize) -> f64 {
        assert!(corrupted >= 1 && corrupted <= self.servers);
        let t = corrupted as f64 / self.servers as f64;
        let hit = (1.0 - self.alpha) * t; // Pr[real index visible to adversary]
        let miss = 1.0 - hit;
        ((hit * self.n as f64) / (self.k as f64 * miss) + 1.0).ln()
    }

    /// Validation.
    fn check(&self) -> Result<(), MultiServerDpIrError> {
        if self.n == 0 {
            return Err(MultiServerDpIrError::InvalidConfig("n must be positive".into()));
        }
        if self.servers == 0 {
            return Err(MultiServerDpIrError::InvalidConfig("need at least one server".into()));
        }
        if self.k == 0 || self.k > self.n {
            return Err(MultiServerDpIrError::InvalidConfig(format!(
                "k must be in [1, n = {}], got {}",
                self.n, self.k
            )));
        }
        if !(0.0..=1.0).contains(&self.alpha) || self.alpha == 0.0 {
            return Err(MultiServerDpIrError::InvalidConfig(format!(
                "alpha must be in (0, 1], got {}",
                self.alpha
            )));
        }
        Ok(())
    }
}

/// Errors from multi-server DP-IR.
#[derive(Debug)]
pub enum MultiServerDpIrError {
    /// Index out of range.
    IndexOutOfRange {
        /// Requested index.
        index: usize,
        /// Database size.
        n: usize,
    },
    /// Invalid parameters.
    InvalidConfig(String),
    /// Server failure.
    Server(ServerError),
}

impl std::fmt::Display for MultiServerDpIrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MultiServerDpIrError::IndexOutOfRange { index, n } => {
                write!(f, "index {index} out of range (n = {n})")
            }
            MultiServerDpIrError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            MultiServerDpIrError::Server(e) => write!(f, "server failure: {e}"),
        }
    }
}

impl std::error::Error for MultiServerDpIrError {}

impl From<ServerError> for MultiServerDpIrError {
    fn from(e: ServerError) -> Self {
        MultiServerDpIrError::Server(e)
    }
}

/// A multi-server DP-IR client.
#[derive(Debug)]
pub struct MultiServerDpIr {
    config: MultiServerDpIrConfig,
    servers: ReplicatedServers,
}

impl MultiServerDpIr {
    /// Replicates the public database onto `config.servers` servers.
    pub fn setup(
        config: MultiServerDpIrConfig,
        blocks: &[Vec<u8>],
    ) -> Result<Self, MultiServerDpIrError> {
        config.check()?;
        if blocks.len() != config.n {
            return Err(MultiServerDpIrError::InvalidConfig(format!(
                "expected {} blocks, got {}",
                config.n,
                blocks.len()
            )));
        }
        Ok(Self { config, servers: ReplicatedServers::replicate(config.servers, blocks) })
    }

    /// The configuration in force.
    pub fn config(&self) -> MultiServerDpIrConfig {
        self.config
    }

    /// Total cost across all servers.
    pub fn total_stats(&self) -> dps_server::CostStats {
        self.servers.total_stats()
    }

    /// Access to the underlying server pool (transcript control).
    pub fn servers_mut(&mut self) -> &mut ReplicatedServers {
        &mut self.servers
    }

    /// Samples the per-server download sets for query `index` without
    /// touching the servers (for audits). Returns one set per server plus
    /// the id of the server holding the real request (`None` on error).
    pub fn sample_download_sets(
        &self,
        index: usize,
        rng: &mut ChaChaRng,
    ) -> (Vec<BTreeSet<usize>>, Option<usize>) {
        let d = self.config.servers;
        let n = self.config.n;
        let k = self.config.k;
        let success = !rng.gen_bool(self.config.alpha);
        let real_server = if success { Some(rng.gen_index(d)) } else { None };
        let mut sets = Vec::with_capacity(d);
        for s in 0..d {
            let mut set = BTreeSet::new();
            if real_server == Some(s) {
                set.insert(index);
            }
            while set.len() < k {
                set.insert(rng.gen_index(n));
            }
            sets.push(set);
        }
        (sets, real_server)
    }

    /// Queries record `index`: returns `Some(record)` with probability
    /// `1 − α`, `None` otherwise. Every server is always contacted with an
    /// equal-sized request.
    pub fn query(
        &mut self,
        index: usize,
        rng: &mut ChaChaRng,
    ) -> Result<Option<Vec<u8>>, MultiServerDpIrError> {
        if index >= self.config.n {
            return Err(MultiServerDpIrError::IndexOutOfRange { index, n: self.config.n });
        }
        let (sets, real_server) = self.sample_download_sets(index, rng);
        let mut result = None;
        for (s, set) in sets.iter().enumerate() {
            let addrs: Vec<usize> = set.iter().copied().collect();
            // Zero-copy per-server scan: only the real record (on its one
            // server) is copied out; every decoy is read and discarded.
            let pos = (real_server == Some(s)).then(|| {
                addrs
                    .binary_search(&index)
                    .expect("real index in its server's set")
            });
            self.servers.read_batch_with(s, &addrs, |i, cell| {
                if Some(i) == pos {
                    result = Some(cell.to_vec());
                }
            })?;
        }
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_server::Storage;

    fn build(n: usize, d: usize, k: usize, alpha: f64) -> MultiServerDpIr {
        let blocks: Vec<Vec<u8>> = (0..n).map(|i| vec![(i % 251) as u8; 8]).collect();
        MultiServerDpIr::setup(MultiServerDpIrConfig { n, servers: d, k, alpha }, &blocks).unwrap()
    }

    #[test]
    fn returns_correct_record_on_success() {
        let mut ir = build(64, 4, 3, 0.1);
        let mut rng = ChaChaRng::seed_from_u64(1);
        let mut hits = 0;
        for _ in 0..300 {
            if let Some(block) = ir.query(9, &mut rng).unwrap() {
                assert_eq!(block, vec![9u8; 8]);
                hits += 1;
            }
        }
        assert!(hits > 240, "success rate too low: {hits}/300");
    }

    #[test]
    fn every_server_always_contacted_equally() {
        let mut ir = build(32, 3, 4, 0.2);
        let mut rng = ChaChaRng::seed_from_u64(2);
        for _ in 0..50 {
            ir.query(0, &mut rng).unwrap();
        }
        for s in 0..3 {
            assert_eq!(ir.servers_mut().server(s).stats().downloads, 50 * 4);
        }
    }

    #[test]
    fn total_ops_is_d_times_k() {
        let mut ir = build(128, 4, 2, 0.1);
        let mut rng = ChaChaRng::seed_from_u64(3);
        let before = ir.total_stats();
        ir.query(0, &mut rng).unwrap();
        assert_eq!(ir.total_stats().since(&before).downloads, 8);
    }

    #[test]
    fn real_server_is_uniform() {
        let ir = build(32, 4, 2, 0.0001);
        let mut rng = ChaChaRng::seed_from_u64(4);
        let mut counts = [0u32; 4];
        for _ in 0..4000 {
            let (_, real) = ir.sample_download_sets(0, &mut rng);
            if let Some(s) = real {
                counts[s] += 1;
            }
        }
        for (s, &c) in counts.iter().enumerate() {
            let f = f64::from(c) / 4000.0;
            assert!((f - 0.25).abs() < 0.03, "server {s}: frequency {f}");
        }
    }

    #[test]
    fn epsilon_improves_with_fewer_corruptions() {
        let ir = build(1024, 4, 2, 0.1);
        let eps_1 = ir.config().epsilon_against(1);
        let eps_4 = ir.config().epsilon_against(4);
        assert!(
            eps_1 < eps_4,
            "corrupting fewer servers must mean more privacy: {eps_1} vs {eps_4}"
        );
    }

    #[test]
    fn single_server_case_matches_dp_ir() {
        // D = 1, t = 1 collapses to the single-server formula of Thm 5.1.
        let ir = build(256, 1, 4, 0.2);
        let eps = ir.config().epsilon_against(1);
        let single = ((0.8_f64 * 256.0) / (4.0 * 0.2) + 1.0).ln();
        assert!((eps - single).abs() < 1e-9);
    }

    #[test]
    fn validation() {
        let blocks = vec![vec![0u8]; 4];
        assert!(MultiServerDpIr::setup(
            MultiServerDpIrConfig { n: 4, servers: 0, k: 1, alpha: 0.1 },
            &blocks
        )
        .is_err());
        assert!(MultiServerDpIr::setup(
            MultiServerDpIrConfig { n: 4, servers: 2, k: 5, alpha: 0.1 },
            &blocks
        )
        .is_err());
        assert!(MultiServerDpIr::setup(
            MultiServerDpIrConfig { n: 4, servers: 2, k: 1, alpha: 0.0 },
            &blocks
        )
        .is_err());
    }
}
