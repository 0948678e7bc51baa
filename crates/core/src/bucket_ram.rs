//! Bucketed DP-RAM: the Appendix E generalization.
//!
//! Section 7.1 builds DP-KVS from a mapping scheme plus "a DP-RAM able to
//! query and update the `b(n)` buckets". Appendix E shows the Section 6
//! proof survives when the query unit is a *bucket* — a fixed set of `s`
//! cells from a repertoire `Σ` of `b` buckets — even when buckets overlap,
//! provided the client resolves overlaps: a cell cached on the client
//! (because some stashed bucket contains it) is authoritative over the
//! server's copy, and updates refresh both copies.
//!
//! [`BucketRam`] implements exactly that. Cells are opaque equal-length
//! plaintexts supplied by the caller (DP-KVS serializes tree nodes into
//! them); the RAM encrypts them with IND-CPA and performs, per bucket
//! query, the same two-phase dance as [`crate::dp_ram`]:
//!
//! * download phase: the queried bucket's cells (or a uniform decoy bucket
//!   if the queried bucket is stashed);
//! * overwrite phase: with probability `p` stash the bucket and refresh a
//!   uniform decoy bucket, otherwise write the (possibly updated) bucket
//!   back.
//!
//! The per-query adversarial view is a pair of bucket ids — the direct
//! analogue of `(d_j, o_j)` — so privacy is `ε = O(log b)` per bucket query
//! by the Section 6 analysis over the repertoire Σ.
//!
//! **Planned ahead: two round trips per batch.** No address of a bucket
//! query depends on data: the download bucket depends only on whether the
//! queried bucket is stashed, and the overwrite coin and decoy are
//! independent draws. [`BucketRam::query_batch`] therefore plans all `k`
//! queries `(d_j, o_j)` before any I/O (the stash state after query `j`
//! decides query `j + 1`'s download), fetches every `B(d_j) ‖ B(o_j)` in
//! one read, replays the queries on the client in order, and uploads every
//! `B(o_j)` in one strided write. During the replay a cell written by an
//! earlier query of the batch overrides the copy fetched, and client-stash
//! copies still win over both, as Appendix E requires. A batch of `k`
//! queries over `s`-cell buckets is always one read of `2·k·s` cells
//! followed by one write of `k·s` cells; [`BucketRam::query`] is a batch of
//! one. Drawing an independent coin earlier does not change its
//! distribution, so the view is still one `(d_j, o_j)` pair per query with
//! the sequential dance's distribution.
//!
//! Failures leave the client consistent. No client state changes until the
//! read succeeds and decrypts; if the write then fails, every bucket the
//! batch meant to write back stays stashed, because its client copy is the
//! only authoritative one.

use std::collections::{HashMap, HashSet};

use dps_crypto::{BlockCipher, ChaChaRng, CIPHERTEXT_OVERHEAD};
use dps_server::{ServerError, SimServer, Storage};

/// The typed per-bucket-query adversarial view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BucketTrace {
    /// Bucket downloaded in the download phase.
    pub download: usize,
    /// Bucket refreshed in the overwrite phase.
    pub overwrite: usize,
}

/// Errors from bucketed DP-RAM operations.
#[derive(Debug)]
pub enum BucketRamError {
    /// Bucket id out of `[0, b)`.
    BucketOutOfRange {
        /// Requested bucket.
        bucket: usize,
        /// Repertoire size.
        b: usize,
    },
    /// Invalid setup input.
    InvalidConfig(String),
    /// Server failure.
    Server(ServerError),
    /// Decryption failure — corrupted state.
    Crypto(String),
    /// An update callback returned cells of the wrong shape.
    BadUpdate(String),
}

impl std::fmt::Display for BucketRamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BucketRamError::BucketOutOfRange { bucket, b } => {
                write!(f, "bucket {bucket} out of range (b = {b})")
            }
            BucketRamError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            BucketRamError::Server(e) => write!(f, "server failure: {e}"),
            BucketRamError::Crypto(msg) => write!(f, "crypto failure: {msg}"),
            BucketRamError::BadUpdate(msg) => write!(f, "bad update: {msg}"),
        }
    }
}

impl std::error::Error for BucketRamError {}

impl From<ServerError> for BucketRamError {
    fn from(e: ServerError) -> Self {
        BucketRamError::Server(e)
    }
}

/// The contents of one bucket query and its adversarial view.
pub type BucketQueryResult = (Vec<Vec<u8>>, BucketTrace);

/// One bucket query of a batch, planned before any I/O.
#[derive(Debug, Clone, Copy)]
struct PlannedQuery {
    bucket: usize,
    /// The bucket is stashed when this query starts (decoy download).
    stashed: bool,
    /// The overwrite coin: re-stash the bucket and refresh a decoy.
    restash: bool,
    trace: BucketTrace,
    /// Read position of the first cell of `B(download)`; the cells of
    /// `B(overwrite)` follow those of `B(download)`.
    read_at: usize,
}

/// Where the latest plaintext of a cell written earlier in the batch is.
#[derive(Debug, Clone, Copy)]
enum Written {
    /// Read position `i` of the batch's fetch (a refreshed, untouched cell).
    Fetched(usize),
    /// Cell `i` of query `j`'s post-update contents (a write-back).
    Query(usize, usize),
}

/// Buffers reused by every batch.
#[derive(Debug, Default)]
struct BatchScratch {
    plan: Vec<PlannedQuery>,
    read_addrs: Vec<usize>,
    /// Per read position: whether its plaintext is used (so decrypted).
    used: Vec<bool>,
    /// Plaintext of read position `i` at `i * cell_size`.
    fetched: Vec<u8>,
    /// Cells written so far in the batch, latest last (k·s entries at most,
    /// so a scan beats a map).
    written: Vec<(usize, Written)>,
    write_addrs: Vec<usize>,
    enc_cell: Vec<u8>,
    enc_flat: Vec<u8>,
}

/// The latest write of `cell` earlier in the batch, if any.
fn latest(written: &[(usize, Written)], cell: usize) -> Option<Written> {
    written.iter().rev().find(|(c, _)| *c == cell).map(|&(_, w)| w)
}

/// The plaintext bytes a [`Written`] source points at.
fn resolve<'a>(
    src: Written,
    fetched: &'a [u8],
    results: &'a [BucketQueryResult],
    cell_size: usize,
) -> &'a [u8] {
    match src {
        Written::Fetched(pos) => &fetched[pos * cell_size..(pos + 1) * cell_size],
        Written::Query(j, i) => &results[j].0[i],
    }
}

/// DP-RAM over a repertoire of (possibly overlapping) buckets of cells.
#[derive(Debug)]
pub struct BucketRam<S: Storage = SimServer> {
    /// Σ: bucket id -> ordered cell ids.
    buckets: Vec<Vec<usize>>,
    cell_size: usize,
    stash_probability: f64,
    cipher: BlockCipher,
    server: S,
    /// Buckets currently held client-side.
    stashed_buckets: HashSet<usize>,
    /// Client-authoritative plaintext cells (cells of stashed buckets).
    cell_stash: HashMap<usize, Vec<u8>>,
    /// How many stashed buckets reference each stashed cell.
    refcount: HashMap<usize, u32>,
    /// High-water mark of stashed cells, for client-storage experiments.
    max_stashed_cells: usize,
    scratch: BatchScratch,
}

impl<S: Storage> BucketRam<S> {
    /// Sets up the RAM: `cells` are the initial plaintext cell contents
    /// (all of equal length), `buckets` is the repertoire Σ. Each bucket is
    /// stashed at setup independently with probability `p`, mirroring
    /// Algorithm 2.
    pub fn setup(
        cells: Vec<Vec<u8>>,
        buckets: Vec<Vec<usize>>,
        stash_probability: f64,
        mut server: S,
        rng: &mut ChaChaRng,
    ) -> Result<Self, BucketRamError> {
        if cells.is_empty() {
            return Err(BucketRamError::InvalidConfig("need at least one cell".into()));
        }
        if buckets.is_empty() {
            return Err(BucketRamError::InvalidConfig("need at least one bucket".into()));
        }
        if !(0.0..=1.0).contains(&stash_probability) {
            return Err(BucketRamError::InvalidConfig(format!(
                "stash probability must be in [0, 1], got {stash_probability}"
            )));
        }
        let cell_size = cells[0].len();
        if cells.iter().any(|c| c.len() != cell_size) {
            return Err(BucketRamError::InvalidConfig("cells must have uniform size".into()));
        }
        for (b, bucket) in buckets.iter().enumerate() {
            if bucket.is_empty() {
                return Err(BucketRamError::InvalidConfig(format!("bucket {b} is empty")));
            }
            if bucket.iter().any(|&c| c >= cells.len()) {
                return Err(BucketRamError::InvalidConfig(format!(
                    "bucket {b} references a cell beyond {}",
                    cells.len()
                )));
            }
        }

        let cipher = BlockCipher::generate(rng);
        let encrypted: Vec<Vec<u8>> = cells.iter().map(|c| cipher.encrypt(c, rng).0).collect();
        server.init(encrypted);

        let mut ram = Self {
            buckets,
            cell_size,
            stash_probability,
            cipher,
            server,
            stashed_buckets: HashSet::new(),
            cell_stash: HashMap::new(),
            refcount: HashMap::new(),
            max_stashed_cells: 0,
            scratch: BatchScratch::default(),
        };
        // Setup-time stashing (per-bucket, like Algorithm 2's per-record).
        for b in 0..ram.buckets.len() {
            if rng.gen_bool(stash_probability) {
                let contents: Vec<Vec<u8>> =
                    ram.buckets[b].iter().map(|&cell| cells[cell].clone()).collect();
                ram.stash_bucket(b, &contents);
            }
        }
        Ok(ram)
    }

    /// Number of buckets in the repertoire.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// The cell ids of bucket `b`.
    pub fn bucket_cells(&self, b: usize) -> &[usize] {
        &self.buckets[b]
    }

    /// Number of plaintext cells currently held client-side.
    pub fn stashed_cell_count(&self) -> usize {
        self.cell_stash.len()
    }

    /// High-water mark of client-held cells since setup.
    pub fn max_stashed_cells(&self) -> usize {
        self.max_stashed_cells
    }

    /// Number of buckets currently stashed.
    pub fn stashed_bucket_count(&self) -> usize {
        self.stashed_buckets.len()
    }

    /// Server cost counters.
    pub fn server_stats(&self) -> dps_server::CostStats {
        self.server.stats()
    }

    /// Mutable access to the underlying server (transcript control).
    pub fn server_mut(&mut self) -> &mut S {
        &mut self.server
    }

    fn stash_bucket(&mut self, b: usize, contents: &[Vec<u8>]) {
        debug_assert_eq!(contents.len(), self.buckets[b].len());
        let fresh = self.stashed_buckets.insert(b);
        for (i, content) in contents.iter().enumerate() {
            let cell = self.buckets[b][i];
            if fresh {
                *self.refcount.entry(cell).or_insert(0) += 1;
            }
            match self.cell_stash.get_mut(&cell) {
                Some(copy) => copy.clone_from(content),
                None => {
                    self.cell_stash.insert(cell, content.clone());
                }
            }
        }
        self.max_stashed_cells = self.max_stashed_cells.max(self.cell_stash.len());
    }

    /// Removes bucket `b` from the stash. Cells still referenced by other
    /// stashed buckets keep their client copies.
    fn unstash_bucket(&mut self, b: usize) {
        let was_stashed = self.stashed_buckets.remove(&b);
        debug_assert!(was_stashed, "unstash of a bucket that was not stashed");
        for i in 0..self.buckets[b].len() {
            let cell = self.buckets[b][i];
            if let Some(count) = self.refcount.get_mut(&cell) {
                *count -= 1;
                if *count == 0 {
                    self.refcount.remove(&cell);
                    self.cell_stash.remove(&cell);
                }
            }
        }
    }

    /// The current contents of `bucket` during a batch replay: a client
    /// copy wins, then the latest write earlier in the batch, then the
    /// fetched cell at read position `read_at + i`.
    fn current_contents(
        &self,
        bucket: usize,
        read_at: usize,
        scratch: &BatchScratch,
        results: &[BucketQueryResult],
    ) -> Vec<Vec<u8>> {
        self.buckets[bucket]
            .iter()
            .enumerate()
            .map(|(i, &cell)| match self.cell_stash.get(&cell) {
                Some(copy) => copy.clone(),
                None => {
                    let src =
                        latest(&scratch.written, cell).unwrap_or(Written::Fetched(read_at + i));
                    resolve(src, &scratch.fetched, results, self.cell_size).to_vec()
                }
            })
            .collect()
    }

    /// One bucket query: retrieves bucket `bucket`'s current contents,
    /// applies `update` to them (identity for pure reads — the transcript
    /// shape is update-independent), and runs the overwrite phase. Returns
    /// the post-update contents and the typed trace. A batch of one (see
    /// [`BucketRam::query_batch`]): two round trips.
    pub fn query<F>(
        &mut self,
        bucket: usize,
        update: F,
        rng: &mut ChaChaRng,
    ) -> Result<BucketQueryResult, BucketRamError>
    where
        F: FnOnce(&mut Vec<Vec<u8>>),
    {
        let mut update = Some(update);
        let mut results = self.query_batch(
            &[bucket],
            |_, contents| {
                if let Some(f) = update.take() {
                    f(contents);
                }
            },
            rng,
        )?;
        Ok(results.swap_remove(0))
    }

    /// Runs `queries.len()` bucket queries in order, with every address
    /// planned up front: one read of every `B(d_j) ‖ B(o_j)`, a client-side
    /// replay that hands query `j`'s contents to `update(j, contents)`,
    /// then one strided write of every `B(o_j)` (see the [module
    /// docs](self)). Returns each query's post-update contents and trace,
    /// in order. A bucket may repeat: a later query sees what the earlier
    /// one left.
    ///
    /// On a server or decryption failure of the read, nothing client-side
    /// has changed. On a failure of the write, the replay stands and every
    /// written-back bucket stays stashed. An update that changes the
    /// bucket's shape is undone (its query goes on with the bucket
    /// unchanged) and reported as [`BucketRamError::BadUpdate`] after the
    /// batch.
    pub fn query_batch<F>(
        &mut self,
        queries: &[usize],
        mut update: F,
        rng: &mut ChaChaRng,
    ) -> Result<Vec<BucketQueryResult>, BucketRamError>
    where
        F: FnMut(usize, &mut Vec<Vec<u8>>),
    {
        let b = self.buckets.len();
        if let Some(&bucket) = queries.iter().find(|&&q| q >= b) {
            return Err(BucketRamError::BucketOutOfRange { bucket, b });
        }
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        let result = self.run_batch(&mut scratch, queries, &mut update, rng);
        self.scratch = scratch;
        result
    }

    fn run_batch(
        &mut self,
        s: &mut BatchScratch,
        queries: &[usize],
        update: &mut impl FnMut(usize, &mut Vec<Vec<u8>>),
        rng: &mut ChaChaRng,
    ) -> Result<Vec<BucketQueryResult>, BucketRamError> {
        let b = self.buckets.len();
        let cell_size = self.cell_size;

        // ---- Plan: every address before any I/O ----
        s.plan.clear();
        s.read_addrs.clear();
        s.used.clear();
        for &bucket in queries {
            // The latest earlier query of the same bucket decides whether
            // it is stashed now.
            let stashed = match s.plan.iter().rev().find(|q| q.bucket == bucket) {
                Some(earlier) => earlier.restash,
                None => self.stashed_buckets.contains(&bucket),
            };
            let download = if stashed { rng.gen_index(b) } else { bucket };
            let restash = rng.gen_bool(self.stash_probability);
            let overwrite = if restash { rng.gen_index(b) } else { bucket };
            let read_at = s.read_addrs.len();
            // A fetched cell is used by a real download or a refresh,
            // unless an earlier query of the batch writes it first.
            for (phase, used) in [(download, !stashed), (overwrite, restash)] {
                for &cell in &self.buckets[phase] {
                    let covered = s
                        .plan
                        .iter()
                        .any(|q| self.buckets[q.trace.overwrite].contains(&cell));
                    s.read_addrs.push(cell);
                    s.used.push(used && !covered);
                }
            }
            s.plan.push(PlannedQuery {
                bucket,
                stashed,
                restash,
                trace: BucketTrace { download, overwrite },
                read_at,
            });
        }

        // ---- Round trip 1: B(d_j) ‖ B(o_j) for every query ----
        let ct_len = cell_size + CIPHERTEXT_OVERHEAD;
        s.fetched.resize(s.read_addrs.len() * cell_size, 0);
        let mut failure: Option<String> = None;
        let (cipher, used, fetched) = (&self.cipher, &s.used, &mut s.fetched);
        self.server.read_batch_with(&s.read_addrs, |i, cell| {
            if !used[i] || failure.is_some() {
                return;
            }
            // A tampered or odd-length cell is a crypto error, not a
            // misaligned plaintext slot.
            if cell.len() != ct_len {
                failure = Some(format!("cell has {} bytes, expected {ct_len}", cell.len()));
            } else if let Err(e) =
                cipher.decrypt_to_slice(cell, &mut fetched[i * cell_size..(i + 1) * cell_size])
            {
                failure = Some(e.to_string());
            }
        })?;
        if let Some(msg) = failure {
            return Err(BucketRamError::Crypto(msg));
        }

        // ---- Replay on the client, in order ----
        s.written.clear();
        s.write_addrs.clear();
        s.enc_flat.clear();
        let mut results: Vec<BucketQueryResult> = Vec::with_capacity(s.plan.len());
        let mut bad_update = None;
        for j in 0..s.plan.len() {
            let q = s.plan[j];
            let mut contents = self.current_contents(q.bucket, q.read_at, s, &results);
            update(j, &mut contents);
            let expected = self.buckets[q.bucket].len();
            if contents.len() != expected || contents.iter().any(|c| c.len() != cell_size) {
                bad_update.get_or_insert(format!(
                    "update must preserve bucket shape ({expected} cells of {cell_size} bytes)"
                ));
                contents = self.current_contents(q.bucket, q.read_at, s, &results);
            }

            if q.restash {
                // Stash the bucket; refresh the decoy's server copies.
                self.stash_bucket(q.bucket, &contents);
                let refresh_at = q.read_at + self.buckets[q.trace.download].len();
                for (i, &cell) in self.buckets[q.trace.overwrite].iter().enumerate() {
                    let src = latest(&s.written, cell).unwrap_or(Written::Fetched(refresh_at + i));
                    let plain = resolve(src, &s.fetched, &results, cell_size);
                    self.cipher.encrypt_into(plain, &mut s.enc_cell, rng);
                    s.enc_flat.extend_from_slice(&s.enc_cell);
                    s.write_addrs.push(cell);
                    s.written.push((cell, src));
                }
            } else {
                // Write the bucket back fresh; keep any client copies in
                // sync.
                if q.stashed {
                    self.unstash_bucket(q.bucket);
                }
                for (i, (&cell, content)) in
                    self.buckets[q.bucket].iter().zip(&contents).enumerate()
                {
                    if let Some(copy) = self.cell_stash.get_mut(&cell) {
                        copy.clone_from(content);
                    }
                    self.cipher.encrypt_into(content, &mut s.enc_cell, rng);
                    s.enc_flat.extend_from_slice(&s.enc_cell);
                    s.write_addrs.push(cell);
                    s.written.push((cell, Written::Query(j, i)));
                }
            }
            results.push((contents, q.trace));
        }

        // ---- Round trip 2: B(o_j) for every query ----
        if let Err(e) = self.server.write_batch_strided(&s.write_addrs, &s.enc_flat) {
            // The server may hold none of the write-backs; their client
            // copies are now the only authoritative ones.
            for q in &s.plan {
                if q.restash {
                    continue;
                }
                let contents: Vec<Vec<u8>> = self.buckets[q.bucket]
                    .iter()
                    .map(|&cell| match self.cell_stash.get(&cell) {
                        Some(copy) => copy.clone(),
                        None => {
                            let src = latest(&s.written, cell).expect("written back in this batch");
                            resolve(src, &s.fetched, &results, cell_size).to_vec()
                        }
                    })
                    .collect();
                self.stash_bucket(q.bucket, &contents);
            }
            return Err(e.into());
        }
        match bad_update {
            Some(msg) => Err(BucketRamError::BadUpdate(msg)),
            None => Ok(results),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 6 cells, 4 buckets with overlaps (a tiny "forest": buckets share
    /// upper cells like tree paths do).
    fn fixture(p: f64, seed: u64) -> (BucketRam, ChaChaRng) {
        let mut rng = ChaChaRng::seed_from_u64(seed);
        let cells: Vec<Vec<u8>> = (0..6).map(|i| vec![i as u8; 8]).collect();
        let buckets = vec![vec![0, 4, 5], vec![1, 4, 5], vec![2, 4, 5], vec![3, 4, 5]];
        let ram = BucketRam::setup(cells, buckets, p, SimServer::new(), &mut rng).unwrap();
        (ram, rng)
    }

    #[test]
    fn read_returns_initial_contents() {
        let (mut ram, mut rng) = fixture(0.3, 1);
        let (contents, _) = ram.query(2, |_| {}, &mut rng).unwrap();
        assert_eq!(contents, vec![vec![2u8; 8], vec![4u8; 8], vec![5u8; 8]]);
    }

    #[test]
    fn update_persists() {
        let (mut ram, mut rng) = fixture(0.3, 2);
        ram.query(1, |c| c[0] = vec![0xEE; 8], &mut rng).unwrap();
        let (contents, _) = ram.query(1, |_| {}, &mut rng).unwrap();
        assert_eq!(contents[0], vec![0xEE; 8]);
    }

    /// The Appendix E overlap rule: an update to a shared cell through one
    /// bucket must be visible through every other bucket containing it,
    /// whatever the stash does in between.
    #[test]
    fn overlapping_updates_are_consistent() {
        for seed in 0..20 {
            let (mut ram, mut rng) = fixture(0.5, 100 + seed);
            // Cell 4 is shared by all buckets; update through bucket 0.
            ram.query(0, |c| c[1] = vec![0x77; 8], &mut rng).unwrap();
            for b in 1..4 {
                let (contents, _) = ram.query(b, |_| {}, &mut rng).unwrap();
                assert_eq!(contents[1], vec![0x77; 8], "seed {seed}, bucket {b}");
            }
        }
    }

    /// Long random workload against a reference model, heavy overlap and
    /// aggressive stashing.
    #[test]
    fn random_workload_matches_reference() {
        let (mut ram, mut rng) = fixture(0.5, 3);
        // Reference: plain cell array.
        let mut reference: Vec<Vec<u8>> = (0..6).map(|i| vec![i as u8; 8]).collect();
        let buckets = [vec![0usize, 4, 5], vec![1, 4, 5], vec![2, 4, 5], vec![3, 4, 5]];
        for step in 0u32..800 {
            let b = rng.gen_index(4);
            if rng.gen_bool(0.5) {
                // Update a random position of the bucket.
                let pos = rng.gen_index(3);
                let value = vec![(step % 256) as u8; 8];
                let v2 = value.clone();
                ram.query(b, move |c| c[pos] = v2, &mut rng).unwrap();
                reference[buckets[b][pos]] = value;
            } else {
                let (contents, _) = ram.query(b, |_| {}, &mut rng).unwrap();
                let expected: Vec<Vec<u8>> =
                    buckets[b].iter().map(|&c| reference[c].clone()).collect();
                assert_eq!(contents, expected, "step {step}, bucket {b}");
            }
        }
    }

    /// Per-query cost: 2·s downloads + s uploads over 2 round trips, where
    /// s is the bucket size — the bucket analogue of Theorem 6.1.
    #[test]
    fn constant_bucket_overhead() {
        let (mut ram, mut rng) = fixture(0.4, 4);
        for _ in 0..30 {
            let before = ram.server_stats();
            ram.query(rng.gen_index(4), |_| {}, &mut rng).unwrap();
            let diff = ram.server_stats().since(&before);
            assert_eq!(diff.downloads, 6); // 2 buckets × 3 cells
            assert_eq!(diff.uploads, 3);
            assert_eq!(diff.round_trips, 2);
        }
    }

    /// Overwrite marginal mirrors Lemma 6.5 at the bucket level.
    #[test]
    fn overwrite_marginal() {
        let p = 0.4;
        let (mut ram, mut rng) = fixture(p, 5);
        let trials = 8000;
        let mut self_hits = 0u32;
        for _ in 0..trials {
            let (_, trace) = ram.query(2, |_| {}, &mut rng).unwrap();
            if trace.overwrite == 2 {
                self_hits += 1;
            }
        }
        let freq = f64::from(self_hits) / f64::from(trials);
        let predicted = (1.0 - p) + p / 4.0;
        assert!((freq - predicted).abs() < 0.03, "measured {freq:.3}, predicted {predicted:.3}");
    }

    #[test]
    fn bad_update_shapes_are_rejected() {
        let (mut ram, mut rng) = fixture(0.0, 6);
        assert!(matches!(
            ram.query(0, |c| c.truncate(1), &mut rng),
            Err(BucketRamError::BadUpdate(_))
        ));
        let (mut ram, mut rng) = fixture(0.0, 7);
        assert!(matches!(
            ram.query(0, |c| c[0] = vec![0u8; 3], &mut rng),
            Err(BucketRamError::BadUpdate(_))
        ));
    }

    #[test]
    fn validation_errors() {
        let mut rng = ChaChaRng::seed_from_u64(8);
        assert!(BucketRam::setup(vec![], vec![vec![0]], 0.1, SimServer::new(), &mut rng).is_err());
        assert!(BucketRam::setup(vec![vec![0]], vec![], 0.1, SimServer::new(), &mut rng).is_err());
        assert!(
            BucketRam::setup(vec![vec![0]], vec![vec![1]], 0.1, SimServer::new(), &mut rng)
                .is_err(),
            "out-of-range cell reference"
        );
        assert!(BucketRam::setup(vec![vec![0]], vec![vec![0]], 1.5, SimServer::new(), &mut rng)
            .is_err());
        let (mut ram, mut rng) = fixture(0.1, 9);
        assert!(matches!(
            ram.query(4, |_| {}, &mut rng),
            Err(BucketRamError::BucketOutOfRange { bucket: 4, b: 4 })
        ));
    }

    #[test]
    fn stash_counters_track() {
        let (mut ram, mut rng) = fixture(1.0, 10);
        // p = 1: every query stashes its bucket.
        ram.query(0, |_| {}, &mut rng).unwrap();
        assert!(ram.stashed_bucket_count() >= 1);
        assert!(ram.stashed_cell_count() >= 3);
        assert!(ram.max_stashed_cells() >= ram.stashed_cell_count());
    }
}
