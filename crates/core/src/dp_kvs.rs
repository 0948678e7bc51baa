//! DP-KVS: differentially private key-value storage (Section 7;
//! Theorem 7.5).
//!
//! Keys come from a large universe `U` (here `u64`); lookups of absent keys
//! must return "not present" without revealing the miss. The construction
//! composes two pieces, exactly as Section 7.1 prescribes:
//!
//! 1. **Mapping scheme** — the oblivious two-choice forest of Section 7.2
//!    ([`dps_hashing::forest`]): `Π(u) = {F(k1,u), F(k2,u)}` picks two leaf
//!    buckets; a bucket's storage is its leaf-to-root path (`Θ(log log n)`
//!    nodes of `t` entries) plus a client-resident super root.
//! 2. **Bucketed DP-RAM** — [`crate::bucket_ram`] (Appendix E) stores the
//!    forest's nodes as equal-size encrypted cells and serves bucket
//!    queries with the two-phase stash dance of Section 6.
//!
//! Every KVS operation performs `2·k(n) = 4` bucket queries (two
//! retrievals, then two updates of which at most one is real — reads,
//! misses and puts that find no room issue the same four), so the
//! transcript shape is independent of the op, the key, whether it hits and
//! whether the forest has room. No address of the update pass depends on
//! data, so all four run as one planned [`BucketRam::query_batch`] over
//! `[a, b, a, b]`; the client decides the update plans mid-replay, once
//! the retrievals have decoded. An operation is exactly 2 round trips —
//! read `4·2·depth` cells, then write `4·depth` cells — whatever the op,
//! key, hit, branch or error. Planning only moves independent coin draws
//! earlier, so each bucket query's view `(d_j, o_j)` keeps the
//! distribution the Theorem 7.1 analysis composes. Bandwidth is
//! `O(s(n)) = O(log log n)` node cells per operation; server storage is
//! `O(n)` cells; privacy is `ε = O(k(n)·log n) = O(log n)` with
//! `δ = negl(n)` from the mapping-scheme failure probability
//! (Theorem 7.1 + Theorem 7.2).

use dps_crypto::{ChaChaRng, HmacPrf, Prf};
use dps_hashing::forest::{choose_slot, ForestGeometry};
use dps_server::cells::{decode_bucket, encode_bucket, Slot};
use dps_server::{SimServer, Storage};

use crate::bucket_ram::{BucketRam, BucketRamError, BucketTrace};

/// Parameters of a DP-KVS instance.
#[derive(Debug, Clone)]
pub struct DpKvsConfig {
    /// Forest geometry (buckets, tree shape, node capacity, super root).
    pub geometry: ForestGeometry,
    /// Value payload size in bytes (all values are padded/validated to
    /// this, keeping cells equal-length).
    pub value_size: usize,
    /// Stash probability of the underlying bucketed DP-RAM.
    pub stash_probability: f64,
}

impl DpKvsConfig {
    /// Recommended parameters for capacity `n`: the Theorem 7.5 geometry
    /// plus the Theorem 6.1 stash probability over the bucket repertoire.
    pub fn recommended(n: usize, value_size: usize) -> Self {
        let geometry = ForestGeometry::recommended(n);
        let b = geometry.n_buckets.max(2) as f64;
        let p = (b.log2() * b.log2() / b).min(0.5);
        Self { geometry, value_size, stash_probability: p }
    }

    /// Node cell size in bytes (slot-encoded node).
    pub fn cell_size(&self) -> usize {
        dps_server::cells::encoded_len(self.geometry.node_capacity, self.value_size)
    }
}

/// Errors from DP-KVS operations.
#[derive(Debug)]
pub enum DpKvsError {
    /// A value of the wrong byte length was supplied.
    BadValueSize {
        /// Provided length.
        got: usize,
        /// Configured length.
        expected: usize,
    },
    /// The mapping scheme failed: both paths and the super root are full.
    /// Theorem 7.2: negligible probability under recommended geometry.
    CapacityExhausted,
    /// Underlying bucketed DP-RAM failure.
    Ram(BucketRamError),
    /// Corrupted node cell (failed slot decoding) — invariant violation.
    CorruptNode(String),
}

impl std::fmt::Display for DpKvsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DpKvsError::BadValueSize { got, expected } => {
                write!(f, "value has {got} bytes, expected {expected}")
            }
            DpKvsError::CapacityExhausted => {
                write!(f, "mapping scheme full (paths and super root exhausted)")
            }
            DpKvsError::Ram(e) => write!(f, "bucket RAM failure: {e}"),
            DpKvsError::CorruptNode(msg) => write!(f, "corrupt node cell: {msg}"),
        }
    }
}

impl std::error::Error for DpKvsError {}

impl From<BucketRamError> for DpKvsError {
    fn from(e: BucketRamError) -> Self {
        DpKvsError::Ram(e)
    }
}

/// The adversarial view of one KVS operation: four bucket-query traces
/// (two retrievals, two updates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KvsOpTrace {
    /// Retrieval of the first candidate bucket.
    pub retrieve_a: BucketTrace,
    /// Retrieval of the second candidate bucket.
    pub retrieve_b: BucketTrace,
    /// Update pass over the first candidate bucket.
    pub update_a: BucketTrace,
    /// Update pass over the second candidate bucket.
    pub update_b: BucketTrace,
}

/// What the single real update (if any) should do to a path.
#[derive(Debug, Clone)]
enum NodePlan {
    /// No change (fake update).
    Fake,
    /// Overwrite the value of `key` in the node at `height`.
    Update { height: usize, key: u64, value: Vec<u8> },
    /// Insert a new entry into the node at `height`.
    Insert { height: usize, key: u64, value: Vec<u8> },
    /// Remove `key` from the node at `height`.
    Remove { height: usize, key: u64 },
}

/// The client state `decide` may change: a narrow view, because the
/// operation's batch borrows the bucket RAM while its replay runs `decide`.
struct ClientState<'a> {
    super_root: &'a mut Vec<(u64, Vec<u8>)>,
    len: &'a mut usize,
    super_root_capacity: usize,
}

/// A DP-KVS client bound to a simulated server.
#[derive(Debug)]
pub struct DpKvs<S: Storage = SimServer> {
    config: DpKvsConfig,
    ram: BucketRam<S>,
    prf1: HmacPrf,
    prf2: HmacPrf,
    super_root: Vec<(u64, Vec<u8>)>,
    len: usize,
}

impl<S: Storage> DpKvs<S> {
    /// Sets up an empty DP-KVS: allocates the forest's node cells (all
    /// vacant), derives the two mapping PRFs, and initializes the bucketed
    /// DP-RAM over the path repertoire.
    pub fn setup(config: DpKvsConfig, server: S, rng: &mut ChaChaRng) -> Result<Self, DpKvsError> {
        let geometry = config.geometry;
        let empty_cell = encode_bucket(&[], geometry.node_capacity, config.value_size);
        let cells = vec![empty_cell; geometry.total_nodes()];
        let buckets: Vec<Vec<usize>> = (0..geometry.n_buckets)
            .map(|b| geometry.bucket_path(b))
            .collect();
        let ram = BucketRam::setup(cells, buckets, config.stash_probability, server, rng)?;

        let mut master_key = [0u8; 32];
        rng.fill_bytes(&mut master_key);
        let master = HmacPrf::new(&master_key);
        Ok(Self {
            prf1: master.derive(b"bucket-choice-1"),
            prf2: master.derive(b"bucket-choice-2"),
            config,
            ram,
            super_root: Vec::new(),
            len: 0,
        })
    }

    /// The configuration in force.
    pub fn config(&self) -> &DpKvsConfig {
        &self.config
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current super-root load (client-side entries).
    pub fn super_root_load(&self) -> usize {
        self.super_root.len()
    }

    /// Client-side storage in cells: stashed bucket cells plus the super
    /// root (in node-cell equivalents).
    pub fn client_cells(&self) -> usize {
        self.ram.stashed_cell_count() + self.super_root.len()
    }

    /// Server cost counters.
    pub fn server_stats(&self) -> dps_server::CostStats {
        self.ram.server_stats()
    }

    /// Mutable access to the underlying server (transcript control).
    pub fn server_mut(&mut self) -> &mut S {
        self.ram.server_mut()
    }

    /// Node cells moved per operation: 4 bucket queries, each touching
    /// `3·depth` cells (2 downloads + 1 upload per phase-pair) —
    /// `O(log log n)` total. They travel in 2 round trips: all four
    /// queries share one read and one write.
    pub fn cells_per_op(&self) -> usize {
        4 * 3 * self.config.geometry.depth()
    }

    /// `Π(key)`: the two candidate buckets.
    pub fn buckets_for(&self, key: u64) -> (usize, usize) {
        let n = self.config.geometry.n_buckets as u64;
        let bytes = key.to_le_bytes();
        (self.prf1.eval_range(&bytes, n) as usize, self.prf2.eval_range(&bytes, n) as usize)
    }

    /// The shared engine: one batch of four bucket queries over
    /// `[a, b, a, b]`, `(a, b) = Π(key)`. Queries 0 and 1 are the
    /// retrievals. When the replay reaches query 2, `decide` inspects the
    /// two decoded paths (leaf-to-root) and the super root, and returns
    /// the plans for the two update queries (at most one is real) plus
    /// the operation's result value; queries 2 and 3 apply them. No
    /// address depends on data, so the batch is planned whole.
    ///
    /// A path that fails to decode or a `decide` error does not cut the
    /// operation short: the update plans stay fake, the batch finishes
    /// its write, and the error is returned afterwards, so a failed
    /// operation moves the same cells as any other. The stored-key count
    /// follows a path insert or remove once the replay has applied it,
    /// even if the batch's write then fails: the replayed buckets stay
    /// stashed, so the change stands.
    fn operate<R>(
        &mut self,
        key: u64,
        rng: &mut ChaChaRng,
        decide: impl FnOnce(
            &mut ClientState<'_>,
            &[Vec<Slot>],
            &[Vec<Slot>],
        ) -> Result<(NodePlan, NodePlan, R), DpKvsError>,
    ) -> Result<(R, KvsOpTrace), DpKvsError> {
        let (a, b) = self.buckets_for(key);
        let capacity = self.config.geometry.node_capacity;
        let value_size = self.config.value_size;
        let mut state = ClientState {
            super_root: &mut self.super_root,
            len: &mut self.len,
            super_root_capacity: self.config.geometry.super_root_capacity,
        };
        let mut decide = Some(decide);
        let mut paths: [Vec<Vec<Slot>>; 2] = Default::default();
        let mut plans = [NodePlan::Fake, NodePlan::Fake];
        let mut decided: Result<Option<R>, DpKvsError> = Ok(None);
        let outcome = self.ram.query_batch(
            &[a, b, a, b],
            |j, cells| {
                if j < 2 {
                    match decode_path(cells, capacity, value_size) {
                        Ok(path) => paths[j] = path,
                        Err(e) => decided = Err(e),
                    }
                    return;
                }
                if let (Some(decide), Ok(_)) = (decide.take(), &decided) {
                    decided =
                        decide(&mut state, &paths[0], &paths[1]).map(|(plan_a, plan_b, result)| {
                            plans = [plan_a, plan_b];
                            Some(result)
                        });
                }
                let plan = std::mem::replace(&mut plans[j - 2], NodePlan::Fake);
                let grows = matches!(plan, NodePlan::Insert { .. });
                let shrinks = matches!(plan, NodePlan::Remove { .. });
                match apply_plan(cells, plan, capacity, value_size) {
                    Ok(()) => *state.len = *state.len + usize::from(grows) - usize::from(shrinks),
                    Err(e) => decided = Err(DpKvsError::CorruptNode(e)),
                }
            },
            rng,
        );
        let results = outcome?;
        let result = decided?.expect("a successful batch replays every query");
        let trace = KvsOpTrace {
            retrieve_a: results[0].1,
            retrieve_b: results[1].1,
            update_a: results[2].1,
            update_b: results[3].1,
        };
        Ok((result, trace))
    }

    fn find_in_path(path: &[Vec<Slot>], key: u64) -> Option<(usize, Vec<u8>)> {
        for (height, slots) in path.iter().enumerate() {
            if let Some(slot) = slots.iter().find(|s| s.id == key) {
                return Some((height, slot.payload.clone()));
            }
        }
        None
    }

    /// Looks up `key`. Hits and misses have identical transcript shapes.
    pub fn get(&mut self, key: u64, rng: &mut ChaChaRng) -> Result<Option<Vec<u8>>, DpKvsError> {
        Ok(self.get_traced(key, rng)?.0)
    }

    /// [`DpKvs::get`] with the typed adversarial trace.
    pub fn get_traced(
        &mut self,
        key: u64,
        rng: &mut ChaChaRng,
    ) -> Result<(Option<Vec<u8>>, KvsOpTrace), DpKvsError> {
        self.operate(key, rng, |state, path_a, path_b| {
            let found = Self::find_in_path(path_a, key)
                .or_else(|| Self::find_in_path(path_b, key))
                .map(|(_, v)| v)
                .or_else(|| {
                    state
                        .super_root
                        .iter()
                        .find(|(k, _)| *k == key)
                        .map(|(_, v)| v.clone())
                });
            Ok((NodePlan::Fake, NodePlan::Fake, found))
        })
    }

    /// Inserts or updates `key`.
    pub fn put(&mut self, key: u64, value: Vec<u8>, rng: &mut ChaChaRng) -> Result<(), DpKvsError> {
        self.put_traced(key, value, rng).map(|_| ())
    }

    /// [`DpKvs::put`] with the typed adversarial trace.
    pub fn put_traced(
        &mut self,
        key: u64,
        value: Vec<u8>,
        rng: &mut ChaChaRng,
    ) -> Result<KvsOpTrace, DpKvsError> {
        if value.len() != self.config.value_size {
            return Err(DpKvsError::BadValueSize {
                got: value.len(),
                expected: self.config.value_size,
            });
        }
        let capacity = self.config.geometry.node_capacity;
        let (_, trace) = self.operate(key, rng, move |state, path_a, path_b| {
            // Existing key: in-place update wherever it lives.
            if let Some((height, _)) = Self::find_in_path(path_a, key) {
                return Ok((NodePlan::Update { height, key, value }, NodePlan::Fake, ()));
            }
            if let Some((height, _)) = Self::find_in_path(path_b, key) {
                return Ok((NodePlan::Fake, NodePlan::Update { height, key, value }, ()));
            }
            if let Some(entry) = state.super_root.iter_mut().find(|(k, _)| *k == key) {
                entry.1 = value;
                return Ok((NodePlan::Fake, NodePlan::Fake, ()));
            }
            // New key: the storing algorithm S (shared with the in-memory
            // forest via `choose_slot`).
            let loads_a: Vec<usize> = path_a.iter().map(Vec::len).collect();
            let loads_b: Vec<usize> = path_b.iter().map(Vec::len).collect();
            match choose_slot(&loads_a, &loads_b, capacity) {
                Some((0, height)) => {
                    Ok((NodePlan::Insert { height, key, value }, NodePlan::Fake, ()))
                }
                Some((_, height)) => {
                    Ok((NodePlan::Fake, NodePlan::Insert { height, key, value }, ()))
                }
                None => {
                    if state.super_root.len() < state.super_root_capacity {
                        state.super_root.push((key, value));
                        *state.len += 1;
                        Ok((NodePlan::Fake, NodePlan::Fake, ()))
                    } else {
                        Err(DpKvsError::CapacityExhausted)
                    }
                }
            }
        })?;
        Ok(trace)
    }

    /// Removes `key`, returning its value (an extension beyond the paper's
    /// read/overwrite interface; same four-query transcript shape).
    pub fn remove(&mut self, key: u64, rng: &mut ChaChaRng) -> Result<Option<Vec<u8>>, DpKvsError> {
        let (result, _) = self.operate(key, rng, |state, path_a, path_b| {
            if let Some((height, value)) = Self::find_in_path(path_a, key) {
                return Ok((NodePlan::Remove { height, key }, NodePlan::Fake, Some(value)));
            }
            if let Some((height, value)) = Self::find_in_path(path_b, key) {
                return Ok((NodePlan::Fake, NodePlan::Remove { height, key }, Some(value)));
            }
            if let Some(pos) = state.super_root.iter().position(|(k, _)| *k == key) {
                *state.len -= 1;
                let (_, value) = state.super_root.swap_remove(pos);
                return Ok((NodePlan::Fake, NodePlan::Fake, Some(value)));
            }
            Ok((NodePlan::Fake, NodePlan::Fake, None))
        })?;
        Ok(result)
    }
}

/// Decodes a path's node cells (leaf-to-root) into their slots.
fn decode_path(
    cells: &[Vec<u8>],
    capacity: usize,
    value_size: usize,
) -> Result<Vec<Vec<Slot>>, DpKvsError> {
    cells
        .iter()
        .map(|c| {
            decode_bucket(c, capacity, value_size)
                .map_err(|e| DpKvsError::CorruptNode(e.to_string()))
        })
        .collect()
}

/// Applies one update plan to a path's node cells (leaf-to-root).
fn apply_plan(
    cells: &mut [Vec<u8>],
    plan: NodePlan,
    capacity: usize,
    value_size: usize,
) -> Result<(), String> {
    let edit = |cell: &mut Vec<u8>, f: &mut dyn FnMut(&mut Vec<Slot>)| -> Result<(), String> {
        let mut slots = decode_bucket(cell, capacity, value_size).map_err(|e| e.to_string())?;
        f(&mut slots);
        *cell = encode_bucket(&slots, capacity, value_size);
        Ok(())
    };
    match plan {
        NodePlan::Fake => Ok(()),
        NodePlan::Update { height, key, value } => edit(&mut cells[height], &mut |slots| {
            if let Some(slot) = slots.iter_mut().find(|s| s.id == key) {
                slot.payload = value.clone();
            }
        }),
        NodePlan::Insert { height, key, value } => edit(&mut cells[height], &mut |slots| {
            slots.push(Slot { id: key, payload: value.clone() });
        }),
        NodePlan::Remove { height, key } => edit(&mut cells[height], &mut |slots| {
            slots.retain(|s| s.id != key);
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(n: usize, seed: u64) -> (DpKvs, ChaChaRng) {
        let mut rng = ChaChaRng::seed_from_u64(seed);
        let kvs = DpKvs::setup(DpKvsConfig::recommended(n, 8), SimServer::new(), &mut rng).unwrap();
        (kvs, rng)
    }

    #[test]
    fn put_get_round_trip() {
        let (mut kvs, mut rng) = build(64, 1);
        kvs.put(0xfeed_f00d, vec![7u8; 8], &mut rng).unwrap();
        assert_eq!(kvs.get(0xfeed_f00d, &mut rng).unwrap(), Some(vec![7u8; 8]));
        assert_eq!(kvs.len(), 1);
    }

    #[test]
    fn missing_key_returns_none() {
        let (mut kvs, mut rng) = build(64, 2);
        assert_eq!(kvs.get(42, &mut rng).unwrap(), None);
    }

    #[test]
    fn update_in_place() {
        let (mut kvs, mut rng) = build(64, 3);
        kvs.put(5, vec![1u8; 8], &mut rng).unwrap();
        kvs.put(5, vec![2u8; 8], &mut rng).unwrap();
        assert_eq!(kvs.len(), 1);
        assert_eq!(kvs.get(5, &mut rng).unwrap(), Some(vec![2u8; 8]));
    }

    #[test]
    fn remove_round_trip() {
        let (mut kvs, mut rng) = build(64, 4);
        kvs.put(9, vec![3u8; 8], &mut rng).unwrap();
        assert_eq!(kvs.remove(9, &mut rng).unwrap(), Some(vec![3u8; 8]));
        assert_eq!(kvs.get(9, &mut rng).unwrap(), None);
        assert_eq!(kvs.remove(9, &mut rng).unwrap(), None);
        assert_eq!(kvs.len(), 0);
    }

    #[test]
    fn many_keys_round_trip() {
        let (mut kvs, mut rng) = build(128, 5);
        for k in 0..100u64 {
            kvs.put(k * 0x9e3779b9, vec![(k % 251) as u8; 8], &mut rng)
                .unwrap();
        }
        assert_eq!(kvs.len(), 100);
        for k in 0..100u64 {
            assert_eq!(
                kvs.get(k * 0x9e3779b9, &mut rng).unwrap(),
                Some(vec![(k % 251) as u8; 8]),
                "key {k}"
            );
        }
    }

    /// Random mixed workload against a HashMap reference, including misses.
    #[test]
    fn random_workload_matches_reference() {
        let (mut kvs, mut rng) = build(64, 6);
        let mut reference = std::collections::HashMap::new();
        let keys: Vec<u64> = (0..48).map(|i| i * 7 + 1).collect();
        for step in 0u32..400 {
            let key = keys[rng.gen_index(keys.len())];
            match rng.gen_index(4) {
                0 => {
                    let v = vec![(step % 256) as u8; 8];
                    kvs.put(key, v.clone(), &mut rng).unwrap();
                    reference.insert(key, v);
                }
                1 => {
                    assert_eq!(
                        kvs.remove(key, &mut rng).unwrap(),
                        reference.remove(&key),
                        "step {step}"
                    );
                }
                _ => {
                    assert_eq!(
                        kvs.get(key, &mut rng).unwrap(),
                        reference.get(&key).cloned(),
                        "step {step}"
                    );
                }
            }
            assert_eq!(kvs.len(), reference.len(), "step {step}");
        }
    }

    /// Transcript-shape invariance: hits, misses, puts and removes all
    /// issue exactly one batch of 4 bucket queries = 2 round trips, and
    /// move the same number of cells.
    #[test]
    fn op_cost_is_shape_invariant() {
        let (mut kvs, mut rng) = build(64, 7);
        kvs.put(1, vec![0u8; 8], &mut rng).unwrap();
        let depth = kvs.config().geometry.depth() as u64;
        let check = |kvs: &mut DpKvs, rng: &mut ChaChaRng, label: &str| {
            let before = kvs.server_stats();
            match label {
                "hit" => {
                    kvs.get(1, rng).unwrap();
                }
                "miss" => {
                    kvs.get(0xdead, rng).unwrap();
                }
                "put" => {
                    kvs.put(2, vec![1u8; 8], rng).unwrap();
                }
                _ => {
                    kvs.remove(0xbeef, rng).unwrap();
                }
            }
            let diff = kvs.server_stats().since(&before);
            assert_eq!(diff.downloads, 4 * 2 * depth, "{label}");
            assert_eq!(diff.uploads, 4 * depth, "{label}");
            assert_eq!(diff.round_trips, 2, "{label}");
        };
        check(&mut kvs, &mut rng, "hit");
        check(&mut kvs, &mut rng, "miss");
        check(&mut kvs, &mut rng, "put");
        check(&mut kvs, &mut rng, "removemiss");
    }

    #[test]
    fn value_size_is_enforced() {
        let (mut kvs, mut rng) = build(64, 8);
        assert!(matches!(
            kvs.put(1, vec![0u8; 5], &mut rng),
            Err(DpKvsError::BadValueSize { got: 5, expected: 8 })
        ));
    }

    #[test]
    fn fills_to_capacity_whp() {
        // Insert n keys into an n-bucket forest — Theorem 7.2 says this
        // succeeds whp with the recommended geometry.
        let n = 256;
        let (mut kvs, mut rng) = build(n, 9);
        for k in 0..n as u64 {
            kvs.put(k.wrapping_mul(0x2545f491_4f6cdd1d), vec![0u8; 8], &mut rng)
                .unwrap_or_else(|e| panic!("insert {k} failed: {e}"));
        }
        assert_eq!(kvs.len(), n);
        assert!(
            kvs.super_root_load() <= kvs.config().geometry.super_root_capacity,
            "super root over capacity"
        );
    }

    #[test]
    fn super_root_overflow_is_reported() {
        // Degenerate geometry to force overflow deterministically.
        let mut rng = ChaChaRng::seed_from_u64(10);
        let config = DpKvsConfig {
            geometry: dps_hashing::ForestGeometry {
                n_buckets: 2,
                leaves_per_tree: 2,
                node_capacity: 1,
                super_root_capacity: 1,
            },
            value_size: 4,
            stash_probability: 0.2,
        };
        let mut kvs = DpKvs::setup(config, SimServer::new(), &mut rng).unwrap();
        let mut full = false;
        for k in 0..32u64 {
            match kvs.put(k, vec![0u8; 4], &mut rng) {
                Ok(()) => {}
                Err(DpKvsError::CapacityExhausted) => {
                    full = true;
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(full, "tiny forest must eventually overflow");
        // Everything stored before the overflow is still retrievable.
        for k in 0..kvs.len() as u64 {
            assert!(kvs.get(k, &mut rng).unwrap().is_some(), "key {k}");
        }
    }

    #[test]
    fn client_cells_stay_bounded() {
        let (mut kvs, mut rng) = build(128, 11);
        for k in 0..128u64 {
            kvs.put(k, vec![0u8; 8], &mut rng).unwrap();
        }
        for _ in 0..200 {
            let k = rng.gen_range(128);
            kvs.get(k, &mut rng).unwrap();
        }
        // Stashed cells ≈ p·b·depth in expectation; generous envelope.
        let depth = kvs.config().geometry.depth();
        let expected = kvs.config().stash_probability * 128.0 * depth as f64;
        assert!(
            (kvs.client_cells() as f64) < 6.0 * expected + kvs.super_root_load() as f64 + 20.0,
            "client cells {} too large (expected ~{expected})",
            kvs.client_cells()
        );
    }
}
