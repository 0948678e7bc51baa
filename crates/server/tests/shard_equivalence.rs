//! Observational equivalence of [`ShardedServer`] against [`SimServer`].
//!
//! The sharding + worker-pool rewrite must be invisible to a single
//! client: for any program of batched reads, writes, XORs and combined
//! accesses — including failing operations, zero-copy variants, and the
//! bulk strided paths that fan out over the pool — a `ShardedServer` with
//! any shard count `S ∈ {1, 2, 4, 8}` and any pool width `T ∈ {1, 4}`
//! must return identical cells, charge identical [`CostStats`] (down to
//! the partial charges of a mid-batch failure), and record an identical
//! [`Transcript`] to the sequential `SimServer`. Both sides are
//! `Metered`, so the charging rules are shared; what this suite pins is
//! that `ShardBackend`'s routing and pool fan-out move exactly the bytes
//! a single `CellStore` would. The independent check of the rules
//! themselves is `store_equivalence`, against its per-cell
//! `ReferenceServer`. Here "oracle" names the single-arena `SimServer`
//! baseline.

use dps_server::{ServerError, ShardedServer, SimServer, Storage, WorkerPool};
use proptest::prelude::*;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const THREAD_COUNTS: [usize; 2] = [1, 4];

const CAPACITY: usize = 12;
const CELL_LEN: usize = 10;

fn cell(byte: u8, len: usize) -> Vec<u8> {
    (0..len).map(|i| byte.wrapping_add(i as u8)).collect()
}

/// One step of a random server program, issued identically to the oracle
/// and every sharded subject. Addresses range a little beyond capacity so
/// out-of-bounds behavior is exercised; `WriteOdd` exercises per-shard
/// re-striding (whose stride then differs from sibling shards).
#[derive(Debug, Clone)]
enum Op {
    ReadBatch(Vec<usize>),
    ReadZeroCopy(Vec<usize>),
    ReadInto(usize),
    /// Issued through `read_batch_strided` on the sharded subject (oracle
    /// uses `read_batch_with` into the same flat shape).
    ReadStrided(Vec<usize>),
    WriteBatch(Vec<(usize, u8)>),
    WriteStrided(Vec<(usize, u8)>),
    WriteFrom(usize, u8),
    WriteOdd(usize, u8, usize),
    Access(Vec<usize>, Vec<(usize, u8)>),
    Xor(Vec<usize>),
}

fn arb_addr() -> impl Strategy<Value = usize> {
    0usize..CAPACITY + 2
}

fn arb_op() -> impl Strategy<Value = Op> {
    // The vendored proptest has no `prop_oneof!`; a selector byte picks the
    // variant from one tuple of raw ingredients.
    let addrs = proptest::collection::vec(arb_addr(), 0..6);
    let writes = proptest::collection::vec((arb_addr(), any::<u8>()), 0..6);
    (0u8..10, addrs, writes, arb_addr(), any::<u8>(), 0usize..20).prop_map(
        |(variant, addrs, writes, addr, byte, odd_len)| match variant {
            0 => Op::ReadBatch(addrs),
            1 => Op::ReadZeroCopy(addrs),
            2 => Op::ReadInto(addr),
            3 => Op::ReadStrided(addrs),
            4 => Op::WriteBatch(writes),
            5 => Op::WriteStrided(writes),
            6 => Op::WriteFrom(addr, byte),
            7 => Op::WriteOdd(addr, byte, odd_len),
            8 => Op::Access(addrs, writes),
            _ => Op::Xor(addrs),
        },
    )
}

/// True when the oracle would survive an XOR over `addrs` without hitting
/// two initialized cells of different lengths (a caller contract violation
/// that is debug-asserted, so the suite never issues it).
fn xor_well_formed(oracle: &mut SimServer, addrs: &[usize]) -> bool {
    let mut len: Option<usize> = None;
    for &a in addrs {
        if a >= oracle.capacity() {
            return true; // out-of-bounds error aborts the walk first
        }
        match probe_len(oracle, a) {
            None => return true, // uninitialized error aborts the walk first
            Some(l) => match len {
                Some(expected) if expected != l => return false,
                _ => len = Some(l),
            },
        }
    }
    true
}

/// Length of the cell at `addr` without charging the oracle (clones the
/// server; fine at test scale).
fn probe_len(oracle: &SimServer, addr: usize) -> Option<usize> {
    let mut clone = oracle.clone();
    let mut len = None;
    let _ = clone.read_batch_with(&[addr], |_, cell| len = Some(cell.len()));
    len
}

/// Applies `op` to the oracle and one subject, asserting identical
/// observable results.
fn step(op: &Op, oracle: &mut SimServer, subject: &mut ShardedServer) {
    match op {
        Op::ReadBatch(addrs) => {
            assert_eq!(Storage::read_batch(subject, addrs), Storage::read_batch(oracle, addrs));
        }
        Op::ReadZeroCopy(addrs) => {
            let mut seen_subject = Vec::new();
            let got_subject =
                subject.read_batch_with(addrs, |i, c| seen_subject.push((i, c.to_vec())));
            let mut seen_oracle = Vec::new();
            let got_oracle =
                oracle.read_batch_with(addrs, |i, c| seen_oracle.push((i, c.to_vec())));
            assert_eq!(got_subject, got_oracle);
            assert_eq!(seen_subject, seen_oracle);
        }
        Op::ReadInto(addr) => {
            let mut scratch_subject = [0u8; 64];
            let mut scratch_oracle = [0u8; 64];
            let got_subject = Storage::read_into(subject, *addr, &mut scratch_subject);
            let got_oracle = oracle.read_into(*addr, &mut scratch_oracle);
            assert_eq!(got_subject, got_oracle);
            if let Ok(len) = got_oracle {
                assert_eq!(scratch_subject[..len], scratch_oracle[..len]);
            }
        }
        Op::ReadStrided(addrs) => {
            // The bulk strided download must match a flat copy-out through
            // the oracle's zero-copy path, stats and transcript included.
            // Slots are CELL_LEN + 10 = 20 bytes wide so every cell fits:
            // WriteOdd writes at most 19 bytes.
            let stride = CELL_LEN + 10;
            let mut flat_subject = vec![0u8; addrs.len() * stride];
            let mut flat_oracle = vec![0u8; addrs.len() * stride];
            let got_subject = subject.read_batch_strided(addrs, &mut flat_subject);
            let got_oracle = oracle.read_batch_with(addrs, |i, c| {
                flat_oracle[i * stride..i * stride + c.len()].copy_from_slice(c);
            });
            assert_eq!(got_subject, got_oracle);
            if got_oracle.is_ok() {
                assert_eq!(flat_subject, flat_oracle);
            }
        }
        Op::WriteBatch(writes) => {
            let w = |(a, b): &(usize, u8)| (*a, cell(*b, CELL_LEN));
            assert_eq!(
                Storage::write_batch(subject, writes.iter().map(w).collect()),
                oracle.write_batch(writes.iter().map(w).collect()),
            );
        }
        Op::WriteStrided(writes) => {
            let addrs: Vec<usize> = writes.iter().map(|&(a, _)| a).collect();
            let mut flat = Vec::new();
            for &(_, b) in writes {
                flat.extend_from_slice(&cell(b, CELL_LEN));
            }
            assert_eq!(
                Storage::write_batch_strided(subject, &addrs, &flat),
                oracle.write_batch_strided(&addrs, &flat),
            );
        }
        Op::WriteFrom(addr, byte) => {
            assert_eq!(
                Storage::write_from(subject, *addr, &cell(*byte, CELL_LEN)),
                oracle.write_from(*addr, &cell(*byte, CELL_LEN)),
            );
        }
        Op::WriteOdd(addr, byte, len) => {
            assert_eq!(
                Storage::write(subject, *addr, cell(*byte, *len)),
                oracle.write(*addr, cell(*byte, *len)),
            );
        }
        Op::Access(reads, writes) => {
            let w = |(a, b): &(usize, u8)| (*a, cell(*b, CELL_LEN));
            assert_eq!(
                Storage::access_batch(subject, reads, writes.iter().map(w).collect()),
                oracle.access_batch(reads, writes.iter().map(w).collect()),
            );
        }
        Op::Xor(addrs) => {
            if xor_well_formed(oracle, addrs) {
                assert_eq!(Storage::xor_cells(subject, addrs), oracle.xor_cells(addrs));
            }
        }
    }
}

fn run_program(init_all: bool, shards: usize, threads: usize, ops: &[Op]) {
    let mut oracle = SimServer::new();
    let mut subject = ShardedServer::new(shards).with_pool(WorkerPool::new(threads));
    if init_all {
        let cells: Vec<Vec<u8>> = (0..CAPACITY).map(|i| cell(i as u8, CELL_LEN)).collect();
        oracle.init(cells.clone());
        Storage::init(&mut subject, cells);
    } else {
        oracle.init_empty(CAPACITY);
        Storage::init_empty(&mut subject, CAPACITY);
    }
    oracle.start_recording();
    Storage::start_recording(&mut subject);

    for op in ops {
        step(op, &mut oracle, &mut subject);
        assert_eq!(
            Storage::stats(&subject),
            oracle.stats(),
            "stats diverged after {op:?} (S = {shards}, T = {threads})"
        );
    }

    assert_eq!(
        Storage::take_transcript(&mut subject).canonical_encoding(),
        oracle.take_transcript().canonical_encoding(),
        "transcripts diverged (S = {shards}, T = {threads})"
    );
    assert_eq!(Storage::stored_bytes(&subject), oracle.stored_bytes());
    assert_eq!(Storage::cell_stride(&subject), oracle.cell_stride());
    // Final cell-by-cell state match (including initialized-ness).
    for addr in 0..CAPACITY {
        let got = Storage::read(&mut subject, addr);
        let expected = oracle.read(addr);
        assert_eq!(got, expected, "cell {addr} diverged (S = {shards}, T = {threads})");
    }
}

fn run_all_configs(init_all: bool, ops: &[Op]) {
    for shards in SHARD_COUNTS {
        for threads in THREAD_COUNTS {
            run_program(init_all, shards, threads, ops);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random programs over a fully initialized server, for every
    /// (shard count, thread count) configuration.
    #[test]
    fn sharded_matches_sim_initialized(ops in proptest::collection::vec(arb_op(), 0..30)) {
        run_all_configs(true, &ops);
    }

    /// Random programs from an uninitialized server: `Uninitialized`
    /// errors, first-write stride selection, partial charges.
    #[test]
    fn sharded_matches_sim_uninitialized(ops in proptest::collection::vec(arb_op(), 0..30)) {
        run_all_configs(false, &ops);
    }
}

/// Batches big enough to cross the pool fan-out threshold (64 cells) so
/// the parallel strided-write, strided-read and XOR paths are exercised —
/// the property programs above stay small.
#[test]
fn large_batches_hit_the_pooled_paths_bit_identically() {
    const N: usize = 1000;
    const LEN: usize = 32;
    let cells: Vec<Vec<u8>> = (0..N).map(|i| cell(i as u8, LEN)).collect();
    let addrs: Vec<usize> = (0..N).rev().collect(); // cross-shard, unordered
    let flat: Vec<u8> = addrs.iter().flat_map(|&a| cell(a as u8 ^ 0x5A, LEN)).collect();

    let mut oracle = SimServer::new();
    oracle.init(cells.clone());
    oracle.start_recording();
    oracle.write_batch_strided(&addrs, &flat).unwrap();
    let mut oracle_read = vec![0u8; N * LEN];
    oracle
        .read_batch_with(&addrs, |i, c| {
            oracle_read[i * LEN..(i + 1) * LEN].copy_from_slice(c);
        })
        .unwrap();
    let oracle_xor = oracle.xor_cells(&addrs).unwrap();
    let oracle_stats = oracle.stats();
    let oracle_view = oracle.take_transcript().canonical_encoding();

    for shards in SHARD_COUNTS {
        for threads in THREAD_COUNTS {
            let mut subject = ShardedServer::new(shards).with_pool(WorkerPool::new(threads));
            Storage::init(&mut subject, cells.clone());
            Storage::start_recording(&mut subject);
            Storage::write_batch_strided(&mut subject, &addrs, &flat).unwrap();
            let mut subject_read = vec![0u8; N * LEN];
            subject.read_batch_strided(&addrs, &mut subject_read).unwrap();
            let subject_xor = Storage::xor_cells(&mut subject, &addrs).unwrap();
            assert_eq!(subject_read, oracle_read, "S = {shards}, T = {threads}");
            assert_eq!(subject_xor, oracle_xor, "S = {shards}, T = {threads}");
            assert_eq!(Storage::stats(&subject), oracle_stats, "S = {shards}, T = {threads}");
            assert_eq!(
                Storage::take_transcript(&mut subject).canonical_encoding(),
                oracle_view,
                "S = {shards}, T = {threads}"
            );
        }
    }
}

/// A failing large batch must charge exactly the oracle's partial prefix
/// even when the batch size would qualify for pooled execution.
#[test]
fn pooled_size_failures_charge_the_sequential_prefix() {
    const N: usize = 200;
    let cells: Vec<Vec<u8>> = (0..N).map(|i| cell(i as u8, 8)).collect();
    let mut addrs: Vec<usize> = (0..N).collect();
    addrs[150] = N + 7; // out of bounds mid-batch

    let mut oracle = SimServer::new();
    oracle.init(cells.clone());
    let mut sink = 0usize;
    let oracle_err = oracle.read_batch_with(&addrs, |_, c| sink += c.len());
    assert_eq!(oracle_err, Err(ServerError::OutOfBounds { addr: N + 7, capacity: N }));

    for shards in SHARD_COUNTS {
        for threads in THREAD_COUNTS {
            let mut subject = ShardedServer::new(shards).with_pool(WorkerPool::new(threads));
            Storage::init(&mut subject, cells.clone());
            let mut flat = vec![0u8; addrs.len() * 8];
            let got = subject.read_batch_strided(&addrs, &mut flat);
            assert_eq!(got, oracle_err, "S = {shards}, T = {threads}");
            assert_eq!(
                Storage::stats(&subject),
                oracle.stats(),
                "partial charges diverged (S = {shards}, T = {threads})"
            );
        }
    }
}
