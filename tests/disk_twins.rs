//! DP-RAM and DP-KVS over the durable `DiskStore` are exact twins of the
//! same schemes over `SimServer` under the same seed: identical answers,
//! cost counters (cache counters aside) and transcripts, and bit-identical
//! cells, also after the store is reopened from its files.
//!
//! A DP-KVS write batch `B(o_a) ‖ B(o_b)` repeats an address whenever the
//! two paths share nodes, so one WAL record and one group-commit window
//! can hold several writes of the same cell; the last must win in the
//! cache, in the arena and on replay. Each store runs with the cache
//! budget from `DPS_CACHE_BYTES` (CI pins it to one page) and again with a
//! budget of a few cells and a group-commit window of 3 batches.

use std::sync::atomic::{AtomicU64, Ordering};

use dp_storage::core::dp_kvs::{DpKvs, DpKvsConfig};
use dp_storage::core::dp_ram::{DpRam, DpRamConfig};
use dp_storage::crypto::ChaChaRng;
use dp_storage::server::{
    AccessEvent, CostStats, DiskOptions, DiskStore, SimServer, Storage, SyncPolicy, Transcript,
};
use dp_storage::workloads::generators::database;

const SEEDS: u64 = 3;

/// A unique throwaway directory for one store, removed on drop.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new() -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "dps_disk_twins_{}_{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The disk configurations every twin runs on (fsync off: the crash suite
/// owns durability, this suite owns equivalence).
fn disk_options() -> [(&'static str, DiskOptions); 2] {
    let base = DiskOptions { sync: SyncPolicy::Never, ..DiskOptions::default() };
    [
        ("env cache budget", base),
        ("tiny cache, group commit", DiskOptions { cache_bytes: 512, wal_group_commit: 3, ..base }),
    ]
}

/// Everything a run exposes.
#[derive(Debug, PartialEq)]
struct Outcome<A> {
    answers: Vec<A>,
    stats: CostStats,
    transcript: Transcript,
    cells: Vec<Vec<u8>>,
}

fn read_all<S: Storage>(server: &mut S) -> Vec<Vec<u8>> {
    let addrs: Vec<usize> = (0..server.capacity()).collect();
    server.read_batch(&addrs).unwrap()
}

/// Captures the transcript and stats, then makes the store durable and
/// reads every cell back.
fn finish<S: Storage, A>(server: &mut S, answers: Vec<A>) -> Outcome<A> {
    let transcript = server.take_transcript();
    let stats = server.stats().sans_cache();
    server.flush().unwrap();
    Outcome { answers, stats, transcript, cells: read_all(server) }
}

fn run_ram<S: Storage>(server: S, seed: u64) -> Outcome<Vec<u8>> {
    let n = 64;
    let db = database(n, 32);
    let mut rng = ChaChaRng::seed_from_u64(seed);
    let mut ram = DpRam::setup(DpRamConfig::recommended(n), &db, server, &mut rng).unwrap();
    ram.server_mut().start_recording();
    let mut answers = Vec::new();
    for step in 0..150u32 {
        let i = rng.gen_index(n);
        if step % 3 == 0 {
            ram.write(i, vec![step as u8; 32], &mut rng).unwrap();
        } else {
            answers.push(ram.read(i, &mut rng).unwrap());
        }
    }
    finish(ram.server_mut(), answers)
}

fn run_kvs<S: Storage>(server: S, seed: u64) -> Outcome<Option<Vec<u8>>> {
    let mut rng = ChaChaRng::seed_from_u64(seed);
    let mut kvs = DpKvs::setup(DpKvsConfig::recommended(64, 16), server, &mut rng).unwrap();
    kvs.server_mut().start_recording();
    let mut answers = Vec::new();
    for step in 0..120u64 {
        let key = rng.gen_range(48) + 1;
        match step % 4 {
            0 | 1 => kvs.put(key, vec![step as u8; 16], &mut rng).unwrap(),
            2 => answers.push(kvs.remove(key, &mut rng).unwrap()),
            _ => answers.push(kvs.get(key, &mut rng).unwrap()),
        }
    }
    answers.push(kvs.get(0xDEAD_BEEF, &mut rng).unwrap()); // miss
    finish(kvs.server_mut(), answers)
}

/// Runs `run` over `SimServer` and over each disk configuration, then
/// reopens each store and checks its cells again. Returns the oracle.
fn check_twins<A: PartialEq + std::fmt::Debug>(
    family: &str,
    run_sim: impl Fn(SimServer, u64) -> Outcome<A>,
    run_disk: impl Fn(DiskStore, u64) -> Outcome<A>,
) -> Vec<Outcome<A>> {
    let mut oracles = Vec::new();
    for seed in 0..SEEDS {
        let oracle = run_sim(SimServer::new(), seed);
        for (label, opts) in disk_options() {
            let tmp = TempDir::new();
            let disk = DiskStore::open_with(&tmp.0, opts).expect("create disk store");
            let outcome = run_disk(disk, seed);
            assert_eq!(outcome, oracle, "{family} over DiskStore ({label}), seed {seed}");
            let mut reopened = DiskStore::open_with(&tmp.0, opts).expect("reopen disk store");
            assert_eq!(
                read_all(&mut reopened),
                oracle.cells,
                "{family} reopened ({label}), seed {seed}"
            );
        }
        oracles.push(oracle);
    }
    oracles
}

#[test]
fn dp_ram_over_disk_store_is_a_sim_server_twin() {
    check_twins("DpRam", run_ram, run_ram);
}

#[test]
fn dp_kvs_over_disk_store_is_a_sim_server_twin() {
    let oracles = check_twins("DpKvs", run_kvs, run_kvs);
    // The workload must reach the new traffic: a write batch that uploads
    // the same node twice.
    let repeated = oracles
        .iter()
        .flat_map(|o| o.transcript.batches())
        .filter(|batch| {
            let ups: Vec<usize> = batch
                .iter()
                .filter_map(|e| match e {
                    AccessEvent::Upload(a) => Some(*a),
                    _ => None,
                })
                .collect();
            ups.iter().enumerate().any(|(i, a)| ups[..i].contains(a))
        })
        .count();
    assert!(repeated > 0, "no KVS write batch repeated an address");
}
