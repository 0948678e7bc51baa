//! A failed DP-RAM or DP-KVS operation must not lose data. Each query
//! reads once and writes once; nothing client-side changes until the read
//! succeeds, and when the write fails the client keeps the record (or
//! bucket) stashed, because its copy is then the only authoritative one.
//!
//! Both schemes run over a `FaultStorage<SimServer>` that fails a seeded
//! share of server calls with `Interrupted` without executing them. A
//! model tracks, per record, the values it may hold: a failed op's target
//! may hold its pre-op or post-op value, and the first successful read
//! settles which. After the run, injection is disarmed and every record is
//! checked against the model, so every record no failed op touched must
//! match exactly.

use std::collections::HashMap;

use dp_storage::core::bucket_ram::BucketRamError;
use dp_storage::core::dp_kvs::{DpKvs, DpKvsConfig, DpKvsError};
use dp_storage::core::dp_ram::{DpRam, DpRamConfig, DpRamError};
use dp_storage::crypto::ChaChaRng;
use dp_storage::net::FaultStorage;
use dp_storage::server::{ServerError, SimServer};
use dp_storage::workloads::generators::database;

const SEEDS: u64 = 12;
const STEPS: u32 = 150;
/// Share of server calls that fail, in per mille.
const FAIL_PER_MILLE: u16 = 150;

/// The values one record may hold: one after a success, more after a
/// failed write until a read settles it.
#[derive(Debug, Clone)]
struct Allowed<T>(Vec<T>);

impl<T: PartialEq + Clone + std::fmt::Debug> Allowed<T> {
    fn exactly(value: T) -> Self {
        Allowed(vec![value])
    }

    fn also(&mut self, value: T) {
        if !self.0.contains(&value) {
            self.0.push(value);
        }
    }

    /// Checks an observed value and settles the record to it.
    fn settle(&mut self, observed: T, what: &str) {
        assert!(self.0.contains(&observed), "{what}: read {observed:?}, allowed {:?}", self.0);
        *self = Allowed::exactly(observed);
    }
}

fn assert_interrupted_ram(err: &DpRamError, what: &str) {
    assert!(
        matches!(err, DpRamError::Server(ServerError::Interrupted)),
        "{what}: untyped error {err:?}"
    );
}

fn assert_interrupted_kvs(err: &DpKvsError, what: &str) {
    assert!(
        matches!(err, DpKvsError::Ram(BucketRamError::Server(ServerError::Interrupted))),
        "{what}: untyped error {err:?}"
    );
}

#[test]
fn dp_ram_keeps_every_record_through_failed_ops() {
    let n = 16;
    let db = database(n, 16);
    for p in [0.0, 0.5, 1.0] {
        let mut injected = 0;
        for seed in 0..SEEDS {
            let what = format!("p = {p}, seed {seed}");
            let mut server = FaultStorage::new(SimServer::new(), seed, FAIL_PER_MILLE);
            server.set_armed(false);
            let mut rng = ChaChaRng::seed_from_u64(seed);
            let mut workload = ChaChaRng::seed_from_u64(seed ^ 0x5eed);
            let config = DpRamConfig { n, stash_probability: p };
            let mut ram = DpRam::setup(config, &db, server, &mut rng).unwrap();
            ram.server_mut().set_armed(true);

            let mut model: Vec<Allowed<Vec<u8>>> =
                db.iter().map(|b| Allowed::exactly(b.clone())).collect();
            for step in 0..STEPS {
                let i = workload.gen_index(n);
                let what = format!("{what}, step {step}, record {i}");
                if workload.gen_bool(0.4) {
                    let value = vec![(step % 251) as u8; 16];
                    match ram.write(i, value.clone(), &mut rng) {
                        Ok(()) => model[i] = Allowed::exactly(value),
                        Err(e) => {
                            assert_interrupted_ram(&e, &what);
                            model[i].also(value);
                        }
                    }
                } else {
                    match ram.read(i, &mut rng) {
                        Ok(value) => model[i].settle(value, &what),
                        Err(e) => assert_interrupted_ram(&e, &what),
                    }
                }
            }

            injected += ram.server_mut().injected();
            ram.server_mut().set_armed(false);
            for (i, allowed) in model.iter_mut().enumerate() {
                let value = ram.read(i, &mut rng).unwrap();
                allowed.settle(value, &format!("{what}, final read of record {i}"));
            }
        }
        assert!(injected > 0, "p = {p}: no fault was ever injected");
    }
}

#[test]
fn dp_kvs_keeps_every_key_through_failed_ops() {
    let keys: Vec<u64> = (0..24u64)
        .map(|k| k.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
        .collect();
    for p in [0.0, 0.5, 1.0] {
        let mut injected = 0;
        for seed in 0..SEEDS {
            let what = format!("p = {p}, seed {seed}");
            let mut server = FaultStorage::new(SimServer::new(), seed, FAIL_PER_MILLE);
            server.set_armed(false);
            let mut rng = ChaChaRng::seed_from_u64(seed);
            let mut workload = ChaChaRng::seed_from_u64(seed ^ 0x5eed);
            let config = DpKvsConfig { stash_probability: p, ..DpKvsConfig::recommended(64, 8) };
            let mut kvs = DpKvs::setup(config, server, &mut rng).unwrap();
            kvs.server_mut().set_armed(true);

            let mut model: HashMap<u64, Allowed<Option<Vec<u8>>>> =
                keys.iter().map(|&k| (k, Allowed::exactly(None))).collect();
            for step in 0..STEPS {
                let key = keys[workload.gen_index(keys.len())];
                let what = format!("{what}, step {step}, key {key:#x}");
                let allowed = model.get_mut(&key).expect("modelled key");
                match workload.gen_index(4) {
                    0 | 1 => {
                        let value = vec![(step % 251) as u8; 8];
                        match kvs.put(key, value.clone(), &mut rng) {
                            Ok(()) => *allowed = Allowed::exactly(Some(value)),
                            Err(e) => {
                                assert_interrupted_kvs(&e, &what);
                                allowed.also(Some(value));
                            }
                        }
                    }
                    2 => match kvs.remove(key, &mut rng) {
                        Ok(removed) => {
                            allowed.settle(removed, &what);
                            *allowed = Allowed::exactly(None);
                        }
                        Err(e) => {
                            assert_interrupted_kvs(&e, &what);
                            allowed.also(None);
                        }
                    },
                    _ => match kvs.get(key, &mut rng) {
                        Ok(value) => allowed.settle(value, &what),
                        Err(e) => assert_interrupted_kvs(&e, &what),
                    },
                }
            }

            injected += kvs.server_mut().injected();
            kvs.server_mut().set_armed(false);
            for &key in &keys {
                let value = kvs.get(key, &mut rng).unwrap();
                let allowed = model.get_mut(&key).expect("modelled key");
                allowed.settle(value, &format!("{what}, final get of key {key:#x}"));
            }
            let absent = model.values().filter(|a| a.0 == [None::<Vec<u8>>]).count();
            assert_eq!(kvs.len(), keys.len() - absent, "{what}: key count drifted");
        }
        assert!(injected > 0, "p = {p}: no fault was ever injected");
    }
}
