//! What the server sees is exactly what the typed traces say. Every DP-RAM
//! query and every batch of DP-KVS bucket queries is one read of
//! `B(d_1) ‖ B(o_1) ‖ … ‖ B(d_k) ‖ B(o_k)` followed by one write of
//! `B(o_1) ‖ … ‖ B(o_k)`. The privacy audits run on the typed traces; this
//! suite pins them to the recorded `SimServer` transcript, event for event.

use dp_storage::core::bucket_ram::BucketTrace;
use dp_storage::core::dp_kvs::{DpKvs, DpKvsConfig, DpKvsError};
use dp_storage::core::dp_ram::{DpRam, DpRamConfig};
use dp_storage::crypto::ChaChaRng;
use dp_storage::hashing::ForestGeometry;
use dp_storage::server::{AccessEvent, SimServer, Transcript};
use dp_storage::workloads::generators::database;
use dp_storage::workloads::Op;

fn batches(transcript: &Transcript) -> Vec<Vec<AccessEvent>> {
    transcript.batches().map(|b| b.to_vec()).collect()
}

#[test]
fn dp_ram_transcript_is_the_typed_trace() {
    let n = 32;
    let db = database(n, 16);
    for p in [0.0, 0.5, 1.0] {
        let mut rng = ChaChaRng::seed_from_u64(11);
        let config = DpRamConfig { n, stash_probability: p };
        let mut ram = DpRam::setup(config, &db, SimServer::new(), &mut rng).unwrap();
        ram.server_mut().start_recording();
        let mut expected = Vec::new();
        for step in 0..120 {
            let i = rng.gen_index(n);
            let (_, trace) = if step % 3 == 0 {
                ram.query_traced(i, Op::Write, Some(vec![step as u8; 16]), &mut rng)
            } else {
                ram.query_traced(i, Op::Read, None, &mut rng)
            }
            .unwrap();
            expected.push(vec![
                AccessEvent::Download(trace.download),
                AccessEvent::Download(trace.overwrite),
            ]);
            expected.push(vec![AccessEvent::Upload(trace.overwrite)]);
        }
        let seen = batches(&ram.server_mut().take_transcript());
        assert_eq!(seen, expected, "p = {p}");
    }
}

/// The two round trips of one batch of bucket queries, from their traces.
fn batch_events(
    path: impl Fn(usize) -> Vec<usize>,
    queries: &[BucketTrace],
) -> [Vec<AccessEvent>; 2] {
    let read = queries
        .iter()
        .flat_map(|q| path(q.download).into_iter().chain(path(q.overwrite)))
        .map(AccessEvent::Download)
        .collect();
    let write = queries
        .iter()
        .flat_map(|q| path(q.overwrite))
        .map(AccessEvent::Upload)
        .collect();
    [read, write]
}

#[test]
fn dp_kvs_transcript_is_the_typed_trace() {
    for p in [0.0, 0.5, 1.0] {
        let mut rng = ChaChaRng::seed_from_u64(12);
        let config = DpKvsConfig { stash_probability: p, ..DpKvsConfig::recommended(64, 8) };
        let geometry = config.geometry;
        let path = |bucket: usize| geometry.bucket_path(bucket);
        let mut kvs = DpKvs::setup(config, SimServer::new(), &mut rng).unwrap();
        kvs.server_mut().start_recording();
        let mut expected = Vec::new();
        for step in 0..80u64 {
            // A small key space: hits, misses, inserts and in-place updates.
            let key = rng.gen_range(24) + 1;
            let trace = if step % 2 == 0 {
                kvs.put_traced(key, vec![step as u8; 8], &mut rng).unwrap()
            } else {
                kvs.get_traced(key, &mut rng).unwrap().1
            };
            expected.extend(batch_events(
                path,
                &[trace.retrieve_a, trace.retrieve_b, trace.update_a, trace.update_b],
            ));
        }
        let seen = batches(&kvs.server_mut().take_transcript());
        assert_eq!(seen.len(), 2 * 80, "p = {p}: 2 round trips per op");
        assert_eq!(seen, expected, "p = {p}");
    }
}

/// The last operation of each variant below on one tiny, full forest.
#[derive(Debug, Clone, Copy)]
enum LastOp {
    GetHit,
    PutUpdate,
    Remove,
    GetMiss,
    PutNoRoom,
}

/// Op hiding by exact coupling. The RNG use of a DP-KVS operation does not
/// depend on the op, the key's presence or the outcome, so from the same
/// seed and prefix every operation on the same bucket pair must give the
/// same transcript, event for event: a hit, an update, a remove, a miss,
/// and a put that fails with `CapacityExhausted`.
#[test]
fn dp_kvs_ops_are_coupled_including_a_failed_put() {
    let geometry = ForestGeometry {
        n_buckets: 2,
        leaves_per_tree: 2,
        node_capacity: 1,
        super_root_capacity: 1,
    };
    let slots = geometry.total_nodes() * geometry.node_capacity + geometry.super_root_capacity;
    let depth = geometry.depth();
    for seed in 0..20u64 {
        let run = |last: LastOp| {
            let mut rng = ChaChaRng::seed_from_u64(seed);
            let config = DpKvsConfig { geometry, value_size: 4, stash_probability: 0.3 };
            let mut kvs = DpKvs::setup(config, SimServer::new(), &mut rng).unwrap();
            // Fill every slot of the paths and the super root; puts that
            // find no room along the way fail and change nothing.
            let mut stored = Vec::new();
            for key in 0u64.. {
                if kvs.len() == slots {
                    break;
                }
                match kvs.put(key, vec![1; 4], &mut rng) {
                    Ok(()) => stored.push(key),
                    Err(DpKvsError::CapacityExhausted) => {}
                    Err(e) => panic!("seed {seed}: put {key}: {e}"),
                }
            }
            let k = stored[0];
            let fresh = ((1u64 << 32)..)
                .find(|&u| kvs.buckets_for(u) == kvs.buckets_for(k))
                .unwrap();
            kvs.server_mut().start_recording();
            let before = kvs.server_stats();
            match last {
                LastOp::GetHit => assert_eq!(kvs.get(k, &mut rng).unwrap(), Some(vec![1; 4])),
                LastOp::PutUpdate => kvs.put(k, vec![2; 4], &mut rng).unwrap(),
                LastOp::Remove => assert_eq!(kvs.remove(k, &mut rng).unwrap(), Some(vec![1; 4])),
                LastOp::GetMiss => assert_eq!(kvs.get(fresh, &mut rng).unwrap(), None),
                LastOp::PutNoRoom => assert!(
                    matches!(
                        kvs.put(fresh, vec![3; 4], &mut rng),
                        Err(DpKvsError::CapacityExhausted)
                    ),
                    "seed {seed}: a full forest must refuse a fresh key"
                ),
            }
            let cost = kvs.server_stats().since(&before);
            (batches(&kvs.server_mut().take_transcript()), cost)
        };
        let (reference, _) = run(LastOp::GetHit);
        for last in [LastOp::PutUpdate, LastOp::Remove, LastOp::GetMiss, LastOp::PutNoRoom] {
            let (seen, cost) = run(last);
            assert_eq!(seen, reference, "seed {seed}: {last:?} differs from a hit");
            if let LastOp::PutNoRoom = last {
                assert_eq!(cost.downloads, 8 * depth as u64, "seed {seed}");
                assert_eq!(cost.uploads, 4 * depth as u64, "seed {seed}");
                assert_eq!(cost.round_trips, 2, "seed {seed}");
            }
        }
    }
}
