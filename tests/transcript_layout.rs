//! What the server sees is exactly what the typed traces say. Every DP-RAM
//! query and every batch of DP-KVS bucket queries is one read of
//! `B(d_1) ‖ B(o_1) ‖ … ‖ B(d_k) ‖ B(o_k)` followed by one write of
//! `B(o_1) ‖ … ‖ B(o_k)`. The privacy audits run on the typed traces; this
//! suite pins them to the recorded `SimServer` transcript, event for event.

use dp_storage::core::bucket_ram::BucketTrace;
use dp_storage::core::dp_kvs::{DpKvs, DpKvsConfig};
use dp_storage::core::dp_ram::{DpRam, DpRamConfig};
use dp_storage::crypto::ChaChaRng;
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
    queries: [BucketTrace; 2],
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
            expected.extend(batch_events(path, [trace.retrieve_a, trace.retrieve_b]));
            expected.extend(batch_events(path, [trace.update_a, trace.update_b]));
        }
        let seen = batches(&kvs.server_mut().take_transcript());
        assert_eq!(seen.len(), 4 * 80, "p = {p}: 4 round trips per op");
        assert_eq!(seen, expected, "p = {p}");
    }
}
