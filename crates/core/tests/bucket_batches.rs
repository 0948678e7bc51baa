//! Property suite for `BucketRam::query_batch`: batches of planned bucket
//! queries against a plaintext cell model.
//!
//! A batch must behave exactly like its queries run one after another: a
//! later query sees every update of an earlier one, including when both
//! query the same bucket (DP-KVS's `a == b` case) or buckets that share
//! cells. Every batch is one read of `B(d_j) ‖ B(o_j)` for each query and
//! one write of each `B(o_j)`, whatever the stash does.

use dps_core::bucket_ram::{BucketRam, BucketTrace};
use dps_crypto::ChaChaRng;
use dps_server::{AccessEvent, SimServer};
use proptest::prelude::*;

const CELL: usize = 4;
const CELLS: usize = 8;

/// Heavily overlapping buckets of different sizes: cells 4 and 5 sit in
/// most buckets, like the upper nodes of a forest's paths.
fn repertoire() -> Vec<Vec<usize>> {
    vec![
        vec![0, 4, 5],
        vec![1, 4],
        vec![2, 4, 5, 6],
        vec![3],
        vec![4, 5, 6, 7],
        vec![0, 1, 2, 3],
        vec![5, 7],
    ]
}

fn setup(p: f64, seed: u64) -> (BucketRam, ChaChaRng) {
    let mut rng = ChaChaRng::seed_from_u64(seed);
    let cells: Vec<Vec<u8>> = (0..CELLS).map(|i| vec![i as u8; CELL]).collect();
    let ram = BucketRam::setup(cells, repertoire(), p, SimServer::new(), &mut rng).unwrap();
    (ram, rng)
}

/// One query of a generated batch: the bucket, and an optional write of
/// `byte` to the cell at position `pos` (mod the bucket size).
type Query = (usize, usize, u8, bool);

/// Runs one batch against the RAM and the model, checking contents, the
/// per-batch cost and the recorded transcript.
fn run_batch(
    ram: &mut BucketRam,
    rng: &mut ChaChaRng,
    p: f64,
    model: &mut [Vec<u8>],
    batch: &[Query],
) {
    let buckets = repertoire();
    let queries: Vec<usize> = batch.iter().map(|q| q.0 % buckets.len()).collect();

    // The model runs the queries one after another.
    let mut expected = Vec::new();
    for (&(_, pos, byte, write), &bucket) in batch.iter().zip(&queries) {
        if write {
            model[buckets[bucket][pos % buckets[bucket].len()]] = vec![byte; CELL];
        }
        expected.push(
            buckets[bucket]
                .iter()
                .map(|&c| model[c].clone())
                .collect::<Vec<_>>(),
        );
    }

    let before = ram.server_stats();
    ram.server_mut().start_recording();
    let results = ram
        .query_batch(
            &queries,
            |j, contents| {
                let (_, pos, byte, write) = batch[j];
                if write {
                    let len = contents.len();
                    contents[pos % len] = vec![byte; CELL];
                }
            },
            rng,
        )
        .unwrap();
    let transcript = ram.server_mut().take_transcript();
    let cost = ram.server_stats().since(&before);

    assert_eq!(results.len(), queries.len());
    let traces: Vec<BucketTrace> = results.iter().map(|r| r.1).collect();
    for (j, (contents, trace)) in results.into_iter().enumerate() {
        assert_eq!(contents, expected[j], "query {j} of batch {queries:?}");
        assert!(trace.download < buckets.len() && trace.overwrite < buckets.len());
        if p == 0.0 {
            // Nothing is ever stashed: no decoys, both phases hit the query.
            assert_eq!(trace, BucketTrace { download: queries[j], overwrite: queries[j] });
        }
    }

    // One read of every B(d_j) ‖ B(o_j), one write of every B(o_j).
    let read: Vec<AccessEvent> = traces
        .iter()
        .flat_map(|t| buckets[t.download].iter().chain(&buckets[t.overwrite]))
        .map(|&c| AccessEvent::Download(c))
        .collect();
    let write: Vec<AccessEvent> = traces
        .iter()
        .flat_map(|t| &buckets[t.overwrite])
        .map(|&c| AccessEvent::Upload(c))
        .collect();
    assert_eq!(cost.round_trips, 2);
    assert_eq!(cost.downloads, read.len() as u64);
    assert_eq!(cost.uploads, write.len() as u64);
    let seen: Vec<Vec<AccessEvent>> = transcript.batches().map(|b| b.to_vec()).collect();
    assert_eq!(seen, vec![read, write], "batch {queries:?}");
}

/// Reads every bucket back through single queries and checks the model.
fn check_all(ram: &mut BucketRam, rng: &mut ChaChaRng, model: &[Vec<u8>]) {
    for (b, cells) in repertoire().iter().enumerate() {
        let (contents, _) = ram.query(b, |_| {}, rng).unwrap();
        let expected: Vec<Vec<u8>> = cells.iter().map(|&c| model[c].clone()).collect();
        assert_eq!(contents, expected, "bucket {b}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Batches of 1–4 queries over heavily overlapping buckets, at
    /// p ∈ {0, 0.5, 1}, match the sequential plaintext model.
    #[test]
    fn batches_match_the_sequential_model(
        batches in proptest::collection::vec(
            proptest::collection::vec((0usize..7, 0usize..4, any::<u8>(), any::<bool>()), 1..5),
            1..24,
        ),
        p_pick in 0usize..3,
        seed in any::<u64>(),
    ) {
        let p = [0.0, 0.5, 1.0][p_pick];
        let (mut ram, mut rng) = setup(p, seed);
        let mut model: Vec<Vec<u8>> = (0..CELLS).map(|i| vec![i as u8; CELL]).collect();
        for batch in &batches {
            run_batch(&mut ram, &mut rng, p, &mut model, batch);
        }
        check_all(&mut ram, &mut rng, &model);
    }

    /// The same bucket twice in one batch: the second query sees the
    /// first one's update, whether the first re-stashed the bucket or
    /// wrote it back (DP-KVS's `a == b` case).
    #[test]
    fn repeated_bucket_sees_the_earlier_update(
        bucket in 0usize..7,
        first_pos in 0usize..4,
        second_pos in 0usize..4,
        bytes in (any::<u8>(), any::<u8>()),
        second_writes in any::<bool>(),
        rounds in 1usize..6,
        p_pick in 0usize..3,
        seed in any::<u64>(),
    ) {
        let p = [0.0, 0.5, 1.0][p_pick];
        let (mut ram, mut rng) = setup(p, seed);
        let mut model: Vec<Vec<u8>> = (0..CELLS).map(|i| vec![i as u8; CELL]).collect();
        for round in 0..rounds {
            let first = (bucket, first_pos, bytes.0.wrapping_add(round as u8), true);
            let second = (bucket, second_pos, bytes.1, second_writes);
            run_batch(&mut ram, &mut rng, p, &mut model, &[first, second]);
        }
        check_all(&mut ram, &mut rng, &model);
    }
}

/// An empty batch is a no-op: no round trip, no draws.
#[test]
fn empty_batch_touches_nothing() {
    let (mut ram, mut rng) = setup(0.5, 1);
    let before = ram.server_stats();
    let probe = rng.clone().next_u64();
    assert!(ram.query_batch(&[], |_, _| {}, &mut rng).unwrap().is_empty());
    assert_eq!(ram.server_stats(), before);
    assert_eq!(rng.next_u64(), probe, "no randomness drawn");
}

/// An out-of-range bucket anywhere in the batch rejects the whole batch
/// before any I/O.
#[test]
fn out_of_range_bucket_rejects_the_batch() {
    let (mut ram, mut rng) = setup(0.5, 2);
    let before = ram.server_stats();
    assert!(ram.query_batch(&[0, 7], |_, _| {}, &mut rng).is_err());
    assert_eq!(ram.server_stats(), before);
}
