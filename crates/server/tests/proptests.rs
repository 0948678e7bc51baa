//! Property-based tests for the server substrate.

use dps_server::cells::{decode_bucket, encode_bucket, encoded_len, Slot};
use dps_server::{AccessEvent, SimServer, Storage, Transcript};
use proptest::prelude::*;

fn arb_slots(max_slots: usize, payload_len: usize) -> impl Strategy<Value = Vec<Slot>> {
    proptest::collection::vec(
        (any::<u64>(), proptest::collection::vec(any::<u8>(), payload_len..=payload_len)),
        0..=max_slots,
    )
    .prop_map(|entries| {
        entries
            .into_iter()
            .map(|(id, payload)| Slot { id, payload })
            .collect()
    })
}

proptest! {
    /// Cell encoding round-trips and is always the same length.
    #[test]
    fn cells_round_trip(slots in arb_slots(6, 16), capacity_extra in 0usize..4) {
        let capacity = 6 + capacity_extra;
        let bytes = encode_bucket(&slots, capacity, 16);
        prop_assert_eq!(bytes.len(), encoded_len(capacity, 16));
        prop_assert_eq!(decode_bucket(&bytes, capacity, 16).unwrap(), slots);
    }

    /// Server read-after-write returns the written cell for arbitrary
    /// programs of operations.
    #[test]
    fn server_read_your_writes(
        ops in proptest::collection::vec((0usize..16, proptest::collection::vec(any::<u8>(), 4)), 1..60)
    ) {
        let mut server = SimServer::new();
        server.init(vec![vec![0u8; 4]; 16]);
        let mut model = vec![vec![0u8; 4]; 16];
        for (addr, data) in ops {
            server.write(addr, data.clone()).unwrap();
            model[addr] = data;
            let check = addr / 2;
            prop_assert_eq!(server.read(check).unwrap(), model[check].clone());
        }
    }

    /// Stats counters are consistent with operation counts.
    #[test]
    fn server_stats_consistent(reads in 0u64..30, writes in 0u64..30) {
        let mut server = SimServer::new();
        server.init(vec![vec![1u8; 8]; 4]);
        for i in 0..reads {
            server.read((i % 4) as usize).unwrap();
        }
        for i in 0..writes {
            server.write((i % 4) as usize, vec![2u8; 8]).unwrap();
        }
        let s = server.stats();
        prop_assert_eq!(s.downloads, reads);
        prop_assert_eq!(s.uploads, writes);
        prop_assert_eq!(s.bytes_down, reads * 8);
        prop_assert_eq!(s.bytes_up, writes * 8);
        prop_assert_eq!(s.round_trips, reads + writes);
    }

    /// Canonical transcript encoding is injective over event sequences
    /// (different views never collide).
    #[test]
    fn transcript_encoding_injective(
        a in proptest::collection::vec(proptest::collection::vec((0u8..3, 0usize..64), 0..4), 0..4),
        b in proptest::collection::vec(proptest::collection::vec((0u8..3, 0usize..64), 0..4), 0..4),
    ) {
        let build = |spec: &Vec<Vec<(u8, usize)>>| {
            let mut t = Transcript::new();
            for batch in spec {
                t.push_batch(batch.iter().map(|&(kind, addr)| match kind {
                    0 => AccessEvent::Download(addr),
                    1 => AccessEvent::Upload(addr),
                    _ => AccessEvent::Compute(addr),
                }).collect());
            }
            t
        };
        let ta = build(&a);
        let tb = build(&b);
        prop_assert_eq!(ta == tb, ta.canonical_encoding() == tb.canonical_encoding());
    }
}
