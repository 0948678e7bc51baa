//! Failure injection across crates: corrupted server state, active-server
//! attacks, and capacity exhaustion must all surface as *typed errors* —
//! never as silent wrong answers or panics.

use dp_storage::core::dp_kvs::{DpKvs, DpKvsConfig};
use dp_storage::core::dp_ram::{DpRam, DpRamConfig, DpRamError};
use dp_storage::core::hardened_ram::{HardenedDpRam, HardenedRamError, TamperDetection};
use dp_storage::crypto::merkle::MerkleTree;
use dp_storage::crypto::ChaChaRng;
use dp_storage::oram::{PathOram, PathOramConfig};
use dp_storage::server::{SimServer, VerifiedError, VerifiedServer};
use dp_storage::workloads::generators::database;

const N: usize = 64;
const BLOCK: usize = 32;

/// DP-RAM with a corrupted server cell: the integrity tag inside the
/// IND-CPA ciphertext rejects the cell instead of decrypting garbage.
#[test]
fn dp_ram_detects_corrupted_ciphertext() {
    let mut rng = ChaChaRng::seed_from_u64(1);
    let db = database(N, BLOCK);
    // p = 0 pins reads to their own address, so the corrupted cell is hit.
    let mut ram =
        DpRam::setup(DpRamConfig { n: N, stash_probability: 0.0 }, &db, SimServer::new(), &mut rng)
            .unwrap();

    let cell = ram.server_mut().read(9).unwrap();
    let mut bad = cell;
    let mid = bad.len() / 2;
    bad[mid] ^= 0x01;
    ram.server_mut().write(9, bad).unwrap();

    match ram.read(9, &mut rng) {
        Err(DpRamError::Crypto(_)) => {}
        other => panic!("corruption must be a crypto error, got {other:?}"),
    }
}

/// Truncated cells are malformed, not a panic.
#[test]
fn dp_ram_rejects_truncated_cell() {
    let mut rng = ChaChaRng::seed_from_u64(2);
    let db = database(N, BLOCK);
    let mut ram =
        DpRam::setup(DpRamConfig { n: N, stash_probability: 0.0 }, &db, SimServer::new(), &mut rng)
            .unwrap();
    ram.server_mut().write(3, vec![0u8; 2]).unwrap();
    assert!(matches!(ram.read(3, &mut rng), Err(DpRamError::Crypto(_))));
}

/// Path ORAM with a corrupted bucket: typed storage error.
#[test]
fn path_oram_detects_corrupted_bucket() {
    let mut rng = ChaChaRng::seed_from_u64(3);
    let db = database(N, BLOCK);
    let mut oram =
        PathOram::setup(PathOramConfig::recommended(N, BLOCK), &db, SimServer::new(), &mut rng);
    // Corrupt the root bucket — every path includes it.
    let cell = oram.server_mut().read(0).unwrap();
    let mut bad = cell;
    bad[10] ^= 0xFF;
    oram.server_mut().write(0, bad).unwrap();
    assert!(oram.read(0, &mut rng).is_err());
}

/// DP-KVS with a corrupted node cell: typed error from the bucket RAM.
#[test]
fn dp_kvs_detects_corrupted_node() {
    let mut rng = ChaChaRng::seed_from_u64(4);
    // p = 0 pins every bucket query to its own path (no stash, no decoys),
    // so the next get always decrypts a corrupted cell.
    let config = DpKvsConfig { stash_probability: 0.0, ..DpKvsConfig::recommended(N, 8) };
    let mut kvs = DpKvs::setup(config, SimServer::new(), &mut rng).unwrap();
    kvs.put(42, vec![7u8; 8], &mut rng).unwrap();
    corrupt_every_cell(kvs.server_mut());
    assert!(kvs.get(42, &mut rng).is_err(), "corrupted nodes must not decrypt");
}

/// At the recommended stash probability a get may be served entirely from
/// the client stash and never touch a corrupted cell, so it may succeed —
/// but only with the correct value: every get is an error or the truth.
#[test]
fn dp_kvs_corruption_never_yields_a_wrong_value() {
    let mut errors = 0;
    for seed in 0..200 {
        let mut rng = ChaChaRng::seed_from_u64(seed);
        let mut kvs =
            DpKvs::setup(DpKvsConfig::recommended(N, 8), SimServer::new(), &mut rng).unwrap();
        kvs.put(42, vec![7u8; 8], &mut rng).unwrap();
        corrupt_every_cell(kvs.server_mut());
        match kvs.get(42, &mut rng) {
            Ok(value) => assert_eq!(value, Some(vec![7u8; 8]), "seed {seed}: wrong value"),
            Err(_) => errors += 1,
        }
    }
    assert!(errors > 0, "corruption must be detected on most seeds");
}

/// Flips one bit in every server cell.
fn corrupt_every_cell(server: &mut SimServer) {
    for addr in 0..server.capacity() {
        let mut bad = server.read(addr).unwrap();
        bad[0] ^= 1;
        server.write(addr, bad).unwrap();
    }
}

/// The verified server catches an adversary that rewrites both the cells
/// and the (untrusted) Merkle tree.
#[test]
fn verified_server_defeats_tree_rewriting_adversary() {
    let cells: Vec<Vec<u8>> = (0..16).map(|i| vec![i as u8; 8]).collect();
    let mut server = VerifiedServer::init(cells.clone());

    let mut forged = cells;
    forged[11] = vec![0xEE; 8];
    server
        .adversary_cells_mut()
        .write(11, forged[11].clone())
        .unwrap();
    server.adversary_replace_tree(MerkleTree::build(&forged));

    assert_eq!(server.read(11), Err(VerifiedError::IntegrityViolation { addr: 11 }));
    // With the whole (untrusted) tree forged, proofs for untouched cells
    // no longer chain to the trusted root either — conservative rejection
    // is the correct behavior, not a false negative.
    assert_eq!(server.read(3), Err(VerifiedError::IntegrityViolation { addr: 3 }));
}

/// Hardened DP-RAM: all three active attacks produce `Tampering` with the
/// detecting layer identified; honest operation continues unaffected on a
/// fresh instance.
#[test]
fn hardened_ram_attack_matrix() {
    let db = database(N, BLOCK);
    let config = DpRamConfig { n: N, stash_probability: 0.0 };

    // Corruption.
    let mut rng = ChaChaRng::seed_from_u64(5);
    let mut ram = HardenedDpRam::setup(config, &db, &mut rng).unwrap();
    let cell = ram.server_mut().adversary_cells_mut().read(7).unwrap();
    let mut bad = cell;
    bad[20] ^= 2;
    ram.server_mut().adversary_cells_mut().write(7, bad).unwrap();
    assert!(matches!(
        ram.read(7, &mut rng),
        Err(HardenedRamError::Tampering { addr: 7, detected_by: TamperDetection::MerkleRoot })
    ));

    // Swap.
    let mut rng = ChaChaRng::seed_from_u64(6);
    let mut ram = HardenedDpRam::setup(config, &db, &mut rng).unwrap();
    let a = ram.server_mut().adversary_cells_mut().read(1).unwrap();
    let b = ram.server_mut().adversary_cells_mut().read(2).unwrap();
    ram.server_mut().adversary_cells_mut().write(1, b).unwrap();
    ram.server_mut().adversary_cells_mut().write(2, a).unwrap();
    assert!(matches!(ram.read(1, &mut rng), Err(HardenedRamError::Tampering { addr: 1, .. })));

    // Rollback.
    let mut rng = ChaChaRng::seed_from_u64(7);
    let mut ram = HardenedDpRam::setup(config, &db, &mut rng).unwrap();
    let stale = ram.server_mut().adversary_cells_mut().read(4).unwrap();
    ram.write(4, vec![0xAB; BLOCK], &mut rng).unwrap();
    ram.server_mut().adversary_cells_mut().write(4, stale).unwrap();
    assert!(matches!(ram.read(4, &mut rng), Err(HardenedRamError::Tampering { addr: 4, .. })));
}

/// After a detected attack the client state is still usable for other
/// addresses (errors are per-access, not poisoning).
#[test]
fn detection_does_not_poison_other_addresses() {
    let db = database(N, BLOCK);
    let mut rng = ChaChaRng::seed_from_u64(8);
    let mut ram =
        HardenedDpRam::setup(DpRamConfig { n: N, stash_probability: 0.0 }, &db, &mut rng).unwrap();
    let cell = ram.server_mut().adversary_cells_mut().read(30).unwrap();
    let mut bad = cell;
    bad[15] ^= 4;
    ram.server_mut().adversary_cells_mut().write(30, bad).unwrap();
    assert!(ram.read(30, &mut rng).is_err());
    for i in [0usize, 5, 29, 31, 63] {
        assert_eq!(
            ram.read(i, &mut rng).unwrap(),
            db[i],
            "untampered address {i} must still read correctly"
        );
    }
}
