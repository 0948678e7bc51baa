//! Integration tests pinning the paper's overhead claims as invariants,
//! measured through the server's own accounting (not the schemes'
//! self-reports).

use dp_storage::analysis::bounds;
use dp_storage::core::dp_ir::{DpIr, DpIrConfig};
use dp_storage::core::dp_kvs::{DpKvs, DpKvsConfig};
use dp_storage::core::dp_ram::{DpRam, DpRamConfig};
use dp_storage::crypto::ChaChaRng;
use dp_storage::oram::{PathOram, PathOramConfig};
use dp_storage::server::{AccessEvent, SimServer, Storage};
use dp_storage::workloads::generators::database;

/// Theorem 6.1: DP-RAM moves exactly 2 downloads + 1 upload per query at
/// every size — verified against the raw server transcript.
#[test]
fn dp_ram_transcript_is_exactly_two_downloads_one_upload() {
    for n in [16usize, 256, 2048] {
        let db = database(n, 16);
        let mut rng = ChaChaRng::seed_from_u64(n as u64);
        let mut ram =
            DpRam::setup(DpRamConfig::recommended(n), &db, SimServer::new(), &mut rng).unwrap();
        ram.server_mut().start_recording();
        for q in 0..20 {
            ram.read(q % n, &mut rng).unwrap();
        }
        let transcript = ram.server_mut().take_transcript();
        assert_eq!(transcript.round_trips(), 40, "2 RTs per query, n = {n}");
        let events: Vec<AccessEvent> = transcript.events().collect();
        assert_eq!(events.len(), 60, "3 events per query, n = {n}");
        for chunk in events.chunks(3) {
            assert!(matches!(chunk[0], AccessEvent::Download(_)));
            assert!(matches!(chunk[1], AccessEvent::Download(_)));
            assert!(matches!(chunk[2], AccessEvent::Upload(_)));
            // Overwrite phase touches one address twice (down then up).
            assert_eq!(chunk[1].address(), chunk[2].address());
        }
    }
}

/// Theorem 5.1: DP-IR's download count matches the formula, and the
/// formula in dps-analysis stays in sync with dps-core.
#[test]
fn dp_ir_k_formula_in_sync_across_crates() {
    for n in [64usize, 1024, 65536] {
        for epsilon in [1.0, 3.0, (n as f64).ln()] {
            for alpha in [0.05, 0.25] {
                let core_k = DpIrConfig::with_epsilon(n, epsilon, alpha).unwrap().k;
                let analysis_k = bounds::thm_5_1_download_count(n, epsilon, alpha);
                assert_eq!(core_k, analysis_k, "n={n} eps={epsilon} alpha={alpha}");
            }
        }
    }
}

/// The construction beats the Theorem 3.4 lower bound by at most a small
/// constant factor — asymptotic optimality, concretely.
#[test]
fn dp_ir_is_within_constant_of_lower_bound() {
    let alpha = 0.1;
    for n in [1usize << 10, 1 << 14, 1 << 18] {
        for epsilon in [2.0, (n as f64).ln() / 2.0, (n as f64).ln()] {
            let k = DpIrConfig::with_epsilon(n, epsilon, alpha).unwrap().k as f64;
            let lb = bounds::thm_3_4_ir_ops(n, epsilon, alpha, 0.0);
            assert!(k <= 4.0 * lb.max(1.0), "n={n} eps={epsilon}: K = {k} vs bound {lb}");
            assert!(k >= lb * 0.5, "construction cannot beat the bound meaningfully");
        }
    }
}

/// DP-RAM's 3 blocks/query must sit above the Theorem 3.7 bound at its own
/// epsilon — i.e. the construction is *feasible*, and at ε = Θ(log n) the
/// bound permits O(1).
#[test]
fn dp_ram_cost_is_feasible_per_thm_3_7() {
    let n = 1 << 14;
    let config = DpRamConfig::recommended(n);
    let phi = config.expected_stash().ceil() as usize;
    // At the construction's epsilon (O(log n)), the bound must be <= 3.
    let eps = config.epsilon_upper_bound();
    let bound = bounds::thm_3_7_ram_ops(n, eps, 0.0, phi.max(2));
    assert!(bound <= 3.0, "at eps = {eps:.1} the Thm 3.7 bound is {bound:.2} > 3 — contradiction");
    // At constant epsilon the bound must *exceed* 3: constant overhead
    // impossible.
    let bound_low_eps = bounds::thm_3_7_ram_ops(n, 1.0, 0.0, 4);
    assert!(bound_low_eps > 3.0, "bound at eps=1: {bound_low_eps}");
}

/// Theorem 7.5: DP-KVS server storage is O(n) cells and per-op bandwidth
/// is proportional to tree depth (Θ(log log n)), while Path ORAM pays
/// Θ(log n) — checked end to end through server counters.
#[test]
fn dp_kvs_overhead_scales_as_loglog_vs_oram_log() {
    let mut rng = ChaChaRng::seed_from_u64(4);
    let mut prev_depth = 0;
    for n in [1usize << 8, 1 << 12] {
        let config = DpKvsConfig::recommended(n, 32);
        // Server storage linear in n.
        assert!(
            config.geometry.total_nodes() <= 6 * n,
            "server cells {} not O(n = {n})",
            config.geometry.total_nodes()
        );
        let depth = config.geometry.depth();
        assert!(depth >= prev_depth, "depth must be non-decreasing in n");
        prev_depth = depth;

        let mut kvs = DpKvs::setup(config, SimServer::new(), &mut rng).unwrap();
        kvs.put(1, vec![0u8; 32], &mut rng).unwrap();
        let before = kvs.server_stats();
        kvs.get(1, &mut rng).unwrap();
        let d = kvs.server_stats().since(&before);
        let kvs_cells = d.downloads + d.uploads;
        assert_eq!(kvs_cells, 12 * depth as u64, "4 bucket queries x 3 x depth");

        // Path ORAM at the same n moves Z * levels * 2 blocks.
        let db = database(n, 32);
        let mut oram =
            PathOram::setup(PathOramConfig::recommended(n, 32), &db, SimServer::new(), &mut rng);
        let before = oram.server_stats();
        oram.read(0, &mut rng).unwrap();
        let d = oram.server_stats().since(&before);
        let oram_blocks = d.downloads + d.uploads;
        // log log n grows much slower than log n; at n = 2^12 the KVS depth
        // is ~5 while the ORAM path is 13 levels.
        assert!((depth as u64) < oram_blocks, "depth {depth} vs ORAM blocks {oram_blocks}");
    }
}

/// DP-IR at ε = ln n stays O(1) blocks while the errorless bound demands n:
/// the headline separation of the paper, end to end.
#[test]
fn errorless_vs_erroring_separation() {
    let n = 1 << 12;
    let db = database(n, 16);
    let mut rng = ChaChaRng::seed_from_u64(5);
    let config = DpIrConfig::with_epsilon(n, (n as f64).ln(), 0.1).unwrap();
    assert!(config.k <= 2, "K must be O(1) at eps = ln n");
    let mut ir = DpIr::setup(config, &db, SimServer::new()).unwrap();
    let before = ir.server_stats();
    for q in 0..50 {
        ir.query(q % n, &mut rng).unwrap();
    }
    let per_query = ir.server_stats().since(&before).downloads as f64 / 50.0;
    let errorless_bound = bounds::thm_3_3_errorless_ir_ops(n, 0.0);
    assert!(per_query * 100.0 < errorless_bound, "separation must be >= 100x at n = 4096");
}
