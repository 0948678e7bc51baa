//! Runs every workload end to end at the smoke-test size for a few hundred
//! operations: the daemon in its own process, every answer checked.
//! Asserts that no operation fails and that, for a fixed seed, the counts
//! the per-layer split rests on (round trips, cells, wire bytes, cache
//! hits and misses, checkpoints) repeat exactly.

use std::process::Command;

const OPS: &str = "300";

/// Runs the benchmark and returns the last stdout line (the JSON result).
fn run(workload: &str, seed: u64, trace: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", "60"])
        .args(["--trace", if trace { "1" } else { "0" }, "--ops", OPS, "--small"])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} exited with {}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

/// The value of metric `name` in a result line.
fn metric(result: &str, name: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let start = result
        .find(&key)
        .unwrap_or_else(|| panic!("no metric {name} in {result}"))
        + key.len();
    let len = result[start..].find(',').expect("value is followed by its unit");
    result[start..start + len].parse().expect("numeric value")
}

/// Checks the result's header keys and that nothing failed.
fn assert_clean(result: &str) {
    assert!(result.starts_with("{\"correct\": true, \"attempted\": "), "{result}");
    assert!(result.contains("\"failed\": 0, \"metrics\": {"), "{result}");
}

const END_TO_END: [&str; 8] = [
    "setup_s",
    "op_p50_us",
    "op_p90_us",
    "ops_per_s",
    "bw_overhead_x",
    "space_x",
    "client_rss_mb",
    "server_rss_mb",
];

/// Counts that depend only on the seed.
const EXACT: [&str; 11] = [
    "net.calls_per_op",
    "net.bytes_up_per_op",
    "net.bytes_down_per_op",
    "server.cells_down_per_op",
    "server.cells_up_per_op",
    "cache.hit_ratio",
    "cache.misses_per_op",
    "cache.evictions_per_op",
    "wal.checkpoints_per_kop",
    "core.stash_cells",
    "core.ir_none_frac",
];

fn check(workload: &str, calls_per_op: f64, cells: (f64, f64)) {
    let e2e = run(workload, 7, false);
    assert_clean(&e2e);
    for name in END_TO_END {
        assert!(metric(&e2e, name) > 0.0, "{workload}: {name} is not positive in {e2e}");
    }

    let first = run(workload, 7, true);
    let second = run(workload, 7, true);
    assert_clean(&first);
    assert_clean(&second);
    assert_eq!(metric(&first, "op_fail_frac"), 0.0);
    for name in EXACT {
        assert_eq!(metric(&first, name), metric(&second, name), "{workload}: {name} differs");
    }
    assert_eq!(metric(&first, "net.calls_per_op"), calls_per_op, "{workload}");
    assert_eq!(metric(&first, "server.cells_down_per_op"), cells.0, "{workload}");
    assert_eq!(metric(&first, "server.cells_up_per_op"), cells.1, "{workload}");
    let coverage = metric(&first, "trace.coverage_pct");
    assert!((90.0..=100.0).contains(&coverage), "{workload}: coverage {coverage}");
}

#[test]
fn ram_disk() {
    // DP-RAM: two downloads and one upload, one round trip each.
    check("ram_disk", 3.0, (2.0, 1.0));
}

#[test]
fn kvs_mem() {
    // DP-KVS at capacity 256: four bucket queries over depth-4 paths, one
    // round trip per phase.
    check("kvs_mem", 12.0, (32.0, 16.0));
}

#[test]
fn ir_disk() {
    // DP-IR at ε = ln n: one record, one round trip.
    check("ir_disk", 1.0, (1.0, 0.0));
}
