//! Cross-process end-to-end benchmark of DP-RAM, DP-KVS and DP-IR over the
//! real storage daemon.
//!
//! ```text
//! perfbench --workload ram_disk|kvs_mem|ir_disk --seed N --seconds S --trace 0|1
//!           [--ops N] [--small]
//! perfbench serve --backend disk|mem [--cache-bytes N] --store-root DIR [--cpu N]
//! ```
//!
//! The first form is the driver. It re-executes itself in the second form
//! as the daemon process (the two pinned to different CPUs), sets the scheme up over a `RemoteServer` (three
//! times; `setup_s` is the median), warms up, then runs a closed loop of
//! one client with one operation in flight, checking every answer against
//! a client-side model. `--trace 0` prints the end-to-end metrics;
//! `--trace 1` alternates untraced and traced blocks and prints the
//! per-layer split. `--ops` measures a fixed number of operations instead
//! of `--seconds`, and `--small` shrinks the data (both for the smoke
//! test). Every metric is printed as a `# metric` line; the last line of
//! stdout is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! The exit code is 0 only if every answer was correct.

mod child;
mod driver;
mod host;
mod probe;
mod serve;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use driver::{Config, Outcome};
use serve::BackendKind;
use workload::Workload;

const USAGE: &str = "usage: perfbench --workload ram_disk|kvs_mem|ir_disk --seed N --seconds S \
                     --trace 0|1 [--ops N] [--small]\n       \
                     perfbench serve --backend disk|mem [--cache-bytes N] --store-root DIR [--cpu N]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("serve") {
        parse_serve(&args[1..])
            .and_then(|(kind, root, cpu)| serve::serve(kind, &root, cpu))
            .map(|()| true)
    } else {
        parse_bench(&args)
            .and_then(|cfg| driver::run(&cfg))
            .map(|outcome| report(&outcome))
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Flag/value pairs; `--small` is the one bare flag.
fn flags(args: &[String]) -> Result<Vec<(&str, &str)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--small" {
            out.push(("--small", ""));
            continue;
        }
        if !flag.starts_with("--") {
            return Err(format!("unexpected argument {flag:?}\n{USAGE}"));
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        out.push((flag.as_str(), value.as_str()));
    }
    Ok(out)
}

fn num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: cannot parse {value:?}"))
}

fn parse_bench(args: &[String]) -> Result<Config, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut ops, mut small) = (None, false);
    for (flag, value) in flags(args)? {
        match flag {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(num(flag, value)?),
            "--seconds" => seconds = Some(num::<f64>(flag, value)?),
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            "--ops" => ops = Some(num(flag, value)?),
            "--small" => small = true,
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    let missing = |name: &str| format!("missing --{name}\n{USAGE}");
    let seconds = seconds.ok_or_else(|| missing("seconds"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, not {seconds}"));
    }
    if ops == Some(0) {
        return Err("--ops must be positive".into());
    }
    Ok(Config {
        workload: workload.ok_or_else(|| missing("workload"))?,
        seed: seed.ok_or_else(|| missing("seed"))?,
        seconds,
        trace: trace.ok_or_else(|| missing("trace"))?,
        ops,
        small,
    })
}

fn parse_serve(args: &[String]) -> Result<(BackendKind, PathBuf, Option<usize>), String> {
    let (mut backend, mut cache_bytes, mut root, mut cpu) = (None, None, None, None);
    for (flag, value) in flags(args)? {
        match flag {
            "--cpu" => cpu = Some(num(flag, value)?),
            "--backend" => backend = Some(value.to_string()),
            "--cache-bytes" => cache_bytes = Some(num::<usize>(flag, value)?),
            "--store-root" => root = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    let kind = match backend.as_deref() {
        Some("disk") => BackendKind::Disk {
            cache_bytes: cache_bytes.ok_or("--backend disk needs --cache-bytes")?,
        },
        Some("mem") => BackendKind::Mem,
        _ => return Err(format!("--backend must be disk or mem\n{USAGE}")),
    };
    Ok((kind, root.ok_or("missing --store-root")?, cpu))
}

/// Prints the metrics and the result line; true if every answer was
/// correct.
fn report(outcome: &Outcome) -> bool {
    let correct = outcome.failed == 0 && outcome.first_error.is_none();
    if let Some(e) = &outcome.first_error {
        eprintln!("perfbench: first failure: {e}");
    }
    if outcome.metrics.iter().all(|(name, ..)| *name != "op_fail_frac") {
        // An end-to-end figure, kept out of the result line: a value that
        // is 0 on every correct run cannot carry a relative bound.
        let frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
        println!("# metric op_fail_frac = {frac} ratio");
    }
    let mut json = String::new();
    for (i, (name, value, unit)) in outcome.metrics.iter().enumerate() {
        println!("# metric {name} = {value} {unit}");
        let sep = if i == 0 { "" } else { ", " };
        json.push_str(&format!("{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        outcome.attempted, outcome.failed
    );
    correct
}
