//! The three workloads: their sizes, the inputs drawn from the seed, the
//! scheme set up over the remote stack, and the client-side model every
//! answer is checked against.

use std::collections::HashMap;
use std::time::Instant;

use dps_core::{DpIr, DpIrConfig, DpKvs, DpKvsConfig, DpRam, DpRamConfig};
use dps_crypto::{ChaChaRng, CIPHERTEXT_OVERHEAD};
use dps_workloads::generators::{key_universe, payload_for, uniform_ram, zipf_ir};
use dps_workloads::{Op, RamQuery, Zipf};

use crate::probe::ClientProbe;
use crate::serve::BackendKind;

/// Zipf exponent of the skewed workloads.
const ZIPF_THETA: f64 = 0.99;

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// DP-RAM (§6) over `DiskStore`: uniform indices, half writes.
    RamDisk,
    /// DP-KVS (§7) over an in-memory `ShardedServer`: Zipf keys, 90 % gets.
    KvsMem,
    /// DP-IR (§5) at ε = ln n over `DiskStore`: Zipf reads.
    IrDisk,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "ram_disk" => Some(Self::RamDisk),
            "kvs_mem" => Some(Self::KvsMem),
            "ir_disk" => Some(Self::IrDisk),
            _ => None,
        }
    }
}

/// Workload geometry. `small` is the smoke-test size.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Records (RAM, IR) or key capacity (KVS).
    pub n: usize,
    /// Record (RAM, IR) or value (KVS) bytes: the user payload of one op.
    pub record: usize,
    /// Untimed operations before the measured window.
    pub warmup_ops: usize,
    /// Length of the pre-drawn trace (replayed from the start if a run
    /// outlasts it).
    pub trace_len: usize,
}

impl Sizes {
    /// The sizes of `workload`.
    pub fn of(workload: Workload, small: bool) -> Self {
        let (n, record) = match (workload, small) {
            (Workload::KvsMem, false) => (1 << 12, 64),
            (Workload::KvsMem, true) => (1 << 8, 64),
            (_, false) => (1 << 16, 1024),
            (_, true) => (1 << 10, 1024),
        };
        // Enough warm-up for the disk workloads to fill their cell cache;
        // DP-KVS has none and is ~15x slower per op.
        let warmup_ops = match (workload, small) {
            (_, true) => 50,
            (Workload::KvsMem, false) => 1000,
            (_, false) => 5000,
        };
        let trace_len = if small { 4096 } else { 1 << 20 };
        Self { n, record, warmup_ops, trace_len }
    }

    /// The daemon backend: disk workloads get a cell cache of about an
    /// eighth of the arena.
    pub fn backend(&self, workload: Workload) -> BackendKind {
        let cell = match workload {
            Workload::RamDisk => self.record + CIPHERTEXT_OVERHEAD,
            Workload::IrDisk => self.record,
            Workload::KvsMem => return BackendKind::Mem,
        };
        BackendKind::Disk { cache_bytes: self.n * cell / 8 }
    }
}

/// Everything drawn from the seed, before anything is timed.
#[derive(Debug)]
pub struct Inputs {
    /// Mixed into every value, so the data differ between seeds.
    salt: u64,
    data: Data,
}

/// The per-workload part of [`Inputs`].
#[derive(Debug)]
enum Data {
    /// Initial blocks and the (index, op) trace.
    Ram { blocks: Vec<Vec<u8>>, trace: Vec<RamQuery> },
    /// The key universe (its first `present` keys are preloaded) and the
    /// (key, is update) trace.
    Kvs { universe: Vec<u64>, present: usize, trace: Vec<(u64, bool)> },
    /// The public database and the queried indices.
    Ir { blocks: Vec<Vec<u8>>, trace: Vec<usize> },
}

/// The `version`-th value of record `id`: distinct per (seed, id,
/// version), so a stale or misplaced answer never matches.
fn value(salt: u64, id: u64, version: u32, len: usize) -> Vec<u8> {
    let mixed = id
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(salt)
        .wrapping_add(u64::from(version).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    payload_for(mixed, len)
}

impl Inputs {
    /// Draws the inputs of `workload` from `seed`.
    pub fn draw(workload: Workload, sizes: Sizes, seed: u64) -> Self {
        let mut rng = ChaChaRng::seed_from_u64(seed);
        let salt = rng.next_u64();
        let Sizes { n, record, trace_len, .. } = sizes;
        let data = match workload {
            Workload::RamDisk => Data::Ram {
                blocks: (0..n as u64).map(|i| value(salt, i, 0, record)).collect(),
                trace: uniform_ram(n, trace_len, 0.5, &mut rng),
            },
            Workload::IrDisk => Data::Ir {
                blocks: (0..n as u64).map(|i| value(salt, i, 0, record)).collect(),
                trace: zipf_ir(n, trace_len, ZIPF_THETA, &mut rng)
                    .into_iter()
                    .map(|q| q.0)
                    .collect(),
            },
            Workload::KvsMem => {
                let universe = key_universe(n, &mut rng);
                let present = n / 2;
                // Popularity ranks are shuffled so present and absent keys
                // interleave among the hot ones.
                let mut by_rank = universe.clone();
                rng.shuffle(&mut by_rank);
                let mut present_by_rank = universe[..present].to_vec();
                rng.shuffle(&mut present_by_rank);
                let gets = Zipf::new(n, ZIPF_THETA);
                let updates = Zipf::new(present, ZIPF_THETA);
                let trace = (0..trace_len)
                    .map(|_| {
                        if rng.gen_bool(0.1) {
                            (present_by_rank[updates.sample(&mut rng)], true)
                        } else {
                            (by_rank[gets.sample(&mut rng)], false)
                        }
                    })
                    .collect();
                Data::Kvs { universe, present, trace }
            }
        };
        Self { salt, data }
    }
}

/// One scheme instance over the remote stack, with its model.
pub trait Session {
    /// Runs operation `k` of the trace. Returns the time of the scheme
    /// call alone (ns) and whether its answer matched the model.
    fn op(&mut self, k: usize) -> (u64, Result<(), String>);
    /// The scheme's storage wrapper.
    fn probe(&mut self) -> &mut ClientProbe;
    /// Client-side storage in cells (DP-RAM stash, DP-KVS stash + super
    /// root).
    fn client_cells(&self) -> usize;
    /// DP-IR answers that were the designed α miss.
    fn none_answers(&self) -> u64 {
        0
    }
    /// Live user data bytes (the base of `space_x`).
    fn user_bytes(&self) -> u64;
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Sets the scheme up over `probe` (and preloads, for DP-KVS). This is
/// the work `setup_s` times.
pub fn setup<'a>(
    inputs: &'a Inputs,
    sizes: Sizes,
    seed: u64,
    probe: ClientProbe,
) -> Result<Box<dyn Session + 'a>, String> {
    let salt = inputs.salt;
    let mut rng = ChaChaRng::seed_from_u64(seed ^ 0x5e55_1011);
    match &inputs.data {
        Data::Ram { blocks, trace } => {
            let config = DpRamConfig::recommended(sizes.n);
            let ram = DpRam::setup(config, blocks, probe, &mut rng).map_err(|e| e.to_string())?;
            Ok(Box::new(RamSession {
                ram,
                trace,
                versions: vec![0; sizes.n],
                salt,
                record: sizes.record,
                rng,
            }))
        }
        Data::Kvs { universe, present, trace } => {
            let config = DpKvsConfig::recommended(sizes.n, sizes.record);
            let mut kvs = DpKvs::setup(config, probe, &mut rng).map_err(|e| e.to_string())?;
            let mut model = HashMap::with_capacity(*present);
            for &key in &universe[..*present] {
                kvs.put(key, value(salt, key, 0, sizes.record), &mut rng)
                    .map_err(|e| format!("preload: {e}"))?;
                model.insert(key, 0u32);
            }
            Ok(Box::new(KvsSession { kvs, trace, model, salt, record: sizes.record, rng }))
        }
        Data::Ir { blocks, trace } => {
            let n = sizes.n;
            let config =
                DpIrConfig::with_epsilon(n, (n as f64).ln(), 0.1).map_err(|e| e.to_string())?;
            let ir = DpIr::setup(config, blocks, probe).map_err(|e| e.to_string())?;
            Ok(Box::new(IrSession { ir, blocks, trace, none: 0, rng }))
        }
    }
}

struct RamSession<'a> {
    ram: DpRam<ClientProbe>,
    trace: &'a [RamQuery],
    /// Model: the version last written to each record.
    versions: Vec<u32>,
    salt: u64,
    record: usize,
    rng: ChaChaRng,
}

impl Session for RamSession<'_> {
    fn op(&mut self, k: usize) -> (u64, Result<(), String>) {
        let q = self.trace[k % self.trace.len()];
        let i = q.index;
        match q.op {
            Op::Write => {
                let version = self.versions[i] + 1;
                let v = value(self.salt, i as u64, version, self.record);
                let start = Instant::now();
                let result = self.ram.write(i, v, &mut self.rng);
                let ns = elapsed_ns(start);
                if result.is_ok() {
                    self.versions[i] = version;
                }
                (ns, result.map_err(|e| format!("write {i}: {e}")))
            }
            Op::Read => {
                let start = Instant::now();
                let result = self.ram.read(i, &mut self.rng);
                let ns = elapsed_ns(start);
                let check = match result {
                    Ok(got) if got == value(self.salt, i as u64, self.versions[i], self.record) => {
                        Ok(())
                    }
                    Ok(_) => Err(format!("read {i}: wrong value")),
                    Err(e) => Err(format!("read {i}: {e}")),
                };
                (ns, check)
            }
        }
    }

    fn probe(&mut self) -> &mut ClientProbe {
        self.ram.server_mut()
    }

    fn client_cells(&self) -> usize {
        self.ram.stash_size()
    }

    fn user_bytes(&self) -> u64 {
        (self.versions.len() * self.record) as u64
    }
}

struct KvsSession<'a> {
    kvs: DpKvs<ClientProbe>,
    trace: &'a [(u64, bool)],
    /// Model: the version last written under each present key.
    model: HashMap<u64, u32>,
    salt: u64,
    record: usize,
    rng: ChaChaRng,
}

impl Session for KvsSession<'_> {
    fn op(&mut self, k: usize) -> (u64, Result<(), String>) {
        let (key, update) = self.trace[k % self.trace.len()];
        if update {
            let version = self.model.get(&key).map_or(0, |v| v + 1);
            let v = value(self.salt, key, version, self.record);
            let start = Instant::now();
            let result = self.kvs.put(key, v, &mut self.rng);
            let ns = elapsed_ns(start);
            if result.is_ok() {
                self.model.insert(key, version);
            }
            (ns, result.map_err(|e| format!("put {key:#x}: {e}")))
        } else {
            let start = Instant::now();
            let result = self.kvs.get(key, &mut self.rng);
            let ns = elapsed_ns(start);
            let want = self
                .model
                .get(&key)
                .map(|&v| value(self.salt, key, v, self.record));
            let check = match result {
                Ok(got) if got == want => Ok(()),
                Ok(got) => Err(format!(
                    "get {key:#x}: got {}, want {}",
                    if got.is_some() { "a value" } else { "None" },
                    if want.is_some() { "another value" } else { "None" },
                )),
                Err(e) => Err(format!("get {key:#x}: {e}")),
            };
            (ns, check)
        }
    }

    fn probe(&mut self) -> &mut ClientProbe {
        self.kvs.server_mut()
    }

    fn client_cells(&self) -> usize {
        self.kvs.client_cells()
    }

    fn user_bytes(&self) -> u64 {
        (self.model.len() * self.record) as u64
    }
}

struct IrSession<'a> {
    ir: DpIr<ClientProbe>,
    blocks: &'a [Vec<u8>],
    trace: &'a [usize],
    none: u64,
    rng: ChaChaRng,
}

impl Session for IrSession<'_> {
    fn op(&mut self, k: usize) -> (u64, Result<(), String>) {
        let i = self.trace[k % self.trace.len()];
        let start = Instant::now();
        let result = self.ir.query(i, &mut self.rng);
        let ns = elapsed_ns(start);
        let check = match result {
            Ok(Some(got)) if got == self.blocks[i] => Ok(()),
            Ok(Some(_)) => Err(format!("query {i}: wrong record")),
            Ok(None) => {
                self.none += 1;
                Ok(())
            }
            Err(e) => Err(format!("query {i}: {e}")),
        };
        (ns, check)
    }

    fn probe(&mut self) -> &mut ClientProbe {
        self.ir.server_mut()
    }

    fn client_cells(&self) -> usize {
        0
    }

    fn none_answers(&self) -> u64 {
        self.none
    }

    fn user_bytes(&self) -> u64 {
        self.blocks.iter().map(|b| b.len() as u64).sum()
    }
}
