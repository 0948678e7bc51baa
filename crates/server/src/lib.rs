//! The balls-and-bins storage server model (Definition 3.1 of the paper).
//!
//! The paper's lower bounds and constructions all live in a model where the
//! server is *passive storage*: the client may only download the cell at an
//! address or upload a cell to an address. Everything the adversary learns
//! is the **transcript** — the sequence of addresses touched (cell contents
//! are ciphertexts, handled as opaque bytes here).
//!
//! [`SimServer`] is an in-process simulation of that model. It stores opaque
//! cells, optionally records the full adversarial transcript
//! ([`transcript::Transcript`]), and keeps running cost counters
//! ([`stats::CostStats`]: operations, bytes, round trips) so that every
//! overhead claim in the paper is measurable.
//!
//! For PIR-style baselines the model is extended with one *active* server
//! operation, [`Storage::xor_cells`], which models "the server operates on
//! these records" and is charged one operation per record touched — exactly
//! the accounting used by Theorems 3.3/3.4.
//!
//! [`multi::ReplicatedServers`] replicates a database over `D` servers for
//! the multi-server DP-IR setting of Appendix C.
//!
//! The charging rules — bounds checks, [`CostStats`] (including the
//! partial charge of a batch that fails midway) and the transcript — live
//! in one place: [`Metered`] implements [`Storage`] once over a
//! byte-moving [`Backend`] ([`metered`] spells the rules out).
//! [`SimServer`] is `Metered<CellStore>`, and [`ShardedServer`] and
//! [`DiskStore`] are `Metered` over their backends. The independent oracle
//! is test-only: the `store_equivalence` suite's `ReferenceServer`, a
//! per-cell model with its own charging and recording order, against
//! which every backend is checked.
//!
//! [`DiskStore`] is the durable backend: the same [`Storage`] surface over
//! a write-ahead-logged arena file, so a restarted daemon serves the same
//! cells ([`disk`] for the protocol, [`crashsim`] for the deterministic
//! crash-injection harness that pins its recovery guarantees).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch_crypto;
mod cache;
pub mod cells;
pub mod crashsim;
pub mod disk;
pub mod latency;
pub mod metered;
pub mod multi;
pub mod pool;
pub mod server;
pub mod shard;
pub mod stats;
pub mod storage;
pub mod store;
pub mod transcript;
pub mod verified;
pub mod wal;

pub use crashsim::{CrashFile, CrashSim};
pub use disk::{DiskFile, DiskOptions, DiskStore, RealVfs, SyncPolicy, Vfs};
pub use latency::NetworkModel;
pub use metered::{Backend, Metered};
pub use multi::ReplicatedServers;
pub use pool::WorkerPool;
pub use server::{ServerError, SimServer};
pub use shard::ShardedServer;
pub use stats::CostStats;
pub use storage::Storage;
pub use store::CellStore;
pub use transcript::{AccessEvent, Transcript};
pub use verified::{VerifiedError, VerifiedServer};
pub use wal::DiskError;
