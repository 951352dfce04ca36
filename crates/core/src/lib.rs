#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
//! The paper's primary contribution, as a library.
//!
//! TNPU replaces the counter tree over NPU memory with *semantic-aware,
//! software-managed version numbers*: the CPU-side enclave software knows
//! the static data flow of the DNN, so it can assign one version number
//! per tensor (or per tile while a tensor is being produced), pass it with
//! every `mvin`/`mvout`, and let the per-block MACs bind it. This crate
//! implements that software stack and the system-level models built on it:
//!
//! * [`version`] — the version table with expand / bump / merge
//!   (paper §III-C, §IV-D, Figs. 9 & 13).
//! * [`cpu_access`] — the `ts_read_*`/`ts_write_*` uncacheable CPU
//!   instructions with their 64 B block buffers (§IV-C).
//! * [`instr`] — the compiler pass of Fig. 13 (a): lowering a tiled plan
//!   into the version-annotated secure instruction stream, plus a replay
//!   checker for its consistency.
//! * [`secure_runner`] — the functional secure [`Session`]: real bytes
//!   through real crypto with version management end-to-end, one
//!   lifecycle (poisoning, recovery, epoch sweeps, suspend/resume) for
//!   both step programs; the static layer-by-layer [`Inference`] program
//!   ([`SecureRunner`](secure_runner::SecureRunner)) lives here.
//! * [`recovery`] — bounded re-fetch retry and re-encryption epoch
//!   sweeps for *environmental* faults, with every recovery cycle
//!   charged through the scheme's cost engine.
//! * [`stepped`] — the dynamic-dataflow step program: autoregressive
//!   decode whose KV caches grow their tile-version state every append,
//!   and training loops whose weight rewrites churn through version
//!   limits.
//! * [`attacks`] — the adversarial attack-injection harness: seeded
//!   attacks against full functional inferences, classified into the
//!   scheme × attack detection matrix of §III/§IV-C.
//! * [`endtoend`] — the end-to-end latency model of Fig. 17.
//! * [`hwcost`] — the hardware-overhead accounting of §V-E.
//! * [`context`] — the secure-context lifecycle of §IV-E: enclave
//!   creation, NELRANGE pages, driver assignment, attestation, IOMMU.
//! * [`serving`] — multi-tenant serving: arrival processes, FCFS and
//!   priority-preemptive scheduling over an NPU pool, and faithful
//!   context-switch cost accounting through the protection engines.
//! * [`sensor`] — the sensor-to-enclave secure ingestion of Fig. 3
//!   (encrypted, authenticated, replay-protected frames).
//! * [`system`] — the [`TnpuSystem`] facade tying everything together.
//!
//! [`Session`]: secure_runner::Session
//! [`Inference`]: secure_runner::Inference

pub mod attacks;
pub mod context;
pub mod cpu_access;
pub mod endtoend;
pub mod hwcost;
pub mod instr;
pub mod recovery;
pub mod runspec;
pub mod secure_runner;
pub mod sensor;
pub mod serving;
pub mod stepped;
pub mod system;
pub mod version;

pub use runspec::{RunResult, RunSpec};
pub use system::{SystemError, SystemReport, TnpuSystem};
pub use version::VersionTable;

/// The protection scheme selector, re-exported under the paper's
/// terminology ([`Scheme::Treeless`] is TNPU, [`Scheme::TreeBased`] the
/// prior-work baseline).
pub use tnpu_memprot::SchemeKind as Scheme;
