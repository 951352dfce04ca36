//! Hardware memory-protection engines for the TNPU reproduction.
//!
//! The paper compares three ways of protecting the DRAM an integrated NPU
//! shares with the CPU:
//!
//! * **Unsecure** ([`unsecure::UnsecureEngine`]) — no protection; the
//!   normalization baseline of every figure.
//! * **Baseline** ([`tree_engine::TreeBasedEngine`]) — the conventional CPU
//!   scheme: counter-mode encryption, per-block MACs, and a 64-ary
//!   split-counter integrity tree (SC-64) over the whole DRAM, with a 4 KB
//!   counter cache, 4 KB hash cache and 8 KB MAC cache (§III-B, §V-A).
//! * **TNPU** ([`treeless_engine::TreelessEngine`]) — the paper's
//!   contribution: AES-XTS encryption (counter-less), per-block MACs that
//!   embed a *software-managed version number*, and a small tree-protected
//!   128 MB fully-protected region holding the version table (§IV-C).
//! * **Encrypt-only** ([`encrypt_only::EncryptOnlyEngine`]) — scalable-SGX
//!   style ablation: AES-XTS with no integrity protection at all (§II-B
//!   "Memory encryption without integrity protection").
//!
//! All four implement [`engine::ProtectionEngine`], which reports per-access
//! metadata traffic and exposed miss latency; the NPU simulator folds those
//! into transfer times. The [`functional`] module implements the same
//! schemes over real bytes (using [`tnpu_crypto`]) so the security claims
//! are testable, with genuine SC-64 split counters ([`counters`]) including
//! minor-overflow page re-encryption.

pub mod adversary;
pub mod config;
pub mod counters;
pub mod encrypt_only;
pub mod engine;
pub mod faults;
pub mod functional;
pub mod layout;
pub mod span;
pub mod tree;
pub mod tree_engine;
pub mod treeless_engine;
pub mod unsecure;

pub use config::ProtectionConfig;
pub use engine::{AccessCost, EngineStats, ProtectionEngine};

/// Which protection scheme an engine implements — used by experiment
/// harnesses to label results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// No memory protection (normalization baseline).
    Unsecure,
    /// Counter-mode encryption + SC-64 counter tree + MACs (prior work).
    TreeBased,
    /// AES-XTS + versioned MACs + software version table (the paper).
    Treeless,
    /// AES-XTS only, no integrity (scalable-SGX-style ablation).
    EncryptOnly,
}

impl SchemeKind {
    /// All schemes, in the order figures present them.
    pub const ALL: [SchemeKind; 4] = [
        SchemeKind::Unsecure,
        SchemeKind::TreeBased,
        SchemeKind::Treeless,
        SchemeKind::EncryptOnly,
    ];

    /// Short label used in experiment tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SchemeKind::Unsecure => "unsecure",
            SchemeKind::TreeBased => "baseline",
            SchemeKind::Treeless => "tnpu",
            SchemeKind::EncryptOnly => "encrypt-only",
        }
    }
}

impl std::fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Construct the engine for `kind` under `config`.
///
/// # Examples
///
/// ```
/// use tnpu_memprot::{build_engine, ProtectionConfig, SchemeKind};
/// let engine = build_engine(SchemeKind::Treeless, &ProtectionConfig::paper_default());
/// assert_eq!(engine.scheme(), SchemeKind::Treeless);
/// ```
#[must_use]
pub fn build_engine(kind: SchemeKind, config: &ProtectionConfig) -> Box<dyn ProtectionEngine> {
    match kind {
        SchemeKind::Unsecure => Box::new(unsecure::UnsecureEngine::new()),
        SchemeKind::TreeBased => Box::new(tree_engine::TreeBasedEngine::new(config.clone())),
        SchemeKind::Treeless => Box::new(treeless_engine::TreelessEngine::new(config.clone())),
        SchemeKind::EncryptOnly => Box::new(encrypt_only::EncryptOnlyEngine::new(config.clone())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::BTreeSet<_> =
            SchemeKind::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), SchemeKind::ALL.len());
    }

    #[test]
    fn build_engine_reports_scheme() {
        let cfg = ProtectionConfig::paper_default();
        for kind in SchemeKind::ALL {
            assert_eq!(build_engine(kind, &cfg).scheme(), kind);
        }
    }

    #[test]
    fn context_state_scales_with_protection() {
        // The per-context engine state a context switch must move: zero
        // for unsecure, keys-only for encrypt-only, keys + root or keys +
        // NELRANGE for the integrity schemes.
        let cfg = ProtectionConfig::paper_default();
        let bytes = |kind| build_engine(kind, &cfg).context_state_bytes();
        assert_eq!(bytes(SchemeKind::Unsecure), 0);
        assert_eq!(bytes(SchemeKind::EncryptOnly), 32);
        assert_eq!(bytes(SchemeKind::TreeBased), 48);
        assert_eq!(bytes(SchemeKind::Treeless), 64);
    }

    #[test]
    fn beat_cycles_prices_data_metadata_latency_and_stalls() {
        use tnpu_sim::dram::{BandwidthModel, DramTiming};
        let bw = BandwidthModel::bytes_per_cycle(22, 1);
        let dram = DramTiming::paper_default();
        let free = AccessCost::FREE.beat_cycles(64, &bw, &dram, tnpu_sim::Cycles::ZERO);
        // 64 B at 22 B/cyc (3 cycles, rounded up) + 100 DRAM latency.
        assert_eq!(free, 103);
        let costly = AccessCost {
            meta_bytes: 64,
            independent_misses: 0,
            serial_misses: 2,
        }
        .beat_cycles(64, &bw, &dram, tnpu_sim::Cycles(13));
        assert!(costly > free + 13, "metadata and stalls are visible");
    }
}
