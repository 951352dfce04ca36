//! Run reports produced by the simulator.

use tnpu_memprot::{EngineStats, SchemeKind};
use tnpu_sim::Cycles;

/// Per-layer timing and traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerReport {
    /// Layer name.
    pub name: String,
    /// Global time at which the layer's last activity completed.
    pub finish: Cycles,
    /// Pure compute cycles of the layer (no overlap accounting).
    pub compute: Cycles,
    /// Payload bytes the layer's plan moves.
    pub data_bytes: u64,
}

/// Result of simulating one NPU's inference.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Protection scheme used.
    pub scheme: SchemeKind,
    /// End-to-end cycles for the inference.
    pub total: Cycles,
    /// Payload bytes read from DRAM.
    pub data_read: u64,
    /// Payload bytes written to DRAM.
    pub data_write: u64,
    /// Security-metadata bytes charged to this NPU's transfers.
    pub meta_bytes: u64,
    /// Statistics of the (shared) security engine over the whole run.
    pub engine: EngineStats,
    /// Per-layer breakdown.
    pub layers: Vec<LayerReport>,
}

impl RunReport {
    /// Total DRAM traffic caused by this NPU (payload + metadata).
    #[must_use]
    pub fn total_traffic(&self) -> u64 {
        self.data_traffic().saturating_add(self.meta_bytes)
    }

    /// Payload-only traffic.
    #[must_use]
    pub fn data_traffic(&self) -> u64 {
        self.data_read.saturating_add(self.data_write)
    }

    /// Execution time of this run divided by `baseline`'s — the
    /// normalization every figure in the paper uses.
    #[must_use]
    pub fn normalized_to(&self, baseline: &RunReport) -> f64 {
        self.total.as_f64() / baseline.total.as_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(total: u64, read: u64, write: u64, meta: u64) -> RunReport {
        RunReport {
            scheme: SchemeKind::Unsecure,
            total: Cycles(total),
            data_read: read,
            data_write: write,
            meta_bytes: meta,
            engine: EngineStats::default(),
            layers: Vec::new(),
        }
    }

    #[test]
    fn traffic_sums() {
        let r = report(10, 100, 50, 25);
        assert_eq!(r.data_traffic(), 150);
        assert_eq!(r.total_traffic(), 175);
    }

    #[test]
    fn normalization() {
        let base = report(100, 0, 0, 0);
        let secure = report(121, 0, 0, 0);
        assert!((secure.normalized_to(&base) - 1.21).abs() < 1e-12);
    }
}
