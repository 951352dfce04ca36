//! Traffic and event statistics shared by the memory-protection engines and
//! the NPU simulator.

use std::collections::BTreeMap;

/// Byte counters for DRAM traffic, split by purpose.
///
/// `data` is the traffic an unprotected NPU would generate; the `meta`
/// categories are the security-metadata overhead the paper's Figure 15
/// reports (counters, tree nodes, MACs, version-table accesses).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Payload bytes read from DRAM.
    pub data_read: u64,
    /// Payload bytes written to DRAM.
    pub data_write: u64,
    /// Counter-block bytes transferred (tree-based engine).
    pub counter: u64,
    /// Integrity-tree node bytes transferred (tree-based engine).
    pub tree: u64,
    /// MAC bytes transferred (both engines).
    pub mac: u64,
    /// Version-table bytes transferred to/from the fully-protected region
    /// (tree-less engine).
    pub version: u64,
}

impl TrafficStats {
    /// All payload traffic.
    #[must_use]
    pub fn data(&self) -> u64 {
        self.data_read.saturating_add(self.data_write)
    }

    /// All security-metadata traffic.
    #[must_use]
    pub fn metadata(&self) -> u64 {
        self.counter
            .saturating_add(self.tree)
            .saturating_add(self.mac)
            .saturating_add(self.version)
    }

    /// Total DRAM traffic.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.data().saturating_add(self.metadata())
    }

    /// Accumulate another record into this one. Byte counters saturate
    /// rather than wrap: a pinned counter is obviously wrong in a report,
    /// a wrapped one silently reads as low traffic.
    pub fn merge(&mut self, other: &TrafficStats) {
        self.data_read = self.data_read.saturating_add(other.data_read);
        self.data_write = self.data_write.saturating_add(other.data_write);
        self.counter = self.counter.saturating_add(other.counter);
        self.tree = self.tree.saturating_add(other.tree);
        self.mac = self.mac.saturating_add(other.mac);
        self.version = self.version.saturating_add(other.version);
    }
}

impl std::fmt::Display for TrafficStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "data {} B (r {} / w {}), ctr {} B, tree {} B, mac {} B, ver {} B",
            self.data(),
            self.data_read,
            self.data_write,
            self.counter,
            self.tree,
            self.mac,
            self.version
        )
    }
}

/// A named bag of monotonically increasing event counters.
///
/// # Examples
///
/// ```
/// use tnpu_sim::stats::EventCounters;
/// let mut ev = EventCounters::default();
/// ev.add("tree_walk", 2);
/// ev.add("tree_walk", 1);
/// assert_eq!(ev.get("tree_walk"), 3);
/// assert_eq!(ev.get("unknown"), 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventCounters {
    counters: BTreeMap<String, u64>,
}

impl EventCounters {
    /// Increment `name` by `n` (saturating). A name seen for the first
    /// time is recorded even when `n` is zero.
    pub fn add(&mut self, name: &str, n: u64) {
        // Look up before inserting: the key is allocated only on a name's
        // first insertion, not on every event.
        match self.counters.get_mut(name) {
            Some(slot) => *slot = slot.saturating_add(n),
            None => {
                self.counters.insert(name.to_owned(), n);
            }
        }
    }

    /// Current value of `name` (zero if never incremented).
    #[must_use]
    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Iterate over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Accumulate another record into this one (saturating).
    pub fn merge(&mut self, other: &EventCounters) {
        for (k, v) in &other.counters {
            let slot = self.counters.entry(k.clone()).or_insert(0);
            *slot = slot.saturating_add(*v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_totals() {
        let t = TrafficStats {
            data_read: 100,
            data_write: 50,
            counter: 10,
            tree: 5,
            mac: 20,
            version: 1,
        };
        assert_eq!(t.data(), 150);
        assert_eq!(t.metadata(), 36);
        assert_eq!(t.total(), 186);
    }

    #[test]
    fn traffic_merge() {
        let mut a = TrafficStats::default();
        let b = TrafficStats {
            data_read: 1,
            data_write: 2,
            counter: 3,
            tree: 4,
            mac: 5,
            version: 6,
        };
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.total(), 2 * b.total());
    }

    #[test]
    fn event_counters_merge() {
        let mut a = EventCounters::default();
        a.add("x", 1);
        let mut b = EventCounters::default();
        b.add("x", 2);
        b.add("y", 3);
        a.merge(&b);
        assert_eq!(a.get("x"), 3);
        assert_eq!(a.get("y"), 3);
        assert_eq!(a.iter().count(), 2);
    }

    #[test]
    fn adding_zero_still_records_a_new_name() {
        // Equality of engine stats and run reports compares the maps, so a
        // zero-valued first event must still create its entry.
        let mut a = EventCounters::default();
        a.add("x", 0);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![("x", 0)]);
        assert_ne!(a, EventCounters::default());
        a.add("x", u64::MAX);
        a.add("x", 1);
        assert_eq!(a.get("x"), u64::MAX, "saturates");
    }

    #[test]
    fn traffic_display_mentions_all_categories() {
        let t = TrafficStats::default();
        let s = t.to_string();
        for key in ["data", "ctr", "tree", "mac", "ver"] {
            assert!(s.contains(key), "missing {key} in {s}");
        }
    }
}
