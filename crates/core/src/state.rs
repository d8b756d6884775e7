//! Per-node protocol state: roles, proxy records, per-epoch bookkeeping.

use std::collections::{BTreeMap, BTreeSet};

/// Final verdict of a node (Algorithm 1 line 4 / Algorithm 2 lines 5+9).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// The node raised its flag: it is the unique leader (w.h.p.).
    Leader,
    /// The node declared itself non-leader.
    NonLeader,
}

/// A node's record of serving as proxy for one contender.
///
/// "We define proxies of node `u` as the nodes where the random walks
/// generated by `u` complete `t_u` steps, where `t_u` is either `u`'s
/// current or final guess" — `finalized` distinguishes the two.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProxyRecord {
    /// Epoch of the walks that ended here.
    pub epoch: u32,
    /// How many of the origin's walks ended here (`count == 1` ⇔ this is
    /// a *distinct* proxy in the Distinctness Property).
    pub count: u32,
    /// The origin committed to this epoch as its final guess.
    pub finalized: bool,
}

impl ProxyRecord {
    /// Whether this record participates in the current epoch's exchange:
    /// final records always do; tentative ones only during their epoch.
    pub fn valid_at(&self, current_epoch: u32) -> bool {
        self.finalized || self.epoch == current_epoch
    }
}

/// What a contender measured in one epoch (drives the E2/E3 experiment
/// tables).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EpochRecord {
    /// Epoch index.
    pub epoch: u32,
    /// Walk length `t_u` guessed in this epoch.
    pub walk_len: u32,
    /// Proxies that replied in round 1.
    pub proxy_replies: usize,
    /// Distinct proxies among them (`count == 1`).
    pub distinct_proxies: usize,
    /// `|I2|`: other contenders discovered adjacent.
    pub i2_len: usize,
    /// Whether both properties held at the decide point.
    pub satisfied: bool,
}

/// Mutable state of a contender across epochs.
#[derive(Clone, Debug, Default)]
pub struct ContenderState {
    /// Still guessing-and-doubling (has not stopped).
    pub active: bool,
    /// Round-1 data of the current epoch: proxy id → walk count there.
    /// Ordered container: `distinct_proxies` iterates it, and seeded-path
    /// iteration order must be deterministic (`welle-lint: no-hash-iter`).
    pub proxy_counts: BTreeMap<u64, u32>,
    /// `I2`: union of received `I1` fragments (other contenders' ids).
    pub i2: BTreeSet<u64>,
    /// Round-3 data: the largest id received, i.e. `max(I4)`. The
    /// decision reads `I4` only through its maximum.
    pub i4_max: Option<u64>,
    /// The epoch at which this contender stopped, once it has.
    pub stopped_epoch: Option<u32>,
    /// Hit the walk-length cap without satisfying the properties.
    pub gave_up: bool,
    /// Per-epoch measurements.
    pub history: Vec<EpochRecord>,
}

impl ContenderState {
    /// Fresh, active contender state.
    pub fn new() -> Self {
        ContenderState {
            active: true,
            ..ContenderState::default()
        }
    }

    /// Clears the per-epoch accumulators at an epoch start.
    pub fn begin_epoch(&mut self) {
        self.proxy_counts.clear();
        self.i2.clear();
        self.i4_max = None;
    }

    /// Number of distinct proxies reported this epoch.
    pub fn distinct_proxies(&self) -> usize {
        self.proxy_counts.values().filter(|&&c| c == 1).count()
    }
}

/// Diagnostic counters (all zero in healthy runs; surfaced in reports).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Walk tokens dropped because their trail was stale or finalized
    /// elsewhere.
    pub dropped_tokens: u64,
    /// Reverse/forward routing lookups that found no trail.
    pub broken_routes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proxy_record_validity() {
        let tentative = ProxyRecord {
            epoch: 3,
            count: 2,
            finalized: false,
        };
        assert!(tentative.valid_at(3));
        assert!(!tentative.valid_at(4));
        let final_rec = ProxyRecord {
            finalized: true,
            ..tentative
        };
        assert!(final_rec.valid_at(7));
    }

    #[test]
    fn distinct_proxy_counting() {
        let mut c = ContenderState::new();
        c.proxy_counts.insert(10, 1);
        c.proxy_counts.insert(11, 3);
        c.proxy_counts.insert(12, 1);
        assert_eq!(c.distinct_proxies(), 2);
        c.begin_epoch();
        assert_eq!(c.distinct_proxies(), 0);
        assert!(c.active);
    }

    #[test]
    fn begin_epoch_keeps_history() {
        let mut c = ContenderState::new();
        c.history.push(EpochRecord {
            epoch: 0,
            walk_len: 1,
            proxy_replies: 5,
            distinct_proxies: 5,
            i2_len: 0,
            satisfied: false,
        });
        c.i2.insert(42);
        c.begin_epoch();
        assert_eq!(c.history.len(), 1);
        assert!(c.i2.is_empty());
    }
}
