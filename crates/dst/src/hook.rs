//! The per-thread [`ChaosHook`] gluing `sbcc_core`'s yield points to the
//! baton scheduler, plus the seeded event-reorder fault.

use sbcc_core::{ChaosHook, ChaosPoint, TxnId};
use std::sync::{Arc, Mutex};

use crate::rng::SplitMix64;
use crate::sched::{Scheduler, TraceKind};

/// Fault-injection state shared by all of a run's hooks. Only one thread
/// runs at a time, so the lock is uncontended and the draw order is
/// deterministic.
pub struct FaultPlan {
    /// Probability (permille) that a drained event batch of ≥ 2 events is
    /// delivered in a permuted order.
    pub reorder_permille: u32,
    rng: Mutex<SplitMix64>,
}

impl FaultPlan {
    /// A plan drawing from `seed` (a dedicated stream, independent of the
    /// scheduler's picks).
    pub fn new(seed: u64, reorder_permille: u32) -> Self {
        FaultPlan {
            reorder_permille,
            rng: Mutex::new(SplitMix64::new(seed ^ 0x0FA1_7BAD_5EED)),
        }
    }

    /// A permutation of `0..txns.len()` that shuffles delivery order while
    /// **preserving the relative order of same-transaction events** (the
    /// kernel orders a single transaction's events causally; only the
    /// cross-transaction order is unordered by contract). `None` when the
    /// dice say "deliver in kernel order".
    fn reorder(&self, txns: &[TxnId]) -> Option<Vec<usize>> {
        if txns.len() < 2 {
            return None;
        }
        let mut rng = self.rng.lock().expect("fault rng");
        if !rng.permille(self.reorder_permille) {
            return None;
        }
        // Fisher–Yates over the indices…
        let mut perm: Vec<usize> = (0..txns.len()).collect();
        for i in (1..perm.len()).rev() {
            let j = rng.below(i + 1);
            perm.swap(i, j);
        }
        // …then restore per-transaction original order: for every
        // transaction, sort the positions it landed on by original index
        // (a stable per-key repair; cross-transaction placement keeps the
        // shuffle).
        let mut by_txn: std::collections::HashMap<u64, Vec<usize>> =
            std::collections::HashMap::new();
        for &orig in &perm {
            by_txn.entry(txns[orig].0).or_default().push(orig);
        }
        for positions in by_txn.values_mut() {
            positions.sort_unstable();
        }
        let mut cursor: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        let repaired: Vec<usize> = perm
            .iter()
            .map(|&orig| {
                let key = txns[orig].0;
                let c = cursor.entry(key).or_insert(0);
                let fixed = by_txn[&key][*c];
                *c += 1;
                fixed
            })
            .collect();
        Some(repaired)
    }
}

/// One session thread's hook: forwards every yield point to the shared
/// [`Scheduler`] under this thread's virtual-thread id.
pub struct DstHook {
    vt: usize,
    sched: Arc<Scheduler>,
    faults: Arc<FaultPlan>,
}

impl DstHook {
    /// The hook for virtual thread `vt`.
    pub fn new(vt: usize, sched: Arc<Scheduler>, faults: Arc<FaultPlan>) -> Self {
        DstHook { vt, sched, faults }
    }
}

impl ChaosHook for DstHook {
    fn reach(&self, point: ChaosPoint, txn: Option<TxnId>) {
        self.sched
            .yield_turn(self.vt, TraceKind::Chaos { point, txn });
    }

    fn cooperative(&self) -> bool {
        !self.sched.free_running()
    }

    fn reorder_events(&self, txns: &[TxnId]) -> Option<Vec<usize>> {
        if self.sched.free_running() {
            return None;
        }
        self.faults.reorder(txns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reorder_preserves_per_txn_order() {
        // 100% reorder rate: every call with ≥2 events permutes.
        let plan = FaultPlan::new(3, 1000);
        let txns: Vec<TxnId> = [1u64, 2, 1, 3, 2, 1].iter().map(|&i| TxnId(i)).collect();
        let mut saw_shuffle = false;
        for _ in 0..50 {
            let perm = plan.reorder(&txns).expect("rate is 1000/1000");
            // A permutation…
            let mut sorted = perm.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..txns.len()).collect::<Vec<_>>());
            // …that keeps each transaction's own events in order.
            for t in [1u64, 2, 3] {
                let positions: Vec<usize> = perm
                    .iter()
                    .copied()
                    .filter(|&orig| txns[orig].0 == t)
                    .collect();
                assert!(
                    positions.windows(2).all(|w| w[0] < w[1]),
                    "txn {t} delivered out of order: {positions:?} (perm {perm:?})"
                );
            }
            if perm != (0..txns.len()).collect::<Vec<_>>() {
                saw_shuffle = true;
            }
        }
        assert!(saw_shuffle, "50 draws never moved anything");
    }

    #[test]
    fn reorder_respects_rate_and_short_batches() {
        let plan = FaultPlan::new(3, 0);
        assert!(plan.reorder(&[TxnId(1), TxnId(2)]).is_none(), "rate 0");
        let plan = FaultPlan::new(3, 1000);
        assert!(plan.reorder(&[TxnId(1)]).is_none(), "singleton batch");
    }
}
