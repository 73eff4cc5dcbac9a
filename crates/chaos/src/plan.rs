//! Seeded fault plans: the chaos side of the cluster's
//! [`FaultInjector`] seam.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cbs_cluster::{FaultAction, FaultInjector};
use cbs_common::{NodeId, SeqNo, VbId};

use crate::mix_all;

/// Knobs for a [`FaultPlan`]. All percentages are 0..=100 and
/// `drop_pct + delay_pct + dup_pct` must stay ≤ 100 (the remainder is the
/// clean-delivery probability).
#[derive(Debug, Clone, Copy)]
pub struct FaultSpec {
    /// Seed every decision derives from. Printed on failure; setting the
    /// same seed replays the same fault pattern.
    pub seed: u64,
    /// Chance a replication delivery is dropped (connection reset: the
    /// pump tears its streams down and redelivers from the replicas' high
    /// seqnos).
    pub drop_pct: u8,
    /// Chance a replication delivery is delayed. The pump holds that
    /// destination's tail, in order, for ⌈delay / 1 ms⌉ pump cycles
    /// (`cbs_cluster::replication::IDLE_SLEEP` per cycle) while other
    /// destinations keep flowing; a stream rebuild discards the hold and
    /// redelivers.
    pub delay_pct: u8,
    /// Chance a replication delivery is applied twice (dedup exercise).
    pub dup_pct: u8,
    /// Upper bound for injected replication delays.
    pub max_delay: Duration,
    /// Chance a client dispatch stalls before reaching the node (slow-node
    /// emulation).
    pub stall_pct: u8,
    /// Upper bound for injected client stalls.
    pub max_stall: Duration,
    /// A given (vb, seqno, destination) delivery site is dropped at most
    /// this many times, then delivered — faults stay transient so healed
    /// clusters always converge.
    pub max_drops_per_site: u32,
}

impl FaultSpec {
    /// No faults at all (baseline runs).
    pub fn quiet(seed: u64) -> FaultSpec {
        FaultSpec {
            seed,
            drop_pct: 0,
            delay_pct: 0,
            dup_pct: 0,
            max_delay: Duration::ZERO,
            stall_pct: 0,
            max_stall: Duration::ZERO,
            max_drops_per_site: 0,
        }
    }

    /// The standard lossy-network profile used by the integration suites:
    /// drops, delays, duplicates and client stalls all active.
    pub fn lossy(seed: u64) -> FaultSpec {
        FaultSpec {
            seed,
            drop_pct: 15,
            delay_pct: 20,
            dup_pct: 10,
            max_delay: Duration::from_millis(3),
            stall_pct: 5,
            max_stall: Duration::from_millis(2),
            max_drops_per_site: 2,
        }
    }

    /// Delay/duplicate-heavy profile with no drops (reordering pressure
    /// without stream resets).
    pub fn jittery(seed: u64) -> FaultSpec {
        FaultSpec {
            drop_pct: 0,
            delay_pct: 45,
            dup_pct: 25,
            max_delay: Duration::from_millis(4),
            ..FaultSpec::lossy(seed)
        }
    }
}

/// A deterministic fault plan. Decisions are pure functions of
/// `(spec.seed, site identity)`; the only mutable state is the `armed`
/// switch (so the harness can heal the cluster after the workload) and a
/// per-dispatch counter that individualises client-stall rolls.
#[derive(Debug)]
pub struct FaultPlan {
    spec: FaultSpec,
    armed: AtomicBool,
    dispatches: AtomicU64,
}

const REPL_SALT: u64 = 0x7265_706c; // "repl"
const STALL_SALT: u64 = 0x7374_616c; // "stal"
const DELAY_SALT: u64 = 0x646c_6179; // "dlay"

impl FaultPlan {
    /// Build a plan from a spec.
    pub fn new(spec: FaultSpec) -> Arc<FaultPlan> {
        Arc::new(FaultPlan { spec, armed: AtomicBool::new(true), dispatches: AtomicU64::new(0) })
    }

    /// The spec this plan runs.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Stop injecting faults (heal phase: every subsequent decision is a
    /// clean delivery).
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::SeqCst);
    }

    /// Re-enable fault injection.
    pub fn arm(&self) {
        self.armed.store(true, Ordering::SeqCst);
    }
}

impl FaultInjector for FaultPlan {
    fn repl_delivery(&self, vb: VbId, seqno: SeqNo, dst: NodeId, attempt: u32) -> FaultAction {
        if !self.armed.load(Ordering::SeqCst) {
            return FaultAction::Deliver;
        }
        let h = mix_all(&[
            self.spec.seed,
            REPL_SALT,
            u64::from(vb.0),
            seqno.0,
            u64::from(dst.0),
            u64::from(attempt),
        ]);
        let roll = (h % 100) as u8;
        if roll < self.spec.drop_pct {
            // Re-dropping every retry would stall convergence forever;
            // cap per-site drops so the redelivery eventually lands.
            if attempt < self.spec.max_drops_per_site {
                return FaultAction::Drop;
            }
            return FaultAction::Deliver;
        }
        if roll < self.spec.drop_pct + self.spec.delay_pct {
            let span = self.spec.max_delay.as_micros().max(1) as u64;
            let us = mix_all(&[h, DELAY_SALT]) % span;
            return FaultAction::Delay(Duration::from_micros(us));
        }
        if roll < self.spec.drop_pct + self.spec.delay_pct + self.spec.dup_pct {
            return FaultAction::Duplicate;
        }
        FaultAction::Deliver
    }

    fn client_dispatch(&self, node: NodeId, vb: VbId) -> Option<Duration> {
        if !self.armed.load(Ordering::SeqCst) || self.spec.stall_pct == 0 {
            return None;
        }
        // The dispatch counter makes successive calls to the same (node,
        // vb) site roll independently. Its value depends on worker-thread
        // interleaving, but stalls only perturb *timing*, never the
        // decisions the consistency checker judges — the replayed seed
        // still exercises the same drop/delay/duplicate pattern.
        let n = self.dispatches.fetch_add(1, Ordering::Relaxed);
        let h = mix_all(&[self.spec.seed, STALL_SALT, u64::from(node.0), u64::from(vb.0), n]);
        if (h % 100) as u8 >= self.spec.stall_pct {
            return None;
        }
        let span = self.spec.max_stall.as_micros().max(1) as u64;
        Some(Duration::from_micros(mix_all(&[h, DELAY_SALT]) % span))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_functions_of_seed_and_site() {
        let a = FaultPlan::new(FaultSpec::lossy(7));
        let b = FaultPlan::new(FaultSpec::lossy(7));
        for vb in 0..64u16 {
            for s in 1..20u64 {
                for attempt in 0..3u32 {
                    assert_eq!(
                        a.repl_delivery(VbId(vb), SeqNo(s), NodeId(1), attempt),
                        b.repl_delivery(VbId(vb), SeqNo(s), NodeId(1), attempt),
                    );
                }
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::new(FaultSpec::lossy(1));
        let b = FaultPlan::new(FaultSpec::lossy(2));
        let differ = (0..256u64).any(|s| {
            a.repl_delivery(VbId(0), SeqNo(s), NodeId(1), 0)
                != b.repl_delivery(VbId(0), SeqNo(s), NodeId(1), 0)
        });
        assert!(differ, "seed change produced identical fault pattern");
    }

    #[test]
    fn drops_are_capped_per_site() {
        let plan = FaultPlan::new(FaultSpec { drop_pct: 100, ..FaultSpec::lossy(3) });
        // At the cap, the same site must switch to Deliver.
        assert_eq!(
            plan.repl_delivery(VbId(0), SeqNo(1), NodeId(1), 2),
            FaultAction::Deliver,
            "attempt at max_drops_per_site must deliver",
        );
        assert_eq!(plan.repl_delivery(VbId(0), SeqNo(1), NodeId(1), 0), FaultAction::Drop);
    }

    #[test]
    fn disarm_silences_everything() {
        let plan =
            FaultPlan::new(FaultSpec { drop_pct: 100, stall_pct: 100, ..FaultSpec::lossy(9) });
        plan.disarm();
        assert_eq!(plan.repl_delivery(VbId(0), SeqNo(1), NodeId(1), 0), FaultAction::Deliver);
        assert_eq!(plan.client_dispatch(NodeId(1), VbId(0)), None);
        plan.arm();
        assert_eq!(plan.repl_delivery(VbId(0), SeqNo(1), NodeId(1), 0), FaultAction::Drop);
    }
}
