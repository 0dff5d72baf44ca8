//! Hot-path event counters ([`SimCounters`]).
//!
//! The propagation scratch ([`crate::GossipScratch`]) carries a
//! `SimCounters`, and both kernels that run on it bump it
//! unconditionally as events flow: the increments are branch-free integer
//! adds on values already in registers, so tallying costs nothing
//! measurable and needs no enable flag. Crucially the counters are
//! *write-only* from the simulation's point of view — no simulation
//! decision ever reads them — so they cannot perturb results; whether
//! anyone looks at them is decided higher up (the engine's telemetry
//! handle harvests them per round, or nobody does).
//!
//! Counts are plain sums and peaks are max-merges, both order-independent,
//! so harvesting across parallel workers in any merge order yields the
//! same totals as a sequential run.
//!
//! A batch serves a message equal to its predecessor from the run the
//! scratch still holds, and charges it that run's tallies, so every
//! other count reads what simulating each copy would have counted. Which
//! copies a batch serves depends on where the work was split into
//! batches, so [`SimCounters::batch_repeats`], like the two `*_peak`
//! gauges, follows the chunking.

/// Hot-path event tallies for one scratch (or one merged round).
///
/// The `gossip_*` and `batch_*` fields tally the message-level kernel,
/// the `flood_*` fields the analytic flood; `queue_peak` and the
/// `fault_*` fields tally whichever kernel ran. A scratch that runs both
/// kernels keeps one set of tallies for both.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounters {
    /// Gossip queue pops. On the label-setting kernel, the path almost
    /// every message takes: settle-key pops, stale entries included. On
    /// the event loop (a fallback): packed events popped.
    pub gossip_pops: u64,
    /// Gossip queue work avoided. On the kernel: announce legs whose
    /// label update queued no key (the neighbour had settled, or its key
    /// did not move). On the event loop: events elided as provably inert
    /// (sequence consumed, no queue traffic).
    pub gossip_elided: u64,
    /// Nodes that relayed the message: one per node that announced it to
    /// its neighbours (the same count on either path).
    pub gossip_relays: u64,
    /// Per-edge announcements: pushes and INVs alike, one per announce
    /// leg the fault lens did not drop (the same count on either path).
    pub gossip_deliveries: u64,
    /// Messages whose kernel pass met an exact INV tie and that were
    /// re-run on the event loop. Their other gossip tallies are the
    /// event loop's alone.
    pub gossip_fallbacks: u64,
    /// Analytic-flood (Dijkstra) keys popped from the queue, stale
    /// entries included.
    pub flood_pops: u64,
    /// Directed edges scanned during flood relaxation.
    pub flood_relaxations: u64,
    /// Relaxations that improved an arrival time (queue pushes).
    pub flood_improvements: u64,
    /// High-water mark of priority-queue occupancy (max-merge).
    pub queue_peak: u64,
    /// Announcements the fault lens dropped (link down or all copies
    /// lost).
    pub fault_drops: u64,
    /// Announcements that paid a slow factor, extra delay or jitter.
    pub fault_delays: u64,
    /// Announcements the fault lens duplicated.
    pub fault_dupes: u64,
    /// Messages simulated through batch gossip passes.
    pub batch_messages: u64,
    /// Largest single gossip batch (max-merge).
    pub batch_peak: u64,
    /// Batch messages served from their equal predecessor's run instead
    /// of simulated again; each is charged that run's tallies.
    pub batch_repeats: u64,
}

impl SimCounters {
    /// All-zero counters.
    pub const ZERO: SimCounters = SimCounters {
        gossip_pops: 0,
        gossip_elided: 0,
        gossip_relays: 0,
        gossip_deliveries: 0,
        gossip_fallbacks: 0,
        flood_pops: 0,
        flood_relaxations: 0,
        flood_improvements: 0,
        queue_peak: 0,
        fault_drops: 0,
        fault_delays: 0,
        fault_dupes: 0,
        batch_messages: 0,
        batch_peak: 0,
        batch_repeats: 0,
    };

    /// Folds `other` into `self`: counts add, peaks take the max. The
    /// operation is commutative and associative, so any merge order over
    /// any partition of the work gives identical totals.
    pub fn merge(&mut self, other: &SimCounters) {
        self.gossip_pops += other.gossip_pops;
        self.gossip_elided += other.gossip_elided;
        self.gossip_relays += other.gossip_relays;
        self.gossip_deliveries += other.gossip_deliveries;
        self.gossip_fallbacks += other.gossip_fallbacks;
        self.flood_pops += other.flood_pops;
        self.flood_relaxations += other.flood_relaxations;
        self.flood_improvements += other.flood_improvements;
        self.queue_peak = self.queue_peak.max(other.queue_peak);
        self.fault_drops += other.fault_drops;
        self.fault_delays += other.fault_delays;
        self.fault_dupes += other.fault_dupes;
        self.batch_messages += other.batch_messages;
        self.batch_peak = self.batch_peak.max(other.batch_peak);
        self.batch_repeats += other.batch_repeats;
    }

    /// `(name, value)` pairs for every counter, in declaration order —
    /// the bridge into a trace record without the consumer knowing the
    /// field list.
    pub fn entries(&self) -> [(&'static str, u64); 15] {
        [
            ("gossip_pops", self.gossip_pops),
            ("gossip_elided", self.gossip_elided),
            ("gossip_relays", self.gossip_relays),
            ("gossip_deliveries", self.gossip_deliveries),
            ("gossip_fallbacks", self.gossip_fallbacks),
            ("flood_pops", self.flood_pops),
            ("flood_relaxations", self.flood_relaxations),
            ("flood_improvements", self.flood_improvements),
            ("queue_peak", self.queue_peak),
            ("fault_drops", self.fault_drops),
            ("fault_delays", self.fault_delays),
            ("fault_dupes", self.fault_dupes),
            ("batch_messages", self.batch_messages),
            ("batch_peak", self.batch_peak),
            ("batch_repeats", self.batch_repeats),
        ]
    }

    /// True when nothing has been counted.
    pub fn is_zero(&self) -> bool {
        *self == SimCounters::ZERO
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_counts_and_maxes_peaks() {
        let mut a = SimCounters {
            gossip_pops: 3,
            queue_peak: 10,
            batch_peak: 2,
            ..SimCounters::ZERO
        };
        let b = SimCounters {
            gossip_pops: 4,
            queue_peak: 7,
            batch_peak: 5,
            ..SimCounters::ZERO
        };
        a.merge(&b);
        assert_eq!(a.gossip_pops, 7);
        assert_eq!(a.queue_peak, 10);
        assert_eq!(a.batch_peak, 5);
    }

    #[test]
    fn merge_is_order_independent() {
        let parts = [
            SimCounters {
                gossip_relays: 5,
                queue_peak: 3,
                ..SimCounters::ZERO
            },
            SimCounters {
                gossip_relays: 2,
                queue_peak: 9,
                ..SimCounters::ZERO
            },
            SimCounters {
                gossip_relays: 8,
                queue_peak: 1,
                ..SimCounters::ZERO
            },
        ];
        let mut forward = SimCounters::ZERO;
        let mut backward = SimCounters::ZERO;
        for p in &parts {
            forward.merge(p);
        }
        for p in parts.iter().rev() {
            backward.merge(p);
        }
        assert_eq!(forward, backward);
    }

    #[test]
    fn entries_cover_every_field() {
        let c = SimCounters {
            gossip_pops: 1,
            gossip_elided: 2,
            gossip_relays: 3,
            gossip_deliveries: 4,
            gossip_fallbacks: 5,
            flood_pops: 6,
            flood_relaxations: 7,
            flood_improvements: 8,
            queue_peak: 9,
            fault_drops: 10,
            fault_delays: 11,
            fault_dupes: 12,
            batch_messages: 13,
            batch_peak: 14,
            batch_repeats: 15,
        };
        let entries = c.entries();
        let sum: u64 = entries.iter().map(|(_, v)| v).sum();
        assert_eq!(sum, (1..=15).sum::<u64>());
        assert!(!c.is_zero());
        assert!(SimCounters::ZERO.is_zero());
    }
}
