//! Runtime invariant auditor: release-mode consistency checks for
//! long-running worlds.
//!
//! The engine's hot paths are guarded by `debug_assert!`s, which vanish
//! exactly where long churny runs actually happen — release builds. The
//! auditor promotes the cheap structural checks to release mode: an
//! [`AuditReport`] is produced by [`PerigeeEngine::audit`] (every round
//! or every *k* rounds via
//! [`PerigeeEngine::set_audit_every`](crate::PerigeeEngine::set_audit_every)),
//! and violations come back as structured [`AuditViolation`] values
//! instead of panics, so a damaged world can be snapshotted to disk for
//! a post-mortem (`repro … --audit-strict`) rather than lost.
//!
//! The per-round pass is O(nodes + edges) with small constants. At
//! audit-every-round on roundbench's `hostile_1k` world (1k nodes, UCB,
//! churn, faults, liveness) it costs 3.6–3.8% of the round on a 2-vCPU
//! Xeon: the `audit` row's share of the self-time table of one traced run
//! per seed (seeds 1–3 and 41), i.e. the row over the sum of all rows of
//! the same run. It checks:
//!
//! * **CSR well-formedness** — the carried snapshot's offsets are
//!   monotone and exhaustive, every directed edge is in range, non-self,
//!   unique within its row, mirrored by its reverse index
//!   (`reverse[reverse[e]] == e`), and carries a finite non-negative
//!   base delay;
//! * **hash-power normalization** — live mining power sums to 1, dead
//!   slots hold exactly 0, and the snapshot's per-node copy is
//!   bit-identical to the population's;
//! * **no resurrected ids** — no dead slot holds hash power or edges
//!   (the stable-id contract);
//! * **score-state legality** — every stored per-neighbor sample is
//!   finite (∞ never enters `T̿u,v`; a NaN means corrupted state), via
//!   each node's [`NodeHistory`](crate::NodeHistory) audit, which reads
//!   two entries per buffer: buffers are sorted, so the first and last
//!   bound every other sample;
//! * **liveness state-machine legality** — silence counters and backoff
//!   records are sorted, in range, and no counter has escaped past
//!   [`EVICT_AFTER`](crate::liveness::EVICT_AFTER) (a peer the engine
//!   should have evicted).
//!
//! [`PerigeeEngine::audit`]: crate::PerigeeEngine::audit

use std::fmt;

use perigee_netsim::{NodeId, Population, TopologyView};

/// Which invariant family a violation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AuditCheck {
    /// The carried CSR snapshot is structurally broken.
    CsrWellFormed,
    /// Mining power is denormalized or out of sync with the snapshot.
    HashPowerNormalized,
    /// A retired id still holds hash power or edges.
    NoResurrectedIds,
    /// Cross-round score state holds a non-finite sample or is malformed.
    ScoreState,
    /// Liveness counters/backoffs are in an illegal machine state.
    LivenessStateMachine,
}

impl fmt::Display for AuditCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AuditCheck::CsrWellFormed => "csr-well-formed",
            AuditCheck::HashPowerNormalized => "hash-power-normalized",
            AuditCheck::NoResurrectedIds => "no-resurrected-ids",
            AuditCheck::ScoreState => "score-state",
            AuditCheck::LivenessStateMachine => "liveness-state-machine",
        };
        f.write_str(s)
    }
}

/// One violated invariant, reported as data instead of a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditViolation {
    /// The invariant family that failed.
    pub check: AuditCheck,
    /// Human-readable specifics (which node/edge/value).
    pub detail: String,
}

impl AuditViolation {
    /// Creates a violation record.
    pub fn new(check: AuditCheck, detail: impl Into<String>) -> Self {
        AuditViolation {
            check,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.check, self.detail)
    }
}

/// The outcome of one auditor pass over the engine's state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// The round the pass ran after.
    pub round: u64,
    /// Every violated invariant found (empty = clean).
    pub violations: Vec<AuditViolation>,
}

impl AuditReport {
    /// `true` when no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            write!(f, "audit round {}: clean", self.round)
        } else {
            writeln!(
                f,
                "audit round {}: {} violation(s)",
                self.round,
                self.violations.len()
            )?;
            for v in &self.violations {
                writeln!(f, "  {v}")?;
            }
            Ok(())
        }
    }
}

/// Caps per-pass violation output so a totally corrupted world doesn't
/// drown the report (the first few violations identify the failure).
const MAX_VIOLATIONS_PER_CHECK: usize = 16;

/// CSR well-formedness + hash-power + stable-id checks over the carried
/// round snapshot and the population it mirrors. O(n + m).
pub(crate) fn audit_world(
    view: &TopologyView,
    population: &Population,
    out: &mut Vec<AuditViolation>,
) {
    use AuditCheck::*;
    let n = view.len();
    let offsets = view.csr_offsets();
    let edges = view.csr_edges();
    let delays = view.csr_delays();
    let reverse = view.csr_reverse();

    if n != population.len() {
        out.push(AuditViolation::new(
            CsrWellFormed,
            format!("snapshot covers {n} nodes, population {}", population.len()),
        ));
        return; // Everything below indexes both; sizes must agree first.
    }

    // --- CSR structure ---------------------------------------------------
    let mut csr = 0usize;
    let mut push_csr = |out: &mut Vec<AuditViolation>, detail: String| {
        if csr < MAX_VIOLATIONS_PER_CHECK {
            out.push(AuditViolation::new(CsrWellFormed, detail));
        }
        csr += 1;
    };
    if offsets.first() != Some(&0) || offsets.last() != Some(&edges.len()) {
        push_csr(out, "offsets do not span the edge array".into());
    }
    if reverse.len() != edges.len() || delays.len() != edges.len() {
        push_csr(out, "edge-parallel arrays have diverging lengths".into());
        return;
    }
    for u in 0..n {
        let (lo, hi) = (offsets[u], offsets[u + 1]);
        if lo > hi || hi > edges.len() {
            push_csr(out, format!("n{u}: offsets not monotone ({lo}..{hi})"));
            continue;
        }
        let row = &edges[lo..hi];
        for (k, &v) in row.iter().enumerate() {
            let e = lo + k;
            if v as usize >= n {
                push_csr(out, format!("n{u}: edge to out-of-range n{v}"));
                continue;
            }
            if v as usize == u {
                push_csr(out, format!("n{u}: self-loop"));
            }
            // Rows are short (degree ≤ dout + din), so the duplicate scan
            // stays linear in practice.
            if row[..k].contains(&v) {
                push_csr(out, format!("n{u}: duplicate edge to n{v}"));
            }
            let d = delays[e];
            if !d.is_finite() || d.as_ms() < 0.0 {
                push_csr(out, format!("n{u}->n{v}: illegal base delay {d}"));
            }
            let r = reverse[e] as usize;
            let (vlo, vhi) = (offsets[v as usize], offsets[v as usize + 1]);
            if r < vlo || r >= vhi || edges[r] as usize != u || reverse[r] as usize != e {
                push_csr(out, format!("n{u}->n{v}: reverse index not an involution"));
            }
        }
    }
    if csr > MAX_VIOLATIONS_PER_CHECK {
        out.push(AuditViolation::new(
            CsrWellFormed,
            format!(
                "… {} further CSR violations suppressed",
                csr - MAX_VIOLATIONS_PER_CHECK
            ),
        ));
    }

    // --- Hash power + stable ids -----------------------------------------
    let mut live_total = 0.0f64;
    let mut live_count = 0usize;
    for u in 0..n {
        let id = NodeId::new(u as u32);
        let hp_view = view.hash_power(id);
        let hp_pop = population.hash_power(id);
        if hp_view.to_bits() != hp_pop.to_bits() {
            out.push(AuditViolation::new(
                HashPowerNormalized,
                format!("n{u}: snapshot power {hp_view} out of sync with population {hp_pop}"),
            ));
        }
        if !hp_pop.is_finite() || hp_pop < 0.0 {
            out.push(AuditViolation::new(
                HashPowerNormalized,
                format!("n{u}: illegal hash power {hp_pop}"),
            ));
        }
        if population.is_alive(id) {
            live_total += hp_pop;
            live_count += 1;
        } else {
            if hp_pop != 0.0 {
                out.push(AuditViolation::new(
                    NoResurrectedIds,
                    format!("dead n{u} still holds hash power {hp_pop}"),
                ));
            }
            if !view.edge_range(id).is_empty() {
                out.push(AuditViolation::new(
                    NoResurrectedIds,
                    format!("dead n{u} still holds edges"),
                ));
            }
        }
    }
    if live_count > 0 && (live_total - 1.0).abs() > 1e-6 {
        out.push(AuditViolation::new(
            HashPowerNormalized,
            format!("live hash power sums to {live_total}, expected 1"),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perigee_netsim::{
        ConnectionLimits, MetricLatencyModel, NodeProfile, RoundDelta, SimTime, Topology,
    };

    fn line_world(n: usize) -> (Population, MetricLatencyModel, TopologyView) {
        let profiles: Vec<NodeProfile> = (0..n)
            .map(|i| NodeProfile {
                coords: vec![i as f64],
                hash_power: 1.0 / n as f64,
                validation_delay: SimTime::ZERO,
                ..NodeProfile::default()
            })
            .collect();
        let pop = Population::from_profiles(profiles).unwrap();
        let lat = MetricLatencyModel::new(&pop, 10.0);
        let mut topo = Topology::new(n, ConnectionLimits::unlimited());
        for i in 0..n as u32 - 1 {
            topo.connect(NodeId::new(i), NodeId::new(i + 1)).unwrap();
        }
        let view = TopologyView::new(&topo, &lat, &pop);
        (pop, lat, view)
    }

    #[test]
    fn clean_world_audits_clean() {
        let (pop, _lat, view) = line_world(8);
        let mut out = Vec::new();
        audit_world(&view, &pop, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn denormalized_hash_power_is_flagged() {
        let (mut pop, lat, _view) = line_world(6);
        pop.profile_mut(NodeId::new(3)).hash_power = 5.0;
        // Rebuild the view so the sync check passes and only the
        // normalization check fires.
        let mut topo = Topology::new(6, ConnectionLimits::unlimited());
        for i in 0..5u32 {
            topo.connect(NodeId::new(i), NodeId::new(i + 1)).unwrap();
        }
        let view = TopologyView::new(&topo, &lat, &pop);
        let mut out = Vec::new();
        audit_world(&view, &pop, &mut out);
        assert!(out
            .iter()
            .any(|v| v.check == AuditCheck::HashPowerNormalized && v.detail.contains("sums to")));
    }

    #[test]
    fn stale_view_power_is_flagged_as_out_of_sync() {
        let (mut pop, _lat, view) = line_world(6);
        pop.profile_mut(NodeId::new(2)).hash_power *= 2.0;
        let mut out = Vec::new();
        audit_world(&view, &pop, &mut out);
        assert!(out.iter().any(
            |v| v.check == AuditCheck::HashPowerNormalized && v.detail.contains("out of sync")
        ));
    }

    #[test]
    fn dead_node_with_edges_is_a_resurrection_violation() {
        let (mut pop, lat, mut view) = line_world(6);
        // Retire node 2 in the population but "forget" to tear its edges
        // out of the snapshot — the exact desync the auditor exists for.
        pop.retire(NodeId::new(2));
        pop.renormalize_hash_power();
        // An empty delta refreshes attributes only (hash power sync),
        // keeping the stale edges.
        view.apply_delta(&RoundDelta::default(), &lat, &pop);
        let mut out = Vec::new();
        audit_world(&view, &pop, &mut out);
        assert!(
            out.iter().any(|v| v.check == AuditCheck::NoResurrectedIds
                && v.detail.contains("still holds edges")),
            "{out:?}"
        );
    }

    #[test]
    fn report_renders_round_and_violations() {
        let clean = AuditReport {
            round: 7,
            violations: vec![],
        };
        assert!(clean.is_clean());
        assert_eq!(clean.to_string(), "audit round 7: clean");
        let dirty = AuditReport {
            round: 9,
            violations: vec![AuditViolation::new(
                AuditCheck::CsrWellFormed,
                "n3: self-loop",
            )],
        };
        assert!(!dirty.is_clean());
        let s = dirty.to_string();
        assert!(s.contains("1 violation(s)") && s.contains("[csr-well-formed] n3: self-loop"));
    }
}
