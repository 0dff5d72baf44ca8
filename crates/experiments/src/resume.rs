//! Checkpoint/resume for long-running worlds, and the strict auditor.
//!
//! The engine's [`PerigeeEngine::checkpoint`]/[`PerigeeEngine::resume`]
//! pair guarantees that a run killed at any round boundary and resumed
//! from its snapshot is **bit-identical** to the uninterrupted run. This
//! module packages that guarantee as an operational workflow for the
//! `repro resume` subcommand:
//!
//! * [`run_kill_resume`] — drive a churny, fault-injected world with
//!   periodic auto-checkpointing to disk, "kill" it midway, resume from
//!   the newest on-disk snapshot and prove the spliced run equals an
//!   uninterrupted control run, statistic for statistic;
//! * [`resume_from_file`] — the recovery path: load an envelope from
//!   disk (rejecting corruption with a structured [`SnapshotError`]) and
//!   keep running;
//! * [`AuditOptions`] — the release-mode invariant auditor: run the
//!   world-consistency pass every `k` rounds; in strict mode the first
//!   violation snapshots the offending round to disk and aborts.

use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::SeedableRng;

use perigee_core::{
    PerigeeConfig, PerigeeEngine, RoundStats, RunSnapshot, ScoringMethod, SnapshotError,
};
use perigee_metrics::Table;
use perigee_netsim::{
    ChurnProcess, ConnectionLimits, FaultPlan, FaultWindow, GeoLatencyModel, LinkFaultRates,
    LinkFlaps, PopulationBuilder, SimTime,
};
use perigee_telemetry::PhaseTimer;
use perigee_topology::{RandomBuilder, TopologyBuilder};

use crate::scenario::Scenario;

/// Invariant-auditor settings for a driven run.
#[derive(Debug, Clone, Copy)]
pub struct AuditOptions {
    /// Run the auditor every `every` rounds (0 disables it).
    pub every: usize,
    /// Abort on the first violation, after snapshotting the offending
    /// round to disk (when an output directory is available).
    pub strict: bool,
}

impl Default for AuditOptions {
    fn default() -> Self {
        AuditOptions {
            every: 1,
            strict: false,
        }
    }
}

/// The engine under test: Perigee-UCB (per-arm history buffers are the
/// hardest state to capture), aggressive liveness, steady-state churn
/// and an *active* fault plan — background loss plus a burst window and
/// flapping links scaled to the scenario length. Everything the
/// checkpoint subsystem claims to preserve is exercised at once.
fn chaos_engine(scenario: &Scenario, seed: u64) -> (PerigeeEngine<GeoLatencyModel>, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let pop = PopulationBuilder::new(scenario.nodes)
        .build(&mut rng)
        .expect("valid scenario");
    let lat = GeoLatencyModel::new(&pop, seed);
    let topo = RandomBuilder::new().build(&pop, &lat, ConnectionLimits::paper_default(), &mut rng);
    let mut cfg = PerigeeConfig::paper_default(ScoringMethod::Ucb);
    cfg.blocks_per_round = scenario.blocks_per_round;
    cfg.liveness = perigee_core::LivenessConfig::aggressive();
    let mut engine =
        PerigeeEngine::new(pop, lat, topo, ScoringMethod::Ucb, cfg).expect("valid scenario");
    engine.set_churn(ChurnProcess::steady_state(
        scenario.nodes,
        0.02,
        seed ^ 0x51EA,
    ));
    let burst_start = (scenario.rounds / 3).max(1);
    let plan = FaultPlan {
        seed: seed ^ 0xFA17,
        base: LinkFaultRates {
            drop_prob: 0.02,
            extra_delay: SimTime::from_ms(2.0),
            jitter: SimTime::from_ms(8.0),
            duplicate_prob: 0.03,
        },
        windows: vec![FaultWindow {
            start: burst_start,
            end: burst_start + (scenario.rounds / 4).max(1),
            rates: LinkFaultRates {
                drop_prob: 0.4,
                extra_delay: SimTime::from_ms(15.0),
                jitter: SimTime::from_ms(25.0),
                duplicate_prob: 0.0,
            },
        }],
        flaps: Some(LinkFlaps {
            fraction: 0.08,
            period: 5,
            down: 2,
        }),
        partitions: Vec::new(),
        regional: Vec::new(),
    };
    engine.set_fault_plan(plan).expect("windows are ordered");
    crate::trace::attach(&mut engine, "resume", seed);
    (engine, rng)
}

/// Drives `rounds` rounds under the auditor. Returns the per-round stats,
/// or — in strict mode — a rendered violation report after snapshotting
/// the offending round to `strict_out` (as `audit-violation.prgs`,
/// creating the directory if needed).
pub fn drive_audited(
    engine: &mut PerigeeEngine<GeoLatencyModel>,
    rng: &mut StdRng,
    rounds: usize,
    audit: AuditOptions,
    strict_out: Option<&Path>,
) -> Result<Vec<RoundStats>, String> {
    engine.set_audit_every(audit.every);
    let mut stats = Vec::with_capacity(rounds);
    let mut seen_failures = engine.audit_failures().len();
    for _ in 0..rounds {
        stats.push(engine.run_round(rng));
        if audit.strict && engine.audit_failures().len() > seen_failures {
            let report = engine.audit_failures().last().expect("just grew");
            let mut msg = format!("invariant audit failed:\n{report}");
            if let Some(dir) = strict_out {
                let path = dir.join("audit-violation.prgs");
                let written = std::fs::create_dir_all(dir)
                    .and_then(|()| std::fs::write(&path, engine.checkpoint(rng).to_bytes()));
                match written {
                    Ok(()) => msg.push_str(&format!(
                        "\n[offending round snapshotted to {}]",
                        path.display()
                    )),
                    Err(e) => msg.push_str(&format!("\n[snapshot write failed: {e}]")),
                }
            }
            return Err(msg);
        }
        seen_failures = engine.audit_failures().len();
    }
    Ok(stats)
}

/// Outcome of [`run_kill_resume`].
#[derive(Debug, Clone)]
pub struct KillResumeResult {
    /// Rounds in the full run.
    pub total_rounds: usize,
    /// Round at which the first leg was killed.
    pub kill_at: usize,
    /// Round recorded in the snapshot the run resumed from.
    pub resumed_from: u64,
    /// Size of the resumed-from envelope on the wire, in bytes.
    pub snapshot_bytes: usize,
    /// Checkpoints written during the first leg.
    pub checkpoints: Vec<PathBuf>,
    /// Whether every per-round statistic, the learned topology, the
    /// population and the final evaluation matched the uninterrupted
    /// control run bit for bit.
    pub bit_identical: bool,
    /// Auditor passes across both legs of the spliced run.
    pub audits_run: usize,
    /// Violations the auditor reported (0 on a healthy engine).
    pub audit_violations: usize,
    /// Arrivals over the spliced run.
    pub joined: usize,
    /// Departures over the spliced run.
    pub departed: usize,
}

impl KillResumeResult {
    /// Summary table for the harness output.
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec!["field".into(), "value".into()]);
        t.row(vec!["rounds".into(), self.total_rounds.to_string()]);
        t.row(vec!["killed at round".into(), self.kill_at.to_string()]);
        t.row(vec![
            "resumed from round".into(),
            self.resumed_from.to_string(),
        ]);
        t.row(vec![
            "snapshot bytes".into(),
            self.snapshot_bytes.to_string(),
        ]);
        t.row(vec![
            "checkpoints written".into(),
            self.checkpoints.len().to_string(),
        ]);
        t.row(vec![
            "bit-identical to uninterrupted".into(),
            self.bit_identical.to_string(),
        ]);
        t.row(vec!["auditor passes".into(), self.audits_run.to_string()]);
        t.row(vec![
            "auditor violations".into(),
            self.audit_violations.to_string(),
        ]);
        t.row(vec![
            "joined / departed".into(),
            format!("{} / {}", self.joined, self.departed),
        ]);
        t
    }
}

/// The full workflow: run the chaos world with auto-checkpointing every
/// `checkpoint_every` rounds (written to `out` when given, which is
/// created if missing), kill it at
/// `rounds / 2`, resume from the newest snapshot — through the on-disk
/// envelope when available, in-memory bytes otherwise — and run to the
/// end. An uninterrupted control run over the same seed provides the
/// bit-equality reference.
pub fn run_kill_resume(
    scenario: &Scenario,
    seed: u64,
    checkpoint_every: usize,
    audit: AuditOptions,
    out: Option<&Path>,
) -> Result<KillResumeResult, String> {
    let total = scenario.rounds.max(2);
    let kill_at = total / 2;
    let every = checkpoint_every.max(1);
    if let Some(dir) = out {
        std::fs::create_dir_all(dir).map_err(|e| format!("output directory: {e}"))?;
    }

    // Control leg: the uninterrupted run.
    let (mut control, mut control_rng) = chaos_engine(scenario, seed);
    let control_stats = drive_audited(&mut control, &mut control_rng, total, audit, out)?;

    // First leg: run to the kill point, checkpointing as we go.
    let (mut engine, mut rng) = chaos_engine(scenario, seed);
    let mut stats: Vec<RoundStats> = Vec::with_capacity(total);
    let mut checkpoints = Vec::new();
    let mut newest: Option<Vec<u8>> = None;
    // Checkpoint encode/decode costs go to the trace as a command-level
    // phase profile (disabled — zero clock reads — when tracing is off).
    let mut ckpt_timer = PhaseTimer::new(crate::trace::installed().is_some());
    for r in 1..=kill_at {
        stats.extend(drive_audited(&mut engine, &mut rng, 1, audit, out)?);
        if r % every == 0 || r == kill_at {
            ckpt_timer.restart();
            let bytes = engine.checkpoint(&rng).to_bytes();
            ckpt_timer.lap("checkpoint_encode");
            if let Some(dir) = out {
                let path = dir.join(format!("checkpoint-r{r:05}.prgs"));
                std::fs::write(&path, &bytes).map_err(|e| format!("checkpoint write: {e}"))?;
                checkpoints.push(path);
            }
            newest = Some(bytes);
        }
    }
    let mut audits_run = engine.audits_run();
    let mut audit_violations: usize = engine
        .audit_failures()
        .iter()
        .map(|r| r.violations.len())
        .sum();

    // The "kill": drop the live engine; all that survives is the newest
    // envelope (read back from disk when we wrote one).
    drop(engine);
    let bytes = match checkpoints.last() {
        Some(path) => std::fs::read(path).map_err(|e| format!("checkpoint read: {e}"))?,
        None => newest.expect("kill_at >= 1 guarantees a checkpoint"),
    };
    let snapshot_bytes = bytes.len();
    ckpt_timer.restart();
    let snapshot = RunSnapshot::from_bytes(&bytes).map_err(|e| format!("snapshot: {e}"))?;
    let resumed_from = snapshot.round();
    let (mut engine, mut rng) =
        PerigeeEngine::<GeoLatencyModel>::resume(snapshot).map_err(|e| format!("resume: {e}"))?;
    ckpt_timer.lap("checkpoint_decode");
    crate::trace::record_profile("resume", seed, ckpt_timer.profile());
    // Telemetry is observational state, so `resume` starts without it;
    // reattach to keep tracing the continued run.
    crate::trace::attach(&mut engine, "resume", seed);
    stats.extend(drive_audited(
        &mut engine,
        &mut rng,
        total - kill_at,
        audit,
        out,
    )?);
    audits_run += engine.audits_run();
    audit_violations += engine
        .audit_failures()
        .iter()
        .map(|r| r.violations.len())
        .sum::<usize>();

    let bit_identical = stats == control_stats
        && engine.topology() == control.topology()
        && engine.population() == control.population()
        && engine.evaluate(scenario.coverage) == control.evaluate(scenario.coverage);
    let joined = stats.iter().map(|s| s.joined).sum();
    let departed = stats.iter().map(|s| s.departed).sum();
    Ok(KillResumeResult {
        total_rounds: total,
        kill_at,
        resumed_from,
        snapshot_bytes,
        checkpoints,
        bit_identical,
        audits_run,
        audit_violations,
        joined,
        departed,
    })
}

/// Outcome of [`resume_from_file`].
#[derive(Debug, Clone)]
pub struct ResumeRunResult {
    /// Round recorded in the loaded snapshot.
    pub resumed_from: u64,
    /// Envelope size on disk, in bytes.
    pub snapshot_bytes: usize,
    /// Per-round stats of the continued run.
    pub stats: Vec<RoundStats>,
    /// Auditor passes over the continued run.
    pub audits_run: usize,
    /// Violations the auditor reported (0 on a healthy snapshot).
    pub audit_violations: usize,
}

/// The recovery path: load an envelope from `path`, resume, and run
/// `rounds` more rounds under the auditor. Corruption anywhere — magic,
/// version, content hash, body, semantic consistency — surfaces as the
/// structured [`SnapshotError`] rendered into the error string, never a
/// panic.
pub fn resume_from_file(
    path: &Path,
    rounds: usize,
    audit: AuditOptions,
    out: Option<&Path>,
) -> Result<ResumeRunResult, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut ckpt_timer = PhaseTimer::new(crate::trace::installed().is_some());
    let snapshot =
        RunSnapshot::from_bytes(&bytes).map_err(|e: SnapshotError| format!("snapshot: {e}"))?;
    let resumed_from = snapshot.round();
    let (mut engine, mut rng) =
        PerigeeEngine::<GeoLatencyModel>::resume(snapshot).map_err(|e| format!("resume: {e}"))?;
    ckpt_timer.lap("checkpoint_decode");
    crate::trace::record_profile("resume-from-file", resumed_from, ckpt_timer.profile());
    crate::trace::attach(&mut engine, "resume-from-file", resumed_from);
    let stats = drive_audited(&mut engine, &mut rng, rounds, audit, out)?;
    Ok(ResumeRunResult {
        resumed_from,
        snapshot_bytes: bytes.len(),
        audits_run: engine.audits_run(),
        audit_violations: engine
            .audit_failures()
            .iter()
            .map(|r| r.violations.len())
            .sum(),
        stats,
    })
}
