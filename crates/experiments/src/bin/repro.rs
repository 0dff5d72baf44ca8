//! `repro` — regenerate every figure of the Perigee paper.
//!
//! ```text
//! repro <command> [--nodes N] [--rounds R] [--blocks K] [--seeds a,b,c] [--quick] [--out DIR]
//!
//! Commands:
//!   fig1          Fig. 1  corner-to-corner stretch in the unit square
//!   theorems      Thm 1/2 stretch vs n on random and geometric graphs
//!   fig3a         Fig. 3(a) delay curves, uniform hash power
//!   fig3b         Fig. 3(b) delay curves, exponential hash power
//!   fig4a         Fig. 4(a) validation-delay sweep
//!   fig4b         Fig. 4(b) mining pools with fast links
//!   fig4c         Fig. 4(c) relay network overlay
//!   fig5          Fig. 5  edge-latency histograms
//!   convergence   §5.2 per-round convergence of Perigee-Subset
//!   ablation      parameter sweeps (exploration, percentile, |B|, UCB c)
//!   adversary     free-rider, eclipse and churn robustness
//!   deployment    incremental-deployment advantage
//!   traffic       continuous tx-stream load: per-class λ-curves + ablation
//!   resume        checkpoint/kill/resume workflow + invariant auditor
//!   scale         sketch-backed scale sweep + dense-vs-sketch ablation
//!   trace FILE    phase-breakdown table from a JSONL run trace
//!   all           everything above
//! ```
//!
//! Every command accepts `--trace FILE`: each engine round (and each
//! finished subcommand) appends one self-describing JSON line to FILE —
//! phase timings, hot-path counters, λ-statistics. Read it back with
//! `repro trace FILE`. Tracing never changes results: traced runs are
//! bit-identical to untraced ones.
//!
//! `resume` also accepts `--checkpoint-every K`, `--from FILE` (continue
//! a run from an on-disk snapshot), `--audit-every K` and
//! `--audit-strict` (snapshot the offending round and abort on the
//! first invariant violation).

use std::path::PathBuf;
use std::process::ExitCode;

use perigee_experiments::{
    ablation, adversary, bandwidth, convergence, deployment, discovery, dynamics, faults, fig3,
    fig4, fig5, resume, scale, theory, trace, traffic,
};
use perigee_experiments::{Algorithm, MinerCliqueSpec, RelaySpec, Scenario};
use perigee_metrics::Table;
use perigee_telemetry::{JsonValue, PhaseProfile, PhaseTimer, TraceRecord};

struct Args {
    command: String,
    scenario: Scenario,
    out: Option<PathBuf>,
    /// `resume`: write a checkpoint every this many rounds.
    checkpoint_every: usize,
    /// `resume --from FILE`: continue from an on-disk snapshot.
    from: Option<PathBuf>,
    /// Invariant auditor cadence (0 = off) and strictness.
    audit: resume::AuditOptions,
    /// `--trace FILE`: append one JSONL trace record per engine round.
    trace_out: Option<PathBuf>,
    /// `trace FILE`: the trace to summarize.
    trace_input: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or_else(usage)?;
    let mut scenario = Scenario::paper();
    let mut out = None;
    let mut checkpoint_every = 5;
    let mut from = None;
    let mut audit = resume::AuditOptions::default();
    let mut trace_out = None;
    let mut trace_input = None;
    if command == "trace" {
        trace_input = argv.next().map(PathBuf::from);
        if trace_input.is_none() {
            return Err(format!("trace needs a file\n{}", usage()));
        }
    }
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| -> Result<String, String> {
            argv.next().ok_or(format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--quick" => {
                let s = Scenario::quick();
                scenario.nodes = s.nodes;
                scenario.rounds = s.rounds;
                scenario.blocks_per_round = s.blocks_per_round;
                scenario.seeds = s.seeds;
            }
            "--nodes" => scenario.nodes = value("--nodes")?.parse().map_err(|e| format!("{e}"))?,
            "--rounds" => {
                scenario.rounds = value("--rounds")?.parse().map_err(|e| format!("{e}"))?
            }
            "--blocks" => {
                scenario.blocks_per_round =
                    value("--blocks")?.parse().map_err(|e| format!("{e}"))?
            }
            "--seeds" => {
                scenario.seeds = value("--seeds")?
                    .split(',')
                    .map(|s| s.trim().parse().map_err(|e| format!("{e}")))
                    .collect::<Result<Vec<u64>, _>>()?
            }
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            "--checkpoint-every" => {
                checkpoint_every = value("--checkpoint-every")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
                if checkpoint_every == 0 {
                    return Err("--checkpoint-every must be positive".to_string());
                }
            }
            "--from" => from = Some(PathBuf::from(value("--from")?)),
            "--trace" => trace_out = Some(PathBuf::from(value("--trace")?)),
            "--audit-every" => {
                audit.every = value("--audit-every")?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--audit-strict" => {
                audit.strict = true;
                audit.every = audit.every.max(1);
            }
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    Ok(Args {
        command,
        scenario,
        out,
        checkpoint_every,
        from,
        audit,
        trace_out,
        trace_input,
    })
}

fn usage() -> String {
    "usage: repro <fig1|theorems|fig3a|fig3b|fig4a|fig4b|fig4c|fig5|convergence|ablation|adversary|deployment|discovery|bandwidth|dynamics|faults|traffic|resume|scale|all> \
     [--nodes N] [--rounds R] [--blocks K] [--seeds a,b,c] [--quick] [--out DIR] \
     [--checkpoint-every K] [--from FILE] [--audit-every K] [--audit-strict] [--trace FILE]\n\
     or:    repro trace FILE.jsonl  (phase-breakdown table from a run trace)"
        .to_string()
}

fn banner(title: &str) {
    println!("\n=== {title} ===");
}

/// Renders `table` and, with `--out`, writes it as CSV. A failed CSV
/// write is a failed command (nonzero exit) — artifacts silently missing
/// from a paper run are worse than a loud abort.
fn emit(table: &Table, out: &Option<PathBuf>, file: &str) -> Result<(), String> {
    print!("{}", table.render());
    if let Some(dir) = out {
        let path = dir.join(file);
        table
            .write_csv(&path)
            .map_err(|e| format!("csv write {}: {e}", path.display()))?;
        println!("[wrote {}]", path.display());
    }
    Ok(())
}

/// `repro trace FILE`: parse every JSONL record and print the phase
/// breakdown of the engine rounds, then that of the command profiles
/// (plus record counts per run label). The two stay in separate tables:
/// a command's laps time the whole subcommand, rounds included, so one
/// table over both would count every round twice.
fn summarize_trace(path: &PathBuf, out: &Option<PathBuf>) -> Result<(), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut round_phases = PhaseProfile::new();
    let mut command_phases = PhaseProfile::new();
    let mut rounds = 0u64;
    let mut commands = 0u64;
    let mut runs: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value =
            JsonValue::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
        let rec = TraceRecord::from_json(&value)
            .map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
        let profile = match rec.kind.as_str() {
            "round" => {
                rounds += 1;
                &mut round_phases
            }
            _ => {
                commands += 1;
                &mut command_phases
            }
        };
        *runs.entry(rec.run.clone()).or_insert(0) += 1;
        for (name, secs) in &rec.phases_s {
            profile.add(name, *secs);
        }
    }
    banner(&format!("Trace summary: {}", path.display()));
    println!(
        "{} record(s): {} round(s), {} command profile(s)",
        rounds + commands,
        rounds,
        commands
    );
    for (run, n) in &runs {
        println!("  {run}: {n} record(s)");
    }
    println!("\nround phases:");
    emit(&round_phases.table(), out, "trace_phases.csv")?;
    if commands > 0 {
        println!("\ncommand phases (wall clock of whole subcommands, rounds included):");
        emit(&command_phases.table(), out, "trace_commands.csv")?;
    }
    Ok(())
}

fn run_command(cmd: &str, args: &Args) -> Result<(), String> {
    let scenario = &args.scenario;
    let out = &args.out;
    // The shared phase timer replaces ad-hoc Instant bookkeeping: the
    // subcommand is one lap, and the finished profile goes to the trace
    // (when `--trace` is active) in the same shape as engine phases.
    let mut timer = PhaseTimer::enabled();
    match cmd {
        "trace" => {
            let path = args.trace_input.as_ref().expect("parse_args requires it");
            summarize_trace(path, out)?;
        }
        "fig1" => {
            banner("Figure 1: paths in the unit square");
            let f = theory::run_fig1(scenario.nodes, scenario.seeds[0]);
            let mut t = Table::new(vec!["topology".into(), "path".into(), "stretch".into()]);
            t.row(vec![
                "euclidean (geodesic)".into(),
                format!("{:.3}", f.euclidean),
                "1.00".into(),
            ]);
            t.row(vec![
                "random deg-3 (Fig 1a)".into(),
                format!("{:.3}", f.random_path),
                format!("{:.2}", f.random_stretch()),
            ]);
            t.row(vec![
                "geometric (Fig 1b)".into(),
                format!("{:.3}", f.geometric_path),
                format!("{:.2}", f.geometric_stretch()),
            ]);
            emit(&t, out, "fig1.csv")?;
        }
        "theorems" => {
            banner("Theorems 1 & 2: stretch vs network size");
            let sizes = [250, 500, 1000, 2000];
            let r = theory::run_theorems(&sizes, 2, scenario.seeds[0]);
            emit(&r.table(), out, "theorems.csv")?;
            println!(
                "expect: random stretch grows with n (Thm 1), geometric stays ~constant (Thm 2)"
            );
        }
        "fig3a" | "fig3b" => {
            let exp = cmd == "fig3b";
            banner(if exp {
                "Figure 3(b): exponential hash power"
            } else {
                "Figure 3(a): uniform hash power"
            });
            let s = if exp {
                scenario.clone().with_exponential_hash_power()
            } else {
                scenario.clone()
            };
            let r = fig3::run(&s);
            emit(&r.table(), out, &format!("{cmd}_summary.csv"))?;
            if let Some(dir) = out {
                let path = dir.join(format!("{cmd}_curves.csv"));
                fig3::curves_csv(&r)
                    .write_csv(&path)
                    .map_err(|e| format!("csv write {}: {e}", path.display()))?;
                println!("[wrote {}]", path.display());
            }
            let subset = r.improvement(Algorithm::PerigeeSubset, Algorithm::Random) * 100.0;
            let ucb = r.improvement(Algorithm::PerigeeUcb, Algorithm::Random) * 100.0;
            println!("perigee-subset vs random: {subset:+.1}%  (paper: ~33%)");
            println!("perigee-ucb    vs random: {ucb:+.1}%  (paper: ~11%)");
        }
        "fig4a" => {
            banner("Figure 4(a): validation-delay sweep");
            let r = fig4::run_fig4a(scenario, &fig4::FIG4A_FACTORS);
            emit(&r.table(), out, "fig4a.csv")?;
            println!("expect: improvement shrinks as validation delay grows");
        }
        "fig4b" => {
            banner("Figure 4(b): 10% of nodes hold 90% of hash power");
            let r = fig4::run_fig4b(scenario, MinerCliqueSpec::default());
            emit(&r.table(), out, "fig4b.csv")?;
            println!(
                "perigee closes {:.0}% of the random→ideal gap",
                r.gap_closed() * 100.0
            );
        }
        "fig4c" => {
            banner("Figure 4(c): fast relay network present");
            let r = fig4::run_fig4c(scenario, RelaySpec::default());
            emit(&r.table(), out, "fig4c.csv")?;
            println!(
                "perigee closes {:.0}% of the random→ideal gap",
                r.gap_closed() * 100.0
            );
        }
        "fig5" => {
            banner("Figure 5: edge-latency histograms");
            let r = fig5::run(scenario);
            emit(&r.table(), out, "fig5.csv")?;
            for h in &r.histograms {
                println!("\n{}:", h.algorithm);
                print!("{}", h.histogram.render(40));
            }
        }
        "convergence" => {
            banner("Convergence of Perigee-Subset (§5.2)");
            let r = convergence::run(Algorithm::PerigeeSubset, scenario, scenario.seeds[0]);
            emit(&r.table(), out, "convergence.csv")?;
            println!(
                "total median-λ90 improvement: {:+.1}%",
                r.total_improvement() * 100.0
            );
        }
        "ablation" => {
            banner("Ablation: exploration count");
            let s = scenario.seeds[0];
            emit(
                &ablation::sweep_exploration(scenario, s, &[0, 1, 2, 4]).table(),
                out,
                "ablation_explore.csv",
            )?;
            banner("Ablation: scoring percentile");
            emit(
                &ablation::sweep_percentile(scenario, s, &[50.0, 75.0, 90.0, 99.0]).table(),
                out,
                "ablation_percentile.csv",
            )?;
            banner("Ablation: blocks per round (fixed block budget)");
            emit(
                &ablation::sweep_round_length(scenario, s, &[20, 50, 100, 200]).table(),
                out,
                "ablation_blocks.csv",
            )?;
            banner("Ablation: UCB confidence constant");
            emit(
                &ablation::sweep_ucb_c(scenario, s, &[1.0, 10.0, 50.0, 200.0]).table(),
                out,
                "ablation_ucb_c.csv",
            )?;
        }
        "adversary" => {
            banner("Geo-spoofing (degrades geographic, not Perigee)");
            let r = adversary::run_spoofing(scenario, scenario.seeds[0], scenario.nodes / 20);
            emit(&r.table(), out, "adversary_spoofing.csv")?;
            println!(
                "spoofers degrade geographic by {:+.1}%; perigee ignores claimed locations",
                r.geographic_degradation() * 100.0
            );
            banner("Free-rider starvation");
            let r = adversary::run_free_rider(scenario, scenario.seeds[0]);
            emit(&r.table(), out, "adversary_freerider.csv")?;
            banner("Eclipse attack & recovery");
            let r = adversary::run_eclipse(scenario, scenario.seeds[0]);
            emit(&r.table(), out, "adversary_eclipse.csv")?;
            banner("Churn");
            let r = adversary::run_churn(scenario, scenario.seeds[0], 0.02);
            let mut t = Table::new(vec!["setting".into(), "median λ90 (ms)".into()]);
            t.row(vec![
                "stable".into(),
                format!("{:.1}", r.stable_median90_ms),
            ]);
            t.row(vec![
                format!(
                    "churn ({:.0}%/round, {} joined / {} departed)",
                    r.churn_fraction * 100.0,
                    r.joined,
                    r.departed
                ),
                format!("{:.1}", r.churn_median90_ms),
            ]);
            emit(&t, out, "adversary_churn.csv")?;
        }
        "deployment" => {
            banner("Incremental deployment");
            let mut t = Table::new(vec![
                "adoption".into(),
                "adopters λ90 (ms)".into(),
                "holdouts λ90 (ms)".into(),
                "advantage".into(),
            ]);
            for adoption in [0.1, 0.3, 0.5, 0.9] {
                let r = deployment::run(scenario, scenario.seeds[0], adoption);
                t.row(vec![
                    format!("{:.0}%", adoption * 100.0),
                    format!("{:.1}", r.adopter_median90_ms),
                    format!("{:.1}", r.holdout_median90_ms),
                    format!("{:+.1}%", r.adopter_advantage() * 100.0),
                ]);
            }
            emit(&t, out, "deployment.csv")?;
        }
        "discovery" => {
            banner("Partial peer knowledge (gossiped address books)");
            let caps = [scenario.nodes / 10, scenario.nodes / 4, scenario.nodes / 2];
            let r = discovery::run(scenario, scenario.seeds[0], &caps);
            emit(&r.table(), out, "discovery.csv")?;
            println!(
                "worst partial-view penalty: {:+.1}%",
                r.worst_penalty() * 100.0
            );
        }
        "bandwidth" => {
            banner("Bandwidth heterogeneity (INV/GETDATA, 3-186 Mbit/s)");
            let r = bandwidth::run(scenario, scenario.seeds[0], &[0.0, 0.5, 1.0]);
            emit(&r.table(), out, "bandwidth.csv")?;
            println!("expect: perigee improves in every block-size regime");
        }
        "dynamics" => {
            banner("Steady-state churn (2%/round)");
            let r = dynamics::run_steady_churn(scenario, scenario.seeds[0], 0.02);
            emit(&r.table(), out, "dynamics_churn.csv")?;
            println!(
                "alive {} of {} slots, {} joined / {} departed, {} view build(s), final median λ90 {:.1} ms",
                r.final_alive,
                r.final_slots,
                r.joined,
                r.departed,
                r.view_rebuilds,
                r.final_median90_ms
            );
            banner("Mid-run growth (×10)");
            let r = dynamics::run_growth(scenario, scenario.seeds[0], scenario.nodes * 10);
            emit(&r.table(), out, "dynamics_growth.csv")?;
            println!(
                "{} -> {} nodes ({} joined), λ90 finite throughout: {}, {} view build(s), run-median p90 λ90 {:.1} ms",
                r.start_nodes,
                r.final_nodes,
                r.joined,
                r.lambda_always_finite(),
                r.view_rebuilds,
                r.run_median_p90_ms
            );
        }
        "faults" => {
            // The ablation runs in the paper's short-round UCB regime
            // (§4.2.2 motivates UCB with ~1 block per round): with few
            // blocks a connection's history takes many rounds to
            // accumulate, so the state the gate protects is genuinely
            // expensive to re-learn after a corruption-driven rewire.
            let burst_scenario = Scenario {
                rounds: scenario.rounds * 2,
                blocks_per_round: 5,
                ..scenario.clone()
            };
            banner("Burst loss (UCB, 5 blocks/round): stability gating on (0.175) vs off (∞)");
            let mut summary = Table::new(vec![
                "seed".into(),
                "ungated post-burst λ90 (ms)".into(),
                "gated post-burst λ90 (ms)".into(),
                "post-burst advantage".into(),
                "ungated final λ90 (ms)".into(),
                "gated final λ90 (ms)".into(),
                "gated rounds".into(),
                "rewires while gated".into(),
            ]);
            for (i, &seed) in burst_scenario.seeds.iter().enumerate() {
                let r = faults::run_burst_loss(&burst_scenario, seed);
                if i == 0 {
                    emit(&r.table(), out, "faults_burst_curves.csv")?;
                }
                summary.row(vec![
                    seed.to_string(),
                    format!("{:.1}", r.ungated.checkpoint_median90_ms),
                    format!("{:.1}", r.gated.checkpoint_median90_ms),
                    format!("{:+.1}%", r.gated_advantage() * 100.0),
                    format!("{:.1}", r.ungated.final_median90_ms),
                    format!("{:.1}", r.gated.final_median90_ms),
                    r.gated.gated_rounds.to_string(),
                    r.gated.rewires_during_gated_rounds.to_string(),
                ]);
            }
            emit(&summary, out, "faults_burst_summary.csv")?;
            println!(
                "expect: gated comes out of the burst better (UCB history stays clean) and \
                 ends no worse; rewires-while-gated > 0 (exploration continues)"
            );

            banner("Partition + heal (30% minority)");
            let r = faults::run_partition_heal(scenario, scenario.seeds[0], 0.3);
            emit(&r.table(), out, "faults_partition.csv")?;
            println!(
                "pre-partition median λ90 {:.1} ms -> recovered {:.1} ms ({:+.1}%), {} gated, {} evicted, {} view build(s)",
                r.pre_partition_median90_ms,
                r.recovered_median90_ms,
                r.recovery_gap() * 100.0,
                r.total_gated,
                r.total_evicted,
                r.view_rebuilds
            );

            banner("Regional brownout (Europe x4 for the middle third)");
            let r = faults::run_regional_brownout(scenario, scenario.seeds[0], 4.0);
            emit(&r.table(), out, "faults_brownout.csv")?;
            println!(
                "mean p90 λ90 inside window {:.1} ms vs outside {:.1} ms; final median {:.1} ms",
                r.mean_inside_ms, r.mean_outside_ms, r.final_median90_ms
            );

            banner("Flapping links grid");
            let r =
                faults::run_flap_grid(scenario, scenario.seeds[0], &[0.1, 0.3], &[(6, 1), (6, 3)]);
            emit(&r.table(), out, "faults_flaps.csv")?;
        }
        "traffic" => {
            banner("Combined block + transaction-stream rounds (sketch backend)");
            let r = traffic::run_combined(scenario, scenario.seeds[0]);
            emit(&r.table(), out, "traffic_curves.csv")?;
            println!(
                "{} messages over {} rounds (peak {} in one round, classes {:?}), \
                 final median λ90 {:.1} ms, {} view build(s)",
                r.total_messages,
                r.per_round.len(),
                r.peak_round_messages,
                r.class_names,
                r.final_median90_ms,
                r.view_rebuilds
            );

            banner("Load ablation: blocks-only vs blocks + paper stream");
            let r = traffic::run_ablation(scenario, scenario.seeds[0]);
            emit(&r.table(), out, "traffic_ablation.csv")?;
            println!(
                "blocks-only: median λ90 {:.1} -> {:.1} ms ({:+.1}%); combined (+{} msgs): {:.1} -> {:.1} ms ({:+.1}%)",
                r.blocks_only.start_median90_ms,
                r.blocks_only.final_median90_ms,
                r.blocks_only.improvement() * 100.0,
                r.combined.total_messages,
                r.combined.start_median90_ms,
                r.combined.final_median90_ms,
                r.combined.improvement() * 100.0
            );
            println!("expect: λ90 still improves under combined load");
        }
        "resume" => {
            if let Some(path) = &args.from {
                banner("Resume from on-disk snapshot");
                let r =
                    resume::resume_from_file(path, scenario.rounds, args.audit, out.as_deref())?;
                println!(
                    "resumed from round {} ({} bytes), ran {} more round(s); auditor: {} pass(es), {} violation(s)",
                    r.resumed_from,
                    r.snapshot_bytes,
                    r.stats.len(),
                    r.audits_run,
                    r.audit_violations
                );
            } else {
                banner("Checkpoint / kill / resume determinism workflow");
                let r = resume::run_kill_resume(
                    scenario,
                    scenario.seeds[0],
                    args.checkpoint_every,
                    args.audit,
                    out.as_deref(),
                )?;
                emit(&r.table(), out, "resume.csv")?;
                for path in &r.checkpoints {
                    println!("[wrote {}]", path.display());
                }
                if !r.bit_identical {
                    return Err(
                        "resumed run diverged from the uninterrupted control run".to_string()
                    );
                }
                if r.audit_violations > 0 {
                    return Err(format!(
                        "invariant auditor reported {} violation(s)",
                        r.audit_violations
                    ));
                }
                println!("resumed run is bit-identical to the uninterrupted run; auditor green");
            }
        }
        "scale" => {
            // `scale` defaults its artifacts to artifacts/scale/ so the
            // sweep always leaves a paper trail.
            let out = out
                .clone()
                .or_else(|| Some(PathBuf::from("artifacts/scale")));
            banner("Scale sweep: sketch-backed rounds, blocks fanned out over the pool");
            let sizes: Vec<usize> = [1, 2, 5, 10].iter().map(|&k| scenario.nodes * k).collect();
            let r = scale::run(scenario, &sizes);
            emit(&r.table(), &out, "scale.csv")?;
            for p in &r.points {
                println!(
                    "{} nodes: {:.3} s/round, sketch store {:.1}x smaller than dense",
                    p.nodes,
                    p.seconds_per_round,
                    p.dense_over_sketch()
                );
            }
            banner("Dense vs sketch ablation (same world, same seed)");
            let c = scale::run_backend_comparison(scenario, scenario.seeds[0]);
            emit(&c.table(), &out, "scale_backends.csv")?;
            if !c.conclusions_agree() {
                return Err(format!(
                    "backend ablation diverged: dense {:+.3} vs sketch {:+.3}",
                    c.dense.improvement(),
                    c.sketch.improvement()
                ));
            }
            println!(
                "both backends improve on the random start; conclusion is backend-independent"
            );
        }
        "all" => {
            for c in [
                "fig1",
                "theorems",
                "fig3a",
                "fig3b",
                "fig4a",
                "fig4b",
                "fig4c",
                "fig5",
                "convergence",
                "ablation",
                "adversary",
                "deployment",
                "discovery",
                "bandwidth",
                "dynamics",
                "faults",
                "traffic",
                "resume",
                "scale",
            ] {
                run_command(c, args)?;
            }
        }
        other => return Err(format!("unknown command {other}\n{}", usage())),
    }
    timer.lap(cmd);
    trace::record_profile(cmd, scenario.seeds[0], timer.profile());
    println!("[{cmd} done in {:.1}s]", timer.profile().total_seconds());
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &args.trace_out {
        if let Err(e) = trace::install_jsonl(path) {
            eprintln!("cannot open trace output {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!(
        "scenario: {} nodes, {} rounds x {} blocks, seeds {:?}",
        args.scenario.nodes,
        args.scenario.rounds,
        args.scenario.blocks_per_round,
        args.scenario.seeds
    );
    let run = run_command(&args.command, &args);
    // Flush after the command so deferred trace-write errors fail the
    // run loudly, exactly like CSV artifacts.
    let flushed = trace::flush();
    match (run, flushed) {
        (Ok(()), Ok(())) => ExitCode::SUCCESS,
        (Err(e), _) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
        (Ok(()), Err(e)) => {
            eprintln!("trace write failed: {e}");
            ExitCode::FAILURE
        }
    }
}
