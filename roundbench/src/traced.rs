//! The traced run: an untraced pass for reference, then a pass with the
//! engine's telemetry installed and the outside replay before each timed
//! round, summarised as the per-layer metrics and a self-time table.

use std::fmt::Write as _;
use std::fs;
use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;

use perigee_core::{RoundStats, ScoringMethod};
use perigee_telemetry::{RunTelemetry, TraceRecord, TraceSink};

use crate::bench::{
    drive, finish, host_lines, median, ratio, untraced_pass, Args, Hook, Metric, Outcome, Pass,
};
use crate::host::process_cpu_s;
use crate::replay::{replay_round, self_times, Replayed, Span, Tracer, GROUPS, ROUND0_ONLY};
use crate::workload::{Engine, SetupTimes, Workload};
use crate::ALLOC;

/// Hands the engine's per-round trace records to the benchmark.
#[derive(Debug, Clone, Default)]
struct Capture(Arc<Mutex<Vec<TraceRecord>>>);

impl TraceSink for Capture {
    fn record(&mut self, rec: &TraceRecord) {
        self.0
            .lock()
            .expect("capture sink poisoned")
            .push(rec.clone());
    }
}

/// One timed round of the traced pass.
#[derive(Debug)]
struct TracedRound {
    round: usize,
    stats: RoundStats,
    record: TraceRecord,
    replay: Replayed,
    run_s: f64,
    /// Process CPU seconds of the engine's `run_round` call.
    run_cpu_s: f64,
    engine_transient: usize,
}

/// Replays each timed round before the engine runs it and checks the
/// replay against the engine's results.
struct Traced {
    method: ScoringMethod,
    tracer: Tracer,
    capture: Capture,
    /// Round, replay, heap level and CPU clock when the round started.
    pending: Option<(usize, Replayed, usize, f64)>,
    rounds: Vec<TracedRound>,
    failures: Vec<String>,
}

impl Hook for Traced {
    fn before(&mut self, engine: &Engine, rng: &StdRng, r: usize, timed: bool) {
        if timed {
            self.tracer.set_round(r);
            let replay = replay_round(engine, rng, self.method, &mut self.tracer);
            let base = ALLOC.reset_peak();
            self.pending = Some((r, replay, base, process_cpu_s()));
        }
    }

    fn after(&mut self, engine: &Engine, stats: &RoundStats, run_s: f64, timed: bool) -> bool {
        let cpu = process_cpu_s();
        let record = self.capture.0.lock().expect("capture sink poisoned").pop();
        if !timed {
            return true;
        }
        let (round, replay, base, cpu0) = self.pending.take().expect("replayed before the round");
        let engine_transient = ALLOC.peak().saturating_sub(base);
        let mut ok = true;
        if replay.mean_lambda90_ms.to_bits() != stats.mean_lambda90_ms.to_bits() {
            ok = false;
            self.failures.push(format!(
                "round {round}: replay λ90 {} != engine {}",
                replay.mean_lambda90_ms, stats.mean_lambda90_ms
            ));
        }
        if let Some(t) = engine
            .last_traffic_stats()
            .filter(|_| engine.traffic().is_some())
        {
            let engine_l90: Vec<u64> = t
                .per_class
                .iter()
                .map(|c| c.mean_lambda90_ms.to_bits())
                .collect();
            let replay_l90: Vec<u64> = replay
                .class_lambda90_ms
                .iter()
                .map(|x| x.to_bits())
                .collect();
            if engine_l90 != replay_l90 || t.messages != replay.messages {
                ok = false;
                self.failures.push(format!(
                    "round {round}: replay traffic λ90 differs from the engine's"
                ));
            }
        }
        let Some(record) = record else {
            self.failures
                .push(format!("round {round}: no trace record"));
            return false;
        };
        self.rounds.push(TracedRound {
            round,
            stats: *stats,
            record,
            replay,
            run_s,
            run_cpu_s: cpu - cpu0,
            engine_transient,
        });
        ok
    }
}

/// Engine laps the replay does not decompose, and so reports as layers.
const ENGINE_ONLY_LAPS: [&str; 5] = ["liveness", "rewiring", "churn", "view_patch", "audit"];

/// Engine laps the replay re-runs under a group span of the same name.
const REPLAYED_LAPS: [&str; 5] = ["mine", "fault_compile", "propagation", "traffic", "scoring"];

/// `trace.coverage` under this is flagged in the header.
const MIN_COVERAGE: f64 = 0.9;

fn lap(rec: &TraceRecord, name: &str) -> f64 {
    rec.phases_s
        .iter()
        .filter(|(n, _)| n == name)
        .map(|(_, s)| s)
        .sum()
}

fn setup_median(setup: &[SetupTimes], f: impl Fn(&SetupTimes) -> f64) -> f64 {
    median(&setup.iter().map(f).collect::<Vec<_>>())
}

fn counter(rec: &TraceRecord, name: &str) -> f64 {
    rec.get_counter(name).unwrap_or(0) as f64
}

/// Runs the traced run of `args` (the caller installs the pool).
pub(crate) fn traced(args: &Args) -> Outcome {
    let w = args.workload;
    let samples = w.samples(args.seconds, true);
    let untraced = untraced_pass(args);
    let setup = &untraced.setup;

    let capture = Capture::default();
    let mut hook = Traced {
        method: w.method,
        tracer: Tracer::new(),
        capture: capture.clone(),
        pending: None,
        rounds: Vec::new(),
        failures: Vec::new(),
    };
    let telemetry = RunTelemetry::new(w.name, args.seed).with_sink(Box::new(capture));
    let traced_w = Workload { setup_reps: 0, ..w };
    let mut pass = drive(&traced_w, args.seed, samples, &mut hook, |engine| {
        engine.set_telemetry(telemetry)
    });
    for f in std::mem::take(&mut hook.failures) {
        pass.fail(f);
    }
    if pass.digest != untraced.digest {
        pass.fail(format!(
            "traced digest {:016x} != untraced {:016x}",
            pass.digest, untraced.digest
        ));
    }

    let spans = hook.tracer.spans();
    let selfs = self_times(spans);
    let rounds = &hook.rounds;
    let rows = layer_rows(&w, spans, &selfs, rounds, &pass.compact_s);
    // Median seconds per round of a row; 0 for a layer this world lacks.
    let med = |name: &str| {
        rows.iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| median(v))
    };
    let mut header = host_lines(args, &untraced);
    header.extend(self_time_table(&rows, rounds.len()));
    header.extend(lap_comparison(spans, rounds));
    let covered = coverage(&rows, rounds);
    header.push(format!(
        "trace.coverage = {covered:.4}: named layer self time over the engine's run_round CPU \
         time, summed over the traced rounds"
    ));
    if covered < MIN_COVERAGE {
        header.push(format!(
            "WARNING: trace.coverage {covered:.4} is under {MIN_COVERAGE}: the named layers \
             account for less of the engine's round than they should"
        ));
    }

    let rec_med = |f: &dyn Fn(&TracedRound) -> f64| -> f64 {
        median(&rounds.iter().map(f).collect::<Vec<_>>())
    };
    let score_retain = if w.method == ScoringMethod::Ucb {
        med("scoring(engine)")
    } else {
        med("score.retain")
    };
    let flood_s = med("broadcast.flood");
    let relaxations = rec_med(&|r| counter(&r.record, "flood_relaxations"));
    let batch_s = med("gossip.batch");
    let messages = rec_med(&|r| r.replay.messages as f64);
    // Both passes' round times, at the reference host speed where the
    // workload reports at it, so the drift between the passes cancels.
    let speed = |p: &Pass| {
        if p.scaled {
            median(&p.sample_ref_s)
        } else {
            1.0
        }
    };
    let traced_run = median(&rounds.iter().map(|r| r.run_s).collect::<Vec<_>>()) / speed(&pass);
    let untraced_run = median(&untraced.run_s) / speed(&untraced);
    let m = |name: &'static str, value: f64, unit: &'static str| Metric {
        name,
        value,
        unit,
        samples: rounds.len(),
    };
    let s = |name: &'static str, f: fn(&SetupTimes) -> f64| Metric {
        name,
        value: setup_median(setup, f),
        unit: "s",
        samples: setup.len(),
    };
    let metrics = vec![
        s("setup.population_s", |t| t.population_s),
        s("setup.latency_s", |t| t.latency_s),
        s("setup.topology_s", |t| t.topology_s),
        s("setup.engine_s", |t| t.engine_s),
        m("mine.sample_s", med("mine"), "s"),
        m("view.build_s", med("view.build"), "s"),
        m("faults.compile_s", med("faults.compile"), "s"),
        m("broadcast.flood_s", flood_s, "s"),
        m("broadcast.relaxations", relaxations, "count"),
        m(
            "broadcast.useful_ratio",
            rec_med(&|r| {
                ratio(
                    counter(&r.record, "flood_improvements"),
                    counter(&r.record, "flood_relaxations"),
                )
            }),
            "ratio",
        ),
        m(
            "broadcast.ns_per_relaxation",
            1e9 * ratio(flood_s, relaxations),
            "ns",
        ),
        m(
            "pq.queue_peak",
            rec_med(&|r| counter(&r.record, "queue_peak")),
            "count",
        ),
        m("observation.record_s", med("observation.record"), "s"),
        m("observation.merge_s", med("observation.merge"), "s"),
        m("observation.fold_s", med("observation.fold"), "s"),
        m(
            "observation.transient_bytes",
            rec_med(&|r| r.replay.transient_bytes as f64),
            "bytes",
        ),
        m(
            "engine.transient_bytes",
            rec_med(&|r| r.engine_transient as f64),
            "bytes",
        ),
        m("traffic.generate_s", med("traffic.generate"), "s"),
        m("traffic.messages", messages, "count"),
        m("traffic.tx_lambda90_ms", median(&pass.tx_lambda90_ms), "ms"),
        m("gossip.batch_s", batch_s, "s"),
        m("gossip.coverage_s", med("gossip.coverage"), "s"),
        m(
            "gossip.ns_per_message",
            1e9 * ratio(batch_s, messages),
            "ns",
        ),
        m(
            "gossip.pops",
            rec_med(&|r| counter(&r.record, "gossip_pops")),
            "count",
        ),
        m(
            "gossip.elided_share",
            rec_med(&|r| {
                let (pops, elided) = (
                    counter(&r.record, "gossip_pops"),
                    counter(&r.record, "gossip_elided"),
                );
                ratio(elided, pops + elided)
            }),
            "ratio",
        ),
        m(
            "gossip.refill_share",
            rec_med(&|r| {
                let (bumps, refills) = (
                    counter(&r.record, "epoch_bumps"),
                    counter(&r.record, "epoch_refills"),
                );
                ratio(refills, bumps + refills)
            }),
            "ratio",
        ),
        m("score.retain_s", score_retain, "s"),
        m("score.gated", rec_med(&|r| r.stats.gated as f64), "count"),
        m("liveness.s", med("liveness"), "s"),
        m(
            "liveness.evicted",
            rec_med(&|r| r.stats.evicted as f64),
            "count",
        ),
        m("engine.rewiring_s", med("rewiring"), "s"),
        m("engine.churn_s", med("churn"), "s"),
        m("view.patch_s", med("view_patch"), "s"),
        m("audit.pass_s", med("audit"), "s"),
        m(
            "engine.compact_s",
            median(&pass.compact_s.iter().map(|(_, s)| *s).collect::<Vec<_>>()),
            "s",
        ),
        m(
            "faults.drops",
            rec_med(&|r| counter(&r.record, "fault_drops")),
            "count",
        ),
        m(
            "engine.cpu_util",
            ratio(untraced.cpu_s, untraced.wall_s),
            "ratio",
        ),
        m(
            "trace.overhead",
            ratio(traced_run, untraced_run) - 1.0,
            "ratio",
        ),
        m("trace.coverage", covered, "ratio"),
    ];

    if let Err(e) = write_trace(args, spans, &selfs, rounds) {
        header.push(format!("trace file not written: {e}"));
    }
    finish(&mut header, &pass);
    let nonfinite = metrics.iter().any(|m| !m.value.is_finite());
    Outcome {
        header,
        correct: pass.failed == 0 && pass.failures.is_empty() && !nonfinite,
        attempted: pass.attempted,
        failed: pass.failed,
        metrics,
        digest: pass.digest,
    }
}

/// Per-round self time of every replay span name, then of each engine lap
/// the replay does not decompose, one value per traced round.
fn layer_rows(
    w: &Workload,
    spans: &[Span],
    selfs: &[f64],
    rounds: &[TracedRound],
    compact_s: &[(usize, f64)],
) -> Vec<(&'static str, Vec<f64>)> {
    let index: std::collections::HashMap<usize, usize> = rounds
        .iter()
        .enumerate()
        .map(|(i, r)| (r.round, i))
        .collect();
    let mut rows: Vec<(&'static str, Vec<f64>)> = Vec::new();
    for (s, &t) in spans.iter().zip(selfs) {
        let slot = match rows.iter().position(|(n, _)| *n == s.name) {
            Some(p) => p,
            None => {
                rows.push((s.name, vec![0.0; rounds.len()]));
                rows.len() - 1
            }
        };
        rows[slot].1[index[&(s.round as usize)]] += t;
    }
    for name in ENGINE_ONLY_LAPS {
        rows.push((name, rounds.iter().map(|r| lap(&r.record, name)).collect()));
    }
    if w.method == ScoringMethod::Ucb {
        let laps = rounds.iter().map(|r| lap(&r.record, "scoring")).collect();
        rows.push(("scoring(engine)", laps));
    }
    if w.hostile {
        let at = |round| {
            compact_s
                .iter()
                .find(|(r, _)| *r == round)
                .map_or(0.0, |(_, s)| *s)
        };
        rows.push(("compact", rounds.iter().map(|r| at(r.round)).collect()));
    }
    rows
}

/// Rows that recur every round (the round-0 view build is left out).
fn per_round_rows<'a>(
    rows: &'a [(&'static str, Vec<f64>)],
) -> impl Iterator<Item = &'a (&'static str, Vec<f64>)> {
    rows.iter().filter(|(n, _)| !ROUND0_ONLY.contains(n))
}

/// The engine's `run_round` work that named layers account for: their
/// self time — replay leaves and engine-only laps, without the replay's
/// glue, the round-0 view build or compaction — over the process CPU time
/// of `run_round`, both summed over the traced rounds. The replay runs on
/// one thread, so its seconds compare with CPU seconds on any pool; on a
/// one-thread pool they are also the round's wall time. Missing or
/// under-sized layers show as coverage under 1, over-sized ones above.
fn coverage(rows: &[(&'static str, Vec<f64>)], rounds: &[TracedRound]) -> f64 {
    let named: f64 = per_round_rows(rows)
        .filter(|(n, _)| !GROUPS.contains(n) && *n != "compact")
        .map(|(_, v)| v.iter().sum::<f64>())
        .sum();
    ratio(named, rounds.iter().map(|r| r.run_cpu_s).sum())
}

/// Each replay group against the engine lap of the same name, per round.
/// On a one-thread pool the two should agree; on a wider one the lap is
/// wall time of parallel work, so the ratio reads as its speed-up.
fn lap_comparison(spans: &[Span], rounds: &[TracedRound]) -> Vec<String> {
    let n = rounds.len().max(1) as f64;
    let mut out = vec![
        "replay groups against the engine's laps (mean s/round):".to_string(),
        format!(
            "  {:<22} {:>12} {:>12} {:>8}",
            "group", "replay", "engine lap", "ratio"
        ),
    ];
    for name in REPLAYED_LAPS {
        if !spans.iter().any(|s| s.name == name) {
            continue;
        }
        let replay: f64 = spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .sum();
        let engine: f64 = rounds.iter().map(|r| lap(&r.record, name)).sum();
        out.push(format!(
            "  {:<22} {:>12.6} {:>12.6} {:>8.3}",
            name,
            replay / n,
            engine / n,
            ratio(replay, engine)
        ));
    }
    out
}

/// The self-time table: median seconds per round and share of all
/// traced rounds, per row.
fn self_time_table(rows: &[(&'static str, Vec<f64>)], rounds: usize) -> Vec<String> {
    let total: f64 = per_round_rows(rows)
        .map(|(_, v)| v.iter().sum::<f64>())
        .sum();
    let mut out = vec![
        format!(
            "self-time table over {rounds} traced rounds (replay spans are sequential; \
             engine laps run on {} thread(s)):",
            rayon::current_num_threads()
        ),
        format!("  {:<22} {:>12} {:>8}", "layer", "s/round", "share"),
    ];
    for (n, v) in rows {
        let share = if ROUND0_ONLY.contains(n) {
            "round 0".to_string()
        } else {
            format!("{:.2}%", 100.0 * ratio(v.iter().sum(), total))
        };
        out.push(format!("  {:<22} {:>12.6} {:>8}", n, median(v), share));
    }
    out
}

/// Writes the spans (one JSON line each) and the engine's trace records
/// to `.bench_trace/<workload>-seed<seed>.jsonl` under the working
/// directory.
fn write_trace(
    args: &Args,
    spans: &[Span],
    selfs: &[f64],
    rounds: &[TracedRound],
) -> std::io::Result<()> {
    let dir = std::path::Path::new(".bench_trace");
    fs::create_dir_all(dir)?;
    let mut out = String::new();
    for (s, t) in spans.iter().zip(selfs) {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"span\":\"{}\",\"round\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"self_s\":{t}}}",
            s.name, s.round, s.start_ns, s.end_ns
        );
    }
    for r in rounds {
        let _ = writeln!(out, "{}", r.record.to_json());
    }
    fs::write(
        dir.join(format!("{}-seed{}.jsonl", args.workload.name, args.seed)),
        out,
    )
}
