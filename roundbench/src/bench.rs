//! The closed-loop runs: arguments, the round loop shared by both kinds
//! of run, its correctness checks, the untraced end-to-end run and the
//! result line.

use std::fmt::Write as _;
use std::time::Instant;

use rand::rngs::StdRng;

use perigee_core::{RoundStats, TrafficRoundStats};

use crate::host::{process_cpu_s, CpuSample};
use crate::speed::{build_twin_s, reference_s, reps_for, NOMINAL_BUILD_S_PER_NODE, NOMINAL_S};
use crate::workload::{build, Engine, SetupTimes, Workload, COMPACT_EVERY};
use crate::ALLOC;

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// The world to run.
    pub workload: Workload,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Nominal length of the timed window.
    pub seconds: f64,
    /// Run the traced per-layer run instead of the end-to-end one.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    ///
    /// # Errors
    ///
    /// A usage message for a missing, unknown or malformed argument.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::by_name(&value).ok_or(format!("unknown workload {value}"))?)
                }
                "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| "bad --seconds")?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err("--seconds must be positive".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    })
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// One metric of the result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as `BENCHMARK.json` declares it.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as `BENCHMARK.json` declares it.
    pub unit: &'static str,
    /// How many samples the value summarises.
    pub samples: usize,
}

/// Everything a run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Human-readable lines printed before the result line.
    pub header: Vec<String>,
    /// Every check passed.
    pub correct: bool,
    /// Timed rounds attempted.
    pub attempted: usize,
    /// Timed rounds that failed a check.
    pub failed: usize,
    /// The reported metrics, in declaration order.
    pub metrics: Vec<Metric>,
    /// The run's result digest.
    pub digest: u64,
}

impl Outcome {
    /// The result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Non-finite values are already counted as failures; keep the
            // line valid JSON.
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// FNV-1a over the run's results.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    fn round(&mut self, s: &RoundStats, traffic: Option<&TrafficRoundStats>) {
        for x in [
            s.round, s.blocks, s.dropped, s.joined, s.departed, s.gated, s.evicted,
        ] {
            self.u64(x as u64);
        }
        for x in [s.mean_lambda90_ms, s.mean_lambda50_ms, s.p90_lambda90_ms] {
            self.f64(x);
        }
        if let Some(t) = traffic {
            self.u64(t.messages as u64);
            for c in &t.per_class {
                self.u64(c.messages as u64);
                self.f64(c.mean_lambda90_ms);
                self.f64(c.mean_lambda50_ms);
            }
        }
    }

    fn topology(&mut self, engine: &Engine) {
        let topo = engine.topology();
        for i in 0..topo.len() {
            let v = perigee_netsim::NodeId::new(i as u32);
            self.u64(i as u64);
            for u in topo.outgoing(v) {
                self.u64(u64::from(u.as_u32()));
            }
        }
    }
}

/// Per-round observation of a pass.
pub(crate) trait Hook {
    /// Before round `r`'s `run_round`, with the engine's next-round state.
    fn before(&mut self, _engine: &Engine, _rng: &StdRng, _r: usize, _timed: bool) {}

    /// Right after `run_round`; returns `false` if a check failed.
    fn after(&mut self, _engine: &Engine, _stats: &RoundStats, _run_s: f64, _timed: bool) -> bool {
        true
    }
}

/// No per-round work: the untraced pass.
struct Untraced;

impl Hook for Untraced {}

/// What one pass over the workload's rounds measured.
#[derive(Debug, Default)]
pub(crate) struct Pass {
    /// Wall seconds per round of each timed sample.
    pub(crate) sample_s: Vec<f64>,
    /// Wall seconds of each timed `run_round` call alone.
    pub(crate) run_s: Vec<f64>,
    /// Round index and wall seconds of each timed `compact` call.
    pub(crate) compact_s: Vec<(usize, f64)>,
    /// `RoundStats::mean_lambda90_ms` of each timed round.
    pub(crate) lambda90_ms: Vec<f64>,
    /// The `tx` class's mean λ90 of each timed round (traffic only).
    pub(crate) tx_lambda90_ms: Vec<f64>,
    /// Process CPU and wall seconds over the timed window.
    pub(crate) cpu_s: f64,
    pub(crate) wall_s: f64,
    /// Host steal and other-process CPU shares over the timed window.
    pub(crate) steal_share: f64,
    pub(crate) other_share: f64,
    pub(crate) attempted: usize,
    pub(crate) failed: usize,
    /// Descriptions of the first failed checks.
    pub(crate) failures: Vec<String>,
    pub(crate) digest: u64,
    /// Step times of the engine's own construction, the first of the run:
    /// cold, as no other is.
    pub(crate) first_setup: SetupTimes,
    /// Step times of the throwaway constructions made between timed
    /// samples, which `setup_s` reports.
    pub(crate) setup: Vec<SetupTimes>,
    /// Process CPU seconds of each timed sample.
    pub(crate) sample_cpu_s: Vec<f64>,
    /// Whether round times are reported at the reference host speed.
    pub(crate) scaled: bool,
    /// Nominal seconds of the construction twin at the world's size.
    pub(crate) twin_nominal_s: f64,
    /// Construction twin seconds right after each throwaway construction.
    pub(crate) setup_twin_s: Vec<f64>,
    /// Reference-pass seconds next to each sample.
    pub(crate) sample_ref_s: Vec<f64>,
}

impl Pass {
    /// Per-round sample seconds as reported (see [`Pass::at_reference`]).
    fn sample_at_reference(&self) -> Vec<f64> {
        self.at_reference(&self.sample_s, &self.sample_ref_s)
    }

    /// Construction seconds as reported: each scaled by the nominal twin
    /// time over the twin time measured right after it, on every workload.
    fn setup_at_reference(&self) -> Vec<f64> {
        self.raw_setup()
            .iter()
            .zip(&self.setup_twin_s)
            .map(|(s, twin)| s * self.twin_nominal_s / twin)
            .collect()
    }

    /// Construction seconds as measured.
    fn raw_setup(&self) -> Vec<f64> {
        self.setup.iter().map(SetupTimes::total_s).collect()
    }

    /// Process CPU seconds per timed round as reported: each sample's CPU,
    /// scaled by its own reference, summed, divided by the timed rounds.
    fn cpu_per_round_at_reference(&self) -> f64 {
        let cpu: f64 = self
            .at_reference(&self.sample_cpu_s, &self.sample_ref_s)
            .iter()
            .sum();
        cpu / self.attempted.max(1) as f64
    }

    /// Scales each measured time by the nominal reference time over the
    /// reference time taken next to it, when the workload reports its
    /// rounds at reference speed; otherwise returns the raw times.
    fn at_reference(&self, seconds: &[f64], reference: &[f64]) -> Vec<f64> {
        seconds
            .iter()
            .zip(reference)
            .map(|(s, r)| if self.scaled { s * NOMINAL_S / r } else { *s })
            .collect()
    }

    pub(crate) fn fail(&mut self, what: String) {
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }
}

/// Builds `w` from `seed` and runs its warm-up and `samples` timed
/// samples, constructing `w.setup_reps` throwaway copies of the world
/// spread between the samples. `prepare` sees the engine before round 0.
pub(crate) fn drive(
    w: &Workload,
    seed: u64,
    samples: usize,
    hook: &mut impl Hook,
    prepare: impl FnOnce(&mut Engine),
) -> Pass {
    let (mut engine, mut rng, times) = build(w, seed);
    prepare(&mut engine);
    let (engine, rng) = (&mut engine, &mut rng);
    let total = w.warmup_rounds + samples * w.rounds_per_sample;
    let mut pass = Pass {
        first_setup: times,
        scaled: w.scale_to_reference,
        twin_nominal_s: w.nodes as f64 * NOMINAL_BUILD_S_PER_NODE,
        ..Pass::default()
    };
    // Time and CPU the reference passes, throwaway constructions and their
    // twins take inside the window, kept out of the window's totals.
    let (mut aside_wall, mut aside_cpu) = (0.0, 0.0);
    let mut digest = Digest::new();
    let mut sample = 0.0;
    let mut sample_cpu0: Option<f64> = None;
    let mut window: Option<(Instant, f64, CpuSample)> = None;
    let mut last_ok = true;
    for r in 0..total {
        let timed = r >= w.warmup_rounds;
        if timed && window.is_none() {
            window = Some((Instant::now(), process_cpu_s(), CpuSample::now()));
        }
        if timed && sample_cpu0.is_none() {
            sample_cpu0 = Some(process_cpu_s());
        }
        let expected_messages = engine
            .traffic()
            .map(|t| t.messages_for_round(r as u64, engine.population()).len());
        hook.before(engine, rng, r, timed);

        let t = Instant::now();
        let stats = engine.run_round(rng);
        let run_s = t.elapsed().as_secs_f64();
        let mut ok = hook.after(engine, &stats, run_s, timed);
        let mut round_s = run_s;
        if w.hostile && (r + 1).is_multiple_of(COMPACT_EVERY) {
            let t = Instant::now();
            engine.compact();
            let c = t.elapsed().as_secs_f64();
            round_s += c;
            if timed {
                pass.compact_s.push((r, c));
            }
        }

        digest.round(&stats, engine.last_traffic_stats());
        for failure in check_round(w, r, &stats, engine, expected_messages) {
            ok = false;
            pass.fail(failure);
        }

        if timed {
            pass.attempted += 1;
            pass.failed += usize::from(!ok);
            last_ok = ok;
            pass.run_s.push(run_s);
            pass.lambda90_ms.push(stats.mean_lambda90_ms);
            if let Some(tx) = engine
                .last_traffic_stats()
                .and_then(|t| t.per_class.iter().find(|c| c.name == "tx"))
            {
                pass.tx_lambda90_ms.push(tx.mean_lambda90_ms);
            }
            sample += round_s;
            if (r + 1 - w.warmup_rounds).is_multiple_of(w.rounds_per_sample) {
                let per_round = sample / w.rounds_per_sample as f64;
                sample = 0.0;
                let (t, cpu0) = (Instant::now(), process_cpu_s());
                let started = sample_cpu0.take().expect("set when the sample began");
                pass.sample_cpu_s.push(cpu0 - started);
                let reference = reference_s(reps_for(per_round * w.rounds_per_sample as f64));
                pass.sample_s.push(per_round);
                pass.sample_ref_s.push(reference);
                let due = (pass.sample_s.len() * w.setup_reps).div_ceil(samples);
                while pass.setup.len() < due {
                    let peak = ALLOC.peak();
                    let (throwaway, _, times) = build(w, seed);
                    drop(throwaway);
                    ALLOC.restore_peak(peak);
                    pass.setup.push(times);
                    pass.setup_twin_s.push(build_twin_s(w.nodes));
                }
                aside_cpu += process_cpu_s() - cpu0;
                aside_wall += t.elapsed().as_secs_f64();
            }
        }
    }
    if let Some((start, cpu0, host0)) = window {
        pass.wall_s = start.elapsed().as_secs_f64() - aside_wall;
        pass.cpu_s = process_cpu_s() - cpu0 - aside_cpu;
        (pass.steal_share, pass.other_share) = CpuSample::now().disturbance_since(&host0);
    }
    let audit = engine.audit();
    if !audit.is_clean() {
        pass.fail(format!("final audit: {audit}"));
        if last_ok && pass.attempted > 0 {
            pass.failed += 1;
        }
    }
    digest.topology(engine);
    pass.digest = digest.0;
    pass
}

/// The per-round correctness checks; returns a description of each
/// failure.
fn check_round(
    w: &Workload,
    r: usize,
    stats: &RoundStats,
    engine: &Engine,
    expected_messages: Option<usize>,
) -> Vec<String> {
    let mut failures = Vec::new();
    if stats.round != r || stats.blocks != w.blocks {
        failures.push(format!(
            "round {r}: stats report round {} with {} blocks",
            stats.round, stats.blocks
        ));
    }
    if !(stats.mean_lambda90_ms.is_finite() && stats.mean_lambda90_ms > 0.0) {
        failures.push(format!("round {r}: mean λ90 {}", stats.mean_lambda90_ms));
    }
    if let Some(expected) = expected_messages {
        let got = engine.last_traffic_stats().map(|s| s.messages);
        if got != Some(expected) {
            failures.push(format!(
                "round {r}: {got:?} traffic messages, expected {expected}"
            ));
        }
    }
    if w.hostile && (engine.view_rebuilds() != 1 || !engine.audit_failures().is_empty()) {
        failures.push(format!(
            "round {r}: {} view rebuilds, {} audit failures",
            engine.view_rebuilds(),
            engine.audit_failures().len()
        ));
    }
    failures
}

/// The median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// The `q`-quantile of `v` by linear interpolation (0 for an empty slice).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub(crate) fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub(crate) fn host_lines(args: &Args, pass: &Pass) -> Vec<String> {
    let w = &args.workload;
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let s = pass.sample_at_reference();
    // The highest percentile with at least ten samples beyond it.
    let tail = match s.len() {
        n if n >= 20 => {
            let q = 1.0 - 10.0 / n as f64;
            format!("p{:.0} {:.6}", 100.0 * q, quantile(&s, q))
        }
        _ => "no tail percentile under 20 samples;".to_string(),
    };
    vec![
        format!(
            "roundbench workload={} seed={} seconds={} trace={} nodes={} blocks/round={}",
            w.name,
            args.seed,
            args.seconds,
            u8::from(args.trace),
            w.nodes,
            w.blocks
        ),
        format!(
            "host: cpus={cpus} pool_threads={} steal_share={:.4} other_cpu_share={:.4} \
             reference_pass_s={:.6} (nominal {NOMINAL_S}; round times scaled: {}) over the timed window",
            rayon::current_num_threads(),
            pass.steal_share,
            pass.other_share,
            median(&pass.sample_ref_s),
            pass.scaled
        ),
        format!(
            "raw (host-speed) medians: round_s={:.6} round_cpu_s={:.6} setup_s={:.6}",
            median(&pass.sample_s),
            pass.cpu_s / pass.attempted.max(1) as f64,
            median(&pass.raw_setup())
        ),
        format!(
            "setup_s of {} throwaway builds: raw median {:.6} s, construction twin median \
             {:.6} s (nominal {:.6}), at twin speed {:.6} s; the engine's own first (cold) \
             build took {:.6} s and is left out",
            pass.setup.len(),
            median(&pass.raw_setup()),
            median(&pass.setup_twin_s),
            pass.twin_nominal_s,
            median(&pass.setup_at_reference()),
            pass.first_setup.total_s()
        ),
        format!(
            "samples: round_s={} (of {} round(s) each; p25 {:.6} p75 {:.6} {tail} min {:.6} \
             max {:.6}) round_cpu_s={} rounds in one {:.1} s window, setup_s={} \
             constructions, lambda90_ms={} rounds, peak_heap_bytes=1 whole run",
            s.len(),
            w.rounds_per_sample,
            quantile(&s, 0.25),
            quantile(&s, 0.75),
            quantile(&s, 0.0),
            quantile(&s, 1.0),
            pass.attempted,
            pass.wall_s,
            pass.setup.len(),
            pass.lambda90_ms.len()
        ),
    ]
}

/// Runs `args` inside the workload's rayon pool.
pub fn run(args: &Args) -> Outcome {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(args.workload.threads)
        .build()
        .expect("the pool builds");
    pool.install(|| {
        if args.trace {
            crate::traced::traced(args)
        } else {
            untraced(args)
        }
    })
}

pub(crate) fn untraced_pass(args: &Args) -> Pass {
    let w = &args.workload;
    let samples = w.samples(args.seconds, args.trace);
    drive(w, args.seed, samples, &mut Untraced, |_| {})
}

pub(crate) fn finish(header: &mut Vec<String>, pass: &Pass) {
    header.push(format!("digest: {:016x}", pass.digest));
    for f in &pass.failures {
        header.push(format!("FAILED: {f}"));
    }
}

fn untraced(args: &Args) -> Outcome {
    let pass = untraced_pass(args);
    let mut header = host_lines(args, &pass);
    if !pass.tx_lambda90_ms.is_empty() {
        header.push(format!(
            "tx_lambda90_ms: {} (median over {} rounds)",
            median(&pass.tx_lambda90_ms),
            pass.tx_lambda90_ms.len()
        ));
    }
    finish(&mut header, &pass);
    let rounds = pass.attempted.max(1);
    let metrics = vec![
        Metric {
            name: "round_s",
            value: median(&pass.sample_at_reference()),
            unit: "s",
            samples: pass.sample_s.len(),
        },
        Metric {
            name: "round_cpu_s",
            value: pass.cpu_per_round_at_reference(),
            unit: "s",
            samples: rounds,
        },
        Metric {
            name: "setup_s",
            value: median(&pass.setup_at_reference()),
            unit: "s",
            samples: pass.setup.len(),
        },
        Metric {
            name: "peak_heap_bytes",
            value: ALLOC.peak() as f64,
            unit: "bytes",
            samples: 1,
        },
        Metric {
            name: "lambda90_ms",
            value: median(&pass.lambda90_ms),
            unit: "ms",
            samples: pass.lambda90_ms.len(),
        },
    ];
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
