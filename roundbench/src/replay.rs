//! The outside per-layer replay and its spans.
//!
//! Before each traced round, [`replay_round`] re-runs that round's
//! dominant layers on the engine's current state through the public
//! API — sequentially, with fresh scratches and the engine's chunking —
//! and records a span around every call. Group spans carry the engine's
//! lap names (`mine`, `view`, `fault_compile`, `propagation`, `traffic`,
//! `scoring`) so a figure can be cross-checked against `repro --trace`;
//! leaf spans carry the layer names the per-layer metrics report. The
//! replay must reproduce the round: its per-block λ90 mean is compared
//! bit for bit with the engine's `RoundStats`.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;

use perigee_core::{
    ObservationBackend, ObservationCollector, RoundStore, ScoringMethod, SketchObservationStore,
};
use perigee_netsim::{
    BroadcastScratch, GossipScratch, MinerSampler, NodeId, Region, RoundFaults, SimTime,
    TopologyView, TrafficConfig,
};

use crate::workload::Engine;
use crate::ALLOC;

/// Blocks (or messages) per replay chunk under the sketch backend — the
/// engine's cap, which bounds its transient dense memory per chunk.
const SKETCH_CHUNK: usize = 8;

/// Group spans: the engine's lap names. Everything else is a layer.
pub const GROUPS: [&str; 7] = [
    "round",
    "mine",
    "view",
    "fault_compile",
    "propagation",
    "traffic",
    "scoring",
];

/// Spans of work the engine pays only in round 0 (it carries and patches
/// its view afterwards): reported, but kept out of the per-round totals.
pub const ROUND0_ONLY: [&str; 2] = ["view", "view.build"];

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer or lap name.
    pub name: &'static str,
    /// Round the span belongs to.
    pub round: u32,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// Spans kept in memory for the whole run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    round: u32,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            round: 0,
        }
    }

    /// Tags the spans opened from now on with `round`.
    pub fn set_round(&mut self, round: usize) {
        self.round = round as u32;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            round: self.round,
            start_ns,
            end_ns: start_ns,
            parent: None,
        });
        let n = self.open.len();
        if n > 1 {
            let parent = self.open[n - 2];
            self.spans.last_mut().expect("just pushed").parent = Some(parent);
        }
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics if no span is open: a bracketing bug in the replay.
    pub fn close(&mut self) {
        let i = self.open.pop().expect("a span is open") as usize;
        self.spans[i].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.open(name);
        let out = f();
        self.close();
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

/// Self time of every span: its duration minus the part its children
/// cover (children never overlap, the replay being sequential).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut out: Vec<f64> = spans.iter().map(Span::seconds).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p as usize] -= s.seconds();
        }
    }
    out
}

/// What one replayed round produced.
#[derive(Debug, Clone)]
pub struct Replayed {
    /// Mean per-block λ90 in ms, summed in block order as the engine does.
    pub mean_lambda90_ms: f64,
    /// Per traffic class: mean λ90 in ms (∞ for a class with no messages).
    pub class_lambda90_ms: Vec<f64>,
    /// Traffic messages generated for the round.
    pub messages: usize,
    /// Allocator peak above the pre-call level over the block and traffic
    /// fan-outs (the larger of the two).
    pub transient_bytes: usize,
}

/// Replays the dominant layers of the engine's next round; `rng` is the
/// run RNG, cloned so the engine's stream is untouched, and `method` the
/// scoring method the engine was built with.
pub fn replay_round(
    engine: &Engine,
    rng: &StdRng,
    method: ScoringMethod,
    tracer: &mut Tracer,
) -> Replayed {
    let k = engine.config().blocks_per_round;
    let round = engine.rounds_run();
    // The engine keeps its sampler across rounds and rebuilds it only when
    // the live node set changes, so this build is replay-only cost and
    // stays outside the spans.
    let sampler = MinerSampler::new(engine.population());
    let mut rng = rng.clone();

    tracer.open("round");
    let miners = tracer.span("mine", || sampler.sample_round(k, &mut rng));

    tracer.open("view");
    let view = tracer.span("view.build", || {
        TopologyView::new(engine.topology(), engine.latency(), engine.population())
    });
    tracer.close();

    tracer.open("fault_compile");
    let faults = engine.fault_plan().and_then(|plan| {
        tracer.span("faults.compile", || {
            let regions: Vec<Region> = engine.population().iter().map(|p| p.region).collect();
            let compiled = plan.compile(round, &view, &regions);
            (!compiled.is_inert()).then_some(compiled)
        })
    });
    tracer.close();

    tracer.open("propagation");
    let pre = ALLOC.reset_peak();
    let blocks = replay_blocks(engine, &view, &miners, faults.as_ref(), tracer);
    let mut store = blocks.store;
    let mut transient_bytes = ALLOC.peak().saturating_sub(pre);
    tracer.close();

    let (mut class_lambda90_ms, mut messages) = (Vec::new(), 0);
    if let Some(traffic) = engine.traffic() {
        tracer.open("traffic");
        let pre = ALLOC.reset_peak();
        (class_lambda90_ms, messages) = replay_traffic(engine, traffic, &view, &mut store, tracer);
        transient_bytes = transient_bytes.max(ALLOC.peak().saturating_sub(pre));
        tracer.close();
    }

    // UCB keeps cross-round state only the engine holds; its scoring time
    // comes from the engine's own lap instead.
    if method != ScoringMethod::Ucb {
        tracer.open("scoring");
        replay_scoring(engine, method, &blocks.seen, &store, tracer);
        tracer.close();
    }
    tracer.close();

    // Left fold in block order, as the engine sums its λ90s.
    let sum: f64 = blocks.lambda90_ms.iter().sum();
    Replayed {
        mean_lambda90_ms: sum / k as f64,
        class_lambda90_ms,
        messages,
        transient_bytes,
    }
}

/// Items per chunk when `items` fan out over `threads` workers, capped
/// under the sketch backend as the engine caps them.
fn chunk_len(items: usize, threads: usize, sketch: bool) -> usize {
    let len = items.max(1).div_ceil(threads.clamp(1, items.max(1)));
    if sketch {
        len.min(SKETCH_CHUNK)
    } else {
        len
    }
}

/// The block fan-out's results.
struct Blocks {
    store: RoundStore,
    lambda90_ms: Vec<f64>,
    seen: Vec<u32>,
}

/// The block fan-out with the engine's chunking: every chunk's collector
/// stays alive until the in-order merge, as in the engine.
fn replay_blocks(
    engine: &Engine,
    view: &TopologyView,
    miners: &[NodeId],
    faults: Option<&RoundFaults>,
    tracer: &mut Tracer,
) -> Blocks {
    let config = engine.config();
    let sketch = config.observation_backend == ObservationBackend::Sketch;
    let chunk = chunk_len(miners.len(), rayon::current_num_threads(), sketch);
    // Fault draws key on the run-global block index; every round mines
    // the same number of blocks.
    let base_block = engine.rounds_run() * config.blocks_per_round;
    let mut lambda90_ms = Vec::with_capacity(miners.len());
    let mut seen = vec![0u32; view.len()];
    let mut parts = Vec::new();
    for (ci, blocks) in miners.chunks(chunk).enumerate() {
        let mut scratch =
            BroadcastScratch::with_capacity_and_queue(view.len(), engine.queue_kind());
        let mut collector = ObservationCollector::from_view(view);
        collector.reserve_blocks(blocks.len());
        let mut coverage = [SimTime::ZERO; 2];
        for (j, &miner) in blocks.iter().enumerate() {
            let bf = faults.map(|rf| rf.block(base_block + ci * chunk + j));
            tracer.span("broadcast.flood", || {
                view.broadcast_into_faulted(miner, &mut scratch, bf.as_ref());
                scratch.coverage_times_into(view, &[0.9, 0.5], &mut coverage);
                for (s, t) in seen.iter_mut().zip(scratch.arrivals()) {
                    *s += u32::from(t.as_ms().is_finite());
                }
            });
            lambda90_ms.push(coverage[0].as_ms());
            tracer.span("observation.record", || match &bf {
                Some(b) => collector.record_scratch_faulted(view, &scratch, b),
                None => collector.record_scratch(view, &scratch),
            });
        }
        parts.push(collector);
    }
    let store = if sketch {
        let mut acc = SketchObservationStore::from_view(view, config.percentile);
        for part in parts {
            let rows = tracer.span("observation.merge", || part.finish());
            tracer.span("observation.fold", || acc.ingest(&rows));
        }
        RoundStore::Sketch(acc)
    } else {
        let merged = tracer.span("observation.merge", || {
            let mut parts = parts.into_iter();
            let first = parts
                .next()
                .unwrap_or_else(|| ObservationCollector::from_view(view));
            parts.fold(first, |mut acc, part| {
                acc.append(part);
                acc
            })
        });
        RoundStore::Dense(merged.finish())
    };
    Blocks {
        store,
        lambda90_ms,
        seen,
    }
}

/// The traffic fan-out: generate, then one batch pass per chunk with the
/// per-message coverage and recording timed inside the visit callback,
/// then the in-order merge into `store`. Returns each class's mean λ90
/// and the message count.
fn replay_traffic(
    engine: &Engine,
    traffic: &TrafficConfig,
    view: &TopologyView,
    store: &mut RoundStore,
    tracer: &mut Tracer,
) -> (Vec<f64>, usize) {
    let (messages, batch) = tracer.span("traffic.generate", || {
        let messages = traffic.messages_for_round(engine.rounds_run() as u64, engine.population());
        let mut batch = Vec::new();
        traffic.batch_for(&messages, &mut batch);
        (messages, batch)
    });
    let sketch = matches!(store, RoundStore::Sketch(_));
    let chunk = chunk_len(batch.len(), rayon::current_num_threads(), sketch);
    let mut sums = vec![(0usize, 0.0f64); traffic.classes.len()];
    let mut parts = Vec::new();
    for (ci, msgs) in batch.chunks(chunk).enumerate() {
        let mut scratch = GossipScratch::with_capacity_and_queue(
            view.len(),
            view.directed_edge_count(),
            engine.queue_kind(),
        );
        let mut collector = ObservationCollector::from_view(view);
        collector.reserve_blocks(msgs.len());
        let mut coverage = [SimTime::ZERO; 2];
        tracer.open("gossip.batch");
        view.gossip_batch_into(msgs, &mut scratch, |i, s| {
            tracer.span("gossip.coverage", || {
                s.batch_coverage_times_into(view, &[0.9, 0.5], &mut coverage)
            });
            tracer.span("observation.record", || {
                collector.record_gossip_scratch(view, s)
            });
            let class = messages[ci * chunk + i].class as usize;
            sums[class].0 += 1;
            sums[class].1 += coverage[0].as_ms();
        });
        tracer.close();
        parts.push(collector);
    }
    for part in parts {
        let rows = tracer.span("observation.merge", || part.finish());
        match store {
            RoundStore::Dense(acc) => tracer.span("observation.merge", || acc.append(rows)),
            RoundStore::Sketch(acc) => tracer.span("observation.fold", || acc.ingest(&rows)),
        }
    }
    let class_lambda90_ms = sums
        .iter()
        .map(|&(n, sum)| if n > 0 { sum / n as f64 } else { f64::INFINITY })
        .collect();
    (class_lambda90_ms, messages.len())
}

/// Stateless scoring for every adopter the engine would score: nodes
/// whose blocks-seen count shows a degraded round are gated out.
fn replay_scoring(
    engine: &Engine,
    method: ScoringMethod,
    seen: &[u32],
    store: &RoundStore,
    tracer: &mut Tracer,
) {
    let config = engine.config();
    let strategy = method.strategy(
        engine.population().len(),
        config.retain_count(),
        config.percentile,
        config.ucb_c,
    );
    let k = config.blocks_per_round;
    let tol = config.stability_tolerance;
    tracer.span("score.retain", || {
        let mut kept = 0usize;
        for (i, &s) in seen.iter().enumerate() {
            let v = NodeId::new(i as u32);
            let gated = tol.is_finite()
                && engine.population().is_alive(v)
                && k.saturating_sub(s as usize) as f64 > tol * k as f64;
            if gated {
                continue;
            }
            let outgoing = engine.topology().outgoing_vec(v);
            if outgoing.is_empty() {
                continue;
            }
            kept += strategy.retain_stateless(v, &outgoing, store.node(v)).len();
        }
        black_box(kept)
    });
}
