//! Observation sets (§4.1), stored flat.
//!
//! During a round of `K` blocks, every node `v` records the time `tᵇu,v` at
//! which each neighbor `u` delivered (or announced) each block `b` — the set
//! `Ov`. Scores are computed on the *time-normalized* set `Õv` (eq. 2): each
//! timestamp is taken relative to the first time `v` heard about the block
//! from any neighbor, which proxies the unknown mining time.
//!
//! # Layout
//!
//! The whole round lives in **one** struct-of-arrays [`ObservationStore`]
//! indexed by the [`TopologyView`]'s directed-edge offsets: block `b`'s
//! observations occupy `times[b·m..(b+1)·m]` where `m` is the directed
//! edge count, and node `v`'s slice of each block is its CSR row
//! `offsets[v]..offsets[v+1]`. Normalized times are `f32` (they are
//! relative millisecond offsets within one block's propagation — ~7
//! significant digits is far below the simulation's physical fidelity),
//! which halves the round's memory against the former per-node `f64`
//! rows and is what makes 10k-node × 100-block rounds fit comfortably.
//! Merging per-worker chunks back into block order
//! ([`ObservationCollector::append`]) is a single `memcpy`-style extend.
//!
//! Scoring reads the store through borrowed, allocation-free
//! [`NodeObservations`] views ([`ObservationStore::node`]).
//!
//! # The sketch backend
//!
//! The dense matrix is linear in blocks-per-round: 61 MiB at 10k nodes ×
//! 100 blocks, and 100× that before 1M-block rounds. Scoring, however,
//! consumes *percentile statistics* of each edge's column, not the raw
//! samples — so [`ObservationBackend::Sketch`] replaces the matrix with
//! one 48-byte [`EdgeSketch`] per directed
//! edge ([`SketchObservationStore`]): memory is `O(edges)`, independent
//! of the round's block count.
//!
//! Recording is unchanged — every path still fills small *dense* chunks
//! (the per-worker collectors, capped at a constant number of blocks in
//! sketch mode) — and the sketch store folds each chunk in at merge time
//! ([`SketchObservationStore::ingest`]), column by column in block
//! order. Because chunks carry exact raw samples and are ingested in
//! block order, the sketch state is a pure function of the sequential
//! sample stream: **bit-identical across thread counts and chunk
//! splits**, with no sketch-merge operator needed.
//!
//! What scoring sees through [`NodeObservations`]:
//!
//! * [`NodeObservations::column_percentile_or_inf`] — the one scoring
//!   query, exact on the dense backend and the sketch estimate (exact up
//!   to 5 finite samples) on the sketch backend;
//! * [`NodeObservations::times_for`] — raw samples on the dense backend;
//!   on the sketch backend, *representative* samples (the exact seed
//!   values while ≤ 5 finite samples arrived — which covers UCB's
//!   1-block rounds — else the five marker heights) plus the recorded
//!   count of `∞` entries;
//! * [`NodeObservations::row`] / [`NodeObservations::time_at`] /
//!   [`NodeObservations::time_of`] — dense-only (they panic on the
//!   sketch backend): per-block joint statistics are exactly what a
//!   marginal sketch cannot answer, so Subset scoring degrades to
//!   marginal ranking in sketch mode (see
//!   [`SubsetScoring`](crate::score::SubsetScoring)).

use std::collections::BTreeMap;

use perigee_metrics::{percentile_or_inf_mut, EdgeSketch, SketchParams};
use perigee_netsim::{BroadcastScratch, LatencyModel, NodeId, SimTime, TopologyView};
use serde::{Deserialize, Serialize};

/// Which representation a round's observations are stored in.
///
/// `Dense` is the exact reference: the full `blocks × edges` `f32`
/// matrix. `Sketch` stores one constant-space
/// [`EdgeSketch`] per directed edge —
/// memory independent of blocks-per-round, percentile queries
/// approximate beyond 5 finite samples per edge (see the module docs
/// for what each scoring strategy does with that).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ObservationBackend {
    /// The exact `blocks × edges` matrix (the cross-validated reference).
    #[default]
    Dense,
    /// One 48-byte streaming P² sketch per directed edge.
    Sketch,
}

mod backend_codec {
    //! Checkpoint codec impls (see `serde::bin`).

    use serde::bin::{Decode, DecodeError, Encode, Reader};

    use super::ObservationBackend;

    impl Encode for ObservationBackend {
        fn encode(&self, out: &mut Vec<u8>) {
            match self {
                ObservationBackend::Dense => 0u8.encode(out),
                ObservationBackend::Sketch => 1u8.encode(out),
            }
        }
    }

    impl Decode for ObservationBackend {
        fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
            match u8::decode(r)? {
                0 => Ok(ObservationBackend::Dense),
                1 => Ok(ObservationBackend::Sketch),
                _ => Err(DecodeError::new("invalid observation-backend tag")),
            }
        }
    }
}

/// One round's normalized observations for the whole network: a single
/// contiguous `blocks × directed-edges` matrix over the CSR index space
/// of the [`TopologyView`] the round ran on.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ObservationStore {
    /// CSR row starts (n+1 entries): node `v`'s per-block slice is
    /// `offsets[v]..offsets[v+1]` within each block row.
    offsets: Vec<usize>,
    /// Neighbor id per directed edge, ascending within each row — the
    /// view's `csr_edges` at snapshot time. `edges[e]` is the neighbor
    /// that delivered on edge `e` to the row's owner.
    edges: Vec<u32>,
    /// Blocks recorded so far.
    blocks: usize,
    /// `times[b * edges.len() + e]`: normalized time `t̃ᵇu,v` of block `b`
    /// on directed edge `e` (`f32::INFINITY` when the neighbor never
    /// delivered — the paper's `t = ∞` convention).
    times: Vec<f32>,
}

impl ObservationStore {
    fn from_csr(offsets: Vec<usize>, edges: Vec<u32>) -> Self {
        ObservationStore {
            offsets,
            edges,
            blocks: 0,
            times: Vec::new(),
        }
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// `true` when the store covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of blocks recorded.
    pub fn block_count(&self) -> usize {
        self.blocks
    }

    /// Total directed-edge count `m` — the stride between consecutive
    /// block rows of the matrix.
    pub fn directed_edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Bytes held by the observation matrix (the round's dominant
    /// allocation) — for capacity planning and the scale benches.
    pub fn matrix_bytes(&self) -> usize {
        self.times.len() * std::mem::size_of::<f32>()
    }

    /// Appends another store's blocks after this one's, in order — the
    /// store-level twin of [`ObservationCollector::append`], used when
    /// already-finished chunks (e.g. the traffic layer's per-batch
    /// collectors) merge into a round store. A single contiguous extend.
    ///
    /// # Panics
    ///
    /// Panics if the two stores cover different CSR skeletons.
    pub fn append(&mut self, other: ObservationStore) {
        assert_eq!(self.offsets, other.offsets, "CSR offset mismatch");
        assert_eq!(self.edges, other.edges, "neighbor snapshot mismatch");
        self.times.extend_from_slice(&other.times);
        self.blocks += other.blocks;
    }

    /// Borrowed, allocation-free view of node `v`'s observations.
    pub fn node(&self, v: NodeId) -> NodeObservations<'_> {
        let start = self.offsets[v.index()];
        let end = self.offsets[v.index() + 1];
        NodeObservations {
            neighbors: &self.edges[start..end],
            start,
            blocks: self.blocks,
            data: ObsData::Dense {
                stride: self.edges.len(),
                times: &self.times,
            },
        }
    }
}

/// One round's observations compressed to one
/// [`EdgeSketch`] per directed edge over
/// the same CSR skeleton as the dense [`ObservationStore`] — 48 bytes
/// per edge regardless of how many blocks the round mined.
///
/// Built empty from the round's view and fed whole dense chunks in
/// block order via [`SketchObservationStore::ingest`]; see the module
/// docs for why that makes the sketch state chunking-invariant.
#[derive(Debug, Clone, PartialEq)]
pub struct SketchObservationStore {
    /// CSR row starts (n+1 entries), as in [`ObservationStore`].
    offsets: Vec<usize>,
    /// Neighbor id per directed edge, ascending within each row.
    edges: Vec<u32>,
    /// Blocks ingested so far.
    blocks: usize,
    /// Shared P² parameters (one per store, not per edge).
    params: SketchParams,
    /// One sketch per directed edge, indexed like a block row of the
    /// dense matrix.
    sketches: Vec<EdgeSketch>,
}

impl SketchObservationStore {
    /// An empty store over the CSR skeleton of `view`, tracking
    /// `percentile` (the scoring percentile of the run's config).
    pub fn from_view(view: &TopologyView, percentile: f64) -> Self {
        let edges = view.csr_edges().to_vec();
        SketchObservationStore {
            offsets: view.csr_offsets().to_vec(),
            sketches: vec![EdgeSketch::new(); edges.len()],
            edges,
            blocks: 0,
            params: SketchParams::new(percentile),
        }
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// `true` when the store covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Blocks ingested so far.
    pub fn block_count(&self) -> usize {
        self.blocks
    }

    /// Total directed-edge count `m`.
    pub fn directed_edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The percentile every per-edge sketch tracks.
    pub fn percentile(&self) -> f64 {
        self.params.percentile()
    }

    /// Bytes held by the per-edge sketches — the sketch-mode counterpart
    /// of [`ObservationStore::matrix_bytes`].
    pub fn sketch_bytes(&self) -> usize {
        self.sketches.len() * std::mem::size_of::<EdgeSketch>()
    }

    /// Folds one dense chunk into the sketches, column by column in the
    /// chunk's block order. Calling this with the consecutive chunks of
    /// a round (in block order) replays the exact sequential sample
    /// stream into every edge's sketch, whatever the chunk sizes were.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` was collected over a different CSR skeleton.
    pub fn ingest(&mut self, chunk: &ObservationStore) {
        assert_eq!(self.offsets, chunk.offsets, "CSR offset mismatch");
        assert_eq!(self.edges, chunk.edges, "neighbor snapshot mismatch");
        let m = self.edges.len();
        for b in 0..chunk.blocks {
            let row = &chunk.times[b * m..(b + 1) * m];
            for (sketch, &t) in self.sketches.iter_mut().zip(row) {
                sketch.observe(t, &self.params);
            }
        }
        self.blocks += chunk.blocks;
    }

    /// Borrowed, allocation-free view of node `v`'s observations.
    pub fn node(&self, v: NodeId) -> NodeObservations<'_> {
        let start = self.offsets[v.index()];
        let end = self.offsets[v.index() + 1];
        NodeObservations {
            neighbors: &self.edges[start..end],
            start,
            blocks: self.blocks,
            data: ObsData::Sketch {
                sketches: &self.sketches,
                params: &self.params,
            },
        }
    }
}

/// One round's observations in whichever backend the config selected —
/// what [`RoundObservations`](crate::RoundObservations) actually
/// carries. Scoring only ever sees [`NodeObservations`] views, so the
/// strategies are backend-agnostic except where they explicitly branch
/// (Subset's marginal fallback).
#[derive(Debug, Clone, PartialEq)]
pub enum RoundStore {
    /// The exact `blocks × edges` matrix.
    Dense(ObservationStore),
    /// One streaming sketch per directed edge.
    Sketch(SketchObservationStore),
}

impl RoundStore {
    /// Which backend this round ran under.
    pub fn backend(&self) -> ObservationBackend {
        match self {
            RoundStore::Dense(_) => ObservationBackend::Dense,
            RoundStore::Sketch(_) => ObservationBackend::Sketch,
        }
    }

    /// The dense store, when this round used the dense backend.
    pub fn as_dense(&self) -> Option<&ObservationStore> {
        match self {
            RoundStore::Dense(s) => Some(s),
            RoundStore::Sketch(_) => None,
        }
    }

    /// The sketch store, when this round used the sketch backend.
    pub fn as_sketch(&self) -> Option<&SketchObservationStore> {
        match self {
            RoundStore::Dense(_) => None,
            RoundStore::Sketch(s) => Some(s),
        }
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        match self {
            RoundStore::Dense(s) => s.len(),
            RoundStore::Sketch(s) => s.len(),
        }
    }

    /// `true` when the store covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of blocks recorded.
    pub fn block_count(&self) -> usize {
        match self {
            RoundStore::Dense(s) => s.block_count(),
            RoundStore::Sketch(s) => s.block_count(),
        }
    }

    /// Total directed-edge count `m`.
    pub fn directed_edge_count(&self) -> usize {
        match self {
            RoundStore::Dense(s) => s.directed_edge_count(),
            RoundStore::Sketch(s) => s.directed_edge_count(),
        }
    }

    /// Bytes held by the round's observation state (the dense matrix or
    /// the per-edge sketches) — for capacity planning and the scale
    /// benches.
    pub fn matrix_bytes(&self) -> usize {
        match self {
            RoundStore::Dense(s) => s.matrix_bytes(),
            RoundStore::Sketch(s) => s.sketch_bytes(),
        }
    }

    /// Borrowed, allocation-free view of node `v`'s observations.
    pub fn node(&self, v: NodeId) -> NodeObservations<'_> {
        match self {
            RoundStore::Dense(s) => s.node(v),
            RoundStore::Sketch(s) => s.node(v),
        }
    }
}

/// The backend-specific payload behind a [`NodeObservations`] view.
#[derive(Debug, Clone, Copy)]
enum ObsData<'a> {
    /// A window into the dense round matrix.
    Dense { stride: usize, times: &'a [f32] },
    /// A window into the per-edge sketch array.
    Sketch {
        sketches: &'a [EdgeSketch],
        params: &'a SketchParams,
    },
}

/// One node's observations for the round: a borrowed window into the
/// round's store (dense matrix or sketch array) — no per-node or
/// per-query allocation.
#[derive(Debug, Clone, Copy)]
pub struct NodeObservations<'a> {
    neighbors: &'a [u32],
    start: usize,
    blocks: usize,
    data: ObsData<'a>,
}

impl<'a> NodeObservations<'a> {
    /// Which backend this view reads from.
    pub fn backend(&self) -> ObservationBackend {
        match self.data {
            ObsData::Dense { .. } => ObservationBackend::Dense,
            ObsData::Sketch { .. } => ObservationBackend::Sketch,
        }
    }

    /// `true` when this view reads per-edge sketches rather than the
    /// exact dense matrix (strategies that need per-block joint
    /// statistics branch on this).
    pub fn is_sketch(&self) -> bool {
        matches!(self.data, ObsData::Sketch { .. })
    }

    /// All neighbors observed this round (outgoing and incoming),
    /// ascending.
    pub fn neighbors(&self) -> impl Iterator<Item = NodeId> + 'a {
        self.neighbors.iter().copied().map(NodeId::new)
    }

    /// The neighbors as raw ids, ascending — the node's CSR row.
    pub fn neighbor_ids(&self) -> &'a [u32] {
        self.neighbors
    }

    /// Number of neighbors.
    pub fn degree(&self) -> usize {
        self.neighbors.len()
    }

    /// Number of blocks observed.
    pub fn block_count(&self) -> usize {
        self.blocks
    }

    /// The position of neighbor `u` within the row, if present (the row
    /// is ascending, so this is a binary search).
    pub fn index_of(&self, u: NodeId) -> Option<usize> {
        self.neighbors.binary_search(&u.as_u32()).ok()
    }

    /// Block `b`'s normalized times for this node, aligned with
    /// [`NodeObservations::neighbor_ids`] — a contiguous slice of the
    /// round matrix. **Dense-only**: a per-block row is exactly what the
    /// sketch backend does not keep.
    ///
    /// # Panics
    ///
    /// Panics on the sketch backend.
    pub fn row(&self, block: usize) -> &'a [f32] {
        match self.data {
            ObsData::Dense { stride, times } => {
                let base = block * stride + self.start;
                &times[base..base + self.neighbors.len()]
            }
            ObsData::Sketch { .. } => {
                panic!("NodeObservations::row needs the dense backend (sketches keep no per-block rows)")
            }
        }
    }

    /// The normalized time of block `block` from the neighbor at row
    /// position `i` (`INFINITY` if it never delivered). **Dense-only**.
    ///
    /// # Panics
    ///
    /// Panics on the sketch backend.
    pub fn time_at(&self, block: usize, i: usize) -> f64 {
        match self.data {
            ObsData::Dense { stride, times } => times[block * stride + self.start + i] as f64,
            ObsData::Sketch { .. } => {
                panic!("NodeObservations::time_at needs the dense backend (sketches keep no per-block rows)")
            }
        }
    }

    /// The normalized time of block `block` from neighbor `u`
    /// (`INFINITY` if unknown or not a neighbor). **Dense-only**.
    ///
    /// # Panics
    ///
    /// Panics on the sketch backend.
    pub fn time_of(&self, block: usize, u: NodeId) -> f64 {
        match self.index_of(u) {
            Some(i) if block < self.blocks => self.time_at(block, i),
            _ => f64::INFINITY,
        }
    }

    /// The multiset `T̃u,v` of normalized times for neighbor `u`, in
    /// block order; empty if `u` was not a neighbor this round. Borrowed
    /// iteration over the store — no allocation.
    ///
    /// On the sketch backend the iterator yields *representative*
    /// samples instead: the exact seed values while the edge saw ≤ 5
    /// finite samples (which covers UCB's 1-block rounds), else the five
    /// marker heights, followed by the recorded number of `∞` entries.
    /// Block order is not preserved in that regime.
    pub fn times_for(&self, u: NodeId) -> TimesIter<'a> {
        match self.index_of(u) {
            Some(i) => self.column(i),
            None => TimesIter {
                inner: TimesInner::Dense {
                    times: &[],
                    pos: 0,
                    stride: 0,
                    remaining: 0,
                },
            },
        }
    }

    /// The times of the neighbor at row position `i`, in block order
    /// (representatives on the sketch backend — see
    /// [`NodeObservations::times_for`]).
    pub fn column(&self, i: usize) -> TimesIter<'a> {
        debug_assert!(i < self.neighbors.len());
        match self.data {
            ObsData::Dense { stride, times } => TimesIter {
                inner: TimesInner::Dense {
                    times,
                    pos: self.start + i,
                    stride,
                    remaining: self.blocks,
                },
            },
            ObsData::Sketch { sketches, .. } => {
                let s = &sketches[self.start + i];
                TimesIter {
                    inner: TimesInner::Sketch {
                        finite: s.representatives(),
                        idx: 0,
                        infinite: s.infinite(),
                    },
                }
            }
        }
    }

    /// The round's scoring statistic for the neighbor at row position
    /// `i`: the `p`-th percentile of its normalized times, `∞` when the
    /// `∞` entries dominate the tail — **the one query every scoring
    /// strategy funnels through**, so dense/sketch dispatch lives here.
    ///
    /// On the dense backend this collects the column into `buf` and
    /// calls [`percentile_or_inf_mut`] — bit-identical to what the
    /// strategies previously computed inline. On the sketch backend it
    /// reads the edge's P² estimate (`buf` untouched); the store tracks
    /// exactly one percentile, so `p` must match it.
    pub fn column_percentile_or_inf(&self, i: usize, p: f64, buf: &mut Vec<f64>) -> f64 {
        match self.data {
            ObsData::Dense { .. } => {
                buf.clear();
                buf.extend(self.column(i));
                percentile_or_inf_mut(buf, p)
            }
            ObsData::Sketch { sketches, params } => {
                debug_assert!(
                    p == params.percentile(),
                    "sketch store tracks p{}, scoring asked for p{p}",
                    params.percentile()
                );
                sketches[self.start + i].estimate_or_inf(params)
            }
        }
    }
}

/// The backend-specific iteration state of a [`TimesIter`].
#[derive(Debug, Clone)]
enum TimesInner<'a> {
    /// A strided walk down the dense round matrix, in block order.
    Dense {
        times: &'a [f32],
        pos: usize,
        stride: usize,
        remaining: usize,
    },
    /// The sketch's finite representatives, then `infinite` ∞ entries.
    Sketch {
        finite: &'a [f32],
        idx: usize,
        infinite: usize,
    },
}

/// Iterator over one neighbor's normalized times, yielding `f64` for
/// score math. Dense backend: the exact samples in block order. Sketch
/// backend: representative samples (see
/// [`NodeObservations::times_for`]).
#[derive(Debug, Clone)]
pub struct TimesIter<'a> {
    inner: TimesInner<'a>,
}

impl Iterator for TimesIter<'_> {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        match &mut self.inner {
            TimesInner::Dense {
                times,
                pos,
                stride,
                remaining,
            } => {
                if *remaining == 0 {
                    return None;
                }
                let t = times[*pos] as f64;
                *pos += *stride;
                *remaining -= 1;
                Some(t)
            }
            TimesInner::Sketch {
                finite,
                idx,
                infinite,
            } => {
                if *idx < finite.len() {
                    let t = finite[*idx] as f64;
                    *idx += 1;
                    Some(t)
                } else if *infinite > 0 {
                    *infinite -= 1;
                    Some(f64::INFINITY)
                } else {
                    None
                }
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = match &self.inner {
            TimesInner::Dense { remaining, .. } => *remaining,
            TimesInner::Sketch {
                finite,
                idx,
                infinite,
            } => finite.len() - idx + infinite,
        };
        (n, Some(n))
    }
}

impl ExactSizeIterator for TimesIter<'_> {}

/// Accumulates an [`ObservationStore`] over the blocks of one round.
///
/// The neighbor sets are snapshotted at construction (§2.1: connection
/// updates run synchronously between rounds, so neighbor sets are constant
/// within a round).
#[derive(Debug, Clone)]
pub struct ObservationCollector {
    store: ObservationStore,
    /// Reusable per-node row for the two-pass normalization of the
    /// reference recorders and of the fast paths' miner and unreached
    /// rows.
    row: Vec<f64>,
}

impl ObservationCollector {
    /// Snapshots the neighbor sets of a frozen [`TopologyView`] —
    /// [`Topology::neighbors`](perigee_netsim::Topology::neighbors) of
    /// every node at snapshot time, copied straight from the CSR arrays.
    pub fn from_view(view: &TopologyView) -> Self {
        ObservationCollector {
            store: ObservationStore::from_csr(
                view.csr_offsets().to_vec(),
                view.csr_edges().to_vec(),
            ),
            row: Vec::new(),
        }
    }

    /// Pre-allocates room for `blocks` further block rows, so the
    /// per-block recording never reallocates mid-round.
    pub fn reserve_blocks(&mut self, blocks: usize) {
        self.store
            .times
            .reserve_exact(blocks * self.store.edges.len());
    }

    /// Normalizes the freshly computed `self.row` (one node's f64
    /// delivery times for one block) against its minimum and appends it
    /// to the matrix as `f32`. Subtraction happens in `f64` *before* the
    /// cast, so every recording path produces bit-identical `f32`s for
    /// bit-identical `f64` inputs.
    fn push_normalized_row(&mut self) {
        let min = self.row.iter().copied().fold(f64::INFINITY, f64::min);
        if min.is_finite() {
            self.store
                .times
                .extend(self.row.iter().map(|&t| (t - min) as f32));
        } else {
            self.store.times.extend(self.row.iter().map(|&t| t as f32));
        }
    }

    /// Records one block flooded into `scratch`: appends, for every node
    /// `v`, its neighbors' normalized delivery times `relay_start(u) +
    /// δ(u,v)`, with `δ` from the latency model — the reference that
    /// [`ObservationCollector::record_scratch`] must match bit for bit.
    ///
    /// Normalization is relative to the first delivery from any neighbor
    /// (eq. 2). If no neighbor ever delivers, the row carries no
    /// information and stays all-infinite.
    pub fn record<L: LatencyModel + ?Sized>(&mut self, scratch: &BroadcastScratch, latency: &L) {
        for i in 0..self.store.len() {
            let v = NodeId::new(i as u32);
            let (start, end) = (self.store.offsets[i], self.store.offsets[i + 1]);
            self.row.clear();
            for e in start..end {
                let u = NodeId::new(self.store.edges[e]);
                // ∞ (never relayed) + δ stays ∞.
                self.row
                    .push((scratch.relay_start(u) + latency.delay(u, v)).as_ms());
            }
            self.push_normalized_row();
        }
        self.store.blocks += 1;
    }

    /// Records one block from the per-node delivery logs that
    /// [`reference::gossip_block`](perigee_netsim::reference::gossip_block)
    /// returns (a neighbor absent from a log never announced and reads
    /// `∞`, the paper's convention) — the reference that
    /// [`ObservationCollector::record_gossip_scratch`] must match bit for
    /// bit. Panics unless there is exactly one log per node.
    pub fn record_gossip(&mut self, logs: &[BTreeMap<NodeId, SimTime>]) {
        assert_eq!(logs.len(), self.store.len(), "one delivery log per node");
        for (i, log) in logs.iter().enumerate() {
            let (start, end) = (self.store.offsets[i], self.store.offsets[i + 1]);
            self.row.clear();
            for e in start..end {
                let u = NodeId::new(self.store.edges[e]);
                self.row
                    .push(log.get(&u).map_or(f64::INFINITY, |t| t.as_ms()));
            }
            self.push_normalized_row();
        }
        self.store.blocks += 1;
    }

    /// Records one block simulated at the message level through a
    /// [`TopologyView`] into a [`GossipScratch`](perigee_netsim::GossipScratch):
    /// per-neighbor announcement times are read straight off the scratch's
    /// flat, epoch-stamped per-edge delivery matrix — no `BTreeMap` walk,
    /// no allocation per node per block.
    ///
    /// Produces bit-identical rows to [`ObservationCollector::record_gossip`]
    /// on the same block's delivery logs, provided this collector was
    /// built from the same view ([`ObservationCollector::from_view`]).
    ///
    /// # Panics
    ///
    /// Panics if the view covers a different number of nodes than this
    /// collector, or if a node's snapshotted neighbor set disagrees with
    /// the view's CSR row.
    pub fn record_gossip_scratch(
        &mut self,
        view: &TopologyView,
        scratch: &perigee_netsim::GossipScratch,
    ) {
        assert_eq!(self.store.len(), view.len(), "view/collector size mismatch");
        for i in 0..self.store.len() {
            let v = NodeId::new(i as u32);
            let deliveries = scratch.neighbor_deliveries(view, v);
            assert_eq!(
                deliveries.len(),
                self.store.offsets[i + 1] - self.store.offsets[i],
                "neighbor snapshot disagrees with the view"
            );
            // Two passes over the borrowed iterator — min, then subtract
            // — with the subtraction in f64 before the f32 cast, exactly
            // like `record_gossip` on the same values.
            let min = deliveries
                .clone()
                .map(|t| t.as_ms())
                .fold(f64::INFINITY, f64::min);
            if min.is_finite() {
                self.store
                    .times
                    .extend(deliveries.map(|t| (t.as_ms() - min) as f32));
            } else {
                self.store
                    .times
                    .extend(deliveries.map(|t| t.as_ms() as f32));
            }
        }
        self.store.blocks += 1;
    }

    /// Records one block flooded through a [`TopologyView`] into a
    /// [`BroadcastScratch`]: per-neighbor delivery times come from the
    /// view's **cached** edge latencies (`relay_start(u) + δ(u,v)`),
    /// with no latency-model call per neighbor per block.
    ///
    /// Produces bit-identical rows to [`ObservationCollector::record`] on
    /// the same scratch, provided this collector was built from the same
    /// view ([`ObservationCollector::from_view`]).
    ///
    /// # Panics
    ///
    /// Panics if the view covers a different number of nodes than this
    /// collector.
    pub fn record_scratch(&mut self, view: &TopologyView, scratch: &BroadcastScratch) {
        assert_eq!(self.store.len(), view.len(), "view/collector size mismatch");
        let relay_at = scratch.relay_starts();
        let source = scratch.source();
        for i in 0..self.store.len() {
            let v = NodeId::new(i as u32);
            let neighbors = view.neighbors_raw(v);
            let delays = view.neighbor_delays(v);
            let arrival = scratch.arrival(v);
            // `relay + δ` is ∞ exactly when the relay never happened
            // (∞ + finite = ∞ in IEEE-754), so no branch per entry.
            if v != source && arrival.is_finite() {
                // Fast path: for every node but the miner, the first
                // delivery from any neighbor IS the first arrival (both
                // are `min_u relay(u) + δ(u,v)`, computed from the same
                // floats), so normalization fuses into the fill loop.
                let min = arrival.as_ms();
                self.store.times.extend(
                    neighbors
                        .iter()
                        .zip(delays)
                        .map(|(&u, &delay)| ((relay_at[u as usize] + delay).as_ms() - min) as f32),
                );
            } else {
                // The miner normalizes against its earliest *echo* (its
                // own arrival is 0 at mining time), and unreached nodes
                // keep their all-infinite row: two-pass like `record`.
                self.row.clear();
                self.row.extend(
                    neighbors
                        .iter()
                        .zip(delays)
                        .map(|(&u, &delay)| (relay_at[u as usize] + delay).as_ms()),
                );
                self.push_normalized_row();
            }
        }
        self.store.blocks += 1;
    }

    /// [`ObservationCollector::record_scratch`] for a flood run through
    /// [`TopologyView::broadcast_into_faulted`]: per-neighbor delivery
    /// times replay the *faulted* announcement leg. The announcement that
    /// reaches node `v` over its row entry `e` (neighbor `u`) crossed the
    /// opposite directed edge `reverse[e]` — the entry the flood itself
    /// consulted — so the same [`BlockFaults`](perigee_netsim::BlockFaults)
    /// lens reproduces the exact crossing:
    /// `relay(u) + announce_leg(reverse[e], δ)`, or `∞` when
    /// that announcement was dropped or its link was down.
    ///
    /// The non-miner fast path still holds under faults: the first
    /// arrival *is* the minimum faulted delivery over the row (both are
    /// computed from the same floats by the same lens), so normalization
    /// fuses into the fill loop exactly as in the fault-free path.
    ///
    /// # Panics
    ///
    /// Panics if the view covers a different number of nodes than this
    /// collector.
    pub fn record_scratch_faulted(
        &mut self,
        view: &TopologyView,
        scratch: &BroadcastScratch,
        faults: &perigee_netsim::BlockFaults<'_>,
    ) {
        assert_eq!(self.store.len(), view.len(), "view/collector size mismatch");
        let relay_at = scratch.relay_starts();
        let source = scratch.source();
        let edges = view.csr_edges();
        let delays = view.csr_delays();
        let reverse = view.csr_reverse();
        let offsets = view.csr_offsets();
        // The faulted delivery of `v`'s row entry `e`: ∞ when the
        // announcement never crossed, else the announcer's relay start
        // plus the faulted leg (∞ + finite = ∞ covers silent relays).
        let leg = |e: usize| -> f64 {
            let rev = reverse[e] as usize;
            match faults.announce_leg(rev, delays[rev]) {
                Some(l) => (relay_at[edges[e] as usize] + l).as_ms(),
                None => f64::INFINITY,
            }
        };
        for i in 0..self.store.len() {
            let v = NodeId::new(i as u32);
            let (start, end) = (offsets[i], offsets[i + 1]);
            let arrival = scratch.arrival(v);
            if v != source && arrival.is_finite() {
                let min = arrival.as_ms();
                self.store
                    .times
                    .extend((start..end).map(|e| (leg(e) - min) as f32));
            } else {
                self.row.clear();
                self.row.extend((start..end).map(leg));
                self.push_normalized_row();
            }
        }
        self.store.blocks += 1;
    }

    /// Appends another collector's blocks after this one's, in order —
    /// the merge step of the engine's parallel fan-out (each worker
    /// collects a contiguous chunk of the round's blocks; appending the
    /// chunks in block order reproduces the sequential collector exactly).
    /// With the block-major matrix this is a single contiguous extend —
    /// effectively one `memcpy` per worker chunk.
    ///
    /// # Panics
    ///
    /// Panics if the two collectors snapshotted different CSR skeletons.
    pub fn append(&mut self, other: ObservationCollector) {
        assert_eq!(
            self.store.offsets, other.store.offsets,
            "CSR offset mismatch"
        );
        assert_eq!(
            self.store.edges, other.store.edges,
            "neighbor snapshot mismatch"
        );
        self.store.times.extend_from_slice(&other.store.times);
        self.store.blocks += other.store.blocks;
    }

    /// Finishes the round, yielding the flat per-round store.
    pub fn finish(self) -> ObservationStore {
        self.store
    }
}

/// Unit-test shorthand: floods one block from each of `sources` through
/// a fresh view of the world and returns the round's store as the
/// production recorder writes it, after asserting that the reference
/// recorder writes the same rows.
#[cfg(test)]
pub(crate) fn observe_blocks<L: LatencyModel + ?Sized>(
    topology: &perigee_netsim::Topology,
    latency: &L,
    population: &perigee_netsim::Population,
    sources: &[u32],
) -> ObservationStore {
    let view = TopologyView::new(topology, latency, population);
    let mut fast = ObservationCollector::from_view(&view);
    let mut reference = ObservationCollector::from_view(&view);
    let mut scratch = BroadcastScratch::new();
    for &source in sources {
        view.broadcast_into(NodeId::new(source), &mut scratch);
        fast.record_scratch(&view, &scratch);
        reference.record(&scratch, latency);
    }
    let store = fast.finish();
    assert_eq!(
        store,
        reference.finish(),
        "record_scratch must equal record"
    );
    store
}

#[cfg(test)]
mod tests {
    use super::*;
    use perigee_netsim::{ConnectionLimits, MetricLatencyModel, NodeProfile, Population, Topology};

    /// Line world: nodes at 1-d coordinates, unit latency scale.
    fn world(coords: &[f64]) -> (Population, MetricLatencyModel, Topology) {
        let profiles: Vec<NodeProfile> = coords
            .iter()
            .map(|&x| NodeProfile {
                coords: vec![x],
                hash_power: 1.0,
                validation_delay: SimTime::from_ms(10.0),
                ..NodeProfile::default()
            })
            .collect();
        let pop = Population::from_profiles(profiles).unwrap();
        let lat = MetricLatencyModel::new(&pop, 1.0);
        let topo = Topology::new(coords.len(), ConnectionLimits::unlimited());
        (pop, lat, topo)
    }

    #[test]
    fn normalization_zeroes_the_first_deliverer() {
        // Triangle: node 2 hears from 0 (direct, 30ms) and from 1
        // (10 + 10 validation + 20 = 40ms).
        let (pop, lat, mut topo) = world(&[0.0, 10.0, 30.0]);
        topo.connect(NodeId::new(0), NodeId::new(1)).unwrap();
        topo.connect(NodeId::new(0), NodeId::new(2)).unwrap();
        topo.connect(NodeId::new(1), NodeId::new(2)).unwrap();
        let store = observe_blocks(&topo, &lat, &pop, &[0]);

        let o2 = store.node(NodeId::new(2));
        assert_eq!(o2.block_count(), 1);
        assert_eq!(o2.time_of(0, NodeId::new(0)), 0.0, "node 0 was first");
        assert_eq!(o2.time_of(0, NodeId::new(1)), 10.0, "node 1 was 10ms later");
    }

    #[test]
    fn miner_observes_echoes_from_neighbors() {
        let (pop, lat, mut topo) = world(&[0.0, 10.0, 30.0]);
        topo.connect(NodeId::new(0), NodeId::new(1)).unwrap();
        topo.connect(NodeId::new(0), NodeId::new(2)).unwrap();
        let store = observe_blocks(&topo, &lat, &pop, &[0]);
        // The miner's neighbors echo the block back after validating:
        // node1 at 10+10+10=30, node2 at 30+10+30=70; normalized to 0, 40.
        let o0 = store.node(NodeId::new(0));
        assert_eq!(o0.time_of(0, NodeId::new(1)), 0.0);
        assert_eq!(o0.time_of(0, NodeId::new(2)), 40.0);
    }

    #[test]
    fn unreachable_neighbors_read_infinity() {
        let (mut pop, lat, mut topo) = world(&[0.0, 10.0, 30.0]);
        topo.connect(NodeId::new(0), NodeId::new(1)).unwrap();
        topo.connect(NodeId::new(1), NodeId::new(2)).unwrap();
        pop.profile_mut(NodeId::new(1)).behavior = perigee_netsim::Behavior::Silent;
        let store = observe_blocks(&topo, &lat, &pop, &[0]);
        // Node 2's only neighbor (1) is silent: row is all-infinite.
        assert!(store
            .node(NodeId::new(2))
            .time_of(0, NodeId::new(1))
            .is_infinite());
        // times_for iterates a column in block order.
        assert_eq!(
            store.node(NodeId::new(2)).times_for(NodeId::new(1)).len(),
            1
        );
    }

    #[test]
    fn non_neighbor_queries_are_empty_or_infinite() {
        let (pop, lat, mut topo) = world(&[0.0, 10.0, 30.0]);
        topo.connect(NodeId::new(0), NodeId::new(1)).unwrap();
        let store = observe_blocks(&topo, &lat, &pop, &[0]);
        assert_eq!(
            store.node(NodeId::new(0)).times_for(NodeId::new(2)).len(),
            0
        );
        assert!(store
            .node(NodeId::new(0))
            .time_of(0, NodeId::new(2))
            .is_infinite());
        assert_eq!(store.node(NodeId::new(0)).index_of(NodeId::new(2)), None);
    }

    #[test]
    fn multiple_blocks_accumulate_rows() {
        let (pop, lat, mut topo) = world(&[0.0, 10.0, 30.0]);
        topo.connect(NodeId::new(0), NodeId::new(1)).unwrap();
        topo.connect(NodeId::new(1), NodeId::new(2)).unwrap();
        let store = observe_blocks(&topo, &lat, &pop, &[0, 2, 1]);
        let o1 = store.node(NodeId::new(1));
        assert_eq!(o1.block_count(), 3);
        assert_eq!(o1.times_for(NodeId::new(0)).len(), 3);
        assert_eq!(o1.row(2).len(), o1.degree());
        assert_eq!(store.block_count(), 3);
        assert_eq!(store.matrix_bytes(), 3 * store.directed_edge_count() * 4);
    }

    #[test]
    fn append_is_block_ordered_memcpy() {
        let (pop, lat, mut topo) = world(&[0.0, 10.0, 30.0]);
        topo.connect(NodeId::new(0), NodeId::new(1)).unwrap();
        topo.connect(NodeId::new(1), NodeId::new(2)).unwrap();
        let view = TopologyView::new(&topo, &lat, &pop);
        let mut seq = ObservationCollector::from_view(&view);
        let mut a = ObservationCollector::from_view(&view);
        let mut b = ObservationCollector::from_view(&view);
        let mut scratch = BroadcastScratch::new();
        for (i, src) in [0u32, 2, 1, 1].into_iter().enumerate() {
            view.broadcast_into(NodeId::new(src), &mut scratch);
            seq.record(&scratch, &lat);
            if i < 2 {
                a.record(&scratch, &lat)
            } else {
                b.record(&scratch, &lat)
            }
        }
        a.append(b);
        assert_eq!(a.finish(), seq.finish());
    }

    #[test]
    fn sketch_ingest_is_chunking_invariant() {
        let (pop, lat, mut topo) = world(&[0.0, 10.0, 30.0, 55.0]);
        topo.connect(NodeId::new(0), NodeId::new(1)).unwrap();
        topo.connect(NodeId::new(1), NodeId::new(2)).unwrap();
        topo.connect(NodeId::new(2), NodeId::new(3)).unwrap();
        topo.connect(NodeId::new(0), NodeId::new(3)).unwrap();
        let view = TopologyView::new(&topo, &lat, &pop);

        // Collect 8 blocks three ways: one chunk, 2+6, and 3+3+2.
        let sources = [0u32, 2, 1, 3, 0, 1, 2, 3];
        let collect =
            |range: std::ops::Range<usize>| observe_blocks(&topo, &lat, &pop, &sources[range]);

        let mut whole = SketchObservationStore::from_view(&view, 90.0);
        whole.ingest(&collect(0..8));

        let mut split2 = SketchObservationStore::from_view(&view, 90.0);
        split2.ingest(&collect(0..2));
        split2.ingest(&collect(2..8));

        let mut split3 = SketchObservationStore::from_view(&view, 90.0);
        split3.ingest(&collect(0..3));
        split3.ingest(&collect(3..6));
        split3.ingest(&collect(6..8));

        assert_eq!(whole, split2, "2-way chunking must not change the sketches");
        assert_eq!(whole, split3, "3-way chunking must not change the sketches");
        assert_eq!(whole.block_count(), 8);
    }

    #[test]
    fn sketch_node_view_matches_dense_when_exact() {
        // ≤ 5 finite samples per edge keeps the sketch in its exact seed
        // regime: percentiles and times_for must agree with dense.
        let (pop, lat, mut topo) = world(&[0.0, 10.0, 30.0]);
        topo.connect(NodeId::new(0), NodeId::new(1)).unwrap();
        topo.connect(NodeId::new(1), NodeId::new(2)).unwrap();
        let view = TopologyView::new(&topo, &lat, &pop);
        let dense = observe_blocks(&topo, &lat, &pop, &[0, 2, 1]);
        let mut sketch = SketchObservationStore::from_view(&view, 90.0);
        sketch.ingest(&dense);

        let mut buf = Vec::new();
        for v in 0..3u32 {
            let dv = dense.node(NodeId::new(v));
            let sv = sketch.node(NodeId::new(v));
            assert!(!dv.is_sketch());
            assert!(sv.is_sketch());
            assert_eq!(sv.neighbor_ids(), dv.neighbor_ids());
            assert_eq!(sv.block_count(), dv.block_count());
            for i in 0..dv.degree() {
                let exact = dv.column_percentile_or_inf(i, 90.0, &mut buf);
                let est = sv.column_percentile_or_inf(i, 90.0, &mut buf);
                assert_eq!(est, exact, "node {v} edge {i}");
                let mut d: Vec<f64> = dv.column(i).collect();
                let mut s: Vec<f64> = sv.column(i).collect();
                d.sort_by(f64::total_cmp);
                s.sort_by(f64::total_cmp);
                assert_eq!(
                    s.len(),
                    sv.column(i).len(),
                    "ExactSizeIterator must agree with iteration"
                );
                assert_eq!(s, d, "representatives are the exact multiset when ≤ 5");
            }
        }
        assert_eq!(sketch.sketch_bytes(), sketch.directed_edge_count() * 48);
    }

    #[test]
    #[should_panic(expected = "dense backend")]
    fn sketch_row_queries_panic() {
        let (pop, lat, mut topo) = world(&[0.0, 10.0]);
        topo.connect(NodeId::new(0), NodeId::new(1)).unwrap();
        let view = TopologyView::new(&topo, &lat, &pop);
        let mut sketch = SketchObservationStore::from_view(&view, 90.0);
        sketch.ingest(&observe_blocks(&topo, &lat, &pop, &[0]));
        let _ = sketch.node(NodeId::new(0)).row(0);
    }
}
