//! Host speed reference: a fixed computation timed next to every sample,
//! so the time metrics can be stated at one reference host speed.
//!
//! On shared virtual machines the same code runs up to ~1.7× slower for
//! stretches of seconds to minutes, with little steal time to show for it
//! (co-tenants on the same cores, caches, memory bus and frequency
//! budget). A run's raw seconds then mostly measure which stretch it
//! landed in. The reference below is independent of the engine crates —
//! Dijkstra over a frozen random graph plus sorting short rows, the mix
//! the rounds spend their time on — so a change to the engine cannot move
//! it, while a host slowdown moves it and the rounds alike. Dividing a
//! sample's seconds by the reference time measured right after it, and
//! multiplying by [`NOMINAL_S`], states the sample at the reference speed.
//! It tracks the cache-resident worlds closely; the memory-bound ones also
//! swing with memory-system contention it does not see.
//!
//! Constructions have a reference of their own, [`build_twin_s`]: a
//! std-only twin of the world's random topology build at the same node
//! count. At 100k nodes the build is bound by the latency of scattered
//! small allocations, which the compute pass does not see either; the twin
//! shares that cost, the host's caches and the allocator's state.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

use crate::ALLOC;

/// The reference pass's nominal duration: times are reported as if one
/// pass took exactly this long (about what it takes on a 2-vCPU Xeon
/// virtual machine).
pub const NOMINAL_S: f64 = 0.003;

/// Times `reps` reference passes and returns the median in seconds. The
/// passes' allocations happen before the timed part, are freed before it
/// returns and are kept out of the allocator's peak.
pub fn reference_s(reps: usize) -> f64 {
    let peak = ALLOC.peak();
    let mut times = compute_passes(reps.max(1));
    ALLOC.restore_peak(peak);
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// The construction twin's nominal duration per node: construction times
/// are reported as if the twin took exactly this long (it takes about
/// 0.9 µs per node at 1k nodes and 1.4–1.9 µs at 100k on a 2-vCPU Xeon
/// virtual machine).
pub const NOMINAL_BUILD_S_PER_NODE: f64 = 1e-6;

/// Times one construction twin of `nodes` nodes, in seconds: the random
/// topology build as the world's construction does it — shuffled node
/// order, eight random out-links per node, at most twenty in-links,
/// `BTreeSet` adjacency both ways — over a fixed xorshift stream. Its
/// allocations are freed before it returns and kept out of the peak.
pub fn build_twin_s(nodes: usize) -> f64 {
    const DOUT: usize = 8;
    const DIN_MAX: usize = 20;
    let peak = ALLOC.peak();
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let mut next = move |bound: usize| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % bound as u64) as usize
    };
    let t = Instant::now();
    let mut out = vec![BTreeSet::<u32>::new(); nodes];
    let mut incoming = vec![BTreeSet::<u32>::new(); nodes];
    let mut order: Vec<u32> = (0..nodes as u32).collect();
    for i in (1..nodes).rev() {
        order.swap(i, next(i + 1));
    }
    let dout = DOUT.min(nodes.saturating_sub(1));
    for &u in &order {
        let mut attempts = 0;
        while out[u as usize].len() < dout && attempts < 50 * DOUT {
            attempts += 1;
            let v = next(nodes);
            if v != u as usize && incoming[v].len() < DIN_MAX && out[u as usize].insert(v as u32) {
                incoming[v].insert(u);
            }
        }
    }
    let seconds = t.elapsed().as_secs_f64();
    black_box((&out, &incoming));
    drop((out, incoming));
    ALLOC.restore_peak(peak);
    seconds
}

/// How many reference passes to time after a sample of `sample_s`
/// seconds: about 3% of the sample, at least three, at most fifteen.
pub fn reps_for(sample_s: f64) -> usize {
    ((0.03 * sample_s / NOMINAL_S).round() as usize).clamp(3, 15)
}

/// The compute pass's graph and sort rows: small enough to stay in the
/// core's private caches, so the pass measures the core's speed (its
/// clock and the sibling hyperthread's pressure) rather than shared-cache
/// contention, which a larger pass swung with far more than the rounds.
const NODES: usize = 2000;
const DEGREE: usize = 16;
const FLOODS: u32 = 4;
const ROW: usize = 64;
const ROWS: usize = 400;

/// `reps` timed compute passes, in seconds.
fn compute_passes(reps: usize) -> Vec<f64> {
    let (offsets, targets, weights) = frozen_graph();
    let mut dist = vec![u64::MAX; NODES];
    let mut heap = BinaryHeap::new();
    let mut rows = vec![0f32; ROW * ROWS];
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            let mut acc = 0u64;
            for source in 0..FLOODS {
                dist.fill(u64::MAX);
                dist[source as usize] = 0;
                heap.push(Reverse((0u64, source)));
                while let Some(Reverse((d, u))) = heap.pop() {
                    if d > dist[u as usize] {
                        continue;
                    }
                    for e in offsets[u as usize]..offsets[u as usize + 1] {
                        let (v, nd) = (targets[e] as usize, d + u64::from(weights[e]));
                        if nd < dist[v] {
                            dist[v] = nd;
                            heap.push(Reverse((nd, v as u32)));
                        }
                    }
                }
                acc = acc.wrapping_add(dist.iter().filter(|&&x| x != u64::MAX).sum::<u64>());
            }
            for (i, row) in rows.chunks_mut(ROW).enumerate() {
                for (j, x) in row.iter_mut().enumerate() {
                    *x = ((i * 7919 + j * 104_729) % 1000) as f32;
                }
                row.sort_by(f32::total_cmp);
                acc = acc.wrapping_add(row[ROW * 9 / 10] as u64);
            }
            black_box(acc);
            t.elapsed().as_secs_f64()
        })
        .collect()
}

/// A fixed pseudo-random digraph in CSR form (xorshift, constant seed).
fn frozen_graph() -> (Vec<usize>, Vec<u32>, Vec<u32>) {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut offsets = Vec::with_capacity(NODES + 1);
    let mut targets = Vec::with_capacity(NODES * DEGREE);
    let mut weights = Vec::with_capacity(NODES * DEGREE);
    offsets.push(0);
    for _ in 0..NODES {
        for _ in 0..DEGREE {
            targets.push((next() % NODES as u64) as u32);
            weights.push((next() % 1000 + 1) as u32);
        }
        offsets.push(targets.len());
    }
    (offsets, targets, weights)
}
