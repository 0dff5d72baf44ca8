//! A sketch-mode round holds at most one wave of dense observation rows
//! at a time: the fan-out folds each wave of chunks into the per-edge
//! sketches before recording the next, so a round's transient heap is
//! bounded by the pool's collectors plus the sketches, not by its
//! message count.
//!
//! The peak is measured by a counting `#[global_allocator]`, which sees
//! every thread of the process; this binary therefore holds this one
//! test only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use perigee_core::{
    ObservationBackend, PerigeeConfig, PerigeeEngine, ScoringMethod, SketchObservationStore,
};
use perigee_netsim::{
    ConnectionLimits, GeoLatencyModel, PopulationBuilder, TopologyView, TrafficConfig,
};
use perigee_topology::{RandomBuilder, TopologyBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// [`System`] plus live and peak byte counts. The counters publish only
/// statistics, so `Relaxed` suffices.
struct CountingAlloc {
    current: AtomicUsize,
    peak: AtomicUsize,
}

impl CountingAlloc {
    fn grow(&self, bytes: usize) {
        let now = self.current.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    fn shrink(&self, bytes: usize) {
        self.current.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Restarts peak tracking at the live total, which it returns.
    fn reset_peak(&self) -> usize {
        let now = self.current.load(Ordering::Relaxed);
        self.peak.store(now, Ordering::Relaxed);
        now
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System` upholds the `GlobalAlloc` contract; the counter
// updates touch only this struct's atomics and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller guarantees `layout` has non-zero size.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            self.grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            self.grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        self.shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr`/`layout` describe a live
        // block from this allocator and that `new_size` is valid for it.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            let old = layout.size();
            if new_size >= old {
                self.grow(new_size - old);
            } else {
                self.shrink(old - new_size);
            }
        }
        new
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc {
    current: AtomicUsize::new(0),
    peak: AtomicUsize::new(0),
};

/// One `run_round` of a 200-node sketch world under the paper's
/// transaction stream, on a 2-thread pool, peaks at most
/// `2 × pool × 8 × m × 4` bytes (two waves' worth of dense rows) plus
/// the sketches plus 1 MiB above its pre-round heap. Holding every
/// message's row at once would take `messages × m × 4` bytes, which the
/// test checks is far over that bound.
#[test]
fn sketch_round_holds_one_wave_of_dense_rows() {
    const POOL: usize = 2;
    const NODES: usize = 200;
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(POOL)
        .build()
        .unwrap();
    pool.install(|| {
        let mut rng = StdRng::seed_from_u64(5);
        let pop = PopulationBuilder::new(NODES).build(&mut rng).unwrap();
        let lat = GeoLatencyModel::new(&pop, 5);
        let topo =
            RandomBuilder::new().build(&pop, &lat, ConnectionLimits::paper_default(), &mut rng);
        let mut cfg = PerigeeConfig::paper_default(ScoringMethod::Subset);
        cfg.blocks_per_round = 20;
        cfg.observation_backend = ObservationBackend::Sketch;
        let percentile = cfg.percentile;
        let mut engine = PerigeeEngine::new(pop, lat, topo, ScoringMethod::Subset, cfg).unwrap();
        engine.set_traffic(TrafficConfig::paper_stream(9)).unwrap();
        // Round 0 builds the snapshot the engine carries from then on.
        engine.run_round(&mut rng);

        let (m, sketch_bytes) = {
            let view = TopologyView::new(engine.topology(), engine.latency(), engine.population());
            let sketches = SketchObservationStore::from_view(&view, percentile);
            (view.directed_edge_count(), sketches.sketch_bytes())
        };
        let before = ALLOC.reset_peak();
        engine.run_round(&mut rng);
        let transient = ALLOC.peak.load(Ordering::Relaxed) - before;

        let bound = 2 * POOL * 8 * m * 4 + sketch_bytes + (1 << 20);
        let messages = engine.last_traffic_stats().unwrap().messages;
        assert!(
            messages * m * 4 > 4 * bound,
            "the stream is too thin to tell: {messages} messages × {m} edges"
        );
        assert!(
            transient <= bound,
            "round peaked {transient} B above its start, over the {bound} B bound \
             ({messages} messages, {m} directed edges)"
        );
    });
}
