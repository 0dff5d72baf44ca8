//! Deterministic calendar (bucket) priority queues for the propagation
//! hot paths.
//!
//! Both propagation engines spend their remaining time in a
//! `BinaryHeap`: the Dijkstra flood of
//! [`TopologyView::broadcast_into`](crate::TopologyView::broadcast_into)
//! pops `(time-bits, node)` pairs, the message-level engine of
//! [`TopologyView::gossip_into`](crate::TopologyView::gossip_into) pops
//! packed `u128` event words. Simulated latencies span roughly 2–300 ms —
//! exactly the regime where a Dial/calendar queue with sub-millisecond
//! buckets beats a comparison heap: `push` appends to the bucket the key's
//! time quantizes into, `pop` drains the current bucket in sorted order
//! and advances, so the per-operation cost is O(1) amortized instead of
//! O(log n).
//!
//! # Exactness: quantized placement, exact ordering
//!
//! The determinism guarantee every cross-engine test leans on is that
//! events pop in **exactly** the `BinaryHeap` order — ascending by the
//! full packed key, where the high bits are the IEEE-754 bits of the
//! event time (non-negative, so bit order equals value order) and the low
//! bits carry the tie-break (node id for the flood, insertion sequence
//! for gossip). The calendar quantizes only the *placement*: a key lands
//! in bucket `⌊t / 0.5 ms⌋`, but the bucket stores the exact packed key
//! and is sorted on it before it is drained. Because bucketing by
//! quantized time is a coarsening of ordering by exact time, ascending
//! bucket order refined by ascending in-bucket key order *is* ascending
//! full-key order — no f64 is ever rounded, so the pop sequence (and
//! therefore every arrival, relay and delivery float downstream) is
//! bit-identical to the heap's.
//!
//! # Monotone contract
//!
//! [`CalendarQueue`] is a *monotone* priority queue: a key pushed after a
//! pop must be ≥ the last popped key (asserted). Both engines satisfy
//! this by construction — Dijkstra relaxations and gossip schedules only
//! ever add non-negative delays to the event time being processed. Keys
//! must be NaN-free and non-negative; `SimTime::INFINITY` never enters
//! either queue (silent nodes are filtered before scheduling).
//!
//! Keys later than the [`HORIZON_MS`] wheel horizon (far beyond any
//! simulated propagation) spill into an exact `BinaryHeap` overflow, so
//! correctness never depends on the horizon.
//!
//! [`PackedQueue`] is the runtime-selectable front end: the scratch
//! engines default to the calendar ([`QueueKind::Calendar`]) and keep the
//! binary heap available as the bit-identical reference
//! ([`QueueKind::BinaryHeap`]) for the cross-engine equivalence suite.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Bucket width of the calendar wheel, in milliseconds.
///
/// Sub-millisecond, per the quantization story above: with link latencies
/// of 2–300 ms, a 0.5 ms bucket keeps the expected bucket occupancy at a
/// handful of events, so the in-bucket sort stays near-free while the
/// wheel stays small enough to reset cheaply.
pub const BUCKET_WIDTH_MS: f64 = 0.5;

/// `1 / BUCKET_WIDTH_MS`, the multiply used to quantize keys (a multiply
/// is cheaper than a divide and exact for power-of-two widths).
const BUCKET_INV_MS: f64 = 2.0;

/// Number of direct wheel buckets; keys at or beyond
/// `HORIZON_MS = BUCKET_WIDTH_MS × 2^16` (≈ 32.8 s — an order of
/// magnitude past any simulated propagation) go to the exact overflow
/// heap instead of growing the wheel without bound.
const HORIZON_BUCKETS: usize = 1 << 16;

/// The wheel horizon in milliseconds: `BUCKET_WIDTH_MS × 2^16`
/// (≈ 32.8 s), past which keys go to the exact overflow heap.
pub const HORIZON_MS: f64 = BUCKET_WIDTH_MS * HORIZON_BUCKETS as f64;

/// A packed priority-queue key whose high bits are the IEEE-754 bits of a
/// non-negative event time — so integer `Ord` equals "by time, ties by
/// the low-bit payload" — and which can report that time for bucket
/// placement.
pub trait TimeKey: Copy + Ord {
    /// The event time in milliseconds. Must be non-negative and NaN-free,
    /// and must order consistently with `Ord` on the full key (keys with
    /// smaller time compare smaller).
    fn time_ms(self) -> f64;
}

/// The analytic flood's key: `(time.to_bits(), node id)` — tuple order is
/// "by time, ties by ascending node id", exactly the legacy heap's.
impl TimeKey for (u64, u32) {
    #[inline]
    fn time_ms(self) -> f64 {
        f64::from_bits(self.0)
    }
}

/// The gossip engine's packed event word (see `pack_event` in
/// [`gossip`](crate::gossip)): bits 127..64 are the event-time bits, so
/// integer order is "by time, ties by insertion sequence".
impl TimeKey for u128 {
    #[inline]
    fn time_ms(self) -> f64 {
        f64::from_bits((self >> 64) as u64)
    }
}

/// Which priority-queue implementation a scratch engine runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueKind {
    /// `std::collections::BinaryHeap` — the original engine and the
    /// bit-identical reference the equivalence suite compares against.
    BinaryHeap,
    /// The calendar/bucket queue of this module: O(1) amortized
    /// operations, bit-identical pop order (the default).
    #[default]
    Calendar,
}

/// A monotone calendar queue over packed time keys (see the module docs
/// for the exactness and monotonicity contracts).
///
/// Reusable across blocks: [`CalendarQueue::clear`] is O(1) after a full
/// drain, and no allocation happens after the wheel has grown to the
/// workload's time horizon once.
///
/// # Examples
///
/// ```
/// use perigee_netsim::pq::CalendarQueue;
///
/// let mut q = CalendarQueue::new();
/// // Keys are (time-bits, payload): same integer order as a BinaryHeap
/// // of Reverse<(u64, u32)>, popped ascending.
/// q.push((2.0f64.to_bits(), 7));
/// q.push((0.25f64.to_bits(), 9));
/// q.push((2.0f64.to_bits(), 3)); // exact time tie: payload breaks it
/// assert_eq!(q.pop(), Some((0.25f64.to_bits(), 9)));
/// assert_eq!(q.pop(), Some((2.0f64.to_bits(), 3)));
/// assert_eq!(q.pop(), Some((2.0f64.to_bits(), 7)));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct CalendarQueue<K> {
    /// `buckets[b]` holds the keys with `⌊t · BUCKET_INV_MS⌋ == b`.
    /// Buckets ahead of the cursor are unsorted append logs; the current
    /// bucket is sorted with `cursor` marking how far it has drained.
    buckets: Vec<Vec<K>>,
    /// Exact fallback for keys at or beyond the wheel horizon.
    overflow: BinaryHeap<Reverse<K>>,
    /// Current bucket index (monotone between [`CalendarQueue::clear`]s).
    cur: usize,
    /// Drain position within the sorted current bucket.
    cursor: usize,
    /// Keys in wheel buckets (excluding already-popped positions).
    wheel_len: usize,
    /// Total queued keys (wheel + overflow).
    len: usize,
}

impl<K> Default for CalendarQueue<K> {
    fn default() -> Self {
        CalendarQueue {
            buckets: Vec::new(),
            overflow: BinaryHeap::new(),
            cur: 0,
            cursor: 0,
            wheel_len: 0,
            len: 0,
        }
    }
}

impl<K: TimeKey> CalendarQueue<K> {
    /// Creates an empty queue (the wheel grows on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of queued keys.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no keys are queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes all keys, keeping the wheel's allocations for reuse.
    ///
    /// O(1) after a full drain (the common case between blocks): buckets
    /// behind the cursor were already cleared as the cursor passed them,
    /// so only the current bucket needs truncating.
    pub fn clear(&mut self) {
        if self.wheel_len > 0 {
            // Partial drain: pending keys may sit anywhere ahead.
            for b in &mut self.buckets {
                b.clear();
            }
        } else if let Some(b) = self.buckets.get_mut(self.cur) {
            b.clear();
        }
        self.overflow.clear();
        self.cur = 0;
        self.cursor = 0;
        self.wheel_len = 0;
        self.len = 0;
    }

    /// Pushes a key.
    ///
    /// # Panics
    ///
    /// Panics if the key's bucket lies behind the current cursor — i.e.
    /// the caller violated the monotone contract (pushing a key smaller
    /// than the last popped one).
    #[inline]
    pub fn push(&mut self, key: K) {
        let t = key.time_ms();
        debug_assert!(
            t >= 0.0 && !t.is_nan(),
            "calendar keys must be non-negative and NaN-free"
        );
        // Saturating float→int cast: any time past the horizon (or an
        // astronomically large one) lands in the exact overflow heap.
        let bucket = (t * BUCKET_INV_MS) as usize;
        self.len += 1;
        if bucket >= HORIZON_BUCKETS {
            self.overflow.push(Reverse(key));
            return;
        }
        assert!(
            bucket >= self.cur,
            "monotone contract violated: key at {t} ms behind the cursor"
        );
        if bucket >= self.buckets.len() {
            self.buckets.resize_with(bucket + 1, Vec::new);
        }
        self.wheel_len += 1;
        let b = &mut self.buckets[bucket];
        if bucket == self.cur {
            // The current bucket's undrained tail is kept sorted, so a
            // same-bucket insertion lands at its exact ordered position
            // (buckets hold a handful of keys; the shift is cheap).
            let i = self.cursor + b[self.cursor..].partition_point(|k| *k < key);
            b.insert(i, key);
        } else {
            b.push(key);
        }
    }

    /// Pops the minimum key — exactly the key a `BinaryHeap` of
    /// `Reverse<K>` would pop.
    #[inline]
    pub fn pop(&mut self) -> Option<K> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        if self.wheel_len == 0 {
            // Wheel keys are all earlier than the horizon, overflow keys
            // all at or past it, so the wheel strictly precedes.
            return self.overflow.pop().map(|Reverse(k)| k);
        }
        self.wheel_len -= 1;
        loop {
            let b = &self.buckets[self.cur];
            if self.cursor < b.len() {
                let k = b[self.cursor];
                self.cursor += 1;
                return Some(k);
            }
            // Bucket exhausted: clear it behind us (what makes `clear`
            // O(1) after a full drain) and sort the next one entered.
            self.buckets[self.cur].clear();
            self.cur += 1;
            self.cursor = 0;
            let b = &mut self.buckets[self.cur];
            if b.len() > 1 {
                b.sort_unstable();
            }
        }
    }
}

/// The runtime-selectable priority queue the scratch engines run on:
/// either the reference `BinaryHeap` or the [`CalendarQueue`], behind one
/// push/pop interface. Pop order is bit-identical between the two (the
/// calendar's exactness contract), so the choice is pure performance.
#[derive(Debug, Clone)]
pub enum PackedQueue<K> {
    /// The reference heap (`BinaryHeap<Reverse<K>>`).
    Heap(BinaryHeap<Reverse<K>>),
    /// The calendar queue.
    Calendar(CalendarQueue<K>),
}

impl<K: TimeKey> Default for PackedQueue<K> {
    fn default() -> Self {
        PackedQueue::with_kind(QueueKind::default())
    }
}

impl<K: TimeKey> PackedQueue<K> {
    /// Creates an empty queue of the given kind.
    pub fn with_kind(kind: QueueKind) -> Self {
        match kind {
            QueueKind::BinaryHeap => PackedQueue::Heap(BinaryHeap::new()),
            QueueKind::Calendar => PackedQueue::Calendar(CalendarQueue::new()),
        }
    }

    /// Creates an empty heap-kind queue with pre-sized capacity (the
    /// calendar wheel sizes itself on first use instead).
    pub fn with_kind_and_capacity(kind: QueueKind, capacity: usize) -> Self {
        match kind {
            QueueKind::BinaryHeap => PackedQueue::Heap(BinaryHeap::with_capacity(capacity)),
            QueueKind::Calendar => PackedQueue::Calendar(CalendarQueue::new()),
        }
    }

    /// Which implementation this queue runs on.
    pub fn kind(&self) -> QueueKind {
        match self {
            PackedQueue::Heap(_) => QueueKind::BinaryHeap,
            PackedQueue::Calendar(_) => QueueKind::Calendar,
        }
    }

    /// Number of queued keys.
    pub fn len(&self) -> usize {
        match self {
            PackedQueue::Heap(h) => h.len(),
            PackedQueue::Calendar(c) => c.len(),
        }
    }

    /// `true` when no keys are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes all keys, keeping allocations for reuse.
    #[inline]
    pub fn clear(&mut self) {
        match self {
            PackedQueue::Heap(h) => h.clear(),
            PackedQueue::Calendar(c) => c.clear(),
        }
    }

    /// Pushes a key (see [`CalendarQueue::push`] for the monotone
    /// contract the calendar kind enforces).
    #[inline]
    pub fn push(&mut self, key: K) {
        match self {
            PackedQueue::Heap(h) => h.push(Reverse(key)),
            PackedQueue::Calendar(c) => c.push(key),
        }
    }

    /// Pops the minimum key; identical order for both kinds.
    #[inline]
    pub fn pop(&mut self) -> Option<K> {
        match self {
            PackedQueue::Heap(h) => h.pop().map(|Reverse(k)| k),
            PackedQueue::Calendar(c) => c.pop(),
        }
    }
}

mod codec {
    //! Checkpoint codec impls (see `serde::bin`).

    use serde::bin::{Decode, DecodeError, Encode, Reader};

    use super::QueueKind;

    impl Encode for QueueKind {
        fn encode(&self, out: &mut Vec<u8>) {
            match self {
                QueueKind::BinaryHeap => 0u8.encode(out),
                QueueKind::Calendar => 1u8.encode(out),
            }
        }
    }

    impl Decode for QueueKind {
        fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
            match u8::decode(r)? {
                0 => Ok(QueueKind::BinaryHeap),
                1 => Ok(QueueKind::Calendar),
                _ => Err(DecodeError::new("invalid queue-kind tag")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(t: f64, payload: u32) -> (u64, u32) {
        (t.to_bits(), payload)
    }

    fn drain<K: TimeKey>(q: &mut CalendarQueue<K>) -> Vec<K> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn pops_in_full_key_order() {
        let mut q = CalendarQueue::new();
        let mut keys = vec![
            key(10.0, 3),
            key(0.0, 1),
            key(10.0, 2),
            key(0.49, 9),   // same bucket as 0.0
            key(0.5, 4),    // exact bucket boundary
            key(300.25, 0), // the latency ceiling regime
            key(10.0, 1),
        ];
        for &k in &keys {
            q.push(k);
        }
        keys.sort_unstable();
        assert_eq!(drain(&mut q), keys);
    }

    #[test]
    fn matches_binary_heap_under_monotone_interleaving() {
        // A deterministic pseudo-random monotone workload: after each
        // pop, push keys at `popped time + delay` like Dijkstra does.
        let mut cal = CalendarQueue::new();
        let mut heap = BinaryHeap::new();
        let mut state = 0x9E37_79B9u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as u32
        };
        cal.push(key(0.0, 0));
        heap.push(Reverse(key(0.0, 0)));
        let mut pops = 0u32;
        while let Some(k) = cal.pop() {
            assert_eq!(heap.pop(), Some(Reverse(k)));
            pops += 1;
            if pops > 400 {
                continue;
            }
            let t = f64::from_bits(k.0);
            for _ in 0..(next() % 3) {
                // Delays from sub-bucket (0.1 ms) to multi-second.
                let delay = match next() % 4 {
                    0 => 0.1,
                    1 => f64::from(next() % 300) + 0.25,
                    2 => 0.5 * f64::from(next() % 7), // exact boundaries
                    _ => 2000.0,
                };
                let k2 = key(t + delay, next());
                cal.push(k2);
                heap.push(Reverse(k2));
            }
        }
        assert_eq!(heap.pop(), None);
        assert!(cal.is_empty());
    }

    #[test]
    fn horizon_overflow_is_exact() {
        let mut q = CalendarQueue::new();
        let mut keys = vec![
            key(HORIZON_MS - 0.25, 1), // last wheel bucket
            key(HORIZON_MS, 2),        // first overflow key
            key(HORIZON_MS * 4.0, 3),
            key(1.0, 4),
            key(f64::MAX, 5), // saturating cast territory
        ];
        for &k in &keys {
            q.push(k);
        }
        assert_eq!(q.len(), 5);
        keys.sort_unstable();
        assert_eq!(drain(&mut q), keys);
    }

    #[test]
    fn same_bucket_insertion_during_drain_stays_ordered() {
        let mut q = CalendarQueue::new();
        q.push(key(0.01, 0));
        q.push(key(0.40, 1));
        assert_eq!(q.pop(), Some(key(0.01, 0)));
        // Still inside bucket 0: both land between the cursor and the
        // pending 0.40 key.
        q.push(key(0.30, 2));
        q.push(key(0.05, 3));
        assert_eq!(
            drain(&mut q),
            vec![key(0.05, 3), key(0.30, 2), key(0.40, 1)]
        );
    }

    #[test]
    fn clear_resets_for_reuse() {
        let mut q = CalendarQueue::new();
        for i in 0..50u32 {
            q.push(key(f64::from(i) * 7.3, i));
        }
        let first = drain(&mut q);
        q.clear();
        for i in 0..50u32 {
            q.push(key(f64::from(i) * 7.3, i));
        }
        assert_eq!(drain(&mut q), first);

        // Clearing a partially drained queue must also reset cleanly.
        q.clear();
        q.push(key(1000.0, 1));
        q.push(key(0.0, 2));
        let _ = q.pop();
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        q.push(key(2.0, 9));
        assert_eq!(drain(&mut q), vec![key(2.0, 9)]);
    }

    #[test]
    #[should_panic(expected = "monotone contract")]
    fn non_monotone_push_panics() {
        let mut q = CalendarQueue::new();
        q.push(key(100.0, 0));
        let _ = q.pop();
        q.push(key(1.0, 1));
    }

    #[test]
    fn packed_queue_kinds_agree() {
        let mut heap = PackedQueue::with_kind(QueueKind::BinaryHeap);
        let mut cal = PackedQueue::with_kind(QueueKind::Calendar);
        assert_eq!(heap.kind(), QueueKind::BinaryHeap);
        assert_eq!(cal.kind(), QueueKind::Calendar);
        for i in 0..200u32 {
            let k = key(f64::from(i * 37 % 100) * 0.77, i);
            heap.push(k);
            cal.push(k);
        }
        assert_eq!(heap.len(), cal.len());
        loop {
            let (a, b) = (heap.pop(), cal.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert!(heap.is_empty() && cal.is_empty());
    }

    #[test]
    fn u128_keys_bucket_by_high_time_bits() {
        let word = |t: f64, seq: u32| ((t.to_bits() as u128) << 64) | ((seq as u128) << 32);
        let mut q: CalendarQueue<u128> = CalendarQueue::new();
        let mut keys = vec![word(5.0, 2), word(5.0, 1), word(0.2, 7), word(400.0, 0)];
        for &k in &keys {
            q.push(k);
        }
        keys.sort_unstable();
        assert_eq!(drain(&mut q), keys);
    }
}
