//! Steady round benchmark of the Perigee engine.
//!
//! One command takes a workload name and a seed, builds that world
//! through the engine crates' public API, and runs it as a closed loop —
//! one engine, rounds back to back — with tracing off, printing the
//! end-to-end metrics. A `--trace 1` run of the same workload and seed
//! repeats the rounds with the engine's telemetry installed and an
//! outside replay of each round's dominant layers, and prints the
//! per-layer table instead. `BENCHMARK.json` at the repository root
//! declares the metrics and bounds; `README.md` beside this crate gives
//! their definitions and the measured layer shares.

pub mod alloc;
pub mod bench;
pub mod host;
pub mod replay;
pub mod speed;
mod traced;
pub mod workload;

/// The process-wide counting allocator: the source of
/// `peak_heap_bytes` and of every transient-memory figure.
#[global_allocator]
pub static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc::new();
