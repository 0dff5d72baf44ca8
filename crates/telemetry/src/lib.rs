//! Run telemetry for the Perigee reproduction.
//!
//! The engine's results are all *trajectory* claims — λ-curves improving
//! round over round under churn, faults and traffic — so understanding a
//! run means understanding where each round's time went and what the hot
//! paths actually did. This crate is that observability layer:
//!
//! - [`PhaseTimer`] / [`PhaseProfile`] — lap timers that attribute
//!   wall-clock time to named phases of `PerigeeEngine::run_round`
//!   (propagation, scoring, churn, …) and render the standard
//!   phase-breakdown table every `repro` subcommand prints.
//! - [`TraceRecord`] / [`TraceSink`] — each round becomes one
//!   self-describing record; the [`MemorySink`] buffers them for tests,
//!   the [`JsonlSink`] streams them as JSON lines for `repro --trace`,
//!   and [`SharedSink`] lets many engines fan into one file.
//! - [`RunTelemetry`] — the handle an engine carries
//!   (`PerigeeEngine::set_telemetry`): label + seed stamps and the sink.
//! - [`JsonValue`] — a minimal JSON parser (the vendored `serde` has no
//!   JSON backend) used by `repro trace` and the CI trace gate to read
//!   trace files back.
//!
//! # Telemetry is strictly observational
//!
//! Nothing in this crate feeds back into the simulation: timers only
//! read the clock, counters only sum events that already happened, and
//! sinks only write out. An engine run with telemetry enabled is
//! bit-identical to the same run with it disabled — across thread
//! counts — and the determinism suite pins that contract. With
//! the handle absent the engine makes no clock reads and builds no
//! records, so the disabled path costs nothing. The enabled cost is what
//! roundbench reports as `trace.overhead` (the share by which the traced
//! median round exceeds the untraced one); it reads within run-to-run
//! spread.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod json;
pub mod phase;
pub mod trace;

pub use json::{escape as json_escape, fmt_f64 as json_f64, JsonError, JsonValue};
pub use phase::{PhaseEntry, PhaseProfile, PhaseTimer};
pub use trace::{
    JsonlSink, MemorySink, RunTelemetry, SharedSink, TraceRecord, TraceSink, TRACE_SCHEMA_VERSION,
};
