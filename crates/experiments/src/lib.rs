//! # perigee-experiments
//!
//! The reproduction harness: one module per figure of the Perigee paper's
//! evaluation (§5), plus the theory experiments (§3) and our extension
//! studies. The `repro` binary drives everything from the command line;
//! the integration tests reuse the same library functions.
//!
//! | Module | Paper result |
//! |--------|--------------|
//! | [`theory`] | Fig. 1 and Theorems 1–2 (metric-embedding stretch) |
//! | [`fig3`] | Fig. 3(a)/(b): delay curves for all seven algorithms |
//! | [`fig4`] | Fig. 4(a)/(b)/(c): validation sweep, mining pools, relay networks |
//! | [`fig5`] | Fig. 5: edge-latency histograms |
//! | [`convergence`] | §5.2 convergence remark |
//! | [`ablation`] | parameter sweeps (exploration, percentile, round size, UCB c) |
//! | [`adversary`] | free-rider starvation, eclipse recovery, churn |
//! | [`deployment`] | incremental deployment (§1.2) |
//! | [`discovery`] | partial peer knowledge via gossiped address books (§6) |
//! | [`bandwidth`] | bandwidth-heterogeneous INV/GETDATA regime (§2.1/§3.3) |
//! | [`dynamics`] | dynamic worlds: steady-state churn, mid-run 1k→10k growth (§6) |
//! | [`faults`] | link faults: burst loss, partitions, brownouts, flaps + gating ablation (§6) |
//! | [`traffic`] | continuous transaction-stream load: per-class λ-curves + blocks-only vs combined ablation (§2.1/§6) |
//! | [`resume`] | checkpoint/resume workflow + strict invariant auditing for long runs |

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod ablation;
pub mod adversary;
pub mod bandwidth;
pub mod convergence;
pub mod deployment;
pub mod discovery;
pub mod dynamics;
pub mod faults;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod resume;
pub mod runner;
pub mod scale;
pub mod scenario;
pub mod theory;
pub mod trace;
pub mod traffic;

pub use runner::{build_world, run_algorithm, run_parallel, run_seeds, Algorithm, RunOutput};
pub use scenario::{MinerCliqueSpec, RelaySpec, Scenario};
