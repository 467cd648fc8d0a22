//! # lms-smooth — Laplacian Mesh Smoothing engines
//!
//! Implements Algorithm 1 of the paper and its variants:
//!
//! * [`SmoothEngine::smooth`] — serial sweeps, Gauss–Seidel (in place,
//!   Mesquite-like) or Jacobi (double-buffered), with the paper's
//!   storage-order or §4.2 greedy quality-driven visit policy;
//! * [`SmoothEngine::smooth_parallel`] — rayon static-chunk Jacobi,
//!   deterministic for any thread count;
//! * [`SmoothEngine::smooth_parallel_chaotic`] — in-place relaxed-atomic
//!   Gauss–Seidel, the closest analogue of the paper's OpenMP loop;
//! * [`SmoothEngine::smooth_parallel_colored`] — graph-colored in-place
//!   Gauss–Seidel: race-free **and** bitwise-deterministic for any thread
//!   count, driven by the same incremental quality cache as the serial
//!   hot path;
//! * [`ResidentEngine::smooth`] — domain-decomposed in-place
//!   Gauss–Seidel over an `lms-part` decomposition: part blocks stay
//!   resident for the whole run, interiors sweep as contiguous
//!   cache-resident blocks fully in parallel, interface vertices are
//!   smoothed inside their owning part with halo deltas exchanged between
//!   color steps; bitwise-deterministic and exactly serial Gauss–Seidel
//!   under the part-major visit order. Every resident run goes through
//!   one transport trait ([`FtResidentTransport`]) and one driver
//!   ([`drive_resident_ft_with`]);
//! * [`SmoothEngine::smooth_traced`] — any serial configuration while
//!   streaming every vertex-record access to an [`AccessSink`], feeding the
//!   reuse-distance and cache analyses of `lms-cache`.
//!
//! Every engine above runs on the **dimension-generic smoothing domain**
//! ([`domain::SmoothDomain`], const-generic in the element corner count,
//! with the [`dcache::DomainQualityCache`] carrying the incremental
//! quality protocol): the 2D `TriMesh` instantiations live here, and
//! `lms-mesh3d` instantiates the *same* sweep bodies for tetrahedra —
//! `SmoothEngine3` is a thin wrapper, not a copy. The resident engine is
//! written once too: [`Resident`] runs over any [`DomainEngine`], and
//! `ResidentEngine` / `ResidentEngine3` are its 2D / 3D instantiations.
//!
//! ```
//! use lms_smooth::SmoothParams;
//! let mut mesh = lms_mesh::generators::perturbed_grid(20, 20, 0.35, 1);
//! let report = SmoothParams::paper().smooth(&mut mesh);
//! assert!(report.final_quality > report.initial_quality);
//! ```

pub mod colored;
pub mod config;
pub mod dcache;
pub mod domain;
pub mod engine;
pub mod greedy;
pub mod kernel;
pub mod parallel;
pub mod pool;
pub mod rebalance;
pub mod resident;
pub mod soa;
pub mod stats;
pub mod trace;
pub mod transport;
pub mod weighting;

pub use colored::smooth_parallel_colored;
pub use config::{IterationPolicy, SmoothParams, UpdateScheme, Weighting};
pub use dcache::DomainQualityCache;
pub use domain::{
    domain_quality, domain_quality_scored, smooth_reference_on, weighted_candidate_on,
    DomainConfig, DomainPoint, SmoothDomain, TriDomain,
};
pub use engine::SmoothEngine;
pub use greedy::greedy_visit_order;
pub use parallel::{parallel_mesh_quality, smooth_parallel};
pub use pool::PoolCache;
pub use rebalance::{sweep_spread, AutoRebalanceEngine, RebalancePolicy};
pub use resident::{
    smooth_resident, DomainEngine, PairBatch, Resident, ResidentEngine, ResidentRank,
};
pub use soa::{score_elements_batched, scratch_grow_count, SoaCoords, SoaLike, SoaScores, LANES};
pub use stats::{ExchangeVolume, IterationStats, SmoothReport};
pub use trace::{AccessSink, CountSink, NullSink, VecSink};
pub use transport::{
    drive_resident_ft_with, FtPolicy, FtResidentTransport, FtStats, InProcessTransport,
};
pub use weighting::weighted_candidate;
