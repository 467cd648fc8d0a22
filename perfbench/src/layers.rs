//! Per-layer figures read off a profiled resident run's report.

use crate::report::Samples;
use lms_smooth::SmoothReport;

/// Kernel and drive-loop phase figures of a profiled resident run.
///
/// `interface_vertices` is the number of interior vertices on part
/// interfaces (the vertices the color steps sweep, and the only ones
/// whose commits the ranks count), so `moved_ratio` is committed moves ÷
/// interface vertex visits. `scored_override` supplies the scored-element
/// count where the transport cannot observe it (remote ranks do not ship
/// it); the caller takes it from the in-process run of the same,
/// bit-identical computation.
pub fn push_engine_breakdown(
    samples: &mut Samples,
    report: &SmoothReport,
    interface_vertices: usize,
    scored_override: Option<u64>,
) {
    let b = report.phase_breakdown.as_ref().expect("profiled run carries a breakdown");
    let sweeps = report.num_iterations();
    let scored = scored_override.unwrap_or(b.transport.scored_elements);
    let per_part: Vec<u64> = b.per_part_sweep_ns();
    let rank_ns: u64 = per_part.iter().sum();
    let moved: u64 = b.transport.rank_phases.iter().map(|r| r.moved).sum();
    let visits = (interface_vertices * sweeps) as f64;
    let max = per_part.iter().copied().max().unwrap_or(0) as f64;
    let mean = rank_ns as f64 / per_part.len().max(1) as f64;

    samples.push("smooth.sweeps", sweeps as f64);
    samples.push("smooth.scored_elements", scored as f64);
    samples.push("smooth.ns_per_scored_element", rank_ns as f64 / scored.max(1) as f64);
    samples.push("smooth.moved_vertices", moved as f64);
    samples.push("smooth.interface_visits", visits);
    samples.push("smooth.moved_ratio", moved as f64 / visits.max(1.0));
    samples.push("smooth.gather_ms", b.gather_ns as f64 / 1e6);
    samples.push("smooth.color_step_ms", b.color_step_ns as f64 / 1e6);
    samples.push("smooth.scatter_ms", b.scatter_ns as f64 / 1e6);
    samples.push("smooth.part_sweep_imbalance", if mean > 0.0 { max / mean } else { 0.0 });
}

/// Halo traffic per exchange round.
pub fn push_exchange(samples: &mut Samples, report: &SmoothReport) {
    let x = report.exchange.expect("resident runs account their exchange");
    let rounds = x.exchange_rounds.max(1) as f64;
    samples.push("smooth.halo_messages_per_round", x.halo_messages_sent as f64 / rounds);
    samples.push("smooth.halo_bytes_per_round", x.halo_bytes_sent as f64 / rounds);
}
