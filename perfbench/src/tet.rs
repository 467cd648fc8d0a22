//! `tet-dist`: the multi-process engine in 3D — suite mesh T1 `cube` at
//! scale 20 (44³ vertices), 10 smart sweeps with
//! `DistResidentEngine3::by_method` (2-way RCB): 2 forked ranks over
//! pipes, default `FtOptions`.

use crate::harness::{drive, report_json, same_bits, secs, Config, Outcome, Rep, Tally, Workload};
use crate::layers::{push_engine_breakdown, push_exchange};
use crate::report::{Json, Samples};
use crate::tracer::Tracer;
use lms_dist::{DistResidentEngine3, FtOptions};
use lms_mesh3d::generators::{block_scramble, perturbed_tet_grid, ORI3_SCRAMBLE_BLOCK, SUITE3};
use lms_mesh3d::{
    partition_tet_mesh, Adjacency3, Boundary3, ResidentEngine3, SmoothEngine3, SmoothParams3,
    TetMesh,
};
use lms_part::{ExchangeSchedule, PartitionMethod};
use lms_smooth::{FtStats, SmoothReport};
use std::time::Instant;

const SCALE: f64 = 20.0;
const RANKS: usize = 2;
const SWEEPS: usize = 10;

fn params() -> SmoothParams3 {
    SmoothParams3::paper().with_smart(true).with_tol(-1.0).with_max_iters(SWEEPS)
}

/// T1 as `lms_mesh3d::generators::generate3` builds it at `SCALE`, with
/// the benchmark seed mixed into the generator seed.
fn generate(seed: u64) -> TetMesh {
    let spec = &SUITE3[0];
    let s = SCALE.cbrt();
    let (nx, ny, nz) = spec.cells;
    let cells = |n: usize| ((n as f64 * s).round() as usize).max(2);
    let label_seed =
        0xC0FFEE ^ spec.label.bytes().fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(b as u64));
    let mesh_seed = label_seed ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let jitter = spec.jitter_milli as f64 / 1000.0;
    let raw = perturbed_tet_grid(cells(nx), cells(ny), cells(nz), jitter, mesh_seed);
    block_scramble(raw, ORI3_SCRAMBLE_BLOCK, mesh_seed)
}

struct Tet {
    input: TetMesh,
    /// `ResidentEngine3` output and report.
    coords: TetMesh,
    report: SmoothReport,
    /// Elements the in-process run scored (the ranks do not ship it).
    scored_elements: u64,
}

impl Tet {
    fn check(
        &self,
        out: &TetMesh,
        result: &Result<(SmoothReport, FtStats), lms_dist::DistError>,
    ) -> Result<(), String> {
        let (report, stats) =
            result.as_ref().map_err(|e| format!("distributed run failed: {e}"))?;
        if !stats.recoveries.is_empty() {
            return Err(format!("unexpected recoveries: {:?}", stats.recoveries));
        }
        let mut plain = report.clone();
        plain.phase_breakdown = None;
        if plain != self.report {
            return Err("report differs from ResidentEngine3's".into());
        }
        if !same_bits(self.coords.coords(), out.coords()) {
            return Err("coordinates differ from ResidentEngine3's".into());
        }
        Ok(())
    }
}

impl Workload for Tet {
    fn untraced_rep(&mut self, tally: &mut Tally) {
        let mut m = self.input.clone();
        let t0 = Instant::now();
        let engine = DistResidentEngine3::by_method(&m, params(), RANKS, PartitionMethod::Rcb);
        let setup_s = secs(t0);
        let t1 = Instant::now();
        // smooth_ft, not smooth: a run that cannot fork must fail here, not
        // quietly degrade to the in-process engine
        let result = engine.smooth_ft(&mut m, &FtOptions::default());
        let solve_s = secs(t1);
        let interior = engine.inner().engine().boundary().num_interior();
        let updates = (interior * self.report.num_iterations()) as f64;
        tally.record(Rep { setup_s, solve_s, updates }, self.check(&m, &result));
    }

    fn traced_rep(&mut self, tr: &mut Tracer, samples: &mut Samples, tally: &mut Tally) {
        let mut m = self.input.clone();
        tr.begin("pipeline");
        let (adj, adjacency_ms) = tr.span("mesh3d.adjacency", || Adjacency3::build(&m));
        let (partition, partition_ms) =
            tr.span("part.partition", || partition_tet_mesh(&m, &adj, RANKS, PartitionMethod::Rcb));
        let stats = partition.stats();
        let (engine, resident_new_ms) =
            tr.span("smooth.resident_new", || DistResidentEngine3::new(&m, params(), partition));
        // by_method frees its adjacency inside setup; so does this pipeline
        drop(adj);
        tr.begin("smooth.solve");
        let profiled = engine.smooth_profiled(&mut m, &FtOptions::default());
        if let Ok((_, _, recorder)) = &profiled {
            tr.absorb(recorder);
        }
        let solve_ms = tr.end("smooth.solve");
        let pipeline_ms = tr.end("pipeline");

        tr.begin("probe");
        let boundary_ms = tr.span("mesh3d.boundary", || Boundary3::detect(&self.input)).1;
        let engine_new_ms =
            tr.span("mesh3d.engine_new", || SmoothEngine3::new(&self.input, params())).1;
        let schedule_ms =
            tr.span("part.schedule", || ExchangeSchedule::build(engine.inner().partition())).1;
        tr.end("probe");

        let result = profiled.map(|(report, stats, _)| (report, stats));
        let interior = engine.inner().engine().boundary().num_interior();
        let updates = (interior * self.report.num_iterations()) as f64;
        let setup_ms = adjacency_ms + partition_ms + resident_new_ms;
        tally.record(
            Rep { setup_s: setup_ms / 1e3, solve_s: solve_ms / 1e3, updates },
            self.check(&m, &result),
        );
        let Ok((report, ft)) = result else { return };
        samples.push("mesh3d.adjacency_ms", adjacency_ms);
        samples.push("mesh3d.boundary_ms", boundary_ms);
        samples.push("mesh3d.engine_new_ms", engine_new_ms);
        samples.push("smooth.engine_new_ms", engine_new_ms);
        samples.push("part.partition_ms", partition_ms);
        samples.push("part.schedule_ms", schedule_ms);
        samples.push("part.edge_cut", stats.edge_cut as f64);
        samples.push("part.halo_vertices", stats.halo_vertices as f64);
        samples.push("smooth.resident_new_ms", resident_new_ms);
        samples.push("smooth.ns_per_vertex_sweep", solve_ms * 1e6 / updates);
        let ifc: usize = engine.inner().interface_classes().iter().map(Vec::len).sum();
        push_engine_breakdown(samples, &report, ifc, Some(self.scored_elements));
        push_exchange(samples, &report);
        let b = report.phase_breakdown.as_ref().expect("profiled run carries a breakdown");
        let t = &b.transport;
        samples.push("dist.encode_ms", t.encode_ns as f64 / 1e6);
        samples.push("dist.decode_ms", t.decode_ns as f64 / 1e6);
        samples.push("dist.poll_wait_ms", t.poll_wait_ns as f64 / 1e6);
        samples.push("dist.hidden_wait_ms", t.hidden_wait_ns as f64 / 1e6);
        samples.push("dist.checkpoint_ms", b.checkpoint_ns as f64 / 1e6);
        let rank_max = b.per_part_sweep_ns().into_iter().max().unwrap_or(0);
        samples.push("dist.rank_compute_max_ms", rank_max as f64 / 1e6);
        samples.push("dist.recoveries", ft.recoveries.len() as f64);
        samples.push("trace.traced_total_s", pipeline_ms / 1e3);
    }
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let input = generate(cfg.seed);
    let params_json = vec![
        ("mesh", Json::str(format!("T1 cube, scale {SCALE}"))),
        ("vertices", Json::Int(input.num_vertices() as u64)),
        ("engine", Json::str("DistResidentEngine3::by_method + smooth_ft")),
        ("partition", Json::str(format!("rcb, {RANKS} parts"))),
        ("ranks", Json::Int(RANKS as u64)),
        ("transport", Json::str("forked ranks over pipes, FtOptions::default()")),
        ("smooth", Json::str(format!("smart, {SWEEPS} sweeps, tol -1"))),
    ];

    // the oracle: the in-process resident engine, computed before timing
    let reference = ResidentEngine3::by_method(&input, params(), RANKS, PartitionMethod::Rcb);
    let mut coords = input.clone();
    let report = reference.smooth(&mut coords, RANKS);
    let (profiled, _) = reference.smooth_profiled(&mut input.clone(), RANKS);
    let scored_elements =
        profiled.phase_breakdown.map(|b| b.transport.scored_elements).unwrap_or(0);
    drop(reference);
    let mut tet = Tet { input, coords, report, scored_elements };
    let runs = drive(cfg, &mut tet);
    let output = report_json(&tet.report);
    Ok(Outcome { params: params_json, output, runs })
}
