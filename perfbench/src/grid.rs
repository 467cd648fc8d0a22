//! `grid-resident`: the production in-process engine — a 512×512
//! perturbed grid, 10 smart sweeps with `ResidentEngine::by_method`
//! (8-way RCB) on 2 threads.

use crate::harness::{drive, report_json, same_bits, secs, Config, Outcome, Rep, Tally, Workload};
use crate::layers::{push_engine_breakdown, push_exchange};
use crate::report::{Json, Samples};
use crate::tracer::Tracer;
use lms_mesh::generators::perturbed_grid;
use lms_mesh::{Adjacency, Boundary, TriMesh};
use lms_part::{partition_mesh, ExchangeSchedule, PartitionMethod};
use lms_smooth::{ResidentEngine, SmoothEngine, SmoothParams, SmoothReport};
use std::time::Instant;

const SIDE: usize = 512;
const JITTER: f64 = 0.35;
const PARTS: usize = 8;
const THREADS: usize = 2;
const SWEEPS: usize = 10;

fn params() -> SmoothParams {
    SmoothParams::paper().with_smart(true).with_tol(-1.0).with_max_iters(SWEEPS)
}

struct Grid {
    input: TriMesh,
    /// Serial part-major Gauss–Seidel output.
    coords: TriMesh,
    /// Report of the first resident run; traced runs must match it.
    report: Option<SmoothReport>,
}

impl Grid {
    fn check(&mut self, out: &TriMesh, report: &SmoothReport) -> Result<(), String> {
        if !same_bits(self.coords.coords(), out.coords()) {
            return Err("coordinates differ from serial part-major Gauss-Seidel".into());
        }
        let mut plain = report.clone();
        plain.phase_breakdown = None;
        match &self.report {
            Some(first) if *first != plain => Err("report differs from the first run's".into()),
            Some(_) => Ok(()),
            None => {
                self.report = Some(plain);
                Ok(())
            }
        }
    }
}

impl Workload for Grid {
    fn untraced_rep(&mut self, tally: &mut Tally) {
        let mut m = self.input.clone();
        let t0 = Instant::now();
        let engine = ResidentEngine::by_method(&m, params(), PARTS, PartitionMethod::Rcb);
        let setup_s = secs(t0);
        let t1 = Instant::now();
        let report = engine.smooth(&mut m, THREADS);
        let solve_s = secs(t1);
        let updates = (engine.engine().boundary().num_interior() * report.num_iterations()) as f64;
        tally.record(Rep { setup_s, solve_s, updates }, self.check(&m, &report));
    }

    fn traced_rep(&mut self, tr: &mut Tracer, samples: &mut Samples, tally: &mut Tally) {
        let mut m = self.input.clone();
        tr.begin("pipeline");
        let (adj, adjacency_ms) = tr.span("mesh.adjacency", || Adjacency::build(&m));
        let (partition, partition_ms) =
            tr.span("part.partition", || partition_mesh(&m, &adj, PARTS, PartitionMethod::Rcb));
        let stats = partition.stats();
        let (engine, resident_new_ms) =
            tr.span("smooth.resident_new", || ResidentEngine::new(&m, params(), partition));
        // by_method frees its adjacency inside setup; so does this pipeline
        drop(adj);
        tr.begin("smooth.solve");
        let (report, recorder) = engine.smooth_profiled(&mut m, THREADS);
        tr.absorb(&recorder);
        let solve_ms = tr.end("smooth.solve");
        let pipeline_ms = tr.end("pipeline");

        tr.begin("probe");
        let boundary_ms = tr.span("mesh.boundary", || Boundary::detect(&self.input)).1;
        let engine_new_ms =
            tr.span("smooth.engine_new", || SmoothEngine::new(&self.input, params())).1;
        let schedule_ms =
            tr.span("part.schedule", || ExchangeSchedule::build(engine.partition())).1;
        tr.end("probe");

        let interior = engine.engine().boundary().num_interior();
        let setup_ms = adjacency_ms + partition_ms + resident_new_ms;
        let updates = (interior * report.num_iterations()) as f64;
        tally.record(
            Rep { setup_s: setup_ms / 1e3, solve_s: solve_ms / 1e3, updates },
            self.check(&m, &report),
        );
        samples.push("mesh.adjacency_ms", adjacency_ms);
        samples.push("mesh.boundary_ms", boundary_ms);
        samples.push("part.partition_ms", partition_ms);
        samples.push("part.schedule_ms", schedule_ms);
        samples.push("part.edge_cut", stats.edge_cut as f64);
        samples.push("part.halo_vertices", stats.halo_vertices as f64);
        samples.push("smooth.engine_new_ms", engine_new_ms);
        samples.push("smooth.resident_new_ms", resident_new_ms);
        samples.push("smooth.ns_per_vertex_sweep", solve_ms * 1e6 / updates);
        let ifc: usize = engine.interface_classes().iter().map(Vec::len).sum();
        push_engine_breakdown(samples, &report, ifc, None);
        push_exchange(samples, &report);
        samples.push("trace.traced_total_s", pipeline_ms / 1e3);
    }
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let input = perturbed_grid(SIDE, SIDE, JITTER, cfg.seed);
    let params_json = vec![
        ("grid", Json::str(format!("{SIDE}x{SIDE}"))),
        ("vertices", Json::Int(input.num_vertices() as u64)),
        ("jitter", Json::Num(JITTER)),
        ("engine", Json::str("ResidentEngine::by_method")),
        ("partition", Json::str(format!("rcb, {PARTS} parts"))),
        ("threads", Json::Int(THREADS as u64)),
        ("smooth", Json::str(format!("smart, {SWEEPS} sweeps, tol -1"))),
    ];

    // the oracle: serial Gauss-Seidel in the resident engine's part-major
    // visit order, computed before timing
    let order = ResidentEngine::by_method(&input, params(), PARTS, PartitionMethod::Rcb)
        .part_major_visit_order();
    let mut coords = input.clone();
    SmoothEngine::new(&input, params()).with_visit_order(order).smooth(&mut coords);
    let mut grid = Grid { input, coords, report: None };
    let runs = drive(cfg, &mut grid);
    let output = grid.report.as_ref().map_or(Json::Obj(Vec::new()), report_json);
    Ok(Outcome { params: params_json, output, runs })
}
