//! `suite-rdr`: the paper's pipeline — RDR ordering, then plain serial
//! Gauss–Seidel under `SmoothParams::paper()` until it converges — on
//! suite meshes M1 (carabiner) and M6 (ocean) at scale 0.5.

use crate::harness::{
    drive, report_json, same_bits, secs, Config, Outcome, Rep, Runs, Tally, Workload,
};
use crate::report::{Json, Samples};
use crate::tracer::Tracer;
use lms_cache::{CacheHierarchy, NodeLayout};
use lms_mesh::generators::carved_grid;
use lms_mesh::suite::{domain_for, find_spec, MeshSpec, ORI_SCRAMBLE_BLOCK, SUITE_JITTER};
use lms_mesh::{Adjacency, Boundary, TriMesh};
use lms_order::{compute_ordering, layout_stats, OrderingKind};
use lms_smooth::{SmoothEngine, SmoothParams, SmoothReport, VecSink};
use std::time::Instant;

const LABELS: [&str; 2] = ["M1", "M6"];
const SCALE: f64 = 0.5;

/// A suite mesh as `lms_mesh::suite::generate` builds it — carved,
/// jittered grid, numbering shuffled within 256-vertex blocks — with the
/// benchmark seed mixed into the generator seed.
fn generate(spec: &MeshSpec, seed: u64) -> TriMesh {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let target = (spec.paper_vertices as f64 * SCALE) as usize;
    let label_seed =
        0xC0FFEE ^ spec.label.bytes().fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(b as u64));
    let mesh_seed = label_seed ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let raw = carved_grid(&domain_for(spec), target, SUITE_JITTER, mesh_seed);

    let n = raw.num_vertices();
    let mut rng = rand::rngs::SmallRng::seed_from_u64(mesh_seed ^ 0x5CA1AB1E);
    let mut new_to_old: Vec<u32> = (0..n as u32).collect();
    for chunk in new_to_old.chunks_mut(ORI_SCRAMBLE_BLOCK) {
        chunk.shuffle(&mut rng);
    }
    let perm = lms_order::Permutation::from_new_to_old(new_to_old)
        .expect("a per-block shuffle of the identity is a permutation");
    perm.apply_to_mesh(&raw)
}

struct Input {
    label: &'static str,
    mesh: TriMesh,
    reference_quality: f64,
    /// Output of the first checked run: later runs must match it bitwise.
    first_output: Option<TriMesh>,
    first_report: Option<SmoothReport>,
}

impl Input {
    fn check(&mut self, report: &SmoothReport, out: &TriMesh, tol: f64) -> Result<(), String> {
        if !report.converged {
            return Err(format!(
                "{}: no convergence in {} sweeps",
                self.label,
                report.num_iterations()
            ));
        }
        let gap = (report.final_quality - self.reference_quality).abs();
        if gap > tol {
            return Err(format!(
                "{}: final quality {} is {gap:.2e} from the reference {} (tolerance {tol})",
                self.label, report.final_quality, self.reference_quality
            ));
        }
        match &self.first_output {
            Some(first) if !same_bits(first.coords(), out.coords()) => {
                Err(format!("{}: output differs from the first run's", self.label))
            }
            Some(_) => Ok(()),
            None => {
                self.first_output = Some(out.clone());
                self.first_report = Some(report.clone());
                Ok(())
            }
        }
    }
}

/// One mesh through the untraced pipeline: (output, report, interior
/// vertices, setup s, solve s).
fn pipeline(mesh: &TriMesh) -> (TriMesh, SmoothReport, usize, f64, f64) {
    let t0 = Instant::now();
    let perm = compute_ordering(mesh, OrderingKind::Rdr);
    let mut m = perm.apply_to_mesh(mesh);
    let engine = SmoothEngine::new(&m, SmoothParams::paper());
    let setup = secs(t0);
    let t1 = Instant::now();
    let report = engine.smooth(&mut m);
    let solve = secs(t1);
    (m, report, engine.boundary().num_interior(), setup, solve)
}

/// Both suite meshes; one repetition runs each through the pipeline.
struct Suite {
    inputs: Vec<Input>,
    tol: f64,
}

/// The per-layer figures of one traced repetition (summed over the meshes
/// in [`Suite::traced_rep`]).
#[derive(Default)]
struct TracedMesh {
    rdr_ms: f64,
    apply_ms: f64,
    engine_new_ms: f64,
    solve_ms: f64,
    pipeline_ms: f64,
    sweeps: usize,
    interior: usize,
    adjacency_ms: f64,
    boundary_ms: f64,
    ori_solve_ms: f64,
    ori_sweeps: usize,
}

/// One mesh through the pipeline as separate spans, then the probes that
/// only the per-layer figures need (the ORI solve among them).
fn traced_mesh(input: &mut Input, tol: f64, tr: &mut Tracer) -> (TracedMesh, Result<(), String>) {
    let mut t = TracedMesh::default();
    tr.begin("pipeline");
    let (perm, ms) = tr.span("order.rdr", || compute_ordering(&input.mesh, OrderingKind::Rdr));
    t.rdr_ms = ms;
    let (mut m, ms) = tr.span("order.apply", || perm.apply_to_mesh(&input.mesh));
    t.apply_ms = ms;
    let (engine, ms) =
        tr.span("smooth.engine_new", || SmoothEngine::new(&m, SmoothParams::paper()));
    t.engine_new_ms = ms;
    let (report, ms) = tr.span("smooth.solve", || engine.smooth(&mut m));
    t.solve_ms = ms;
    t.pipeline_ms = tr.end("pipeline");
    t.sweeps = report.num_iterations();
    t.interior = engine.boundary().num_interior();
    let check = input.check(&report, &m, tol);

    tr.begin("probe");
    t.adjacency_ms = tr.span("mesh.adjacency", || Adjacency::build(&m)).1;
    t.boundary_ms = tr.span("mesh.boundary", || Boundary::detect(&m)).1;
    let ori_engine = SmoothEngine::new(&input.mesh, SmoothParams::paper());
    let mut ori = input.mesh.clone();
    let (ori_report, ms) = tr.span("order.ori_solve", || ori_engine.smooth(&mut ori));
    t.ori_solve_ms = ms;
    t.ori_sweeps = ori_report.num_iterations();
    tr.end("probe");
    (t, check)
}

/// Simulated L2 and L3 misses of the second (warm) sweep of the full
/// application stream — vertex records plus the triangle records of the
/// quality update — on the paper's Westmere-EX hierarchy. A model, not a
/// hardware count.
fn model_misses_per_sweep(mesh: &TriMesh) -> (f64, f64) {
    let engine = SmoothEngine::new(mesh, SmoothParams::paper().with_max_iters(2));
    let mut sink = VecSink::new();
    engine.smooth_traced_with_quality(&mut mesh.clone(), &mut sink);
    let layout = NodeLayout::paper_66().with_aux(mesh.num_vertices() as u32, 12);
    let mut h = CacheHierarchy::westmere_ex(layout);
    h.run_trace(sink.iteration(0));
    h.reset_stats();
    h.run_trace(sink.iteration(1));
    let misses = |level| h.stats_of(level).expect("westmere_ex has L2 and L3").misses as f64;
    (misses("L2"), misses("L3"))
}

/// Layout and cache-model figures: deterministic per mesh, so computed
/// once per run, outside the timed repetitions.
fn static_figures(inputs: &[Input], runs: &mut Runs) {
    let (samples, tr) = (&mut runs.samples, &mut runs.tracer);
    tr.set_trace_id(0);
    tr.begin("static");
    let mut sums = [0.0; 8];
    for input in inputs {
        let rdr = compute_ordering(&input.mesh, OrderingKind::Rdr).apply_to_mesh(&input.mesh);
        let ori_stats = layout_stats(&input.mesh, &Adjacency::build(&input.mesh));
        let rdr_stats = layout_stats(&rdr, &Adjacency::build(&rdr));
        let ((l2_rdr, l3_rdr), _) = tr.span("cache.model", || model_misses_per_sweep(&rdr));
        let ((l2_ori, l3_ori), _) = tr.span("cache.model", || model_misses_per_sweep(&input.mesh));
        let per_mesh = [
            rdr_stats.mean_gap,
            rdr_stats.mean_span,
            ori_stats.mean_gap,
            ori_stats.mean_span,
            l2_rdr,
            l2_ori,
            l3_rdr,
            l3_ori,
        ];
        for (s, x) in sums.iter_mut().zip(per_mesh) {
            *s += x;
        }
    }
    tr.end("static");
    let k = inputs.len() as f64;
    // layout figures are means over the meshes; misses are sums (one
    // sweep over each mesh)
    let names = [
        ("order.mean_gap", k),
        ("order.mean_span", k),
        ("order.ori_mean_gap", k),
        ("order.ori_mean_span", k),
        ("cache.model_l2_misses_per_sweep_rdr", 1.0),
        ("cache.model_l2_misses_per_sweep_ori", 1.0),
        ("cache.model_l3_misses_per_sweep_rdr", 1.0),
        ("cache.model_l3_misses_per_sweep_ori", 1.0),
    ];
    for ((name, div), sum) in names.into_iter().zip(sums) {
        samples.push(name, sum / div);
    }
}

impl Workload for Suite {
    fn untraced_rep(&mut self, tally: &mut Tally) {
        let mut rep = Rep { setup_s: 0.0, solve_s: 0.0, updates: 0.0 };
        let mut check = Ok(());
        for input in self.inputs.iter_mut() {
            let (out, report, interior, setup, solve) = pipeline(&input.mesh);
            rep.setup_s += setup;
            rep.solve_s += solve;
            rep.updates += (interior * report.num_iterations()) as f64;
            check = check.and(input.check(&report, &out, self.tol));
        }
        tally.record(rep, check);
    }

    fn traced_rep(&mut self, tr: &mut Tracer, samples: &mut Samples, tally: &mut Tally) {
        let mut sum = TracedMesh::default();
        let mut check = Ok(());
        let mut ori_ms_per_sweep = 0.0;
        let mut updates = 0;
        for input in self.inputs.iter_mut() {
            let (t, c) = traced_mesh(input, self.tol, tr);
            check = check.and(c);
            ori_ms_per_sweep += t.ori_solve_ms / t.ori_sweeps.max(1) as f64;
            sum.rdr_ms += t.rdr_ms;
            sum.apply_ms += t.apply_ms;
            sum.engine_new_ms += t.engine_new_ms;
            sum.solve_ms += t.solve_ms;
            sum.pipeline_ms += t.pipeline_ms;
            sum.sweeps += t.sweeps;
            updates += t.interior * t.sweeps;
            sum.adjacency_ms += t.adjacency_ms;
            sum.boundary_ms += t.boundary_ms;
            sum.ori_solve_ms += t.ori_solve_ms;
            sum.ori_sweeps += t.ori_sweeps;
        }
        let setup_ms = sum.rdr_ms + sum.apply_ms + sum.engine_new_ms;
        tally.record(
            Rep { setup_s: setup_ms / 1e3, solve_s: sum.solve_ms / 1e3, updates: updates as f64 },
            check,
        );
        samples.push("order.rdr_ms", sum.rdr_ms);
        samples.push("order.apply_ms", sum.apply_ms);
        samples.push("order.ori_ms_per_sweep", ori_ms_per_sweep);
        samples.push("order.rdr_cost_sweeps", sum.rdr_ms / ori_ms_per_sweep);
        samples.push("order.ori_solve_ms", sum.ori_solve_ms);
        samples.push("order.rdr_solve_ms", sum.solve_ms);
        samples.push("order.solve_speedup_vs_ori", sum.ori_solve_ms / sum.solve_ms);
        samples.push("order.ori_sweeps", sum.ori_sweeps as f64);
        samples.push("order.rdr_sweeps", sum.sweeps as f64);
        samples.push("mesh.adjacency_ms", sum.adjacency_ms);
        samples.push("mesh.boundary_ms", sum.boundary_ms);
        samples.push("smooth.engine_new_ms", sum.engine_new_ms);
        samples.push("smooth.sweeps", sum.sweeps as f64);
        samples.push("smooth.ns_per_vertex_sweep", sum.solve_ms * 1e6 / updates as f64);
        samples.push("trace.traced_total_s", sum.pipeline_ms / 1e3);
    }
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut inputs = Vec::new();
    for label in LABELS {
        let spec = find_spec(label).expect("suite label");
        let reference_quality =
            cfg.ref_quality
                .iter()
                .find(|(l, _)| l == label)
                .map(|&(_, q)| q)
                .ok_or_else(|| format!("suite-rdr needs --ref-quality for {label}"))?;
        let mesh = generate(spec, cfg.seed);
        inputs.push(Input {
            label,
            mesh,
            reference_quality,
            first_output: None,
            first_report: None,
        });
    }
    let params = vec![
        ("meshes", Json::Arr(LABELS.iter().map(|l| Json::str(*l)).collect())),
        ("scale", Json::Num(SCALE)),
        (
            "vertices",
            Json::Arr(inputs.iter().map(|i| Json::Int(i.mesh.num_vertices() as u64)).collect()),
        ),
        ("ordering", Json::str("rdr")),
        ("smooth", Json::str("SmoothParams::paper(): plain Gauss-Seidel, tol 5e-6, serial")),
        (
            "ref_quality",
            Json::obj(inputs.iter().map(|i| (i.label, Json::Num(i.reference_quality)))),
        ),
        ("quality_tol", Json::Num(cfg.quality_tol)),
    ];

    let mut suite = Suite { inputs, tol: cfg.quality_tol };
    let mut runs = drive(cfg, &mut suite);
    if cfg.trace {
        static_figures(&suite.inputs, &mut runs);
    }
    let output = Json::obj(
        suite.inputs.iter().filter_map(|i| Some((i.label, report_json(i.first_report.as_ref()?)))),
    );
    Ok(Outcome { params, output, runs })
}
