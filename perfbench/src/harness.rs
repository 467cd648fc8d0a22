//! What every workload shares: the repetition loop and the tally of
//! timed, checked repetitions.

use crate::report::{Json, Samples};
use crate::tracer::Tracer;
use std::time::{Duration, Instant};

/// Settings of one run, from the command line.
#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `suite-rdr` oracle: reference final quality per suite label.
    pub ref_quality: Vec<(String, f64)>,
    /// `suite-rdr` oracle: allowed |final quality − reference|.
    pub quality_tol: f64,
}

/// The timings of one passed repetition.
#[derive(Debug, Clone, Copy)]
pub struct Rep {
    pub setup_s: f64,
    pub solve_s: f64,
    /// Interior vertices × sweeps executed.
    pub updates: f64,
}

/// Attempted and failed repetitions, with the timings of the passed ones.
/// A failed repetition is never dropped: it counts in `failed` and its
/// reason is kept.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reps: Vec<Rep>,
    pub failures: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, rep: Rep, check: Result<(), String>) {
        self.attempted += 1;
        match check {
            Ok(()) => self.reps.push(rep),
            Err(why) => {
                self.failed += 1;
                self.failures.push(why);
            }
        }
    }
}

/// One workload's repetition, in its two forms.
pub trait Workload {
    /// Run the pipeline once, timed without tracing, and check its output.
    fn untraced_rep(&mut self, tally: &mut Tally);
    /// Run the same pipeline as separate spans, check its output, then
    /// run the probes only the per-layer figures need.
    fn traced_rep(&mut self, tr: &mut Tracer, samples: &mut Samples, tally: &mut Tally);
}

/// The repetitions of one run.
#[derive(Default)]
pub struct Runs {
    /// Untraced repetitions (the end-to-end figures; the traced run uses
    /// them as the base of `trace.overhead_ratio`).
    pub untraced: Tally,
    /// Traced repetitions (traced run only).
    pub traced: Tally,
    /// Per-layer samples (traced run only).
    pub samples: Samples,
    pub tracer: Tracer,
}

/// What a workload run hands back to `main`.
pub struct Outcome {
    /// The workload's parameters, for the host manifest.
    pub params: Vec<(&'static str, Json)>,
    /// What the checked output looked like (final quality, sweeps).
    pub output: Json,
    pub runs: Runs,
}

/// Fewest repetitions of each kind a run makes, however short
/// `--seconds` is.
const MIN_REPS: usize = 3;

/// One untimed warm-up repetition — checked, so its outcome counts — then
/// repetitions until `cfg.seconds` have passed: untraced ones, or for a
/// traced run untraced and traced ones in turn, each traced repetition
/// under its own trace id.
pub fn drive(cfg: &Config, workload: &mut impl Workload) -> Runs {
    let mut runs = Runs::default();
    workload.untraced_rep(&mut runs.untraced);
    runs.untraced.reps.clear();
    let min_reps = if cfg.trace { 2 * MIN_REPS } else { MIN_REPS };
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let mut i = 0;
    while i < min_reps || Instant::now() < deadline {
        if cfg.trace && i % 2 == 1 {
            runs.tracer.set_trace_id(i as u32);
            workload.traced_rep(&mut runs.tracer, &mut runs.samples, &mut runs.traced);
        } else {
            workload.untraced_rep(&mut runs.untraced);
        }
        i += 1;
    }
    runs
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Bitwise equality of two coordinate arrays, as `f64` bit patterns.
pub fn same_bits<P: lms_smooth::domain::DomainPoint>(a: &[P], b: &[P]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(p, q)| (0..P::DIM).all(|d| p.component(d).to_bits() == q.component(d).to_bits()))
}

/// The headline of a smoothing report: quality before and after, sweeps.
pub fn report_json(r: &lms_smooth::SmoothReport) -> Json {
    Json::obj([
        ("initial_quality", Json::Num(r.initial_quality)),
        ("final_quality", Json::Num(r.final_quality)),
        ("sweeps", Json::Int(r.num_iterations() as u64)),
        ("converged", Json::Bool(r.converged)),
    ])
}
