//! Checkpoint cadence must never change the answer: the resident drive
//! loop over the in-process transport with any `checkpoint_every` is
//! exactly the engine's default run (`checkpoint_every = 1`) — same
//! coordinates, same report, bit for bit — and takes exactly the
//! checkpoints the cadence selects. The FT control flow (snapshots,
//! checkpoint calls, the recovery machinery) must be arithmetic-free on
//! the failure-free path; that is what makes one driver safe under every
//! resident run, in-process and distributed alike.

use lms_part::PartitionMethod;
use lms_smooth::domain::DomainConfig;
use lms_smooth::{
    drive_resident_ft_with, FtPolicy, InProcessTransport, ResidentEngine, SmoothParams,
};
use lms_trace::NullTrace;

/// Run `params` once through `ResidentEngine::smooth` and once through
/// the driver at `checkpoint_every`; assert bit-identity and the
/// checkpoint count. Returns the report for case-specific checks.
fn run_cadence(params: SmoothParams, checkpoint_every: usize) -> lms_smooth::SmoothReport {
    let mesh = lms_mesh::generators::perturbed_grid(16, 14, 0.35, 7);
    let engine = ResidentEngine::by_method(&mesh, params, 4, PartitionMethod::Rcb);
    let mut reference = mesh.clone();
    let reference_report = engine.smooth(&mut reference, 2);

    let dom = engine.engine().domain();
    let cfg = DomainConfig::from(engine.engine().params());
    let pool = rayon::ThreadPoolBuilder::new().num_threads(2).build().unwrap();
    let mut transport =
        InProcessTransport::new(&dom, &cfg, engine.blocks(), engine.exchange_schedule(), &pool);
    let policy = FtPolicy { checkpoint_every, ..FtPolicy::default() };
    let mut work = mesh.clone();
    let (report, stats) = match drive_resident_ft_with(
        &dom,
        &cfg,
        engine.elem_weights(),
        engine.interface_classes().len(),
        &mut transport,
        work.coords_mut(),
        &policy,
        &mut NullTrace,
    ) {
        Ok(done) => done,
        Err(e) => match e {},
    };

    assert_eq!(work.coords(), reference.coords(), "checkpoint_every={checkpoint_every}");
    assert_eq!(report, reference_report, "checkpoint_every={checkpoint_every}");
    assert!(stats.recoveries.is_empty());
    // one checkpoint per boundary the cadence selects, plus the final
    // boundary (taken once even when it is also a cadence boundary)
    let iters = report.num_iterations();
    let expected = (1..=iters).filter(|i| *i == iters || i % checkpoint_every == 0).count();
    assert_eq!(stats.checkpoints, expected, "checkpoint_every={checkpoint_every}");
    report
}

#[test]
fn checkpoint_cadence_does_not_change_the_answer() {
    for (checkpoint_every, max_iters) in [(2, 5), (3, 4), (3, 6)] {
        let params =
            SmoothParams::paper().with_smart(true).with_max_iters(max_iters).with_tol(-1.0);
        let report = run_cadence(params, checkpoint_every);
        assert_eq!(report.num_iterations(), max_iters);
        assert!(!report.converged);
    }
}

#[test]
fn converging_run_stops_early_under_any_cadence() {
    let max_iters = 200;
    for checkpoint_every in [2, 3] {
        let params =
            SmoothParams::paper().with_smart(true).with_max_iters(max_iters).with_tol(1e-4);
        let report = run_cadence(params, checkpoint_every);
        assert!(report.converged, "checkpoint_every={checkpoint_every}: must converge");
        assert!(
            report.num_iterations() < max_iters,
            "checkpoint_every={checkpoint_every}: stopped at the cap, not by convergence"
        );
    }
}
