//! Property tests for the resident halo-exchange engine:
//!
//! * bitwise determinism (coordinates **and** reports, exchange counters
//!   included) across thread counts {1, 2, 4};
//! * exact coordinate equivalence with serial Gauss–Seidel under the
//!   part-major visit order — across parts {2, …, 8}, smart and plain,
//!   every partition method;
//! * the tentpole residency invariant: one full gather, one full scatter,
//!   whatever the sweep count — everything in between is halo deltas;
//! * per-run halo traffic is bounded by the static schedule
//!   (moved-restriction can only shrink a round below `num_entries`);
//! * repeated smooths on one engine spawn no further OS threads
//!   (persistent-pool regression, via the engine's own pool spawn
//!   counter, so concurrently running tests cannot disturb it).

use lms_mesh::TriMesh;
use lms_part::PartitionMethod;
use lms_smooth::{ResidentEngine, SmoothEngine, SmoothParams};
use proptest::prelude::*;

fn arb_mesh() -> impl Strategy<Value = TriMesh> {
    (5usize..14, 5usize..14, 0u64..1000, 0..40u32).prop_map(|(nx, ny, seed, jit)| {
        lms_mesh::generators::perturbed_grid(nx, ny, jit as f64 / 100.0, seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Bitwise determinism: 1, 2 and 4 threads produce identical
    /// coordinates and identical reports (exchange accounting included),
    /// smart and plain alike, for every partition method.
    #[test]
    fn resident_is_bitwise_deterministic_across_threads(
        mesh in arb_mesh(), smart in any::<bool>(), iters in 1usize..5,
        k in 2usize..9, method_ix in 0usize..4,
    ) {
        let params = SmoothParams::paper().with_smart(smart).with_max_iters(iters);
        let engine = ResidentEngine::by_method(
            &mesh, params, k, PartitionMethod::ALL[method_ix],
        );
        let mut one = mesh.clone();
        let r1 = engine.smooth(&mut one, 1);
        for threads in [2usize, 4] {
            let mut multi = mesh.clone();
            let rt = engine.smooth(&mut multi, threads);
            prop_assert_eq!(one.coords(), multi.coords(), "threads={}", threads);
            prop_assert_eq!(&r1, &rt, "threads={}", threads);
        }
    }

    /// The resident sweep is *exactly* serial Gauss–Seidel under the
    /// part-major visit order — coordinates match bit for bit. Tolerance
    /// disabled to pin the sweep count (the running-sum fold order
    /// differs in ulps; see the module docs).
    #[test]
    fn resident_equals_serial_part_major_order(
        mesh in arb_mesh(), smart in any::<bool>(), iters in 1usize..5,
        k in 2usize..9, method_ix in 0usize..4,
    ) {
        let params = SmoothParams::paper()
            .with_smart(smart)
            .with_max_iters(iters)
            .with_tol(-1.0);
        let engine = ResidentEngine::by_method(
            &mesh, params.clone(), k, PartitionMethod::ALL[method_ix],
        );

        let mut par = mesh.clone();
        engine.smooth(&mut par, 4);

        let order = engine.part_major_visit_order();
        let serial = SmoothEngine::new(&mesh, params).with_visit_order(order);
        let mut ser = mesh.clone();
        serial.smooth(&mut ser);

        prop_assert_eq!(par.coords(), ser.coords());
    }

    /// The residency invariant: one full gather, one full scatter, one
    /// exchange round per color step — for any sweep count. Per-round
    /// traffic never exceeds the static schedule size.
    #[test]
    fn residency_invariant_holds_for_any_sweep_count(
        mesh in arb_mesh(), smart in any::<bool>(), iters in 1usize..7,
        k in 2usize..6,
    ) {
        let params = SmoothParams::paper()
            .with_smart(smart)
            .with_max_iters(iters)
            .with_tol(-1.0);
        let engine = ResidentEngine::by_method(&mesh, params, k, PartitionMethod::Rcb);
        let mut work = mesh.clone();
        let report = engine.smooth(&mut work, 2);
        let volume = report.exchange.expect("resident runs report exchange accounting");
        prop_assert_eq!(volume.full_gathers, 1);
        prop_assert_eq!(volume.full_scatters, 1);
        prop_assert_eq!(
            volume.exchange_rounds,
            iters * engine.interface_classes().len()
        );
        prop_assert!(
            volume.halo_entries_sent
                <= volume.exchange_rounds * engine.exchange_schedule().num_entries(),
            "{} entries over {} rounds exceeds the static schedule ({})",
            volume.halo_entries_sent, volume.exchange_rounds,
            engine.exchange_schedule().num_entries()
        );
    }

    /// The resident engine reaches the same Gauss–Seidel fixed point as
    /// the serial engine (the visit order cannot change the fixed point).
    #[test]
    fn resident_reaches_the_gauss_seidel_fixed_point(
        seed in 0u64..200, k in 2usize..6,
    ) {
        let mesh = lms_mesh::generators::perturbed_grid(10, 10, 0.25, seed);
        let params = SmoothParams::paper().with_tol(-1.0).with_max_iters(3000);
        let engine = ResidentEngine::by_method(&mesh, params.clone(), k, PartitionMethod::Rcb);
        let mut a = mesh.clone();
        let ra = engine.smooth(&mut a, 2);
        let mut b = mesh.clone();
        let rb = SmoothEngine::new(&mesh, params).smooth(&mut b);
        prop_assert!(
            (ra.final_quality - rb.final_quality).abs() < 1e-12,
            "resident {} vs serial {}", ra.final_quality, rb.final_quality
        );
    }
}

/// The suite meshes (scaled down): the resident engine matches serial
/// part-major Gauss–Seidel bit for bit beyond perturbed grids, and its
/// per-iteration quality statistic tracks the serial engine's to ulp
/// precision.
#[test]
fn resident_equivalence_on_generator_suite() {
    for spec in lms_mesh::suite::SUITE.iter().take(4) {
        let mesh = lms_mesh::suite::generate(spec, 0.004);
        let params = SmoothParams::paper().with_smart(true).with_max_iters(4).with_tol(-1.0);
        let resident = ResidentEngine::by_method(&mesh, params.clone(), 4, PartitionMethod::Rcb);

        let mut par = mesh.clone();
        let rr = resident.smooth(&mut par, 3);
        let order = resident.part_major_visit_order();
        let serial = SmoothEngine::new(&mesh, params).with_visit_order(order);
        let mut ser = mesh.clone();
        let rp = serial.smooth(&mut ser);
        assert_eq!(par.coords(), ser.coords(), "{}: diverged from serial", spec.name);
        assert_eq!(rr.iterations.len(), rp.iterations.len(), "{}", spec.name);
        for (a, b) in rr.iterations.iter().zip(&rp.iterations) {
            assert!(
                (a.quality - b.quality).abs() <= 1e-12 * (1.0 + b.quality.abs()),
                "{}: iteration quality diverged beyond ulps: {} vs {}",
                spec.name,
                a.quality,
                b.quality
            );
        }
        assert_eq!(rr.final_quality.to_bits(), rp.final_quality.to_bits(), "{}", spec.name);
    }
}

/// Thread-pool reuse regression: after the first run at a thread count,
/// further runs on the same engine spawn no OS threads at all.
#[test]
fn engine_runs_spawn_threads_once() {
    let mesh = lms_mesh::generators::perturbed_grid(16, 16, 0.3, 7);
    let params = SmoothParams::paper().with_smart(true).with_max_iters(3).with_tol(-1.0);
    let engine = ResidentEngine::by_method(&mesh, params, 4, PartitionMethod::Rcb);
    // first run pays the one-time spawn for this engine's pool
    engine.smooth(&mut mesh.clone(), 3);
    let after_first = engine.engine().pool().spawned_threads();
    for _ in 0..5 {
        engine.smooth(&mut mesh.clone(), 3);
    }
    assert_eq!(
        engine.engine().pool().spawned_threads(),
        after_first,
        "repeat runs must reuse the engine's parked workers"
    );
}

/// `by_method` partitions on the serial engine's own adjacency instead of
/// building a second one; the result must be exactly the engine built
/// from an explicitly computed partition — same assignment, bit-identical
/// coordinates, equal report.
#[test]
fn by_method_equals_new_over_an_explicit_partition() {
    let mesh = lms_mesh::generators::perturbed_grid(15, 13, 0.35, 11);
    let params = SmoothParams::paper().with_smart(true).with_max_iters(4).with_tol(-1.0);
    for method in PartitionMethod::ALL {
        for k in [1usize, 3, 6] {
            let by_method = ResidentEngine::by_method(&mesh, params.clone(), k, method);
            let adj = lms_mesh::Adjacency::build(&mesh);
            let partition = lms_part::partition_mesh(&mesh, &adj, k, method);
            let explicit = ResidentEngine::new(&mesh, params.clone(), partition);
            assert_eq!(by_method.partition(), explicit.partition(), "{method:?} k={k}");
            let mut a = mesh.clone();
            let ra = by_method.smooth(&mut a, 2);
            let mut b = mesh.clone();
            let rb = explicit.smooth(&mut b, 2);
            let bits = |m: &TriMesh| -> Vec<[u64; 2]> {
                m.coords().iter().map(|p| [p.x.to_bits(), p.y.to_bits()]).collect()
            };
            assert_eq!(bits(&a), bits(&b), "{method:?} k={k}: coordinates differ");
            assert_eq!(ra, rb, "{method:?} k={k}");
        }
    }
}
