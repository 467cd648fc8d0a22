//! Property tests for the 3D resident halo-exchange engine — the
//! acceptance gate of the dimension-generic refactor:
//!
//! * 3D `ResidentEngine3` output is **bit-identical** to serial
//!   part-major 3D Gauss–Seidel, across threads {1, 2, 4} × parts
//!   {2, 4, 8}, smart and plain, every partition method;
//! * that part-major order is the partitioned Gauss–Seidel order built
//!   from the decomposition alone (part interiors, then interface colors);
//! * the residency invariant holds in 3D exactly as in 2D:
//!   `full_gathers == 1 && full_scatters == 1` for any sweep count, one
//!   exchange round per color step, per-round traffic bounded by the
//!   static schedule;
//! * repeated smooths on one engine spawn no further OS threads
//!   (persistent-pool regression, via the engine's own pool spawn
//!   counter, so concurrently running tests cannot disturb it).

use lms_mesh3d::{ResidentEngine3, SmoothEngine3, SmoothParams3, TetMesh};
use lms_part::PartitionMethod;
use proptest::prelude::*;

fn arb_mesh() -> impl Strategy<Value = TetMesh> {
    (4usize..8, 4usize..8, 4usize..8, 0u64..1000, 0..40u32).prop_map(|(nx, ny, nz, seed, jit)| {
        lms_mesh3d::generators::perturbed_tet_grid(nx, ny, nz, jit as f64 / 100.0, seed)
    })
}

/// The acceptance part counts: {2, 4, 8}.
const PARTS: [usize; 3] = [2, 4, 8];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Bitwise determinism: 1, 2 and 4 threads produce identical
    /// coordinates and identical reports (exchange accounting included),
    /// smart and plain alike, for every partition method.
    #[test]
    fn resident3_is_bitwise_deterministic_across_threads(
        mesh in arb_mesh(), smart in any::<bool>(), iters in 1usize..4,
        k_ix in 0usize..3, method_ix in 0usize..4,
    ) {
        let params = SmoothParams3::paper().with_smart(smart).with_max_iters(iters);
        let engine = ResidentEngine3::by_method(
            &mesh, params, PARTS[k_ix], PartitionMethod::ALL[method_ix],
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

    /// The 3D resident sweep is *exactly* serial 3D Gauss–Seidel under
    /// the part-major visit order — coordinates match bit for bit across
    /// the acceptance grid of thread counts × part counts. Tolerance
    /// disabled to pin the sweep count (the running-sum fold order
    /// differs in ulps between engines).
    #[test]
    fn resident3_equals_serial_part_major_order(
        mesh in arb_mesh(), smart in any::<bool>(), iters in 1usize..4,
        k_ix in 0usize..3, method_ix in 0usize..4, threads_ix in 0usize..3,
    ) {
        let params = SmoothParams3::paper()
            .with_smart(smart)
            .with_max_iters(iters)
            .with_tol(-1.0);
        let engine = ResidentEngine3::by_method(
            &mesh, params.clone(), PARTS[k_ix], PartitionMethod::ALL[method_ix],
        );

        let mut par = mesh.clone();
        engine.smooth(&mut par, [1usize, 2, 4][threads_ix]);

        let order = engine.part_major_visit_order();
        let serial = SmoothEngine3::new(&mesh, params).with_visit_order(order);
        let mut ser = mesh.clone();
        serial.smooth(&mut ser);

        prop_assert_eq!(par.coords(), ser.coords());
    }

    /// Resident 3D smoothing is partitioned Gauss–Seidel over the same
    /// decomposition: each part's movable interior vertices ascending,
    /// part by part, then the interface color classes — an order built
    /// here from the partition alone. The residency protocol changes the
    /// data movement, not one bit of the arithmetic.
    #[test]
    fn resident3_equals_partitioned3(
        mesh in arb_mesh(), smart in any::<bool>(), iters in 1usize..4,
        k_ix in 0usize..3, method_ix in 0usize..4,
    ) {
        let params = SmoothParams3::paper()
            .with_smart(smart)
            .with_max_iters(iters)
            .with_tol(-1.0);
        let method = PartitionMethod::ALL[method_ix];
        let resident = ResidentEngine3::by_method(&mesh, params.clone(), PARTS[k_ix], method);
        let partition = resident.partition();
        let boundary = resident.engine().boundary();
        let parts = 0..partition.num_parts();

        // the interface classes color exactly the movable interface vertices
        let mut colored: Vec<u32> = resident.interface_classes().iter().flatten().copied().collect();
        colored.sort_unstable();
        let mut interface: Vec<u32> = parts
            .clone()
            .flat_map(|p| partition.interface(p).iter().copied())
            .filter(|&v| boundary.is_interior(v))
            .collect();
        interface.sort_unstable();
        prop_assert_eq!(colored, interface);

        let mut order: Vec<u32> = parts
            .flat_map(|p| partition.interior(p).iter().copied())
            .filter(|&v| boundary.is_interior(v))
            .collect();
        order.extend(resident.interface_classes().iter().flatten().copied());
        prop_assert_eq!(
            &order,
            &resident.part_major_visit_order(),
            "the engine must expose the partitioned serial-equivalence order"
        );

        let mut a = mesh.clone();
        resident.smooth(&mut a, 2);
        let mut b = mesh.clone();
        SmoothEngine3::new(&mesh, params).with_visit_order(order).smooth(&mut b);
        prop_assert_eq!(a.coords(), b.coords());
    }

    /// The residency invariant in 3D: one full gather, one full scatter,
    /// one exchange round per color step — for any sweep count. Per-round
    /// traffic never exceeds the static schedule size.
    #[test]
    fn residency3_invariant_holds_for_any_sweep_count(
        mesh in arb_mesh(), smart in any::<bool>(), iters in 1usize..5,
        k_ix in 0usize..3,
    ) {
        let params = SmoothParams3::paper()
            .with_smart(smart)
            .with_max_iters(iters)
            .with_tol(-1.0);
        let engine =
            ResidentEngine3::by_method(&mesh, params, PARTS[k_ix], PartitionMethod::Rcb);
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
}

/// Thread-pool reuse regression: after the first run at a thread count,
/// further runs on the same 3D engine spawn no OS threads at all.
#[test]
fn engine3_runs_spawn_threads_once() {
    let mesh = lms_mesh3d::generators::perturbed_tet_grid(6, 6, 6, 0.3, 7);
    let params = SmoothParams3::paper().with_smart(true).with_max_iters(2).with_tol(-1.0);
    let engine = ResidentEngine3::by_method(&mesh, params, 4, PartitionMethod::Rcb);
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
    let mesh = lms_mesh3d::generators::perturbed_tet_grid(6, 5, 6, 0.35, 11);
    let params = SmoothParams3::paper().with_smart(true).with_max_iters(3).with_tol(-1.0);
    for method in PartitionMethod::ALL {
        for k in [1usize, 3, 6] {
            let by_method = ResidentEngine3::by_method(&mesh, params.clone(), k, method);
            let adj = lms_mesh3d::Adjacency3::build(&mesh);
            let partition = lms_mesh3d::partition_tet_mesh(&mesh, &adj, k, method);
            let explicit = ResidentEngine3::new(&mesh, params.clone(), partition);
            assert_eq!(by_method.partition(), explicit.partition(), "{method:?} k={k}");
            let mut a = mesh.clone();
            let ra = by_method.smooth(&mut a, 2);
            let mut b = mesh.clone();
            let rb = explicit.smooth(&mut b, 2);
            let bits = |m: &TetMesh| -> Vec<[u64; 3]> {
                m.coords().iter().map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()]).collect()
            };
            assert_eq!(bits(&a), bits(&b), "{method:?} k={k}: coordinates differ");
            assert_eq!(ra, rb, "{method:?} k={k}");
        }
    }
}
