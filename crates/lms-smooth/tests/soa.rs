//! The SoA/lane-batched scoring acceptance suite — the bit-identity gate
//! of the structure-of-arrays refactor:
//!
//! * `SoaCoords` gather/scatter round-trips preserve every `f64` bit
//!   pattern, NaN payloads and `-0.0` included;
//! * `score_batch` equals the per-element `score` bit for bit for every
//!   2D `QualityMetric` (each lane runs the identical scalar IEEE op
//!   sequence, so this is equality of `to_bits`, not approximate);
//! * full resident runs with the default lane-batched kernel are
//!   bit-identical — coordinates AND reports — to the forced pre-SoA
//!   scalar path (`with_scalar_scoring(true)`) across threads {1, 2, 4}
//!   × parts {2, 4, 8} × smart/plain, and so are serial engine runs.

use lms_mesh::quality::QualityMetric;
use lms_mesh::{generators, Adjacency, Boundary, TriMesh};
use lms_part::PartitionMethod;
use lms_smooth::domain::{SmoothDomain, TriDomain};
use lms_smooth::{ResidentEngine, SmoothEngine, SmoothParams, SoaCoords, SoaLike};
use proptest::prelude::*;

const METRICS: [QualityMetric; 3] =
    [QualityMetric::EdgeLengthRatio, QualityMetric::MinAngle, QualityMetric::RadiusRatio];

#[test]
fn soa_roundtrip_preserves_every_bit_pattern() {
    // exotic f64s: NaN with payload, -0.0, infinities, subnormals
    let specials = [
        f64::from_bits(0x7ff8_0000_dead_beef), // NaN, payload bits set
        f64::from_bits(0xfff0_0000_0000_0001), // signalling-ish negative NaN
        -0.0,
        0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE / 2.0, // subnormal
        1.5e308,
        -2.2250738585072014e-308,
    ];
    let points: Vec<lms_mesh::Point2> = specials
        .iter()
        .enumerate()
        .map(|(i, &x)| lms_mesh::Point2 { x, y: specials[(i + 3) % specials.len()] })
        .collect();
    let mut soa = SoaCoords::<2>::with_len(points.len());
    soa.gather_from(&points);
    let mut back = vec![lms_mesh::Point2 { x: 7.0, y: 7.0 }; points.len()];
    soa.scatter_to(&mut back);
    for (a, b) in points.iter().zip(&back) {
        assert_eq!(a.x.to_bits(), b.x.to_bits());
        assert_eq!(a.y.to_bits(), b.y.to_bits());
    }
    // per-slot get/set preserves bits too
    for (i, p) in points.iter().enumerate() {
        let q: lms_mesh::Point2 = soa.get(i);
        assert_eq!(p.x.to_bits(), q.x.to_bits());
        assert_eq!(p.y.to_bits(), q.y.to_bits());
    }
}

fn batch_equals_scalar_on(mesh: &TriMesh, metric: QualityMetric) {
    let adj = Adjacency::build(mesh);
    let boundary = Boundary::detect(mesh);
    let dom = TriDomain::new(&adj, &boundary, mesh.triangles(), metric);
    let mut soa = SoaCoords::<2>::with_len(mesh.num_vertices());
    soa.gather_from(mesh.coords());
    let rows: Vec<[u32; 3]> = dom.elements().to_vec();
    let mut out = vec![(0.0, false); rows.len()];
    dom.score_batch(&soa, &rows, &mut out);
    for (i, &row) in rows.iter().enumerate() {
        let (q, pos) = dom.score(mesh.coords(), row);
        assert_eq!(q.to_bits(), out[i].0.to_bits(), "metric {metric:?}, element {i}");
        assert_eq!(pos, out[i].1, "metric {metric:?}, element {i}");
        // the per-element SoA entry point agrees as well
        let (qs, ps) = dom.score_soa(&soa, row);
        assert_eq!(q.to_bits(), qs.to_bits());
        assert_eq!(pos, ps);
    }
}

#[test]
fn score_batch_matches_scalar_for_every_metric() {
    // ragged sizes so the 4-wide lane chunks leave every tail length
    for (nx, ny, seed) in [(9, 7, 1), (12, 12, 5), (10, 13, 9)] {
        let mesh = generators::perturbed_grid(nx, ny, 0.4, seed);
        for metric in METRICS {
            batch_equals_scalar_on(&mesh, metric);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Resident runs: lane-batched scoring == forced scalar scoring, bit
    /// for bit (coords and reports), across the acceptance grid.
    #[test]
    fn resident_batched_equals_scalar_oracle(
        nx in 6usize..11, ny in 6usize..11, seed in 0u64..1000,
        smart in any::<bool>(), k_ix in 0usize..3, threads_ix in 0usize..3,
    ) {
        let parts = [2usize, 4, 8][k_ix];
        let threads = [1usize, 2, 4][threads_ix];
        let mesh = generators::perturbed_grid(nx, ny, 0.35, seed);
        let params = SmoothParams::paper().with_smart(smart).with_max_iters(3).with_tol(-1.0);
        let batched = ResidentEngine::by_method(&mesh, params.clone(), parts, PartitionMethod::Rcb);
        let scalar = ResidentEngine::by_method(
            &mesh, params.with_scalar_scoring(true), parts, PartitionMethod::Rcb,
        );
        let mut a = mesh.clone();
        let ra = batched.smooth(&mut a, threads);
        let mut b = mesh.clone();
        let rb = scalar.smooth(&mut b, threads);
        prop_assert_eq!(a.coords(), b.coords());
        prop_assert_eq!(ra, rb);
    }

    /// The serial engine under the same toggle: the batched kernel must
    /// not change a single bit anywhere in the engine ladder.
    #[test]
    fn serial_batched_equals_scalar(
        nx in 6usize..11, ny in 6usize..11, seed in 0u64..1000, smart in any::<bool>(),
    ) {
        let mesh = generators::perturbed_grid(nx, ny, 0.35, seed);
        let params = SmoothParams::paper().with_smart(smart).with_max_iters(3).with_tol(-1.0);

        let mut a = mesh.clone();
        let ra = SmoothEngine::new(&mesh, params.clone()).smooth(&mut a);
        let mut b = mesh.clone();
        let rb = SmoothEngine::new(&mesh, params.with_scalar_scoring(true)).smooth(&mut b);
        prop_assert_eq!(a.coords(), b.coords());
        prop_assert_eq!(ra, rb);
    }
}
