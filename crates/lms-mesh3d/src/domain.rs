//! The tetrahedral [`SmoothDomain`] implementation — what plugs `TetMesh`
//! into `lms-smooth`'s dimension-generic engine stack — plus the 3D
//! geometric partitioners feeding [`lms_part::Partition`].
//!
//! [`TetDomain`] is the 3D twin of `lms_smooth::TriDomain`: a borrowed
//! (adjacency, boundary, connectivity, metric) bundle. With it, the
//! serial incremental kernel, the colored parallel engine, and the
//! resident halo-exchange engine all run on tetrahedral
//! meshes from the **same generic sweep bodies** as the 2D engines — no
//! copied code, and the bit-identity arguments (same-class vertices share
//! no element; part interiors have fully-owned 1-rings) carry over
//! verbatim because a tet's four corners are mutually adjacent.
//!
//! Partitioning reuses `lms_order::rcb_parts_nd` on 3-component
//! coordinates and this crate's 3D Hilbert/Morton curves through
//! `lms_part::sfc_chunk_assignment`, so [`partition_tet_mesh`] accepts
//! the same [`PartitionMethod`] menu as the 2D decompositions.

use crate::adjacency::Adjacency3;
use crate::boundary::Boundary3;
use crate::geometry::{edge_lengths, signed_volume, Point3};
use crate::mesh::TetMesh;
use crate::quality::{edge_length_ratio_from_lengths, TetQualityMetric};
use crate::sfc::{hilbert3_ordering, morton3_ordering};
use lms_order::{rcb_parts_nd, rcb_parts_weighted_nd};
use lms_part::{sfc_chunk_assignment, Partition, PartitionMethod};
use lms_smooth::domain::{DomainPoint, SmoothDomain};
use lms_smooth::soa::{SoaCoords, LANES};

impl DomainPoint for Point3 {
    const ZERO: Self = Point3::ZERO;
    const DIM: usize = 3;

    #[inline]
    fn push_components(self, out: &mut Vec<f64>) {
        out.push(self.x);
        out.push(self.y);
        out.push(self.z);
    }

    #[inline]
    fn from_components(comps: &[f64]) -> Self {
        Point3::new(comps[0], comps[1], comps[2])
    }

    #[inline]
    fn component(self, d: usize) -> f64 {
        match d {
            0 => self.x,
            1 => self.y,
            _ => self.z,
        }
    }

    #[inline]
    fn padd(self, other: Self) -> Self {
        self + other
    }

    #[inline]
    fn pscale(self, s: f64) -> Self {
        self * s
    }

    #[inline]
    fn pdiv(self, s: f64) -> Self {
        self / s
    }

    #[inline]
    fn pdist(self, other: Self) -> f64 {
        self.dist(other)
    }
}

/// The tetrahedral domain view: borrowed adjacency + boundary +
/// connectivity + metric. [`crate::SmoothEngine3`] and the 3D resident
/// engine build one per call.
#[derive(Debug, Clone, Copy)]
pub struct TetDomain<'a> {
    adj: &'a Adjacency3,
    boundary: &'a Boundary3,
    tets: &'a [[u32; 4]],
    metric: TetQualityMetric,
}

impl<'a> TetDomain<'a> {
    /// Bundle a tet mesh's precomputed topology into a domain view.
    pub fn new(
        adj: &'a Adjacency3,
        boundary: &'a Boundary3,
        tets: &'a [[u32; 4]],
        metric: TetQualityMetric,
    ) -> Self {
        TetDomain { adj, boundary, tets, metric }
    }
}

impl SmoothDomain<4> for TetDomain<'_> {
    type Point = Point3;
    type Soa = SoaCoords<3>;

    #[inline]
    fn num_vertices(&self) -> usize {
        self.adj.num_vertices()
    }

    #[inline]
    fn elements(&self) -> &[[u32; 4]] {
        self.tets
    }

    #[inline]
    fn neighbors(&self, v: u32) -> &[u32] {
        self.adj.neighbors(v)
    }

    #[inline]
    fn elements_of(&self, v: u32) -> &[u32] {
        self.adj.tets_of(v)
    }

    #[inline]
    fn elements_offset(&self, v: u32) -> usize {
        self.adj.tets_offset(v)
    }

    #[inline]
    fn is_interior(&self, v: u32) -> bool {
        self.boundary.is_interior(v)
    }

    #[inline]
    fn score_points(&self, p: [Point3; 4]) -> (f64, bool) {
        (
            self.metric.tet_quality(p[0], p[1], p[2], p[3]),
            signed_volume(p[0], p[1], p[2], p[3]) > 0.0,
        )
    }

    fn score_batch(&self, coords: &SoaCoords<3>, rows: &[[u32; 4]], out: &mut [(f64, bool)]) {
        debug_assert_eq!(rows.len(), out.len());
        match self.metric {
            TetQualityMetric::EdgeLengthRatio => tet_elr_batch(coords, rows, out),
            // ablation metrics: per-lane scalar sequence, metric dispatch
            // hoisted out of the element loop
            _ => {
                let (xs, ys, zs) = (coords.axis(0), coords.axis(1), coords.axis(2));
                let at = |i: u32| Point3::new(xs[i as usize], ys[i as usize], zs[i as usize]);
                for (slot, &[ia, ib, ic, id]) in out.iter_mut().zip(rows) {
                    *slot = self.score_points([at(ia), at(ib), at(ic), at(id)]);
                }
            }
        }
    }
}

/// Lane-batched tetrahedral edge-length-ratio scoring over SoA columns:
/// fixed [`LANES`]-wide blocks with a scalar tail, each lane running the
/// exact scalar sequence of `TetQualityMetric::tet_quality` (via the
/// shared [`edge_length_ratio_from_lengths`] core) plus the
/// `signed_volume > 0` orientation test — bit-identical to the
/// per-element path by construction.
fn tet_elr_batch(coords: &SoaCoords<3>, rows: &[[u32; 4]], out: &mut [(f64, bool)]) {
    #[inline(always)]
    fn lane(xs: &[f64], ys: &[f64], zs: &[f64], [ia, ib, ic, id]: [u32; 4]) -> (f64, bool) {
        let a = Point3::new(xs[ia as usize], ys[ia as usize], zs[ia as usize]);
        let b = Point3::new(xs[ib as usize], ys[ib as usize], zs[ib as usize]);
        let c = Point3::new(xs[ic as usize], ys[ic as usize], zs[ic as usize]);
        let d = Point3::new(xs[id as usize], ys[id as usize], zs[id as usize]);
        (edge_length_ratio_from_lengths(edge_lengths(a, b, c, d)), signed_volume(a, b, c, d) > 0.0)
    }
    let (xs, ys, zs) = (coords.axis(0), coords.axis(1), coords.axis(2));
    let main = rows.len() - rows.len() % LANES;
    let (rows_main, rows_tail) = rows.split_at(main);
    let (out_main, out_tail) = out.split_at_mut(main);
    for (block, slots) in rows_main.chunks_exact(LANES).zip(out_main.chunks_exact_mut(LANES)) {
        let mut q = [0.0f64; LANES];
        let mut pos = [false; LANES];
        for l in 0..LANES {
            (q[l], pos[l]) = lane(xs, ys, zs, block[l]);
        }
        for l in 0..LANES {
            slots[l] = (q[l], pos[l]);
        }
    }
    for (slot, &row) in out_tail.iter_mut().zip(rows_tail) {
        *slot = lane(xs, ys, zs, row);
    }
}

/// Per-vertex volume weights: each vertex receives one quarter of the
/// absolute volume of every incident tetrahedron (the barycentric lumping
/// of the mesh volume) — the 3D twin of `lms_part::vertex_area_weights`,
/// and the input of [`PartitionMethod::RcbWeighted`] under
/// [`partition_tet_mesh`].
pub fn vertex_volume_weights(mesh: &TetMesh, adj: &Adjacency3) -> Vec<f64> {
    let tet_vol: Vec<f64> = (0..mesh.num_tets())
        .map(|t| {
            let [a, b, c, d] = mesh.tet_coords(t);
            signed_volume(a, b, c, d).abs() / 4.0
        })
        .collect();
    (0..mesh.num_vertices() as u32)
        .map(|v| adj.tets_of(v).iter().map(|&t| tet_vol[t as usize]).sum())
        .collect()
}

/// Compute the per-vertex part assignment of `method` for a 3D point set:
/// k-way RCB on the 3-component coordinates, or balanced chunking of the
/// 3D Hilbert/Morton curve orders.
pub fn partition_coords3(coords: &[Point3], num_parts: usize, method: PartitionMethod) -> Vec<u32> {
    assert!(num_parts >= 1, "need at least one part");
    if coords.is_empty() {
        return Vec::new();
    }
    match method {
        PartitionMethod::Rcb => {
            let nd: Vec<[f64; 3]> = coords.iter().map(|p| [p.x, p.y, p.z]).collect();
            rcb_parts_nd(&nd, num_parts)
        }
        // no mesh in sight: uniform weights, i.e. exactly Rcb
        PartitionMethod::RcbWeighted => {
            let nd: Vec<[f64; 3]> = coords.iter().map(|p| [p.x, p.y, p.z]).collect();
            rcb_parts_nd(&nd, num_parts)
        }
        PartitionMethod::Hilbert => sfc_chunk_assignment(&hilbert3_ordering(coords), num_parts),
        PartitionMethod::Morton => sfc_chunk_assignment(&morton3_ordering(coords), num_parts),
    }
}

/// Partition a tetrahedral mesh into `num_parts` parts with `method`,
/// building the full interface/halo decomposition over the 3D adjacency
/// — the tetrahedral twin of `lms_part::partition_mesh`, landing in the
/// same dimension-generic [`Partition`] (and hence the same
/// `ExchangeSchedule`).
pub fn partition_tet_mesh(
    mesh: &TetMesh,
    adj: &Adjacency3,
    num_parts: usize,
    method: PartitionMethod,
) -> Partition {
    let assignment = if method == PartitionMethod::RcbWeighted {
        let weights = vertex_volume_weights(mesh, adj);
        let nd: Vec<[f64; 3]> = mesh.coords().iter().map(|p| [p.x, p.y, p.z]).collect();
        rcb_parts_weighted_nd(&nd, &weights, num_parts)
    } else {
        partition_coords3(mesh.coords(), num_parts, method)
    };
    Partition::from_assignment(adj, assignment, num_parts as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::perturbed_tet_grid;
    use crate::quality::mesh_quality;

    #[test]
    fn tet_domain_quality_matches_mesh_quality_bitwise() {
        let m = perturbed_tet_grid(6, 5, 7, 0.35, 3);
        let adj = Adjacency3::build(&m);
        let b = Boundary3::detect(&m);
        let dom = TetDomain::new(&adj, &b, m.tets(), TetQualityMetric::EdgeLengthRatio);
        let generic = lms_smooth::domain_quality(&dom, m.coords());
        let concrete = mesh_quality(&m, &adj, TetQualityMetric::EdgeLengthRatio);
        assert_eq!(generic.to_bits(), concrete.to_bits());
    }

    #[test]
    fn partitions_are_balanced_and_cover() {
        let m = perturbed_tet_grid(7, 6, 5, 0.3, 9);
        let adj = Adjacency3::build(&m);
        for method in PartitionMethod::ALL {
            for k in [1usize, 2, 5, 8] {
                let p = partition_tet_mesh(&m, &adj, k, method);
                assert_eq!(p.len(), m.num_vertices(), "{} k={k}", method.name());
                let mut sizes = vec![0usize; k];
                for v in 0..m.num_vertices() as u32 {
                    sizes[p.part_of(v) as usize] += 1;
                }
                if method != PartitionMethod::RcbWeighted {
                    let (lo, hi) = (*sizes.iter().min().unwrap(), *sizes.iter().max().unwrap());
                    assert!(hi - lo <= 1, "{} k={k}: sizes {sizes:?}", method.name());
                }
            }
        }
    }

    #[test]
    fn rcb3_parts_are_geometric_blobs() {
        // a long thin bar (x span ≫ y, z spans) must be sliced along x:
        // part id monotone in x
        let coords: Vec<Point3> = (0..128)
            .map(|i| Point3::new(i as f64, (i % 3) as f64 * 0.05, (i % 5) as f64 * 0.04))
            .collect();
        let part = partition_coords3(&coords, 4, PartitionMethod::Rcb);
        let mut labelled: Vec<(f64, u32)> =
            coords.iter().zip(&part).map(|(p, &q)| (p.x, q)).collect();
        labelled.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for w in labelled.windows(2) {
            assert!(w[0].1 <= w[1].1, "part ids not monotone along the bar");
        }
    }

    #[test]
    fn weighted_rcb3_equals_rcb3_on_uniform_grids() {
        // zero jitter → all tets congruent → (nearly) uniform weights; we
        // assert only the API path: uniform point API degenerates to Rcb
        let m = perturbed_tet_grid(6, 6, 6, 0.25, 4);
        assert_eq!(
            partition_coords3(m.coords(), 6, PartitionMethod::RcbWeighted),
            partition_coords3(m.coords(), 6, PartitionMethod::Rcb),
        );
    }
}
