//! Resident (halo-exchange) smoothing of tetrahedral meshes — the 3D
//! instantiation of `lms-smooth`'s dimension-generic
//! domain-decomposition engine.
//!
//! Nothing here sweeps or builds blocks: [`ResidentEngine3`] is
//! [`lms_smooth::Resident`] over [`SmoothEngine3`], whose [`DomainEngine`]
//! impl supplies the [`TetDomain`] view and partitions with
//! [`crate::domain::partition_tet_mesh`] on the engine's own adjacency.
//! The resident protocol — one full gather, moved-only halo-delta routing
//! per interface color step along the [`lms_part::ExchangeSchedule`], one
//! parallel disjoint scatter, [`lms_smooth::ExchangeVolume`] accounting —
//! is therefore the 2D engine's, and the determinism/serial-equivalence
//! guarantees carry over verbatim (property-tested in
//! `tests/resident3.rs` against serial part-major 3D Gauss–Seidel across
//! thread counts and part counts).

use crate::domain::{partition_tet_mesh, TetDomain};
use crate::geometry::Point3;
use crate::mesh::TetMesh;
use crate::smooth::{SmoothEngine3, SmoothParams3};
use lms_part::{Partition, PartitionMethod};
use lms_smooth::domain::DomainConfig;
use lms_smooth::{DomainEngine, PoolCache, Resident, SmoothReport};

/// Resident-block halo-exchange smoothing of tetrahedral meshes.
pub type ResidentEngine3 = Resident<4, SmoothEngine3>;

impl DomainEngine<4> for SmoothEngine3 {
    type Mesh = TetMesh;
    type Params = SmoothParams3;
    type Point = Point3;
    type Domain<'a> = TetDomain<'a>;

    fn new(mesh: &TetMesh, params: SmoothParams3) -> Self {
        SmoothEngine3::new(mesh, params)
    }

    fn domain(&self) -> TetDomain<'_> {
        SmoothEngine3::domain(self)
    }

    fn domain_config(&self) -> DomainConfig {
        self.params().domain_config()
    }

    fn interior_color_classes(&self) -> &[Vec<u32>] {
        SmoothEngine3::interior_color_classes(self)
    }

    fn pool(&self) -> &PoolCache {
        SmoothEngine3::pool(self)
    }

    fn coords_mut(mesh: &mut TetMesh) -> &mut [Point3] {
        mesh.coords_mut()
    }

    fn partition(&self, mesh: &TetMesh, num_parts: usize, method: PartitionMethod) -> Partition {
        partition_tet_mesh(mesh, self.adjacency(), num_parts, method)
    }
}

/// Convenience: decompose, build the resident 3D engine and run it in one
/// call. Parameters are moved, never cloned.
pub fn smooth_resident3(
    mesh: &mut TetMesh,
    params: SmoothParams3,
    num_parts: usize,
    method: PartitionMethod,
    num_threads: usize,
) -> SmoothReport {
    ResidentEngine3::by_method(mesh, params, num_parts, method).smooth(mesh, num_threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::perturbed_tet_grid;
    use crate::smooth::UpdateScheme3;

    #[test]
    fn improves_quality_and_pins_boundary() {
        let mut m = perturbed_tet_grid(8, 8, 8, 0.4, 1);
        let before = m.coords().to_vec();
        let engine =
            ResidentEngine3::by_method(&m, SmoothParams3::paper(), 4, PartitionMethod::Rcb);
        let report = engine.smooth(&mut m, 2);
        assert!(report.final_quality > report.initial_quality + 0.01);
        for v in engine.engine().boundary().boundary_vertices() {
            assert_eq!(m.coords()[v as usize], before[v as usize], "boundary vertex {v} moved");
        }
    }

    #[test]
    fn single_part_equals_serial_storage_order() {
        let m = perturbed_tet_grid(6, 5, 6, 0.35, 3);
        let params = SmoothParams3::paper().with_smart(true).with_max_iters(4).with_tol(-1.0);
        let engine = ResidentEngine3::by_method(&m, params.clone(), 1, PartitionMethod::Rcb);
        assert!(engine.interface_classes().is_empty());
        let mut a = m.clone();
        let report = engine.smooth(&mut a, 3);
        let mut b = m.clone();
        SmoothEngine3::new(&m, params).smooth(&mut b);
        assert_eq!(a.coords(), b.coords());
        let volume = report.exchange.unwrap();
        assert_eq!(volume.full_gathers, 1);
        assert_eq!(volume.full_scatters, 1);
        assert_eq!(volume.halo_entries_sent, 0, "one part has nothing to exchange");
    }

    #[test]
    fn rejects_jacobi_params() {
        let m = perturbed_tet_grid(4, 4, 4, 0.2, 1);
        let params = SmoothParams3::paper().with_update(UpdateScheme3::Jacobi);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ResidentEngine3::by_method(&m, params, 2, PartitionMethod::Rcb);
        }));
        assert!(r.is_err());
    }

    #[test]
    fn convenience_wrappers_run() {
        let mut m = perturbed_tet_grid(6, 6, 5, 0.35, 2);
        let report = smooth_resident3(
            &mut m,
            SmoothParams3::paper().with_max_iters(8),
            3,
            PartitionMethod::Hilbert,
            2,
        );
        assert!(report.final_quality > report.initial_quality);
    }

    #[test]
    fn part_major_order_covers_interior_once() {
        let m = perturbed_tet_grid(6, 7, 5, 0.3, 9);
        let engine =
            ResidentEngine3::by_method(&m, SmoothParams3::paper(), 5, PartitionMethod::Hilbert);
        let order = engine.part_major_visit_order();
        assert_eq!(order.len(), engine.engine().boundary().num_interior());
        let mut seen = vec![false; m.num_vertices()];
        for &v in &order {
            assert!(engine.engine().boundary().is_interior(v));
            assert!(!seen[v as usize], "vertex {v} visited twice");
            seen[v as usize] = true;
        }
    }
}
