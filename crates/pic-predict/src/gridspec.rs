//! The one grid expansion: `picpredict sweep`, `predict` and `study`, the
//! resident prediction service and the figures all expand their grids here.
//!
//! The CLI and service must emit **bit-identical** grids for the same inputs
//! (the serve integration tests diff the bytes), so the cross-product
//! expansion order and the serialized entry shape live here, once.

use pic_mapping::MappingAlgorithm;
use pic_types::{PicError, Result};
use pic_workload::{DynamicWorkload, PrettyJson, SweepPoint, WorkloadConfig};
use serde::Serialize;

/// A cross-product sweep grid: every `(mapping, ranks, filter, stride)`
/// combination, expanded mapping-major, then ranks, filter, stride — the
/// order `picpredict sweep` has always printed and written.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepGridSpec {
    /// Mapping algorithms to evaluate.
    pub mappings: Vec<MappingAlgorithm>,
    /// Rank counts to evaluate.
    pub ranks: Vec<usize>,
    /// Projection-filter radii to evaluate.
    pub filters: Vec<f64>,
    /// Sampling strides to evaluate.
    pub strides: Vec<usize>,
    /// Whether grid points compute ghost matrices.
    pub compute_ghosts: bool,
}

impl SweepGridSpec {
    /// Validate the spec: every axis must be non-empty.
    pub fn validate(&self) -> Result<()> {
        for (name, empty) in [
            ("mappings", self.mappings.is_empty()),
            ("ranks", self.ranks.is_empty()),
            ("filters", self.filters.is_empty()),
            ("strides", self.strides.is_empty()),
        ] {
            if empty {
                return Err(PicError::config(format!(
                    "sweep grid axis '{name}' is empty"
                )));
            }
        }
        Ok(())
    }

    /// Number of grid points the spec expands to.
    pub fn len(&self) -> usize {
        self.mappings.len() * self.ranks.len() * self.filters.len() * self.strides.len()
    }

    /// True when the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expand to sweep points in the canonical order.
    pub fn points(&self) -> Vec<SweepPoint> {
        let mut points = Vec::with_capacity(self.len());
        for &mapping in &self.mappings {
            for &ranks in &self.ranks {
                for &filter in &self.filters {
                    for &stride in &self.strides {
                        let mut cfg = WorkloadConfig::new(ranks, mapping, filter);
                        cfg.compute_ghosts = self.compute_ghosts;
                        points.push(SweepPoint::with_stride(cfg, stride));
                    }
                }
            }
        }
        points
    }
}

/// One emitted grid point: the configuration alongside its full workload.
/// Its derived `Serialize` is the oracle [`grid_to_json`] is tested against.
#[derive(Serialize)]
pub struct SweepGridEntry {
    /// Index of this point in the grid's canonical order.
    pub point: usize,
    /// Mapping algorithm of the point.
    pub mapping: MappingAlgorithm,
    /// Rank count of the point.
    pub ranks: usize,
    /// Projection-filter radius of the point.
    pub projection_filter: f64,
    /// Sampling stride of the point.
    pub stride: usize,
    /// The generated workload.
    pub workload: DynamicWorkload,
}

/// Pair grid points with their generated workloads, in grid order.
pub fn grid_entries(points: &[SweepPoint], workloads: Vec<DynamicWorkload>) -> Vec<SweepGridEntry> {
    points
        .iter()
        .zip(workloads)
        .enumerate()
        .map(|(point, (p, workload))| SweepGridEntry {
            point,
            mapping: p.config.mapping,
            ranks: p.config.ranks,
            projection_filter: p.config.projection_filter,
            stride: p.stride,
            workload,
        })
        .collect()
}

/// The canonical serialized grid — the bytes `picpredict sweep --out`
/// writes and `POST /sweep` returns: `serde_json::to_string_pretty` of the
/// entries' derived `Serialize`, written straight to text by the workload
/// renderer ([`DynamicWorkload::write_json`]).
pub fn grid_to_json(entries: &[SweepGridEntry]) -> String {
    let mut w = PrettyJson::default();
    w.begin_array();
    for e in entries {
        w.begin_object();
        w.key("point");
        w.uint(e.point as u64);
        w.key("mapping");
        w.string(&e.mapping.to_string());
        w.key("ranks");
        w.uint(e.ranks as u64);
        w.key("projection_filter");
        w.float(e.projection_filter);
        w.key("stride");
        w.uint(e.stride as u64);
        w.key("workload");
        e.workload.write_json(&mut w);
        w.end_object();
    }
    w.end_array();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_mapping_major_cross_product() {
        let spec = SweepGridSpec {
            mappings: vec![MappingAlgorithm::ElementBased, MappingAlgorithm::BinBased],
            ranks: vec![16, 32],
            filters: vec![0.01, 0.02],
            strides: vec![1],
            compute_ghosts: true,
        };
        assert_eq!(spec.len(), 8);
        let points = spec.points();
        assert_eq!(points.len(), 8);
        assert!(points[..4]
            .iter()
            .all(|p| p.config.mapping == MappingAlgorithm::ElementBased));
        assert!(points[4..]
            .iter()
            .all(|p| p.config.mapping == MappingAlgorithm::BinBased));
        assert_eq!(points[0].config.ranks, 16);
        assert_eq!(points[1].config.projection_filter, 0.02);
        assert_eq!(points[2].config.ranks, 32);
        assert!(points
            .iter()
            .all(|p| p.stride == 1 && p.config.compute_ghosts));
        let no_ghosts = SweepGridSpec {
            mappings: vec![MappingAlgorithm::BinBased],
            ranks: vec![4],
            filters: vec![0.1],
            strides: vec![2],
            compute_ghosts: false,
        };
        let pts = no_ghosts.points();
        assert!(!pts[0].config.compute_ghosts);
        assert_eq!(pts[0].stride, 2);
    }

    #[test]
    fn empty_axes_are_rejected() {
        let mut spec = SweepGridSpec {
            mappings: vec![MappingAlgorithm::BinBased],
            ranks: vec![4],
            filters: vec![0.1],
            strides: vec![1],
            compute_ghosts: true,
        };
        assert!(spec.validate().is_ok());
        spec.ranks.clear();
        assert!(spec.validate().is_err());
        assert!(spec.is_empty());
    }
}
