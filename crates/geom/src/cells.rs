//! Cell-indexing arithmetic for [`MovingCellGrid`](crate::MovingCellGrid).
//!
//! The grid buckets points of `[0, side]^D` into a
//! `cells_per_side^D` lattice; this module holds the layout math:
//! validation, cell assignment with boundary clamping, and the full
//! and forward (half) cell neighborhoods.

use crate::{GeomError, Point};

/// Cell layout over `[0, side]^D`: cells at least `cell_size` wide.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CellLayout {
    pub cells_per_side: usize,
    pub cell_width: f64,
}

impl CellLayout {
    /// Validates `side`/`cell_size` and computes the layout.
    pub fn new(side: f64, cell_size: f64) -> Result<Self, GeomError> {
        if !side.is_finite() || !cell_size.is_finite() {
            return Err(GeomError::NonFinite {
                name: "side/cell_size",
            });
        }
        if side <= 0.0 {
            return Err(GeomError::NonPositive {
                name: "side",
                value: side,
            });
        }
        if cell_size <= 0.0 {
            return Err(GeomError::NonPositive {
                name: "cell_size",
                value: cell_size,
            });
        }
        let cells_per_side = ((side / cell_size).floor() as usize).max(1);
        Ok(CellLayout {
            cells_per_side,
            cell_width: side / cells_per_side as f64,
        })
    }

    /// Total number of cells.
    pub fn n_cells<const D: usize>(&self) -> usize {
        self.cells_per_side.pow(D as u32)
    }

    /// Per-axis cell coordinates of `p` (out-of-region points clamp to
    /// the nearest boundary cell; distance checks stay exact).
    #[inline]
    pub fn cell_coords<const D: usize>(&self, p: &Point<D>) -> [usize; D] {
        let mut out = [0usize; D];
        for (i, o) in out.iter_mut().enumerate() {
            *o = ((p.coord(i) / self.cell_width).floor() as isize)
                .clamp(0, self.cells_per_side as isize - 1) as usize;
        }
        out
    }

    /// Row-major linear index of per-axis coordinates.
    #[inline]
    pub fn linear_index<const D: usize>(&self, coords: &[usize; D]) -> usize {
        let mut idx = 0usize;
        for c in coords {
            idx = idx * self.cells_per_side + c;
        }
        idx
    }

    /// Linear cell index of `p`.
    #[inline]
    pub fn cell_of<const D: usize>(&self, p: &Point<D>) -> usize {
        self.linear_index(&self.cell_coords(p))
    }

    /// Calls `f` with the linear index of every cell adjacent to (or
    /// equal to) the cell at `base`, iterating offsets in `{-1,0,1}^D`
    /// in a fixed (row-major offset) order.
    pub fn for_each_neighbor_cell<const D: usize, F: FnMut(usize)>(
        &self,
        base: &[usize; D],
        mut f: F,
    ) {
        let n_offsets = 3usize.pow(D as u32);
        'outer: for code in 0..n_offsets {
            let mut coords = [0usize; D];
            let mut c = code;
            for k in 0..D {
                let off = (c % 3) as isize - 1;
                c /= 3;
                let v = base[k] as isize + off;
                if v < 0 || v >= self.cells_per_side as isize {
                    continue 'outer;
                }
                coords[k] = v as usize;
            }
            f(self.linear_index(&coords));
        }
    }

    /// Calls `f` with the linear index of every in-bounds cell at a
    /// *forward* offset of `base`: the `(3^D - 1) / 2` members of
    /// `{-1,0,1}^D \ {0}` whose first nonzero component (in axis
    /// order) is `+1`. Negating a nonzero offset flips that component,
    /// so every unordered pair of adjacent cells has exactly one
    /// forward representation — the half-neighborhood scan that visits
    /// each cell pair once instead of twice.
    pub fn for_each_forward_neighbor_cell<const D: usize, F: FnMut(usize)>(
        &self,
        base: &[usize; D],
        mut f: F,
    ) {
        let n_offsets = 3usize.pow(D as u32);
        'outer: for code in 0..n_offsets {
            let mut offs = [0isize; D];
            let mut c = code;
            for o in offs.iter_mut() {
                *o = (c % 3) as isize - 1;
                c /= 3;
            }
            let mut forward = false;
            for &o in &offs {
                if o != 0 {
                    forward = o == 1;
                    break;
                }
            }
            if !forward {
                continue;
            }
            let mut coords = [0usize; D];
            for k in 0..D {
                let v = base[k] as isize + offs[k];
                if v < 0 || v >= self.cells_per_side as isize {
                    continue 'outer;
                }
                coords[k] = v as usize;
            }
            f(self.linear_index(&coords));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_validates() {
        assert!(CellLayout::new(0.0, 1.0).is_err());
        assert!(CellLayout::new(1.0, 0.0).is_err());
        assert!(CellLayout::new(f64::NAN, 1.0).is_err());
        assert!(CellLayout::new(1.0, f64::INFINITY).is_err());
    }

    #[test]
    fn cell_width_at_least_requested() {
        let l = CellLayout::new(10.0, 3.0).unwrap();
        assert_eq!(l.cells_per_side, 3);
        assert!(l.cell_width >= 3.0);
        // A cell size above the side collapses to a single cell.
        let one = CellLayout::new(1.0, 5.0).unwrap();
        assert_eq!(one.cells_per_side, 1);
    }

    #[test]
    fn out_of_region_points_clamp_to_boundary_cells() {
        let l = CellLayout::new(10.0, 1.0).unwrap();
        assert_eq!(l.cell_coords(&Point::new([-3.0, 25.0])), [0, 9]);
        assert_eq!(l.cell_of(&Point::new([10.0, 10.0])), l.n_cells::<2>() - 1);
    }

    #[test]
    fn neighbor_cells_clip_at_the_border() {
        let l = CellLayout::new(10.0, 1.0).unwrap();
        let mut corner = Vec::new();
        l.for_each_neighbor_cell(&[0usize, 0], |c| corner.push(c));
        assert_eq!(corner.len(), 4); // 2x2 corner neighborhood
        let mut interior = Vec::new();
        l.for_each_neighbor_cell(&[5usize, 5], |c| interior.push(c));
        assert_eq!(interior.len(), 9);
    }

    /// Forward offsets cover each unordered pair of adjacent cells
    /// exactly once: unioning `{base} x forward(base)` over every base
    /// cell must equal the set of unordered adjacent pairs from the
    /// full neighborhood enumeration.
    #[test]
    fn forward_neighbors_halve_the_neighborhood_exactly() {
        let l = CellLayout::new(10.0, 2.0).unwrap(); // 5x5 lattice
        let mut forward_pairs = std::collections::BTreeSet::new();
        let mut full_pairs = std::collections::BTreeSet::new();
        for x in 0..l.cells_per_side {
            for y in 0..l.cells_per_side {
                let base = [x, y];
                let b = l.linear_index(&base);
                l.for_each_forward_neighbor_cell(&base, |c| {
                    assert_ne!(c, b, "forward offsets exclude the zero offset");
                    assert!(
                        forward_pairs.insert((b.min(c), b.max(c))),
                        "cell pair ({b}, {c}) visited twice"
                    );
                });
                l.for_each_neighbor_cell(&base, |c| {
                    if c != b {
                        full_pairs.insert((b.min(c), b.max(c)));
                    }
                });
            }
        }
        assert_eq!(forward_pairs, full_pairs);
        // An interior cell sees (3^2 - 1) / 2 = 4 forward neighbors.
        let mut interior = Vec::new();
        l.for_each_forward_neighbor_cell(&[2usize, 2], |c| interior.push(c));
        assert_eq!(interior.len(), 4);
    }
}
