//! The pruned dual-tree join both ghost kernels run: the bin tree's
//! self-join of its bins ([`crate::BinTree::ghost_counts`]) and the rank
//! tree's join of particle boxes against region boxes
//! ([`crate::RankTree::ghost_counts`]).
//!
//! A tree here is a binary tree of nodes `0..`, rooted at node 0, where
//! each node bounds the particles or regions of its subtree by a box. The
//! join walks pairs of nodes from (root, root) on an explicit stack, so the
//! tree's depth is not bounded by the thread's, and keeps a pair only if
//! its boxes lie within the radius. What reaches the leaves is every pair
//! of distinct leaves that a particle of one could reach within the radius
//! of the other's box; the caller tests that leaf's particles one by one.

use pic_types::Aabb;

/// Squared distance between two boxes, each axis's gap squared and summed
/// in x, y, z order (`0` where they overlap).
///
/// It is never above the ghost kernel's `d²` ([`dist_sq`]) from any point
/// of `a` to `b`: on an axis where the point lies past `b`, the gap
/// `fl(b.min − a.max)` or `fl(a.min − b.max)` is at most the point's
/// `|fl(x − face)|`, because the point lies inside `a` and subtraction
/// rounds monotonically, and squares and sums of non-negative terms round
/// monotonically too. For the same reason two boxes that contain `a` and
/// `b` are never farther apart than `a` and `b` are, so pruning a pair on
/// `d² > r²` never drops a hit.
#[inline]
pub(crate) fn box_gap_sq(a: &Aabb, b: &Aabb) -> f64 {
    let gap = |a_lo: f64, a_hi: f64, b_lo: f64, b_hi: f64| {
        let (g1, g2) = (b_lo - a_hi, a_lo - b_hi);
        let g = if g1 > g2 { g1 } else { g2 };
        if g > 0.0 {
            g
        } else {
            0.0
        }
    };
    let gx = gap(a.min.x, a.max.x, b.min.x, b.max.x);
    let gy = gap(a.min.y, a.max.y, b.min.y, b.max.y);
    let gz = gap(a.min.z, a.max.z, b.min.z, b.max.z);
    gx * gx + gy * gy + gz * gz
}

/// The ghost test's squared distance from a particle to a box: per axis
/// `x − clamp(x, box)`, squared and summed in x, y, z order. The clamp is
/// two compare-selects, which compile to bare `maxpd`/`minpd`;
/// `f64::max`/`min` must drop a NaN operand and cannot. With finite faces
/// both give the same value for every coordinate, NaN and ±∞ included, up
/// to the sign of a zero that `dx·dx` erases, so this is bit for bit
/// `Aabb::distance_sq_to_point`, the reference's test.
#[inline]
pub(crate) fn dist_sq([x, y, z]: [f64; 3], b: &Aabb) -> f64 {
    let sel_max = |u: f64, v: f64| if u > v { u } else { v };
    let sel_min = |u: f64, v: f64| if u < v { u } else { v };
    let dx = x - sel_min(sel_max(x, b.min.x), b.max.x);
    let dy = y - sel_min(sel_max(y, b.min.y), b.max.y);
    let dz = z - sel_min(sel_max(z, b.min.z), b.max.z);
    dx * dx + dy * dy + dz * dz
}

/// Call `visit(a, b)` for each pair of distinct leaves the pruned join of
/// the tree with itself reaches. `split(n)` is `None` at a leaf and a
/// node's two children otherwise; `near(a, b)` keeps a pair.
///
/// `SYMMETRIC` joins a tree whose pairs are unordered (the bin tree, and
/// a rank tree whose particle and region boxes coincide: one box per node
/// serves both sides): a self pair yields its children's self
/// pairs, unpruned, and their one cross pair, and each unordered pair of
/// leaves is visited once. Otherwise pairs are directed (the rank tree:
/// particles of `a` against regions of `b`), a self pair yields all four
/// pairs of its children, each pruned on its own, and each ordered pair
/// is visited once. Two distinct nodes yield the pairs of the children of
/// each side that is not a leaf.
pub(crate) fn near_leaf_pairs<const SYMMETRIC: bool>(
    split: impl Fn(u32) -> Option<[u32; 2]>,
    near: impl Fn(u32, u32) -> bool,
    mut visit: impl FnMut(u32, u32),
) {
    let mut stack: Vec<(u32, u32)> = vec![(0, 0)];
    while let Some((a, b)) = stack.pop() {
        let mut push = |x: u32, y: u32| {
            if near(x, y) {
                stack.push((x, y));
            }
        };
        match (split(a), split(b)) {
            (None, None) => {
                if a != b {
                    visit(a, b);
                }
            }
            (Some([l, r]), _) if a == b => {
                if SYMMETRIC {
                    push(l, r);
                    stack.extend([(l, l), (r, r)]);
                } else {
                    for (x, y) in [(l, l), (l, r), (r, l), (r, r)] {
                        push(x, y);
                    }
                }
            }
            (None, Some(cb)) => cb.into_iter().for_each(|c| push(a, c)),
            (Some(ca), None) => ca.into_iter().for_each(|c| push(c, b)),
            (Some([la, ra]), Some([lb, rb])) => {
                for (x, y) in [(la, lb), (la, rb), (ra, lb), (ra, rb)] {
                    push(x, y);
                }
            }
        }
    }
}
