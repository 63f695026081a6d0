//! Dominance and skyline computation.
//!
//! A point `p` dominates `q` when `p ≥ q` coordinate-wise with at least one
//! strict inequality. The skyline (set of non-dominated points) contains
//! the optimum of every nonnegative linear utility, so HMS algorithms can
//! restrict their search to it. FairHMS additionally needs dominated points
//! that are the best *within their group*, hence [`group_skyline_indices`]:
//! the union of per-group skylines, which the paper's experiments
//! precompute as the algorithm input (Table 2's "#skylines" column is the
//! sum of per-group skyline sizes).
//!
//! For `d ≥ 3`, [`skyline_of`] tests every row against a static k-d tree
//! of the same rows (median splits on the widest dimension, min/max
//! bounding boxes per node). A row is kept exactly when the tree finds no
//! row that [`dominates`] it, which is the definition of the skyline: the
//! boxes only decide which rows need not be compared, never the answer.
//! The cost is O(n log n) to build plus one orthant query per row, each
//! touching only the nodes that straddle the row's dominance orthant. No
//! coordinate sum or sort order enters the answer, so rows whose sums tie
//! in floating point are compared like any others. On the anti-correlated
//! 200k catalog (d = 4, 25.9 % of rows on a group skyline) the whole
//! group skyline takes about 0.2 s on one core.

use std::borrow::Cow;

use crate::dataset::Dataset;

/// Returns `true` if `p` dominates `q` (`p ≥ q` everywhere, `>` somewhere).
pub fn dominates(p: &[f64], q: &[f64]) -> bool {
    debug_assert_eq!(p.len(), q.len());
    let mut strict = false;
    for (a, b) in p.iter().zip(q) {
        if a < b {
            return false;
        }
        if a > b {
            strict = true;
        }
    }
    strict
}

/// Indices of the skyline of `points` (row-major, `dim` columns), in
/// ascending order. Duplicates of a skyline point are all kept (none
/// dominates the other), matching the multiset semantics FairHMS needs:
/// two equal points from different groups are distinct choices.
///
/// `dim == 2` uses an O(n log n) sort-and-sweep. Every other dimension
/// builds a k-d tree over the rows and keeps row `i` exactly when the
/// tree holds no row that [`dominates`] it — the definition of the
/// skyline itself, so no ordering argument (and no floating-point
/// coordinate sum) enters the result. Rows are queried in tree order, so
/// consecutive queries are spatial neighbours and the last dominator
/// found is tried first: it often dominates the next row too.
pub fn skyline_of(points: &[f64], dim: usize) -> Vec<usize> {
    skyline_cow(Cow::Borrowed(points), dim)
}

/// [`skyline_of`], taking ownership of `points` when the caller has
/// already gathered them: the k-d tree reorders its coordinates in place,
/// so a gathered bucket is never copied a second time.
fn skyline_cow(points: Cow<'_, [f64]>, dim: usize) -> Vec<usize> {
    let n = points.len().checked_div(dim).unwrap_or(0);
    if n == 0 {
        return vec![];
    }
    if dim == 2 {
        return skyline_2d(&points);
    }
    let tree = DominanceTree::build(points.into_owned(), dim);
    let mut on_sky = vec![false; n];
    let mut stack = Vec::new();
    let mut hint = 0;
    for (pos, &row) in tree.rows.iter().enumerate() {
        match tree.dominator(&tree.coords[pos * dim..(pos + 1) * dim], hint, &mut stack) {
            Some(d) => hint = d,
            None => on_sky[row] = true,
        }
    }
    (0..n).filter(|&i| on_sky[i]).collect()
}

/// Min/max corners (`dim` mins, then `dim` maxes) of the given rows.
fn bounding_box(points: &[f64], dim: usize, rows: &[usize]) -> Vec<f64> {
    let first = &points[rows[0] * dim..(rows[0] + 1) * dim];
    let mut bx = [first, first].concat();
    for &r in &rows[1..] {
        for (k, &v) in points[r * dim..(r + 1) * dim].iter().enumerate() {
            bx[k] = bx[k].min(v);
            bx[dim + k] = bx[dim + k].max(v);
        }
    }
    bx
}

/// Rows per k-d-tree leaf: small enough that a leaf scan stays cheap,
/// large enough that the per-node bounding boxes cost little memory.
const LEAF_ROWS: usize = 24;

/// A static k-d tree over a point set that answers "does any point
/// dominate `p`?" (an orthant-emptiness query).
///
/// Each node covers a contiguous run of rows in tree order and carries
/// the min/max bounding box of that run; internal nodes split their run
/// at the median by count along the widest side of their cell. A query skips a
/// node unless its max corner dominates `p` — if the max is below `p`
/// in some coordinate, or nowhere strictly above it, no row inside can
/// dominate `p` — and answers at once when the node's min corner
/// dominates `p`, because then every row inside does. Only the leaves
/// straddling the boundary of `p`'s dominance orthant are scanned row by
/// row. The "nowhere strictly above" half of the skip matters for
/// duplicate-heavy input: without it, every node full of copies of `p`
/// would be descended and scanned.
struct DominanceTree {
    dim: usize,
    /// Row ids in tree order.
    rows: Vec<usize>,
    /// Coordinates in tree order (each node's rows are contiguous).
    coords: Vec<f64>,
    /// Per node: `dim` mins then `dim` maxes.
    boxes: Vec<f64>,
    nodes: Vec<Node>,
}

/// A node's row range in tree order; nodes are stored in pre-order, so
/// an internal node's left child is the next node and `right` names the
/// right child (`0` marks a leaf: the root is never a right child).
struct Node {
    start: usize,
    end: usize,
    right: usize,
}

impl DominanceTree {
    /// Builds the tree over the rows of `points` (at least one), which it
    /// keeps as its coordinates, reordered in place into tree order. The
    /// node buffers are allocated once at their final size: a leaf holds
    /// at least `LEAF_ROWS / 2` rows, so there are fewer than
    /// `2n / (LEAF_ROWS / 2) + 1` nodes.
    fn build(mut points: Vec<f64>, dim: usize) -> Self {
        let n = points.len() / dim;
        let mut rows: Vec<usize> = (0..n).collect();
        let mut cell = bounding_box(&points, dim, &rows);
        let max_nodes = 2 * n / (LEAF_ROWS / 2) + 1;
        let mut tree = DominanceTree {
            dim,
            rows: Vec::new(),
            coords: Vec::new(),
            boxes: Vec::with_capacity(max_nodes * 2 * dim),
            nodes: Vec::with_capacity(max_nodes),
        };
        tree.split(&points, &mut rows, 0, &mut cell);
        permute_rows(&mut points, dim, &rows);
        tree.coords = points;
        tree.rows = rows;
        tree
    }

    /// Appends the subtree over `rows` (which start at tree position
    /// `start`), reordering `rows` in place into tree order. `cell` holds
    /// bounds (`dim` mins, then `dim` maxes) known to enclose `rows`; its
    /// widest side picks the split axis, which spares a bounding-box scan
    /// per level. The stored boxes are exact: leaves scan their rows and
    /// internal nodes take the union of their children.
    fn split(&mut self, points: &[f64], rows: &mut [usize], start: usize, cell: &mut [f64]) {
        let dim = self.dim;
        let id = self.nodes.len();
        self.nodes.push(Node {
            start,
            end: start + rows.len(),
            right: 0,
        });
        if rows.len() <= LEAF_ROWS {
            self.boxes.extend(bounding_box(points, dim, rows));
            return;
        }
        self.boxes.resize(self.boxes.len() + 2 * dim, 0.0);
        let (lo, hi) = cell.split_at_mut(dim);
        let mut axis = 0;
        for k in 1..dim {
            if hi[k] - lo[k] > hi[axis] - lo[axis] {
                axis = k;
            }
        }
        let mid = rows.len() / 2;
        rows.select_nth_unstable_by(mid, |&a, &b| {
            points[a * dim + axis].total_cmp(&points[b * dim + axis])
        });
        let median = points[rows[mid] * dim + axis];
        let (left, right) = rows.split_at_mut(mid);
        let outer = std::mem::replace(&mut cell[dim + axis], median);
        self.split(points, left, start, cell);
        cell[dim + axis] = outer;
        self.nodes[id].right = self.nodes.len();
        let outer = std::mem::replace(&mut cell[axis], median);
        self.split(points, right, start + mid, cell);
        cell[axis] = outer;

        let right = self.nodes[id].right;
        for k in 0..2 * dim {
            let (l, r) = (
                self.boxes[(id + 1) * 2 * dim + k],
                self.boxes[right * 2 * dim + k],
            );
            self.boxes[id * 2 * dim + k] = if k < dim { l.min(r) } else { l.max(r) };
        }
    }

    /// Tree position of some point that dominates `p`, if any. The
    /// point at position `hint` (typically the last dominator found) is
    /// tried first. `stack` is scratch space, reused across queries.
    fn dominator(&self, p: &[f64], hint: usize, stack: &mut Vec<usize>) -> Option<usize> {
        let dim = self.dim;
        if dominates(&self.coords[hint * dim..(hint + 1) * dim], p) {
            return Some(hint);
        }
        stack.clear();
        stack.push(0);
        while let Some(id) = stack.pop() {
            let bx = &self.boxes[id * 2 * dim..(id + 1) * 2 * dim];
            let (lo, hi) = bx.split_at(dim);
            if !dominates(hi, p) {
                continue;
            }
            let node = &self.nodes[id];
            if dominates(lo, p) {
                return Some(node.start);
            }
            if node.right == 0 {
                let rows = &self.coords[node.start * dim..node.end * dim];
                if let Some(j) = rows.chunks_exact(dim).position(|q| dominates(q, p)) {
                    return Some(node.start + j);
                }
            } else {
                // Upper half popped first: its rows are likelier dominators.
                stack.push(id + 1);
                stack.push(node.right);
            }
        }
        None
    }
}

/// Reorders the `dim`-wide rows of `coords` so that row `pos` becomes the
/// old row `order[pos]`, following each cycle of the permutation once
/// with one row of scratch.
fn permute_rows(coords: &mut [f64], dim: usize, order: &[usize]) {
    let mut done = vec![false; order.len()];
    let mut carry = vec![0.0; dim];
    for start in 0..order.len() {
        if done[start] {
            continue;
        }
        carry.copy_from_slice(&coords[start * dim..(start + 1) * dim]);
        let mut pos = start;
        loop {
            done[pos] = true;
            let src = order[pos];
            if src == start {
                coords[pos * dim..(pos + 1) * dim].copy_from_slice(&carry);
                break;
            }
            coords.copy_within(src * dim..(src + 1) * dim, pos * dim);
            pos = src;
        }
    }
}

/// 2D skyline by a single sort-and-sweep.
fn skyline_2d(points: &[f64]) -> Vec<usize> {
    let n = points.len() / 2;
    let mut order: Vec<usize> = (0..n).collect();
    // x descending; ties broken y descending so the sweep sees the best
    // duplicate first.
    order.sort_by(|&a, &b| {
        points[b * 2]
            .total_cmp(&points[a * 2])
            .then(points[b * 2 + 1].total_cmp(&points[a * 2 + 1]))
    });
    // Sweep x-descending in tie groups. A point is on the skyline iff it
    // has the maximal y within its x-tie group (same x, higher y dominates)
    // and that y strictly exceeds the best y seen at any larger x (larger x,
    // equal-or-higher y dominates). Duplicates of a skyline point all pass.
    let mut out = Vec::new();
    let mut best_y_strict = f64::NEG_INFINITY;
    let mut i = 0;
    while i < order.len() {
        let x = points[order[i] * 2];
        let mut j = i;
        let mut tie_max = f64::NEG_INFINITY;
        while j < order.len() && points[order[j] * 2] == x {
            tie_max = tie_max.max(points[order[j] * 2 + 1]);
            j += 1;
        }
        // `==` is not reflexive for NaN: a NaN x produces an empty tie
        // group, which would stall the sweep. Consume the row regardless
        // (its tie_max stays -inf, so it is never emitted).
        j = j.max(i + 1);
        if tie_max > best_y_strict {
            for &idx in &order[i..j] {
                if points[idx * 2 + 1] == tie_max {
                    out.push(idx);
                }
            }
            best_y_strict = tie_max;
        }
        i = j;
    }
    out.sort_unstable();
    out
}

/// Union of per-group skylines, sorted ascending — the standard FairHMS
/// preprocessing (a group's best points must stay available even when
/// globally dominated).
pub fn group_skyline_indices(data: &Dataset) -> Vec<usize> {
    let mut by_group: Vec<Vec<usize>> = vec![Vec::new(); data.num_groups()];
    for r in 0..data.len() {
        by_group[data.group_of(r)].push(r);
    }
    let mut out: Vec<usize> = by_group
        .iter()
        .flat_map(|bucket| bucket_skyline(data, bucket))
        .collect();
    out.sort_unstable();
    out
}

/// Skyline of one bucket of rows (global ids in, global ids out, bucket
/// order preserved among survivors). The per-group work unit of
/// [`group_skyline_indices`] and of the catalog's delete repair, which
/// recomputes one group's skyline from its remaining rows.
pub fn bucket_skyline(data: &Dataset, rows: &[usize]) -> Vec<usize> {
    let mut sub = Vec::with_capacity(rows.len() * data.dim());
    for &r in rows {
        sub.extend_from_slice(data.point(r));
    }
    skyline_cow(Cow::Owned(sub), data.dim())
        .into_iter()
        .map(|local| rows[local])
        .collect()
}

/// Per-group skyline sizes (the addends of Table 2's "#skylines").
pub fn group_skyline_sizes(data: &Dataset) -> Vec<usize> {
    let mut sizes = vec![0usize; data.num_groups()];
    for &i in &group_skyline_indices(data) {
        sizes[data.group_of(i)] += 1;
    }
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_skyline(points: &[f64], dim: usize) -> Vec<usize> {
        let n = points.len() / dim;
        (0..n)
            .filter(|&i| {
                let p = &points[i * dim..(i + 1) * dim];
                !(0..n).any(|j| dominates(&points[j * dim..(j + 1) * dim], p))
            })
            .collect()
    }

    #[test]
    fn skyline_of_does_not_panic_on_nan() {
        // Regression: skyline_of is a public API over raw &[f64] and used
        // to panic inside partial_cmp(..).unwrap() sorts when fed NaN.
        // Datasets constructed through Dataset::new never contain NaN, but
        // a raw-slice caller may; the sort must stay total. (NaN rows sort
        // via the total order; the dominance semantics of NaN coordinates
        // are unspecified, only panic-freedom is promised.)
        for dim in [2usize, 3] {
            let mut pts = vec![0.5; 4 * dim];
            pts[dim] = f64::NAN; // second row poisoned
            let _ = skyline_of(&pts, dim); // must not panic
        }
    }

    #[test]
    fn dominance_basics() {
        assert!(dominates(&[1.0, 1.0], &[0.5, 1.0]));
        assert!(!dominates(&[1.0, 1.0], &[1.0, 1.0]));
        assert!(!dominates(&[1.0, 0.0], &[0.0, 1.0]));
    }

    #[test]
    fn skyline_2d_simple() {
        let pts = [1.0, 0.0, 0.0, 1.0, 0.6, 0.6, 0.5, 0.5, 0.2, 0.9];
        let s = skyline_of(&pts, 2);
        assert_eq!(s, vec![0, 1, 2, 4]);
    }

    #[test]
    fn skyline_keeps_duplicates() {
        let pts = [0.7, 0.7, 0.7, 0.7, 0.2, 0.2];
        let s = skyline_of(&pts, 2);
        assert_eq!(s, vec![0, 1]);
        // ...in any dimension
        let pts3 = [0.7, 0.7, 0.7, 0.7, 0.7, 0.7, 0.1, 0.1, 0.1];
        let s3 = skyline_of(&pts3, 3);
        assert_eq!(s3, vec![0, 1]);
    }

    #[test]
    fn skyline_matches_naive_2d_and_4d() {
        let mut x = 0.8_f64;
        let mut pts2 = Vec::new();
        let mut pts4 = Vec::new();
        for _ in 0..300 {
            x = (x * 797.77).fract();
            pts2.push(x);
            for k in 0..4 {
                pts4.push(((x + k as f64) * 313.7).fract());
            }
        }
        let fast2 = skyline_of(&pts2, 2);
        let naive2 = naive_skyline(&pts2, 2);
        assert_eq!(fast2, naive2);
        let fast4 = skyline_of(&pts4, 4);
        let naive4 = naive_skyline(&pts4, 4);
        assert_eq!(fast4, naive4);
    }

    #[test]
    fn sum_tie_dominator_is_found() {
        // Row 1 dominates row 0, but in floating point both rows sum to
        // exactly 1.0: an ordering by coordinate sum cannot tell which
        // one may dominate the other.
        let pts = [1.0, 0.0, 0.0, 1.0, 1e-17, 0.0];
        assert_eq!(pts[0] + pts[1] + pts[2], pts[3] + pts[4] + pts[5]);
        assert_eq!(skyline_of(&pts, 3), vec![1]);
    }

    #[test]
    fn permute_rows_moves_whole_rows() {
        // Two cycles (0 → 2 → 1 → 0 and the fixed point 3) of 2-wide rows.
        let mut coords = vec![0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5];
        permute_rows(&mut coords, 2, &[2, 0, 1, 3]);
        assert_eq!(coords, vec![2.0, 2.5, 0.0, 0.5, 1.0, 1.5, 3.0, 3.5]);
    }

    #[test]
    fn duplicate_heavy_input_keeps_every_row() {
        // Two distinct, mutually incomparable points, 2 500 copies each:
        // nothing is dominated. Every query meets thousands of exact
        // duplicates of itself, which must be pruned by bounding box
        // rather than scanned.
        let n = 5_000;
        let pts: Vec<f64> = (0..n)
            .flat_map(|i| {
                if i % 2 == 0 {
                    [0.9, 0.1, 0.5, 0.5]
                } else {
                    [0.1, 0.9, 0.5, 0.5]
                }
            })
            .collect();
        assert_eq!(skyline_of(&pts, 4), (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn group_skyline_superset_of_global() {
        let pts = vec![
            1.0, 0.0, // g0, global skyline
            0.0, 1.0, // g0, global skyline
            0.5, 0.5, // g1, dominated globally? no — (1,0) no, (0,1) no: skyline
            0.4, 0.4, // g1, dominated by (0.5,0.5)
            0.3, 0.2, // g2, dominated, but best of its group
        ];
        let d = Dataset::new("g", 2, pts, vec![0, 0, 1, 1, 2], vec![]).unwrap();
        let global = skyline_of(d.points_flat(), d.dim());
        assert_eq!(global, vec![0, 1, 2]);
        let grouped = group_skyline_indices(&d);
        assert_eq!(grouped, vec![0, 1, 2, 4]);
        assert_eq!(group_skyline_sizes(&d), vec![2, 1, 1]);
    }

    #[test]
    fn empty_dataset_skyline() {
        let d = Dataset::ungrouped("e", 2, vec![]).unwrap();
        assert!(skyline_of(d.points_flat(), d.dim()).is_empty());
        assert!(group_skyline_indices(&d).is_empty());
    }
}
