//! Enumeration helpers for subgraph-parallel rounds.
//!
//! Every round of the network algorithm operates simultaneously on all
//! subgraphs spanned by a set of *active* dimensions; the parallel
//! instances are indexed by the digits of the remaining dimensions. These
//! helpers enumerate those instances directly (never scanning and
//! filtering the whole node space).

use pns_order::radix::Shape;
use pns_order::snake::snake2_unrank;

/// All node ranks whose digits at `zero_dims` are zero, enumerated in
/// mixed-radix order of the remaining dimensions (least significant free
/// dimension varies fastest).
#[must_use]
pub fn base_nodes(shape: Shape, zero_dims: &[usize]) -> Vec<u64> {
    let mut out = Vec::new();
    for_each_base(shape, zero_dims, |node, _| out.push(node));
    out
}

/// Visit every node rank whose digits at `zero_dims` are zero, in
/// [`base_nodes`] order, together with its digits (indexed by
/// dimension). An odometer over the free dimensions: each step adds one
/// precomputed stride, so no rank is divided into digits.
pub(crate) fn for_each_base(
    shape: Shape,
    zero_dims: &[usize],
    mut visit: impl FnMut(u64, &[usize]),
) {
    let n = shape.n();
    let free: Vec<(usize, u64)> = (0..shape.r())
        .filter(|d| !zero_dims.contains(d))
        .map(|d| (d, shape.stride(d)))
        .collect();
    let mut digits = vec![0usize; shape.r()];
    let mut node = 0u64;
    loop {
        visit(node, &digits);
        let mut carried = true;
        for &(d, stride) in &free {
            digits[d] += 1;
            node += stride;
            if digits[d] < n {
                carried = false;
                break;
            }
            digits[d] = 0;
            node -= n as u64 * stride;
        }
        if carried {
            return;
        }
    }
}

/// Node-rank offsets of a `PG_2` subgraph over `(dim_a, dim_b)` relative
/// to its base node, indexed by forward snake position: adding
/// `offsets[p]` to a base node (whose `dim_a`/`dim_b` digits are zero)
/// gives the node at snake position `p` of that subgraph.
#[must_use]
pub fn pg2_offsets(shape: Shape, dim_a: usize, dim_b: usize) -> Vec<u64> {
    assert_ne!(dim_a, dim_b);
    let n = shape.n();
    let (sa, sb) = (shape.stride(dim_a), shape.stride(dim_b));
    (0..(n * n) as u64)
        .map(|p| {
            let (xa, xb) = snake2_unrank(n, p);
            xa as u64 * sa + xb as u64 * sb
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_nodes_have_zero_digits() {
        let shape = Shape::new(3, 4);
        let bases = base_nodes(shape, &[1, 2]);
        assert_eq!(bases.len(), 9);
        for &b in &bases {
            assert_eq!(shape.digit(b, 1), 0);
            assert_eq!(shape.digit(b, 2), 0);
        }
        // Distinct.
        let mut s = bases.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 9);
    }

    #[test]
    fn base_nodes_with_no_zero_dims_is_everything() {
        let shape = Shape::new(2, 3);
        let bases = base_nodes(shape, &[]);
        assert_eq!(bases.len(), 8);
    }

    #[test]
    fn offsets_tile_the_subgraph() {
        let shape = Shape::new(3, 3);
        let offs = pg2_offsets(shape, 0, 2);
        assert_eq!(offs.len(), 9);
        let bases = base_nodes(shape, &[0, 2]);
        let mut all: Vec<u64> = bases
            .iter()
            .flat_map(|&b| offs.iter().map(move |&o| b + o))
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 27, "subgraphs tile the node space");
    }

    #[test]
    fn offsets_respect_snake_order() {
        let shape = Shape::new(4, 2);
        let offs = pg2_offsets(shape, 0, 1);
        for (p, &o) in offs.iter().enumerate() {
            let (xa, xb) = snake2_unrank(4, p as u64);
            assert_eq!(shape.digit(o, 0), xa);
            assert_eq!(shape.digit(o, 1), xb);
        }
    }

    #[test]
    fn bases_follow_mixed_radix_order_with_their_digits() {
        let shape = Shape::new(3, 4);
        let zero = [1usize, 3];
        let mut seen = Vec::new();
        for_each_base(shape, &zero, |node, digits| {
            assert_eq!(digits, shape.unrank(node).as_slice());
            seen.push(node);
        });
        // Free dimensions 0 and 2, dimension 0 fastest.
        let expect: Vec<u64> = (0..9u64)
            .map(|m| shape.rank(&[(m % 3) as usize, 0, (m / 3) as usize, 0]))
            .collect();
        assert_eq!(seen, expect);
        assert_eq!(base_nodes(shape, &zero), expect);
    }
}
