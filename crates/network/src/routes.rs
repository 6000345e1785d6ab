//! Per-backend route memo shared by the packet and flow backends.

use std::ops::Index;

use astra_topology::{LinkId, NpuId};

/// The routes one backend has resolved, each stored once and named by an
/// index, and found again by `(src, dst)` through a per-source list kept
/// sorted by destination.
///
/// Collectives send along the same few pairs every phase, so a send costs
/// one short binary search in its source's list, never a map lookup. The
/// route itself is computed only on a pair's first use.
#[derive(Clone, Debug, Default)]
pub struct RouteTable {
    routes: Vec<Vec<LinkId>>,
    /// Per source NPU: `(dst, route index)`, sorted by `dst`.
    by_src: Vec<Vec<(NpuId, usize)>>,
}

impl RouteTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The index of the `src → dst` route; on the pair's first use the
    /// route is computed by `route` and stored.
    pub fn index_of(
        &mut self,
        src: NpuId,
        dst: NpuId,
        route: impl FnOnce() -> Vec<LinkId>,
    ) -> usize {
        if src >= self.by_src.len() {
            self.by_src.resize_with(src + 1, Vec::new);
        }
        let dsts = &mut self.by_src[src];
        match dsts.binary_search_by_key(&dst, |&(d, _)| d) {
            Ok(at) => dsts[at].1,
            Err(at) => {
                let idx = self.routes.len();
                dsts.insert(at, (dst, idx));
                self.routes.push(route());
                idx
            }
        }
    }

    /// Distinct `(src, dst)` routes stored so far.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// Whether no route is stored yet.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }
}

impl Index<usize> for RouteTable {
    type Output = [LinkId];

    /// The links of the route with this index, in traversal order.
    fn index(&self, idx: usize) -> &[LinkId] {
        &self.routes[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_pair_is_routed_once_and_found_again() {
        let mut table = RouteTable::new();
        let mut computed = 0;
        let mut route = |links: &[usize]| {
            computed += 1;
            links.iter().map(|&l| LinkId(l)).collect::<Vec<_>>()
        };
        let a = table.index_of(3, 1, || route(&[7, 8]));
        let b = table.index_of(3, 0, || route(&[9]));
        let c = table.index_of(0, 3, || route(&[]));
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(table.index_of(3, 1, || unreachable!("memoized")), a);
        assert_eq!(table.index_of(3, 0, || unreachable!("memoized")), b);
        assert_eq!(table.index_of(0, 3, || unreachable!("memoized")), c);
        assert_eq!(computed, 3);
        assert_eq!(table.len(), 3);
        assert_eq!(&table[a], &[LinkId(7), LinkId(8)]);
        assert!(table[c].is_empty());
    }
}
