//! Disjoint-set union (union-find) with component-size tracking.

/// Union-find over `0..n` with union by size, path halving, and
/// maintenance of the component count and the largest component size.
///
/// The largest-component tracking is what lets the simulation engine
/// read "average size of the largest connected component" (paper
/// Figures 4–6) directly off the merge process without recomputing
/// components.
///
/// # Example
///
/// ```
/// use manet_graph::UnionFind;
///
/// let mut uf = UnionFind::new(4);
/// assert_eq!(uf.component_count(), 4);
/// uf.union(0, 1);
/// uf.union(2, 3);
/// assert_eq!(uf.component_count(), 2);
/// assert_eq!(uf.largest_component(), 2);
/// uf.union(1, 2);
/// assert!(uf.is_single_component());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
    components: usize,
    largest: u32,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        let mut uf = UnionFind {
            parent: Vec::new(),
            size: Vec::new(),
            components: 0,
            largest: 0,
        };
        uf.reset(n);
        uf
    }

    /// Makes `n` singleton sets again, reusing the buffers.
    pub fn reset(&mut self, n: usize) {
        assert!(
            n <= u32::MAX as usize,
            "UnionFind supports up to 2^32 - 1 elements"
        );
        self.parent.clear();
        self.parent.extend(0..n as u32);
        self.size.clear();
        self.size.resize(n, 1);
        self.components = n;
        self.largest = if n == 0 { 0 } else { 1 };
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the structure has no elements.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Representative of the set containing `x` (path halving).
    ///
    /// # Panics
    ///
    /// Panics if `x >= len()`.
    pub fn find(&mut self, x: usize) -> usize {
        let mut x = x as u32;
        loop {
            let p = self.parent[x as usize];
            if p == x {
                return x as usize;
            }
            let gp = self.parent[p as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
    }

    /// Merges the sets containing `a` and `b`.
    ///
    /// Returns `true` when a merge happened (the sets were distinct).
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of range.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let mut ra = self.find(a);
        let mut rb = self.find(b);
        if ra == rb {
            return false;
        }
        if self.size[ra] < self.size[rb] {
            core::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra as u32;
        self.size[ra] += self.size[rb];
        self.components -= 1;
        if self.size[ra] > self.largest {
            self.largest = self.size[ra];
        }
        true
    }

    /// Size of the set containing `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x >= len()`.
    pub(crate) fn component_size(&mut self, x: usize) -> usize {
        let root = self.find(x);
        self.size[root] as usize
    }

    /// Whether `a` and `b` are in the same set.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Current number of disjoint sets.
    pub fn component_count(&self) -> usize {
        self.components
    }

    /// Size of the largest set.
    pub fn largest_component(&self) -> usize {
        self.largest as usize
    }

    /// Whether all elements are in one set (`true` for `n <= 1`).
    pub fn is_single_component(&self) -> bool {
        self.components <= 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_structure_is_all_singletons() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.len(), 5);
        assert_eq!(uf.component_count(), 5);
        assert_eq!(uf.largest_component(), 1);
        for i in 0..5 {
            assert_eq!(uf.find(i), i);
        }
    }

    #[test]
    fn reset_makes_fresh_singletons() {
        let mut uf = UnionFind::new(3);
        uf.union(0, 2);
        uf.reset(5);
        assert_eq!(uf, UnionFind::new(5));
        uf.reset(0);
        assert_eq!(uf, UnionFind::new(0));
    }

    #[test]
    fn union_merges_and_reports() {
        let mut uf = UnionFind::new(4);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0), "repeated union must report no-op");
        assert_eq!(uf.component_count(), 3);
        assert!(uf.connected(0, 1));
        assert!(!uf.connected(0, 2));
    }

    #[test]
    fn sizes_accumulate() {
        let mut uf = UnionFind::new(6);
        uf.union(0, 1);
        uf.union(2, 3);
        uf.union(0, 2);
        assert!(uf.connected(3, 1));
        assert_eq!(uf.largest_component(), 4);
        assert_eq!(uf.component_count(), 3); // {0,1,2,3}, {4}, {5}
    }

    #[test]
    fn single_component_detection() {
        let mut uf = UnionFind::new(3);
        assert!(!uf.is_single_component());
        uf.union(0, 1);
        uf.union(1, 2);
        assert!(uf.is_single_component());
    }

    #[test]
    fn empty_and_singleton_edge_cases() {
        let uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert!(uf.is_single_component());
        assert_eq!(uf.largest_component(), 0);

        let uf1 = UnionFind::new(1);
        assert!(uf1.is_single_component());
        assert_eq!(uf1.largest_component(), 1);
    }

    #[test]
    fn long_chain_compresses() {
        let n = 10_000;
        let mut uf = UnionFind::new(n);
        for i in 0..n - 1 {
            uf.union(i, i + 1);
        }
        assert!(uf.is_single_component());
        assert_eq!(uf.largest_component(), n);
        // After find, paths should be short; just exercise it.
        for i in 0..n {
            assert_eq!(uf.find(i), uf.find(0));
        }
    }

    #[test]
    #[should_panic]
    fn out_of_range_panics() {
        let mut uf = UnionFind::new(2);
        uf.find(5);
    }
}
