//! Host-speed probe: a fixed amount of work, written in this package
//! alone so that no change to the library moves it.
//!
//! On a shared host the CPU's speed drifts by tens of percent over
//! seconds to minutes. `run.py` times this probe right before and
//! right after each CLI child and divides the child's times by the
//! probe's, so host drift cancels and a change to the program does
//! not. The work mixes what the workloads' kernels do: O(n²)
//! nearest-distance scans over floating-point points (the `mst`
//! kernel's pattern), union-find over random pairs (the components'
//! pattern), and dependent random reads over a table larger than the
//! core's caches (the cell-grid and arena pattern of `dynamic`), so
//! contention for either the core or memory shows in it.

use std::hint::black_box;

/// Points of one Prim scan.
const POINTS: usize = 1500;
/// Nodes and random unions of one union-find pass.
const DSU_NODES: usize = 4096;
const UNIONS: usize = 1 << 17;
/// Entries of the random-read table (8 MiB of `u32`).
const TABLE: usize = 1 << 21;
/// Dependent reads per round.
const READS: usize = 1 << 18;
/// Rounds of one probe.
pub const ROUNDS: usize = 30;

/// xorshift64*, so the probe needs nothing from the library.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Longest edge of the Euclidean minimum spanning tree, O(n²) Prim.
fn prim_longest_edge(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len();
    let mut best = vec![f64::INFINITY; n];
    let mut done = vec![false; n];
    let mut current = 0;
    let mut longest: f64 = 0.0;
    done[0] = true;
    for _ in 1..n {
        let (cx, cy) = (xs[current], ys[current]);
        let mut next = usize::MAX;
        let mut next_d = f64::INFINITY;
        for j in 0..n {
            if done[j] {
                continue;
            }
            let (dx, dy) = (xs[j] - cx, ys[j] - cy);
            let d = dx * dx + dy * dy;
            if d < best[j] {
                best[j] = d;
            }
            if best[j] < next_d {
                next_d = best[j];
                next = j;
            }
        }
        done[next] = true;
        longest = longest.max(next_d);
        current = next;
    }
    longest.sqrt()
}

fn find(parent: &mut [usize], mut x: usize) -> usize {
    while parent[x] != x {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    x
}

/// Components left after `UNIONS` random unions over `DSU_NODES`
/// nodes (union by size, path halving), starting over whenever one
/// component is left.
fn union_find(rng: &mut Rng) -> usize {
    let mut parent: Vec<usize> = (0..DSU_NODES).collect();
    let mut size = vec![1usize; DSU_NODES];
    let mut components = DSU_NODES;
    for _ in 0..UNIONS {
        let a = find(&mut parent, rng.below(DSU_NODES));
        let b = find(&mut parent, rng.below(DSU_NODES));
        if a != b {
            let (big, small) = if size[a] >= size[b] { (a, b) } else { (b, a) };
            parent[small] = big;
            size[big] += size[small];
            components -= 1;
        }
        if components == 1 {
            parent.iter_mut().enumerate().for_each(|(i, p)| *p = i);
            size.fill(1);
            components = DSU_NODES;
        }
    }
    components
}

/// Runs the probe's fixed work once; returns a checksum that depends on
/// all of it.
pub fn work() -> u64 {
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    let table: Vec<u32> = (0..TABLE).map(|_| rng.next() as u32).collect();
    let mut checksum = 0u64;
    for _ in 0..ROUNDS {
        let xs: Vec<f64> = (0..POINTS).map(|_| rng.unit()).collect();
        let ys: Vec<f64> = (0..POINTS).map(|_| rng.unit()).collect();
        checksum ^= black_box(prim_longest_edge(&xs, &ys)).to_bits();
        checksum = checksum.wrapping_add(black_box(union_find(&mut rng)) as u64);
        let mut at = rng.below(TABLE);
        for _ in 0..READS {
            let v = table[at];
            checksum = checksum.wrapping_add(u64::from(v));
            at = (v as usize ^ at.wrapping_mul(31)) % TABLE;
        }
    }
    black_box(checksum)
}
