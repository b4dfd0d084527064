//! The benchmark's own reference implementations. The correctness checks
//! compare the program's outputs against these, never against a stored
//! copy of an earlier run, so they are written here from the definitions
//! and share no code with the kernels they check.

use mic_eval::graph::Csr;

/// Sentinel level of a vertex the BFS never reached.
pub const UNREACHED: u32 = u32::MAX;

/// BFS levels from `source` by a plain FIFO queue.
pub fn bfs_levels(g: &Csr, source: u32) -> Vec<u32> {
    let n = g.num_vertices();
    let mut level = vec![UNREACHED; n];
    let mut queue = std::collections::VecDeque::new();
    level[source as usize] = 0;
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        let next = level[v as usize] + 1;
        for &w in g.neighbors(v) {
            if level[w as usize] == UNREACHED {
                level[w as usize] = next;
                queue.push_back(w);
            }
        }
    }
    level
}

/// Number of distinct BFS levels (Table I's `#Level`).
pub fn num_levels(levels: &[u32]) -> u32 {
    levels
        .iter()
        .filter(|&&l| l != UNREACHED)
        .max()
        .map_or(0, |&m| m + 1)
}

/// Greedy first-fit coloring in natural vertex order; returns the colors.
pub fn greedy_colors(g: &Csr) -> Vec<u32> {
    let n = g.num_vertices();
    let mut color = vec![u32::MAX; n];
    // forbidden[c] == v marks color c as taken by a neighbour of v.
    let mut forbidden: Vec<u32> = Vec::new();
    for v in 0..n as u32 {
        for &w in g.neighbors(v) {
            let c = color[w as usize];
            if c != u32::MAX {
                if c as usize >= forbidden.len() {
                    forbidden.resize(c as usize + 1, u32::MAX);
                }
                forbidden[c as usize] = v;
            }
        }
        let c = (0..).find(|&c| forbidden.get(c).is_none_or(|&f| f != v)).unwrap();
        color[v as usize] = c as u32;
    }
    color
}

/// Number of colors a coloring uses.
pub fn num_colors(colors: &[u32]) -> u32 {
    colors.iter().max().map_or(0, |&m| m + 1)
}

/// True when no edge joins two vertices of one color and every vertex
/// has a color.
pub fn is_proper(g: &Csr, colors: &[u32]) -> bool {
    colors.len() == g.num_vertices()
        && (0..g.num_vertices() as u32).all(|v| {
            let c = colors[v as usize];
            c != u32::MAX
                && g
                    .neighbors(v)
                    .iter()
                    .all(|&w| w == v || colors[w as usize] != c)
        })
}

/// Largest degree.
pub fn max_degree(g: &Csr) -> usize {
    (0..g.num_vertices())
        .map(|v| g.xadj()[v + 1] - g.xadj()[v])
        .max()
        .unwrap_or(0)
}

/// Union-find root of every vertex (path halving, union by index).
pub fn union_find_roots(g: &Csr) -> Vec<u32> {
    let n = g.num_vertices();
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            let grand = parent[parent[x as usize] as usize];
            parent[x as usize] = grand;
            x = grand;
        }
        x
    }
    for v in 0..n as u32 {
        for &w in g.neighbors(v) {
            let (a, b) = (find(&mut parent, v), find(&mut parent, w));
            if a != b {
                // Keep the smaller id as root so roots are component minima.
                let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                parent[hi as usize] = lo;
            }
        }
    }
    (0..n as u32).map(|v| find(&mut parent, v)).collect()
}

/// True when `labels` names exactly the components of `roots` (same
/// partition) and each label is its component's smallest vertex id.
pub fn same_partition(roots: &[u32], labels: &[u32]) -> bool {
    // Union-find roots above are component minima, so equality of the
    // two vectors is both conditions at once.
    roots == labels
}

/// PageRank by power iteration with uniform redistribution of dangling
/// mass, iterated until the L1 change is below `tol`.
pub fn pagerank(g: &Csr, damping: f64, tol: f64, max_iters: usize) -> Vec<f64> {
    let n = g.num_vertices();
    let nf = n as f64;
    let deg: Vec<f64> = (0..n).map(|v| (g.xadj()[v + 1] - g.xadj()[v]) as f64).collect();
    let mut rank = vec![1.0 / nf; n];
    for _ in 0..max_iters {
        let dangling: f64 = (0..n).filter(|&v| deg[v] == 0.0).map(|v| rank[v]).sum();
        let base = (1.0 - damping + damping * dangling) / nf;
        let next: Vec<f64> = (0..n as u32)
            .map(|v| {
                let inflow: f64 = g.neighbors(v).iter().map(|&w| rank[w as usize] / deg[w as usize]).sum();
                base + damping * inflow
            })
            .collect();
        let delta: f64 = rank.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
        rank = next;
        if delta < tol {
            break;
        }
    }
    rank
}

/// L1 distance between two vectors.
pub fn l1(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two components: a path 0-1-2-3 with a chord 1-3, and an edge 4-5;
    /// vertex 6 is isolated.
    fn small() -> Csr {
        let edges = [(0u32, 1u32), (1, 2), (2, 3), (1, 3), (4, 5)];
        let n = 7;
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for &(a, b) in &edges {
            adj[a as usize].push(b);
            adj[b as usize].push(a);
        }
        let mut xadj = vec![0usize];
        let mut flat = Vec::new();
        for mut list in adj {
            list.sort_unstable();
            flat.extend(list);
            xadj.push(flat.len());
        }
        Csr::from_parts(xadj, flat)
    }

    #[test]
    fn bfs_levels_by_hand() {
        let g = small();
        let l = bfs_levels(&g, 0);
        assert_eq!(l, vec![0, 1, 2, 2, UNREACHED, UNREACHED, UNREACHED]);
        assert_eq!(num_levels(&l), 3);
    }

    #[test]
    fn greedy_coloring_by_hand() {
        let g = small();
        let c = greedy_colors(&g);
        // 0:0, 1:1, 2:0, 3 touches 1 (1) and 2 (0) -> 2, 4:0, 5:1, 6:0.
        assert_eq!(c, vec![0, 1, 0, 2, 0, 1, 0]);
        assert_eq!(num_colors(&c), 3);
        assert!(is_proper(&g, &c));
        let mut bad = c.clone();
        bad[2] = 1;
        assert!(!is_proper(&g, &bad));
        assert_eq!(max_degree(&g), 3);
    }

    #[test]
    fn union_find_by_hand() {
        let g = small();
        let r = union_find_roots(&g);
        assert_eq!(r, vec![0, 0, 0, 0, 4, 4, 6]);
        assert!(same_partition(&r, &[0, 0, 0, 0, 4, 4, 6]));
        assert!(!same_partition(&r, &[0, 0, 0, 0, 4, 5, 6]));
    }

    #[test]
    fn pagerank_by_hand() {
        // A single edge: by symmetry both ends get 1/2.
        let g = Csr::from_parts(vec![0, 1, 2], vec![1, 0]);
        let r = pagerank(&g, 0.85, 1e-12, 100);
        assert!((r[0] - 0.5).abs() < 1e-12 && (r[1] - 0.5).abs() < 1e-12);
        // Star 0-{1,2}: the centre's rank solves r0 = 0.15/3 + 0.85 (r1 + r2),
        // r1 = r2 = 0.15/3 + 0.85 r0 / 2, with r0 + 2 r1 = 1.
        let g = Csr::from_parts(vec![0, 2, 3, 4], vec![1, 2, 0, 0]);
        let r = pagerank(&g, 0.85, 1e-14, 1000);
        let r0 = (0.05 + 0.85 * 2.0 * 0.05) / (1.0 - 0.85 * 0.85);
        assert!((r[0] - r0).abs() < 1e-10, "{} vs {r0}", r[0]);
        assert!((r.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // The isolated vertex of `small` is dangling: mass stays conserved.
        let r = pagerank(&small(), 0.85, 1e-14, 1000);
        assert!((r.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(l1(&r, &r) == 0.0);
    }
}
