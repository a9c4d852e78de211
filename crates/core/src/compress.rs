//! Supervariable compression: order the quotient graph of indistinguishable
//! vertices, then expand.
//!
//! FEM matrices couple every degree of freedom of a node with every dof of
//! neighbouring nodes, so the `d` dofs of one node have *identical closed
//! neighbourhoods* (`adj(u) ∪ {u}`). Classic ordering codes (SPARSPAK, and
//! the SpMP baseline the paper compares against) detect these
//! "indistinguishable" vertices, order the compressed quotient graph, and
//! expand — cutting ordering time by up to the dof count without hurting
//! quality. Three of the paper's matrices (`ldoor` 2 dofs, `audikw_1` and
//! `dielFilterV3real`/`Flan_1565` 3 dofs) compress substantially.
//!
//! [`rcm_compressed`] applies the classical George–Liu loop of
//! [`crate::serial`] to the quotient with *expanded* degrees (each
//! supervariable counts the vertices behind its neighbours) so the
//! degree-based tie-breaking matches what plain RCM sees.

use rcm_sparse::{CscMatrix, Permutation, Vidx};

/// Outcome statistics of compression.
#[derive(Clone, Debug, PartialEq)]
pub struct CompressStats {
    /// Vertices of the original graph.
    pub vertices: usize,
    /// Supervariables after compression.
    pub supervariables: usize,
    /// `vertices / supervariables`.
    pub ratio: f64,
}

/// Group vertices by identical closed neighbourhoods.
///
/// Returns `(super_of, members)`: the supervariable id of each vertex, and
/// each supervariable's member list (ascending vertex ids).
pub fn find_supervariables(a: &CscMatrix) -> (Vec<Vidx>, Vec<Vec<Vidx>>) {
    let n = a.n_rows();
    // Hash the closed neighbourhood (adjacency plus self). A *commutative*
    // per-element mix keeps the hash independent of adjacency order, so no
    // sorted copy is needed and the loop pipelines well; exact verification
    // below makes hash collisions harmless.
    #[inline]
    fn mix(w: Vidx) -> u64 {
        let mut x = (w as u64).wrapping_add(0x9e3779b97f4a7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        x ^ (x >> 27)
    }
    let mut keyed: Vec<(u64, u32, Vidx)> = Vec::with_capacity(n);
    for v in 0..n {
        let mut h = 0u64;
        let mut len = 1u32; // the closed set always contains v itself
        for &w in a.col(v) {
            if w as usize == v {
                continue; // already counted as "self"
            }
            h = h.wrapping_add(mix(w));
            len += 1;
        }
        h = h.wrapping_add(mix(v as Vidx));
        keyed.push((h, len, v as Vidx));
    }
    // Sort-based grouping (cheaper and more cache-friendly than a hash map
    // for this one-shot pass); ties keep ascending vertex order.
    keyed.sort_unstable();

    let mut super_of = vec![Vidx::MAX; n];
    let mut members: Vec<Vec<Vidx>> = Vec::new();
    let mut groups: Vec<Vec<Vidx>> = Vec::new();
    // Allocation-free closed-neighbourhood equality: walk both adjacency
    // lists with the vertex itself virtually inserted.
    let closed_eq = |u: Vidx, v: Vidx| -> bool {
        let merged = |x: Vidx| {
            let col = a.col(x as usize);
            let mut inserted = col.binary_search(&x).is_ok();
            let mut it = col.iter().copied().peekable();
            std::iter::from_fn(move || {
                if !inserted {
                    match it.peek() {
                        Some(&w) if w < x => return it.next(),
                        _ => {
                            inserted = true;
                            return Some(x);
                        }
                    }
                }
                it.next()
            })
        };
        merged(u).eq(merged(v))
    };
    let mut i = 0usize;
    while i < keyed.len() {
        let mut j = i + 1;
        while j < keyed.len() && keyed[j].0 == keyed[i].0 && keyed[j].1 == keyed[i].1 {
            j += 1;
        }
        if j == i + 1 {
            groups.push(vec![keyed[i].2]);
        } else {
            // Verify exact equality within the hash bucket.
            let mut bucket: Vec<Vidx> = keyed[i..j].iter().map(|k| k.2).collect();
            while let Some(&rep) = bucket.first() {
                if bucket.len() == 1 {
                    groups.push(bucket);
                    break;
                }
                let (same, rest): (Vec<Vidx>, Vec<Vidx>) =
                    bucket.iter().partition(|&&v| closed_eq(rep, v));
                groups.push(same);
                bucket = rest;
            }
        }
        i = j;
    }
    groups.sort_unstable_by_key(|g| g[0]);
    for g in groups {
        let id = members.len() as Vidx;
        for &v in &g {
            super_of[v as usize] = id;
        }
        members.push(g);
    }
    (super_of, members)
}

/// RCM via supervariable compression. Returns the ordering (on the original
/// vertices) and the compression statistics.
pub fn rcm_compressed(a: &CscMatrix) -> (Permutation, CompressStats) {
    assert_eq!(a.n_rows(), a.n_cols());
    let n = a.n_rows();
    let (super_of, members) = find_supervariables(a);
    let ns = members.len();
    let stats = CompressStats {
        vertices: n,
        supervariables: ns,
        ratio: if ns == 0 { 1.0 } else { n as f64 / ns as f64 },
    };

    // Compression below ~15% does not pay for the quotient construction:
    // fall back to plain RCM (this is what production ordering codes do).
    if ns as f64 > 0.85 * n as f64 {
        return (crate::rcm(a), stats);
    }

    // Quotient graph: the representative's adjacency, mapped to super ids.
    // Built column-by-column straight into CSC (each column needs only a
    // small local sort; no global triplet sort).
    let mut col_ptr = vec![0usize; ns + 1];
    let mut row_idx: Vec<Vidx> = Vec::with_capacity(a.nnz() / 2);
    let mut nbrs: Vec<Vidx> = Vec::new();
    for (sid, group) in members.iter().enumerate() {
        let rep = group[0];
        nbrs.clear();
        nbrs.extend(
            a.col(rep as usize)
                .iter()
                .map(|&w| super_of[w as usize])
                .filter(|&s| s != sid as Vidx),
        );
        nbrs.sort_unstable();
        nbrs.dedup();
        row_idx.extend_from_slice(&nbrs);
        col_ptr[sid + 1] = row_idx.len();
    }
    let q = CscMatrix::from_parts(ns, ns, col_ptr, row_idx);

    // Expanded degrees: a supervariable's degree counts original vertices.
    let expanded_deg: Vec<Vidx> = (0..ns)
        .map(|sid| {
            let within = members[sid].len() as Vidx - 1;
            let outside: Vidx = q
                .col(sid)
                .iter()
                .map(|&s| members[s as usize].len() as Vidx)
                .sum();
            within + outside
        })
        .collect();

    // George–Liu CM on the quotient with expanded degrees.
    let (cm, _) = crate::serial::cuthill_mckee_with_degrees(&q, &expanded_deg);

    // Expand: supervariables in CM order, members ascending, then reverse.
    let mut full_order: Vec<Vidx> = Vec::with_capacity(n);
    for sid in cm.old_of_new() {
        full_order.extend_from_slice(&members[sid as usize]);
    }
    let perm = Permutation::from_order(&full_order)
        .expect("expansion covers every vertex once")
        .reversed();
    (perm, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::ordering_bandwidth;
    use rcm_sparse::CooBuilder;

    /// 1D chain of nodes with `d` fully-coupled dofs per node.
    fn chain_with_dofs(nodes: usize, d: usize) -> CscMatrix {
        let n = nodes * d;
        let mut b = CooBuilder::new(n, n);
        for node in 0..nodes {
            for i in 0..d {
                for j in 0..d {
                    if i != j {
                        b.push((node * d + i) as Vidx, (node * d + j) as Vidx);
                    }
                }
            }
            if node + 1 < nodes {
                for i in 0..d {
                    for j in 0..d {
                        b.push_sym((node * d + i) as Vidx, ((node + 1) * d + j) as Vidx);
                    }
                }
            }
        }
        b.build()
    }

    #[test]
    fn dof_cliques_compress_to_nodes() {
        let a = chain_with_dofs(20, 3);
        let (super_of, members) = find_supervariables(&a);
        assert_eq!(members.len(), 20);
        // The three dofs of each node share a supervariable.
        for node in 0..20usize {
            let s = super_of[node * 3];
            assert_eq!(super_of[node * 3 + 1], s);
            assert_eq!(super_of[node * 3 + 2], s);
        }
    }

    #[test]
    fn compressed_rcm_matches_plain_rcm_quality() {
        let a = chain_with_dofs(30, 2);
        let plain = crate::rcm(&a);
        let (compressed, stats) = rcm_compressed(&a);
        assert_eq!(stats.supervariables, 30);
        assert!((stats.ratio - 2.0).abs() < 1e-9);
        let bw_plain = ordering_bandwidth(&a, &plain);
        let bw_comp = ordering_bandwidth(&a, &compressed);
        // A dof-chain reorders to bandwidth 2d−1 either way.
        assert_eq!(bw_plain, bw_comp);
    }

    #[test]
    fn graph_without_duplicates_does_not_compress() {
        let mut b = CooBuilder::new(10, 10);
        for v in 0..9u32 {
            b.push_sym(v, v + 1);
        }
        // Break symmetry of endpoints' neighbourhoods with one chord.
        b.push_sym(0, 5);
        let a = b.build();
        let (_, members) = find_supervariables(&a);
        assert_eq!(members.len(), 10);
        let (p, stats) = rcm_compressed(&a);
        assert_eq!(p.len(), 10);
        assert!((stats.ratio - 1.0).abs() < 1e-9);
    }

    #[test]
    fn compression_handles_components_and_isolated() {
        let mut b = CooBuilder::new(8, 8);
        b.push_sym(0, 1);
        b.push_sym(2, 3);
        let a = b.build();
        let (p, stats) = rcm_compressed(&a);
        assert_eq!(p.len(), 8);
        // The edge pairs {0,1} and {2,3} are 2-cliques with identical closed
        // neighbourhoods, so each merges into one supervariable; isolated
        // vertices keep distinct closed sets ({v} each) and stay separate.
        assert_eq!(stats.supervariables, 6);
    }

    #[test]
    fn compressed_ordering_on_suite_class_matrix() {
        // 3-dof stencil compresses ~3x and keeps RCM-grade bandwidth.
        let spec = rcm_graphgen::StencilSpec {
            nx: 6,
            ny: 6,
            nz: 3,
            offsets: rcm_graphgen::StencilSpec::offsets_27pt(),
            dofs: 3,
        };
        let a = rcm_graphgen::shuffled(&spec.build(), 7);
        let plain = crate::rcm(&a);
        let (compressed, stats) = rcm_compressed(&a);
        assert!(stats.ratio > 2.9, "ratio {}", stats.ratio);
        let bw_plain = ordering_bandwidth(&a, &plain) as f64;
        let bw_comp = ordering_bandwidth(&a, &compressed) as f64;
        assert!(
            bw_comp <= bw_plain * 1.25 + 8.0,
            "compressed bandwidth {bw_comp} vs plain {bw_plain}"
        );
    }
}
