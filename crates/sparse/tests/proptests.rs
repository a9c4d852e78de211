//! Property-based tests for the sparse substrate.

use proptest::prelude::*;
use proptest::strategy::ValueTree;
use rcm_sparse::{
    bandwidth, bucket_sortperm_ref, connected_components, coo::CooBuilder, counting_sortperm,
    envelope_size, spmspv, spmspv_ref, ComponentSplit, CscMatrix, Label, Permutation, Select2ndMin,
    SortpermScratch, SparseVec, SpmspvWorkspace, VertexBitmap, Vidx,
};
use std::collections::HashSet;

/// Strategy: a random symmetric pattern matrix with `n` in 1..=max_n.
fn arb_sym_matrix(max_n: usize, max_edges: usize) -> impl Strategy<Value = CscMatrix> {
    (1..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n), 0..=max_edges).prop_map(move |pairs| {
            let mut b = CooBuilder::new(n, n);
            for (u, v) in pairs {
                b.push_sym(u as Vidx, v as Vidx);
            }
            b.build()
        })
    })
}

/// Strategy: a random permutation of size n.
fn arb_perm(n: usize) -> impl Strategy<Value = Permutation> {
    Just(()).prop_perturb(move |_, mut rng| {
        let mut v: Vec<Vidx> = (0..n as Vidx).collect();
        // Fisher-Yates with proptest's rng for shrinkable determinism.
        for i in (1..n).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
        Permutation::from_new_of_old(v).unwrap()
    })
}

/// Random `(row, col)` entries rendered as Matrix Market text in one of
/// the variants the reader accepts — `general` (possibly rectangular) or
/// `symmetric` storing the lower, upper or a mix of both triangles;
/// `pattern`, `real` or `integer` fields; LF or CRLF; spaces or tabs; a
/// leading `+`; comment and blank lines between entries; duplicate
/// entries; trailing tokens and a missing final newline — together with
/// the matrix `CooBuilder` makes of the same entries.
fn arb_mm_text(max_n: usize, max_entries: usize) -> impl Strategy<Value = (String, CscMatrix)> {
    (1..=max_n, 1..=max_n, 0..=max_entries).prop_perturb(|(rows, cols, m), mut rng| {
        let mut pick = |k: usize| (rng.next_u64() % k as u64) as usize;
        let storage = ["general", "lower", "upper", "mixed"][pick(4)];
        let field = ["pattern", "real", "integer"][pick(3)];
        let symmetric = storage != "general";
        let cols = if symmetric { rows } else { cols };
        let newline = ["\n", "\r\n"][pick(2)];
        let mut b = CooBuilder::new(rows, cols);
        let mut body = String::new();
        let mut nnz = 0;
        for _ in 0..m {
            let (mut r, mut c) = (pick(rows), pick(cols));
            if symmetric {
                let lower = match storage {
                    "lower" => true,
                    "upper" => false,
                    _ => pick(2) == 0,
                };
                if (r > c && !lower) || (r < c && lower) {
                    std::mem::swap(&mut r, &mut c);
                }
                b.push_sym(r as Vidx, c as Vidx);
            } else {
                b.push(r as Vidx, c as Vidx);
            }
            let copies = if pick(8) == 0 { 2 } else { 1 };
            for _ in 0..copies {
                match pick(8) {
                    0 => body.push_str(&format!("% between entries{newline}")),
                    1 => body.push_str(&format!(" \t{newline}")),
                    _ => {}
                }
                let lead = ["", " ", "\t"][pick(3)];
                let sep = [" ", "\t", "  ", " \t "][pick(4)];
                let plus = ["", "+"][pick(2)];
                body.push_str(&format!("{lead}{plus}{}{sep}{plus}{}", r + 1, c + 1));
                match field {
                    "real" => {
                        body.push_str(&format!("{sep}{}", ["1.5", "-2e-3", "0", "+4.25"][pick(4)]))
                    }
                    "integer" => body.push_str(&format!("{sep}{}", ["-7", "3", "+12"][pick(3)])),
                    _ => {}
                }
                body.push_str(["", " ", " 9 extra"][pick(3)]);
                body.push_str(newline);
                nnz += 1;
            }
        }
        if pick(4) == 0 {
            body.truncate(body.trim_end().len());
        }
        let symmetry = if symmetric { "symmetric" } else { "general" };
        let text = format!(
            "%%MatrixMarket matrix coordinate {field} {symmetry}{newline}% generated{newline}\
             {rows} {cols} {nnz}{newline}{body}"
        );
        (text, b.build())
    })
}

proptest! {
    #[test]
    fn coo_build_is_symmetric_and_sorted(m in arb_sym_matrix(40, 120)) {
        prop_assert!(m.is_symmetric());
        for c in 0..m.n_cols() {
            let col = m.col(c);
            prop_assert!(col.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn fingerprint_is_a_pattern_invariant(
        n in 1usize..30,
        pairs in proptest::collection::vec((0usize..30, 0usize..30), 0..80),
        extra_dups in 0usize..10,
    ) {
        // Build the same edge set twice: once as given, once reversed with
        // a prefix of the edges pushed again (duplicates collapse in the
        // canonical CSC form). Fingerprints must agree; a genuinely
        // different pattern (one more edge) must disagree.
        let edges: Vec<(Vidx, Vidx)> = pairs
            .into_iter()
            .map(|(u, v)| ((u % n) as Vidx, (v % n) as Vidx))
            .collect();
        let mut b1 = CooBuilder::new(n, n);
        for &(u, v) in &edges {
            b1.push_sym(u, v);
        }
        let a = b1.build();
        let mut b2 = CooBuilder::new(n, n);
        for &(u, v) in edges.iter().rev() {
            b2.push_sym(v, u);
        }
        for &(u, v) in edges.iter().take(extra_dups) {
            b2.push_sym(u, v);
        }
        let c = b2.build();
        prop_assert_eq!(&a, &c);
        prop_assert_eq!(a.pattern_fingerprint(), c.pattern_fingerprint());
        // Adding a previously absent edge changes the pattern and the hash.
        if n >= 2 {
            let (u, v) = (0 as Vidx, (n - 1) as Vidx);
            if !a.contains(u, v) {
                let mut b3 = CooBuilder::new(n, n);
                for &(x, y) in &edges {
                    b3.push_sym(x, y);
                }
                b3.push_sym(u, v);
                prop_assert_ne!(b3.build().pattern_fingerprint(), a.pattern_fingerprint());
            }
        }
    }

    #[test]
    fn transpose_is_involution(m in arb_sym_matrix(30, 80)) {
        prop_assert_eq!(m.transpose().transpose(), m.clone());
        // Symmetric matrices equal their transpose.
        prop_assert_eq!(m.transpose(), m);
    }

    #[test]
    fn permutation_preserves_nnz_and_degree_multiset(m in arb_sym_matrix(25, 60)) {
        let n = m.n_cols();
        let perm_strategy = arb_perm(n);
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let p = perm_strategy.new_tree(&mut runner).unwrap().current();
        let pm = m.permute_sym(&p);
        prop_assert_eq!(pm.nnz(), m.nnz());
        prop_assert!(pm.is_symmetric());
        let mut d1 = m.degrees();
        let mut d2 = pm.degrees();
        d1.sort_unstable();
        d2.sort_unstable();
        prop_assert_eq!(d1, d2);
    }

    #[test]
    fn spmspv_matches_reference(
        m in arb_sym_matrix(30, 100),
        seeds in proptest::collection::vec((0usize..30, -10i64..10), 0..10)
    ) {
        let n = m.n_cols();
        let mut dedup: Vec<(Vidx, i64)> = seeds
            .into_iter()
            .filter(|&(i, _)| i < n)
            .map(|(i, v)| (i as Vidx, v))
            .collect();
        dedup.sort_unstable_by_key(|&(i, _)| i);
        dedup.dedup_by_key(|e| e.0);
        let x = SparseVec::from_sorted_entries(n, dedup);
        let mut ws = SpmspvWorkspace::new(n);
        let (y, work) = spmspv::<i64, Select2ndMin>(&m, &x, &mut ws);
        let yref = spmspv_ref::<i64, Select2ndMin>(&m, &x);
        prop_assert_eq!(&y, &yref);
        // Work equals sum of accessed column lengths.
        let expect_work: usize = x.ind().map(|k| m.col_nnz(k as usize)).sum();
        prop_assert_eq!(work, expect_work);
        // Output indices are exactly the union of accessed columns' rows.
        let mut expect_rows: Vec<Vidx> = x
            .ind()
            .flat_map(|k| m.col(k as usize).iter().copied())
            .collect();
        expect_rows.sort_unstable();
        expect_rows.dedup();
        let got_rows: Vec<Vidx> = y.ind().collect();
        prop_assert_eq!(got_rows, expect_rows);
    }

    #[test]
    fn bandwidth_zero_iff_diagonal(m in arb_sym_matrix(20, 50)) {
        let bw = bandwidth::bandwidth(&m);
        let has_offdiag = m.iter_entries().any(|(r, c)| r != c);
        prop_assert_eq!(bw > 0, has_offdiag);
    }

    #[test]
    fn envelope_bounded_by_n_times_bandwidth(m in arb_sym_matrix(25, 60)) {
        let bw = bandwidth::bandwidth(&m) as u64;
        let env = envelope_size(&m);
        prop_assert!(env <= bw * m.n_cols() as u64);
        prop_assert!(env >= bw); // the column achieving β contributes at least β
    }

    #[test]
    fn mm_roundtrip_preserves_matrix(m in arb_sym_matrix(20, 50)) {
        let mut buf = Vec::new();
        rcm_sparse::mm::write_pattern(&m, &mut buf).unwrap();
        let back = rcm_sparse::mm::read_pattern(buf.as_slice()).unwrap();
        prop_assert_eq!(back, m);
    }

    #[test]
    fn reader_matches_the_builder_on_rendered_text(case in arb_mm_text(25, 60)) {
        let (text, expected) = case;
        let m = rcm_sparse::mm::read_pattern(text.as_bytes()).unwrap();
        prop_assert_eq!(&m, &expected, "{}", text);
        // The numeric reader agrees on the pattern (duplicates summed, not
        // dropped; explicit zeros kept).
        let num = rcm_sparse::mm::read_numeric(text.as_bytes()).unwrap();
        let mut got: Vec<(Vidx, Vidx)> = (0..num.n_rows())
            .flat_map(|r| num.row_cols(r).iter().map(move |&c| (r as Vidx, c)))
            .collect();
        got.sort_unstable();
        let mut want: Vec<(Vidx, Vidx)> = expected.iter_entries().collect();
        want.sort_unstable();
        prop_assert_eq!(got, want, "{}", text);
    }

    #[test]
    fn writer_bytes_match_a_format_per_entry_rendering(case in arb_mm_text(40, 150)) {
        let (_, m) = case;
        let mut expected = format!(
            "%%MatrixMarket matrix coordinate pattern general\n% written by rcm-sparse\n{} {} {}\n",
            m.n_rows(),
            m.n_cols(),
            m.nnz()
        );
        for (r, c) in m.iter_entries() {
            expected.push_str(&format!("{} {}\n", r + 1, c + 1));
        }
        let mut buf = Vec::new();
        rcm_sparse::mm::write_pattern(&m, &mut buf).unwrap();
        prop_assert_eq!(String::from_utf8(buf).unwrap(), expected);
    }

    #[test]
    fn vertex_bitmap_matches_hashset(
        n in 1usize..300,
        ops in proptest::collection::vec((0u8..3, 0usize..300), 0..200),
        raw_lo in 0usize..300,
        raw_hi in 0usize..300,
    ) {
        // Differential model: the bitmap starts all-unvisited (the install
        // state every backend uses) and must track a HashSet through any
        // insert/remove/contains sequence.
        let mut bm = VertexBitmap::new(0);
        bm.reset_ones(n);
        let mut model: HashSet<Vidx> = (0..n as Vidx).collect();
        for (op, raw) in ops {
            let v = (raw % n) as Vidx;
            match op {
                0 => { bm.insert(v); model.insert(v); }
                1 => { bm.remove(v); model.remove(&v); }
                _ => prop_assert_eq!(bm.contains(v), model.contains(&v)),
            }
        }
        prop_assert_eq!(bm.count(), model.len());
        let mut expect: Vec<Vidx> = model.iter().copied().collect();
        expect.sort_unstable();
        let got: Vec<Vidx> = bm.ones().collect();
        prop_assert_eq!(&got, &expect);
        // Word-level range iteration masks boundary words correctly.
        let (lo, hi) = {
            let a = raw_lo % (n + 1);
            let b = raw_hi % (n + 1);
            (a.min(b), a.max(b))
        };
        let in_range: Vec<Vidx> = expect
            .iter()
            .copied()
            .filter(|&v| (lo..hi).contains(&(v as usize)))
            .collect();
        prop_assert_eq!(bm.ones_in(lo..hi).collect::<Vec<Vidx>>(), in_range);
        // first_unset is the smallest vertex missing from the model.
        let expect_unset = (0..n as Vidx).find(|v| !model.contains(v));
        prop_assert_eq!(bm.first_unset(), expect_unset);
    }

    #[test]
    fn counting_sortperm_matches_bucket_reference(
        nbuckets in 1i64..10,
        lo in -5i64..5,
        raw_entries in proptest::collection::vec((0u32..80, 0i64..10), 0..120),
    ) {
        // Frontier entries carry unique vertex ids; values (parent labels)
        // repeat freely and may leave buckets empty.
        let degrees: Vec<Vidx> = (0..80u32).map(|v| (v * 13 + 5) % 7).collect();
        let mut seen = HashSet::new();
        let entries: Vec<(Vidx, Label)> = raw_entries
            .into_iter()
            .filter(|&(v, _)| seen.insert(v))
            .map(|(v, raw)| (v, lo + raw % nbuckets))
            .collect();
        let range = (lo, lo + nbuckets);
        let mut scratch = SortpermScratch::new();
        let got = counting_sortperm(&entries, range, &degrees, &mut scratch).to_vec();
        let expect = bucket_sortperm_ref(&entries, range, &degrees);
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn component_split_round_trips(m in arb_sym_matrix(30, 40)) {
        // Splitting and stitching back with the identity map must recover
        // the original matrix exactly: pieces partition the vertex set, and
        // every entry reappears at its global coordinates.
        let comps = connected_components(&m);
        let mut sp = ComponentSplit::new();
        let pieces = sp.split(&m, &comps);
        prop_assert_eq!(pieces.len(), comps.count());
        let n = m.n_rows();
        let mut seen = vec![false; n];
        let mut b = CooBuilder::new(n, n);
        for piece in pieces {
            prop_assert_eq!(piece.matrix.n_rows(), piece.vertices.len());
            prop_assert!(piece.vertices.windows(2).all(|w| w[0] < w[1]));
            for &g in &piece.vertices {
                prop_assert!(!seen[g as usize], "vertex in two pieces");
                seen[g as usize] = true;
            }
            for (r, c) in piece.matrix.iter_entries() {
                b.push(piece.vertices[r as usize], piece.vertices[c as usize]);
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "pieces must cover every vertex");
        prop_assert_eq!(b.build(), m.clone());
    }

    #[test]
    fn sub_blocks_tile_the_matrix(m in arb_sym_matrix(24, 70)) {
        let n = m.n_rows();
        let half = n / 2;
        // 2x2 tiling: total nnz of blocks equals matrix nnz.
        let mut total = 0usize;
        for (r0, r1) in [(0, half), (half, n)] {
            for (c0, c1) in [(0, half), (half, n)] {
                total += m.sub_block(r0, r1, c0, c1).nnz();
            }
        }
        prop_assert_eq!(total, m.nnz());
    }
}
