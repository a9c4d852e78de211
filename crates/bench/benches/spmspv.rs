//! Criterion microbenchmarks of the sequential SpMSpV kernel — the paper's
//! dominant primitive (Fig. 4 shows it is the most expensive operation at
//! low concurrency) — in both directions: push over the frontier's columns
//! and pull over the candidate rows (bitmap word-scan vs the pre-bitmap
//! per-row closure mask).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rcm_graphgen::suite_matrix;
use rcm_sparse::{
    spmspv, spmspv_pull, spmspv_pull_ref, DenseFrontier, PullBuffer, Select2ndMin, SparseVec,
    SpmspvWorkspace, VertexBitmap, Vidx, UNVISITED,
};

fn bench_spmspv(c: &mut Criterion) {
    let a = suite_matrix("ldoor").unwrap().generate(0.005);
    let n = a.n_rows();
    let mut group = c.benchmark_group("spmspv");
    group.sample_size(20);
    for frontier_size in [1usize, 64, 4096, n / 8] {
        let frontier_size = frontier_size.min(n);
        let entries: Vec<(Vidx, i64)> = (0..frontier_size)
            .map(|k| (((k * n) / frontier_size) as Vidx, k as i64))
            .collect();
        let x = SparseVec::from_entries(n, entries);
        let work: usize = x.ind().map(|k| a.col_nnz(k as usize)).sum();
        group.throughput(Throughput::Elements(work as u64));
        group.bench_with_input(BenchmarkId::from_parameter(frontier_size), &x, |b, x| {
            let mut ws = SpmspvWorkspace::new(n);
            b.iter(|| {
                let (y, _) = spmspv::<i64, Select2ndMin>(&a, x, &mut ws);
                std::hint::black_box(y.nnz())
            });
        });
    }
    group.finish();
}

fn bench_spmspv_pull(c: &mut Criterion) {
    let a = suite_matrix("ldoor").unwrap().generate(0.005);
    let n = a.n_rows();
    let mut group = c.benchmark_group("spmspv_pull");
    group.sample_size(20);
    // Sweep the visited fraction: the bitmap's word skip pays off as the
    // candidate set thins out, while the closure mask still walks one
    // vertex at a time.
    for unvisited_pct in [100usize, 50, 10] {
        let frontier_size = (n / 8).max(1);
        let entries: Vec<(Vidx, i64)> = (0..frontier_size)
            .map(|k| (((k * n) / frontier_size) as Vidx, k as i64))
            .collect();
        let mut x = DenseFrontier::new(n);
        x.load(&SparseVec::from_entries(n, entries));
        // Visited vertices cluster in contiguous runs (like a half-ordered
        // matrix), giving the word skip whole words to retire.
        let mut order: Vec<i64> = vec![UNVISITED; n];
        let mut cands = VertexBitmap::new(n);
        for (v, slot) in order.iter_mut().enumerate() {
            if (v * 100 / n) % 100 < unvisited_pct {
                cands.insert(v as Vidx);
            } else {
                *slot = v as i64;
            }
        }
        let work: usize = (0..n)
            .filter(|&r| cands.contains(r as Vidx))
            .map(|r| a.col_nnz(r))
            .sum();
        group.throughput(Throughput::Elements(work.max(1) as u64));
        group.bench_with_input(
            BenchmarkId::new("bitmap", unvisited_pct),
            &(&x, &cands),
            |b, (x, cands)| {
                let mut buf = PullBuffer::new();
                b.iter(|| {
                    spmspv_pull::<i64, Select2ndMin>(&a, x, cands, None, &mut buf);
                    std::hint::black_box(buf.entries().len())
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("closure", unvisited_pct),
            &(&x, &order),
            |b, (x, order)| {
                b.iter(|| {
                    let (y, _) = spmspv_pull_ref::<i64, Select2ndMin>(&a, x, |r| {
                        order[r as usize] == UNVISITED
                    });
                    std::hint::black_box(y.nnz())
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_spmspv, bench_spmspv_pull);
criterion_main!(benches);
