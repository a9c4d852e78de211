//! Criterion benchmarks of the layers of an `rcm-order` request around the
//! ordering itself, on an in-memory ldoor-class `coordinate pattern
//! symmetric` file (the shuffled ldoor mesh at scale 0.05, ~13 MB of text):
//! the Matrix Market read of that text as a stream (`read_pattern`, one
//! range on the calling thread) and of a temp-file copy of it
//! (`read_pattern_file`, line-aligned ranges parsed side by side, one per
//! core), the counting-scatter `permute_sym` that builds the reordered
//! matrix, the digit-cached write of it, the O(nnz) symmetry check and the
//! one-pass quality report (bandwidth, profile and wavefront).

use std::io::Write;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rcm_core::{quality_report, rcm};
use rcm_graphgen::{shuffled, suite_matrix};
use rcm_sparse::{mm, CscMatrix};

/// `a` as `coordinate pattern symmetric` text: its lower triangle,
/// column-major.
fn symmetric_mtx(a: &CscMatrix) -> Vec<u8> {
    let lower = |c: usize| a.col(c).iter().filter(move |&&r| r as usize >= c);
    let nnz: usize = (0..a.n_cols()).map(|c| lower(c).count()).sum();
    let mut text = Vec::new();
    writeln!(text, "%%MatrixMarket matrix coordinate pattern symmetric").unwrap();
    writeln!(text, "{} {} {nnz}", a.n_rows(), a.n_cols()).unwrap();
    for c in 0..a.n_cols() {
        for &r in lower(c) {
            writeln!(text, "{} {}", r + 1, c + 1).unwrap();
        }
    }
    text
}

fn bench_mm_io(c: &mut Criterion) {
    let ldoor = suite_matrix("ldoor").unwrap();
    let a = shuffled(&ldoor.generate_natural(0.05), 1);
    let text = symmetric_mtx(&a);
    assert_eq!(mm::read_pattern(text.as_slice()).unwrap(), a);
    let perm = rcm(&a);
    let reordered = a.permute_sym(&perm);

    let mut group = c.benchmark_group("mm_io/ldoor");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(text.len() as u64));
    group.bench_function("read_pattern", |b| {
        b.iter(|| mm::read_pattern(text.as_slice()).unwrap().nnz())
    });
    let file = std::env::temp_dir().join(format!("rcm-bench-mm_io-{}.mtx", std::process::id()));
    std::fs::write(&file, &text).unwrap();
    assert_eq!(mm::read_pattern_file(&file).unwrap(), a);
    group.bench_function("read_pattern_file", |b| {
        b.iter(|| mm::read_pattern_file(&file).unwrap().nnz())
    });
    std::fs::remove_file(&file).unwrap();
    let mut out = Vec::new();
    mm::write_pattern(&reordered, &mut out).unwrap();
    group.throughput(Throughput::Bytes(out.len() as u64));
    group.bench_function("write_pattern", |b| {
        b.iter(|| {
            out.clear();
            mm::write_pattern(&reordered, &mut out).unwrap();
            out.len()
        })
    });
    group.throughput(Throughput::Elements(a.nnz() as u64));
    group.bench_function("is_symmetric", |b| b.iter(|| a.is_symmetric()));
    group.bench_function("permute_sym", |b| b.iter(|| a.permute_sym(&perm).nnz()));
    group.bench_function("quality_report", |b| b.iter(|| quality_report(&a, &perm)));
    group.finish();
}

criterion_group!(benches, bench_mm_io);
criterion_main!(benches);
