//! Criterion benchmarks of the start-node selection strategies on the
//! quick suite classes — the cost side of the `repro startnode` ablation.
//!
//! Each benchmark runs the *whole* ordering under one strategy on the
//! serial backend (the strategy changes only the peripheral phase, so the
//! deltas between strategies isolate the sweeps saved), plus a
//! peripheral-phase-only series driving [`StartNode::select`] directly on
//! a fresh runtime.

use criterion::{criterion_group, criterion_main, Criterion};
use rcm_core::backends::SerialBackend;
use rcm_core::driver::{ExpandDirection, StartNode};
use rcm_core::{DriverStats, EngineConfig, OrderingEngine};
use rcm_graphgen::suite_matrix;

const STRATEGIES: [StartNode; 2] = [StartNode::GeorgeLiu, StartNode::MinDegree];

fn bench_peripheral_search(c: &mut Criterion) {
    for class in ["nd24k", "ldoor", "Li7Nmax6"] {
        let m = suite_matrix(class).unwrap();
        let a = m.generate(m.default_scale * 0.1);
        let mut group = c.benchmark_group(format!("peripheral/{class}"));
        group.sample_size(10);

        // Full ordering under each strategy: identical labeling work, so
        // the spread is the peripheral sweeps.
        for strategy in STRATEGIES {
            let mut engine =
                OrderingEngine::new(EngineConfig::builder().start_node(strategy).build());
            group.bench_function(format!("order/{}", strategy.name()), |b| {
                b.iter(|| std::hint::black_box(engine.order(&a).perm.len()))
            });
        }

        // The selection phase alone: min-degree seed 0 (deterministic),
        // fresh BFS marks per iteration via end_peripheral_search.
        for strategy in STRATEGIES {
            group.bench_function(format!("select/{}", strategy.name()), |b| {
                let mut rt = SerialBackend::new(&a);
                let mut stats = DriverStats::default();
                b.iter(|| {
                    let (root, pstat) =
                        strategy.select(&mut rt, 0, ExpandDirection::Push, &mut stats);
                    if pstat.sweeps == 0 {
                        // Zero-sweep strategies leave no BFS marks behind;
                        // sweeping ones already rolled them back.
                        debug_assert!(root == 0 || pstat.sweeps > 0);
                    }
                    std::hint::black_box(root)
                })
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_peripheral_search);
criterion_main!(benches);
