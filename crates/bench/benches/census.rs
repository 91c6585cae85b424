//! The anomaly census's per-instance kernel (`classify_instance`): the
//! certificate-lie scan, the assignment search, the interference-removal
//! and priority-raise detectors, OPA incompleteness and the Unsafe
//! Quadratic audit, all on one memoizing checker. Classification, not
//! search, dominates paper-scale census time, so this row tracks the
//! pruned detectors (DESIGN.md §3.1).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use csa_bench::fixed_benchmarks;
use csa_experiments::{classify_instance, SearchConfig};
use std::hint::black_box;

fn bench_classify_instance(c: &mut Criterion) {
    let mut group = c.benchmark_group("census");
    for &n in &[12usize, 20] {
        // Grid-snapped sets (the paper-scale census distribution); one
        // iteration classifies all of them, each on a fresh checker.
        let sets = fixed_benchmarks(n, 10, 0xCE45);
        let search = SearchConfig::default();
        group.bench_with_input(BenchmarkId::new("classify_instance", n), &n, |b, _| {
            b.iter(|| {
                sets.iter()
                    .map(|tasks| classify_instance(black_box(tasks), &search))
                    .filter(|c| c.interference_anomaly || c.certificate_lie)
                    .count()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_classify_instance);
criterion_main!(benches);
