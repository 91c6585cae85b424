//! Table I as a Criterion benchmark: the cost of producing an Unsafe
//! Quadratic assignment *and verifying it exactly* — the full pipeline
//! behind each cell of the table — plus benchmark generation itself,
//! both on the legacy snapped grid and through the continuous-period
//! margin interpolant (the interpolant evaluation is the new per-task
//! cost the `continuous` profile adds) and under the adversarial
//! `margin-tight` profile (whose certificate-lie search dominates).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use csa_bench::{fixed_benchmark, fixed_benchmarks, fixed_benchmarks_with};
use csa_core::{is_valid_assignment, unsafe_quadratic};
use csa_experiments::{generate_benchmark, BenchmarkConfig, PeriodModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_table1(c: &mut Criterion) {
    // Force margin-table and interpolant construction outside the timed
    // region.
    let _ = fixed_benchmark(4, 1);
    let _ = fixed_benchmarks_with(4, 1, 1, PeriodModel::Continuous);

    let mut group = c.benchmark_group("table1");
    for &n in &[4usize, 8, 12, 16, 20] {
        let benchmarks = fixed_benchmarks(n, 20, 0x7AB1);
        group.bench_with_input(BenchmarkId::new("assign_and_verify", n), &n, |b, _| {
            b.iter(|| {
                let mut invalid = 0u32;
                for tasks in &benchmarks {
                    if let Some(pa) = unsafe_quadratic(black_box(tasks)).assignment {
                        if !is_valid_assignment(tasks, &pa) {
                            invalid += 1;
                        }
                    }
                }
                black_box(invalid)
            })
        });
        group.bench_with_input(BenchmarkId::new("generate", n), &n, |b, _| {
            let cfg = BenchmarkConfig::new(n);
            let mut rng = StdRng::seed_from_u64(1);
            b.iter(|| black_box(generate_benchmark(&cfg, &mut rng)))
        });
        group.bench_with_input(BenchmarkId::new("generate_continuous", n), &n, |b, _| {
            let cfg = BenchmarkConfig::with_model(n, PeriodModel::Continuous);
            let mut rng = StdRng::seed_from_u64(1);
            b.iter(|| black_box(generate_benchmark(&cfg, &mut rng)))
        });
        if n <= 12 {
            group.bench_with_input(BenchmarkId::new("generate_margin_tight", n), &n, |b, _| {
                let cfg = BenchmarkConfig::with_model(n, PeriodModel::MarginTight);
                let mut rng = StdRng::seed_from_u64(1);
                b.iter(|| black_box(generate_benchmark(&cfg, &mut rng)))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_table1);
criterion_main!(benches);
