//! E-WIT: counterexample (combination-instance) construction cost as the
//! number of free dependency-basis blocks grows (2^k tuples), plus
//! instance satisfaction checking and the generalised join.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nalist::membership::witness::combination_instance;
use nalist::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn witness_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("witness_generation");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_millis(600));
    for k in [2usize, 4, 8, 12] {
        let width = k + 1;
        let attr = nalist::gen::flat_attr(width);
        let alg = Algebra::new(&attr);
        let mut sigma: Vec<CompiledDep> = Vec::new();
        for i in 1..k {
            let mut lhs = alg.bottom_set();
            lhs.insert(0);
            let mut rhs = alg.bottom_set();
            rhs.insert(i);
            sigma.push(CompiledDep::mvd(lhs, rhs));
        }
        let mut x = alg.bottom_set();
        x.insert(0);
        let basis = closure_and_basis(&alg, &sigma, &x);
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| {
                std::hint::black_box(
                    combination_instance(&alg, &basis, &nalist::guard::Budget::unlimited())
                        .unwrap()
                        .instance
                        .len(),
                )
            });
        });
    }
    group.finish();
}

fn satisfaction_checking(c: &mut Criterion) {
    let mut group = c.benchmark_group("satisfaction");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_millis(600));
    for rows in [16usize, 64, 256] {
        let mut rng = StdRng::seed_from_u64(7);
        let attr = nalist::gen::attr_with_atoms(&mut rng, 12);
        let alg = Algebra::new(&attr);
        let r = nalist::gen::random_instance(
            &mut rng,
            &attr,
            &nalist::gen::InstanceConfig {
                rows,
                domain_size: 4,
                max_list_len: 3,
            },
        );
        let deps: Vec<CompiledDep> = (0..8)
            .map(|_| nalist::gen::random_dep(&mut rng, &alg, 0.4, 0.5))
            .collect();
        group.bench_with_input(BenchmarkId::new("check_8_deps", rows), &rows, |b, _| {
            b.iter(|| {
                let mut sat = 0;
                for d in &deps {
                    if r.satisfies(&alg, d) {
                        sat += 1;
                    }
                }
                std::hint::black_box(sat)
            });
        });
    }
    group.finish();
}

fn generalized_join_bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("generalized_join");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_millis(600));
    for rows in [16usize, 64] {
        let mut rng = StdRng::seed_from_u64(11);
        let attr = nalist::gen::attr_with_atoms(&mut rng, 10);
        let alg = Algebra::new(&attr);
        let r = nalist::gen::random_instance(
            &mut rng,
            &attr,
            &nalist::gen::InstanceConfig {
                rows,
                domain_size: 3,
                max_list_len: 2,
            },
        );
        let x = nalist::gen::random_subattr(&mut rng, &alg, 0.3);
        let y = nalist::gen::random_subattr(&mut rng, &alg, 0.3);
        group.bench_with_input(BenchmarkId::new("lossless_check", rows), &rows, |b, _| {
            b.iter(|| {
                std::hint::black_box(
                    nalist::deps::join::lossless_decomposition(&alg, &r, &x, &y).unwrap(),
                )
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    witness_generation,
    satisfaction_checking,
    generalized_join_bench
);
criterion_main!(benches);
