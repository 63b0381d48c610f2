//! E-OPS: per-operation latencies of the Brouwerian algebra engine
//! (Section 6 of the paper claims ⊔/⊓ linear and ∸/^C quadratic-bounded
//! in |N|), plus the bitset-vs-tree ablation from DESIGN.md.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nalist::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn setup(atoms: usize) -> (Algebra, Vec<AtomSet>, Vec<NestedAttr>) {
    let mut rng = StdRng::seed_from_u64(atoms as u64);
    let attr = nalist::gen::attr_with_atoms(&mut rng, atoms);
    let alg = Algebra::new(&attr);
    let xs: Vec<AtomSet> = (0..64)
        .map(|_| nalist::gen::random_subattr(&mut rng, &alg, 0.4))
        .collect();
    let trees: Vec<NestedAttr> = xs.iter().map(|x| alg.to_attr(x)).collect();
    (alg, xs, trees)
}

fn bench_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("algebra_ops");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_millis(600));
    for atoms in [16usize, 64, 256, 1024] {
        let (alg, xs, trees) = setup(atoms);
        group.bench_with_input(BenchmarkId::new("join_bitset", atoms), &atoms, |b, _| {
            let mut i = 0;
            b.iter(|| {
                i = (i + 1) % 63;
                std::hint::black_box(alg.join(&xs[i], &xs[i + 1]))
            });
        });
        group.bench_with_input(BenchmarkId::new("meet_bitset", atoms), &atoms, |b, _| {
            let mut i = 0;
            b.iter(|| {
                i = (i + 1) % 63;
                std::hint::black_box(alg.meet(&xs[i], &xs[i + 1]))
            });
        });
        group.bench_with_input(BenchmarkId::new("pdiff_bitset", atoms), &atoms, |b, _| {
            let mut i = 0;
            b.iter(|| {
                i = (i + 1) % 63;
                std::hint::black_box(alg.pdiff(&xs[i], &xs[i + 1]))
            });
        });
        group.bench_with_input(BenchmarkId::new("compl_bitset", atoms), &atoms, |b, _| {
            let mut i = 0;
            b.iter(|| {
                i = (i + 1) % 64;
                std::hint::black_box(alg.compl(&xs[i]))
            });
        });
        // ablation: the structurally recursive tree engine
        group.bench_with_input(BenchmarkId::new("join_tree", atoms), &atoms, |b, _| {
            let mut i = 0;
            b.iter(|| {
                i = (i + 1) % 63;
                std::hint::black_box(
                    nalist_oracle::treealg::tree_join(&trees[i], &trees[i + 1]).unwrap(),
                )
            });
        });
        group.bench_with_input(BenchmarkId::new("pdiff_tree", atoms), &atoms, |b, _| {
            let mut i = 0;
            b.iter(|| {
                i = (i + 1) % 63;
                std::hint::black_box(
                    nalist_oracle::treealg::tree_pdiff(&trees[i], &trees[i + 1]).unwrap(),
                )
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ops);
criterion_main!(benches);
