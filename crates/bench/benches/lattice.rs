//! E-FIG1: lattice machinery — algebra construction, enumeration, Hasse
//! diagram, law verification, and `from_attr`/`to_attr` conversion cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nalist::algebra::lattice::{enumerate_sets, hasse_edges};
use nalist::prelude::*;
use nalist_oracle::laws::verify_brouwerian;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn algebra_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("algebra_construction");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_millis(600));
    for atoms in [16usize, 64, 256, 1024] {
        let mut rng = StdRng::seed_from_u64(atoms as u64);
        let attr = nalist::gen::attr_with_atoms(&mut rng, atoms);
        group.bench_with_input(BenchmarkId::from_parameter(atoms), &atoms, |b, _| {
            b.iter(|| std::hint::black_box(Algebra::new(&attr).atom_count()));
        });
    }
    group.finish();
}

fn figure_1_pipeline(c: &mut Criterion) {
    let n = parse_attr("J[K(A, L[M(B, C)])]").unwrap();
    let alg = Algebra::new(&n);
    c.bench_function("fig1_enumerate_and_verify", |b| {
        b.iter(|| {
            let sets = enumerate_sets(&alg);
            verify_brouwerian(&alg, &sets).unwrap();
            std::hint::black_box(hasse_edges(&sets).len())
        });
    });
}

fn attr_conversion(c: &mut Criterion) {
    let mut group = c.benchmark_group("attr_conversion");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_millis(600));
    for atoms in [16usize, 128, 1024] {
        let mut rng = StdRng::seed_from_u64(atoms as u64);
        let attr = nalist::gen::attr_with_atoms(&mut rng, atoms);
        let alg = Algebra::new(&attr);
        let x = nalist::gen::random_subattr(&mut rng, &alg, 0.5);
        let tree = alg.to_attr(&x);
        group.bench_with_input(BenchmarkId::new("to_attr", atoms), &atoms, |b, _| {
            b.iter(|| std::hint::black_box(alg.to_attr(&x)));
        });
        group.bench_with_input(BenchmarkId::new("from_attr", atoms), &atoms, |b, _| {
            b.iter(|| std::hint::black_box(alg.from_attr(&tree).unwrap()));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    algebra_construction,
    figure_1_pipeline,
    attr_conversion
);
criterion_main!(benches);
