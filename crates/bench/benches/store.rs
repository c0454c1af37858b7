//! Benchmarks for the striped-lock register store (`shmem-store`):
//! mixed load/bump-write throughput of the shared backend at 1/2/4
//! accessing threads against the sequential `LocalAbd` reference, plus
//! the raw per-op cost of a locked compare-and-bump and a locked read.

use shmem_algorithms::backend::{AbdBackend, LocalAbd};
use shmem_algorithms::tag::Tag;
use shmem_store::{RegStore, StoreAbdBackend};
use shmem_util::bench::{black_box, BatchSize, BenchmarkId, Criterion, Throughput};
use shmem_util::{criterion_group, criterion_main, DetRng};
use std::sync::Arc;

const KEYSPACE: u64 = 4096;
const OPS: usize = 20_000;

/// The same 25%-write mixed op as `measured::store_table` uses, against
/// any ABD backend.
fn mixed_op<B: AbdBackend>(backend: &mut B, rng: &mut DetRng, me: u32, seq: u64) {
    let key = rng.gen_range(0..KEYSPACE);
    if rng.gen_bool(0.25) {
        let cur = backend.load(key).map_or(Tag::ZERO, |(t, _)| t);
        backend.store_if_newer(key, cur.successor(me), seq);
    } else {
        black_box(backend.load(key));
    }
}

fn bench_mixed_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("store/mixed_25w");
    group.sample_size(10);

    group.throughput(Throughput::Elements(OPS as u64));
    group.bench_function("local_1", |b| {
        b.iter_batched(
            || (LocalAbd::new(), DetRng::seed_from_u64(7)),
            |(mut backend, mut rng)| {
                for seq in 0..OPS {
                    mixed_op(&mut backend, &mut rng, 0, seq as u64);
                }
            },
            BatchSize::LargeInput,
        )
    });

    for threads in [1u32, 2, 4] {
        group.throughput(Throughput::Elements(u64::from(threads) * OPS as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                b.iter_batched(
                    || Arc::new(RegStore::new()),
                    |store| {
                        std::thread::scope(|scope| {
                            for t in 0..threads {
                                let mut backend = StoreAbdBackend::shared(&store);
                                let mut rng = DetRng::seed_from_u64(7 ^ (u64::from(t) << 20));
                                scope.spawn(move || {
                                    for seq in 0..OPS {
                                        mixed_op(&mut backend, &mut rng, t, seq as u64);
                                    }
                                });
                            }
                        });
                    },
                    BatchSize::LargeInput,
                )
            },
        );
    }
    group.finish();
}

fn bench_single_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("store/single_op");

    let store = Arc::new(RegStore::new());
    let mut backend = StoreAbdBackend::shared(&store);
    backend.store_if_newer(1, Tag::new(1, 0), 42);

    group.bench_function("load_hot_key", |b| {
        let backend = StoreAbdBackend::shared(&store);
        b.iter(|| black_box(backend.load(1)))
    });

    group.bench_function("bump_write_hot_key", |b| {
        let mut backend = StoreAbdBackend::shared(&store);
        let mut seq = 2u64;
        b.iter(|| {
            backend.store_if_newer(1, Tag::new(seq, 0), seq);
            seq += 1;
        })
    });
    group.finish();
}

criterion_group!(benches, bench_mixed_throughput, bench_single_ops);
criterion_main!(benches);
