//! Benchmarks of the query scheduler over realistic batch sizes.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use heaven_core::{schedule, seek_distance, FetchRequest};
use heaven_hsm::BlockAddress;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn requests(n: usize, media: u64, seed: u64) -> Vec<FetchRequest> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| FetchRequest {
            st: i as u64,
            addr: BlockAddress {
                medium: rng.gen_range(0..media),
                offset: rng.gen_range(0..30u64 << 30),
                len: 256 << 20,
            },
        })
        .collect()
}

fn bench_schedule(c: &mut Criterion) {
    for (n, media) in [(64usize, 8u64), (512, 16), (4096, 64)] {
        let reqs = requests(n, media, 3);
        c.bench_function(&format!("schedule/{n} reqs {media} media"), |b| {
            b.iter(|| black_box(schedule(&reqs, &[0, 1])))
        });
    }
}

fn bench_metrics(c: &mut Criterion) {
    let reqs = requests(1024, 16, 5);
    let order = schedule(&reqs, &[]);
    c.bench_function("schedule/seek_distance 1024", |b| {
        b.iter(|| black_box(seek_distance(&order)))
    });
}

criterion_group!(benches, bench_schedule, bench_metrics);
criterion_main!(benches);
