//! Bit-exact digests of whole search trajectories.
//!
//! The table goldens pin headline latencies to 1e-6 ms; these digests pin
//! every bit a search returns: the best mapping's latency, every entry of
//! the first-level `history`, the evaluation count, and the winning
//! assignments and per-layer strategies.  A speed-only change to the GA,
//! the genome decoders or the evaluator must leave every digest unchanged,
//! at every worker-thread count.
//!
//! Coverage, all at [`SearchConfig::fast`]:
//!
//! - each Table III benchmark on `f1_16xlarge` at seed `40 + row` (the
//!   `table3` seeds);
//! - CASIA-SURF-like on `h2h_cloud` at the `Mid-(2Gbps)` level with
//!   `default_fixed_designs`, at seed 90 (the `table4` seed of that net);
//! - each of them at 1 and at 4 first-level worker threads.
//!
//! When a change is *meant* to alter search results, re-run this test,
//! copy the printed digests into the constants below, and say so in the
//! change log.

use mars_accel::Catalog;
use mars_core::{baseline, Mars, SearchConfig, SearchResult};
use mars_model::zoo::{self, Benchmark};
use mars_topology::presets;

/// FNV-1a over 64-bit words, fed little-endian byte by byte.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Digest of everything a search returns except its timing and cache stats.
fn search_digest(result: &SearchResult) -> u64 {
    let mut d = Digest::new();
    d.word(result.mapping.latency_seconds.to_bits());
    d.word(result.history.len() as u64);
    for h in &result.history {
        d.word(h.to_bits());
    }
    d.word(result.evaluations as u64);
    d.word(result.mapping.assignments.len() as u64);
    for a in &result.mapping.assignments {
        d.word(a.accels.len() as u64);
        for accel in &a.accels {
            d.word(accel.0 as u64);
        }
        d.word(a.design.0 as u64);
        d.word(a.layers.start as u64);
        d.word(a.layers.end as u64);
    }
    d.word(result.mapping.strategies.len() as u64);
    for (layer, s) in &result.mapping.strategies {
        d.word(*layer as u64);
        let es: u64 = s.es().iter().map(|dim| 1u64 << dim.index()).sum();
        d.word(es);
        d.word(s.ss().map_or(0, |dim| dim.index() as u64 + 1));
    }
    d.0
}

/// Seed-`40 + row` Table III searches: `(benchmark, digest)`.
const TABLE3_DIGESTS: [(Benchmark, u64); 5] = [
    (Benchmark::AlexNet, 0xce0b_607c_d0f9_6220),
    (Benchmark::Vgg16, 0x292c_679d_7e86_4b2d),
    (Benchmark::ResNet34, 0x3a02_c5ed_83bd_a824),
    (Benchmark::ResNet101, 0x8731_522a_4e41_ca59),
    (Benchmark::WideResNet50_2, 0x9678_1fa5_79ca_f198),
];

/// CASIA-SURF-like on `h2h_cloud(2.0)` with fixed designs, seed 90.
const H2H_CASIA_DIGEST: u64 = 0xd906_b9fa_d943_2cf6;

#[track_caller]
fn assert_digest(what: &str, search: impl Fn(usize) -> SearchResult, pinned: u64) {
    for threads in [1, 4] {
        let got = search_digest(&search(threads));
        assert_eq!(
            got, pinned,
            "{what} at {threads} thread(s): digest {got:#018x}, pinned {pinned:#018x} \
             (intentional change? re-pin the digest constants)"
        );
    }
}

fn table3_digest(row: usize) {
    let (benchmark, pinned) = TABLE3_DIGESTS[row];
    let net = benchmark.build();
    let topo = presets::f1_16xlarge();
    let catalog = Catalog::standard_three();
    assert_digest(
        benchmark.name(),
        |threads| {
            Mars::new(&net, &topo, &catalog)
                .with_config(SearchConfig::fast(40 + row as u64).with_threads(threads))
                .search()
        },
        pinned,
    );
}

#[test]
fn alexnet_search_digest() {
    table3_digest(0);
}

#[test]
fn vgg16_search_digest() {
    table3_digest(1);
}

#[test]
fn resnet34_search_digest() {
    table3_digest(2);
}

#[test]
fn resnet101_search_digest() {
    table3_digest(3);
}

#[test]
fn wide_resnet50_2_search_digest() {
    table3_digest(4);
}

#[test]
fn casia_surf_h2h_search_digest() {
    let net = zoo::casia_surf_like();
    let topo = presets::h2h_cloud(2.0);
    let catalog = Catalog::h2h_heterogeneous();
    let designs = baseline::default_fixed_designs(&topo, &catalog);
    assert_digest(
        "CASIA-SURF-like on H2H Mid-(2Gbps)",
        |threads| {
            Mars::new(&net, &topo, &catalog)
                .with_fixed_designs(designs.clone())
                .with_config(SearchConfig::fast(90).with_threads(threads))
                .search()
        },
        H2H_CASIA_DIGEST,
    );
}
