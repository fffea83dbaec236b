//! Map every Table III benchmark onto the F1-style platform and print a
//! miniature version of the paper's Table III (baseline vs MARS).
//!
//! ```sh
//! cargo run --release --example resnet_on_f1
//! ```
//!
//! This example uses the reduced fast budget so it finishes in seconds; the
//! `table3` binary of `mars-bench` runs the full-budget version.

use mars::model::zoo::Benchmark;
use mars::prelude::*;

fn main() {
    let topo = mars::topology::presets::f1_16xlarge();
    let catalog = Catalog::standard_three();

    println!(
        "{:<12} {:>8} {:>10} {:>12} {:>12} {:>8}",
        "Model", "#Convs", "FLOPs", "Baseline/ms", "MARS/ms", "Δ"
    );

    for benchmark in Benchmark::ALL {
        let net = benchmark.build();
        let baseline = mars::core::baseline::computation_prioritized(&net, &topo, &catalog);
        let result = Mars::new(&net, &topo, &catalog)
            .with_config(SearchConfig::fast(7))
            .search();
        println!(
            "{:<12} {:>8} {:>9.2}G {:>12.3} {:>12.3} {:>7.1}%",
            benchmark.name(),
            net.conv_layers().count(),
            net.total_macs() as f64 / 1e9,
            baseline.latency_ms(),
            result.latency_ms(),
            -100.0 * result.mapping.improvement_over(&baseline)
        );
        for line in mars::core::report::describe_mapping(&net, &result.mapping) {
            println!("             {line}");
        }
    }
}
