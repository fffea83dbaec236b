//! The Table IV scenario: map heterogeneous multi-branch models onto a
//! cloud-scale multi-FPGA system with *fixed heterogeneous* accelerator
//! designs, sweeping the interconnect bandwidth, and compare MARS's
//! multi-level parallelism against an H2H-style layer-per-accelerator mapper.
//!
//! ```sh
//! cargo run --release --example hetero_bandwidth_sweep
//! ```

use mars::prelude::*;

fn main() {
    let catalog = Catalog::h2h_heterogeneous();
    let models = [
        mars::model::zoo::casia_surf_like(),
        mars::model::zoo::facebagnet_like(),
    ];

    for net in &models {
        println!("== {} ==", net.summary());
        println!(
            "{:<16} {:>12} {:>12} {:>8}",
            "Bandwidth", "H2H-like/ms", "MARS/ms", "Δ"
        );
        for (label, gbps) in mars::topology::presets::h2h_bandwidth_levels() {
            let topo = mars::topology::presets::h2h_cloud(gbps);
            let designs = mars::core::baseline::default_fixed_designs(&topo, &catalog);
            let h2h = mars::core::baseline::h2h_like(net, &topo, &catalog, &designs);
            let result = Mars::new(net, &topo, &catalog)
                .with_config(SearchConfig::fast(11))
                .with_fixed_designs(designs)
                .search();
            println!(
                "{:<16} {:>12.1} {:>12.1} {:>7.1}%",
                label,
                h2h.latency_ms(),
                result.latency_ms(),
                -100.0 * result.mapping.improvement_over(&h2h)
            );
        }
        println!();
    }
}
