//! Extending MARS with a user-defined accelerator design and a user-defined
//! platform topology.
//!
//! The example adds a narrow "edge" systolic design to the Table II catalogue,
//! builds a 2×3 chiplet-mesh platform, and lets MARS decide where the extra
//! design is worth configuring.
//!
//! ```sh
//! cargo run --release --example custom_accelerator
//! ```

use mars::accel::SystolicModel;
use mars::prelude::*;
use std::sync::Arc;

fn main() {
    // A catalogue with the three Table II designs plus a smaller systolic
    // variant (one quarter of the PEs) representing an area-constrained slot.
    let mut catalog = Catalog::standard_three();
    catalog.push(Arc::new(SystolicModel::new(DesignId(3), 200, 6, 6, 4)));
    println!("catalogue:\n{catalog}");

    // A chiplet-style 2x3 mesh with 16 Gbps nearest-neighbour links, 4 Gbps
    // host links and 512 MiB of DRAM per accelerator.
    let topo = mars::topology::presets::chiplet_mesh(2, 3, 16.0, 4.0, 512 << 20);
    println!("platform: {topo}");

    // Profile the catalogue on the workload: which design is best per layer?
    let net = mars::model::zoo::resnet18(1000);
    let profile = ProfileTable::build(&net, &catalog);
    println!(
        "normalised design scores: {:?}",
        profile.normalized_scores()
    );

    // Search.
    let baseline = mars::core::baseline::computation_prioritized(&net, &topo, &catalog);
    let result = Mars::new(&net, &topo, &catalog)
        .with_config(SearchConfig::fast(5))
        .search();

    println!("baseline: {:.3} ms", baseline.latency_ms());
    println!("MARS:     {:.3} ms", result.latency_ms());
    println!("\n{}", mars::core::report::render(&net, &result.mapping));
}
