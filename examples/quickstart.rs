//! Quickstart: map ResNet-34 onto an F1-style adaptive multi-accelerator
//! system and compare MARS against the computation-prioritised baseline.
//!
//! ```sh
//! cargo run --release --example quickstart
//! MARS_THREADS=4 cargo run --release --example quickstart  # explicit pool size
//! ```
//!
//! `MARS_THREADS` sets the fitness-evaluation worker pool (`0` or unset =
//! all available cores, `1` = serial).  The mapping found is bit-identical
//! for every thread count.

use mars::prelude::*;

fn main() {
    // 0. The worker-thread knob for parallel fitness evaluation.
    let threads = mars::parallel::threads_from_env();

    // 1. The workload: a Table III benchmark network.
    let net = mars::model::zoo::resnet34(1000);
    println!("workload: {}", net.summary());

    // 2. The platform: 8 FPGAs in two groups, 8 Gbps intra-group, 2 Gbps to
    //    the host, 1 GiB DRAM each (Fig. 1 / Section VI-A).
    let topo = mars::topology::presets::f1_16xlarge();
    println!("platform: {topo}");

    // 3. The available accelerator designs (Table II).
    let catalog = Catalog::standard_three();
    println!("designs:\n{catalog}");

    // 4. The baseline mapper: fixed two sets, best design per half, ES along
    //    the two longest dimensions of every layer.
    let baseline = mars::core::baseline::computation_prioritized(&net, &topo, &catalog);
    println!("baseline latency: {:.3} ms", baseline.latency_ms());

    // 5. MARS: two-level genetic search over accelerator sets, designs,
    //    workload allocation and per-layer ES/SS strategies, with first-level
    //    fitness evaluation fanned out over the worker pool.
    let result = mars::quickstart(&net, &topo, &catalog, 42, threads);
    println!("MARS latency:     {:.3} ms", result.latency_ms());
    println!(
        "search time:      {:.2} s ({} evaluations, {:.0} evals/s, threads={})",
        result.elapsed.as_secs_f64(),
        result.evaluations,
        result.evals_per_second(),
        if threads == 0 {
            format!("auto({})", mars::parallel::resolve_threads(0))
        } else {
            threads.to_string()
        }
    );
    println!(
        "cache hits:       {} per-layer term, {} search-level ({:.0}% term hit rate)",
        result.stats.term_table.hits,
        result.stats.search_cache.hits,
        100.0 * result.stats.term_table.hit_rate()
    );
    println!(
        "latency reduction: {:.1}%",
        100.0 * result.mapping.improvement_over(&baseline)
    );

    // 6. The mapping itself, in the format of Table III's last column.
    println!("\n{}", mars::core::report::render(&net, &result.mapping));
}
