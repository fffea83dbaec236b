//! E3 — Table IV: MARS vs an H2H-style mapper on heterogeneous models over
//! the five bandwidth levels of the cloud-scale multi-FPGA platform.
//!
//! ```sh
//! cargo run --release -p mars-bench --bin table4            # fast budget
//! MARS_BUDGET=full cargo run --release -p mars-bench --bin table4
//! ```

use mars_bench::{table4_rows, BinContext};
use mars_model::zoo;

fn main() {
    let ctx = BinContext::from_env();
    let budget = ctx.budget;
    let recorder = ctx.recorder();
    ctx.print_header("TABLE IV: COMPARISON OF LATENCY (ms) WITH THE H2H-LIKE MAPPER");

    let models = [zoo::casia_surf_like(), zoo::facebagnet_like()];
    let mut all_reductions = Vec::new();

    println!(
        "{:<16} {:>22} {:>22}",
        "Bandwidth",
        models[0].name(),
        models[1].name()
    );
    println!(
        "{:<16} {:>10} {:>11} {:>10} {:>11}",
        "", "H2H-like", "MARS", "H2H-like", "MARS"
    );

    let rows: Vec<Vec<mars_bench::Table4Row>> = models
        .iter()
        .enumerate()
        .map(|(i, net)| table4_rows(net, budget, 90 + i as u64, &recorder))
        .collect();

    for (a, b) in rows[0].iter().zip(&rows[1]) {
        all_reductions.push(a.reduction_percent());
        all_reductions.push(b.reduction_percent());
        println!(
            "{:<16} {:>10.1} {:>6.1}({:+.1}%) {:>8.1} {:>6.1}({:+.1}%)",
            a.label,
            a.h2h_ms,
            a.mars_ms,
            -a.reduction_percent(),
            b.h2h_ms,
            b.mars_ms,
            -b.reduction_percent()
        );
    }

    let avg = all_reductions.iter().sum::<f64>() / all_reductions.len() as f64;
    println!("\nAverage latency reduction vs H2H-like: {avg:.1}% (paper reports 59.4% vs H2H)");
    ctx.export(&recorder);
}
