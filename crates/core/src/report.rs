//! Human-readable mapping reports in the style of Table III's "Mapping found
//! by MARS" column, plus the system-level co-schedule report.

use crate::mapping::Mapping;
use crate::scheduler::{CoScheduleResult, SequentialBaseline, Workload};
use mars_model::Network;
use mars_topology::AccelId;
use std::collections::BTreeMap;

/// Returns, for every convolution layer, its 1-based ordinal among the
/// network's convolutions (the "ConvN" numbering used in Table III).
pub(crate) fn conv_ordinals(net: &Network) -> BTreeMap<usize, usize> {
    net.conv_layers()
        .enumerate()
        .map(|(ordinal, (id, _))| (id.0, ordinal + 1))
        .collect()
}

/// One line per non-idle accelerator set: which convolutions it runs, how many
/// accelerators with which design, and the strategy of a representative layer
/// (the largest convolution of the range).
pub fn describe_mapping(net: &Network, mapping: &Mapping) -> Vec<String> {
    let ordinals = conv_ordinals(net);
    let mut lines = Vec::new();
    for a in &mapping.assignments {
        if a.is_idle() {
            continue;
        }
        let convs: Vec<usize> = a
            .layers
            .clone()
            .filter(|idx| ordinals.contains_key(idx))
            .collect();
        if convs.is_empty() {
            continue;
        }
        let first = ordinals[convs.first().expect("non-empty")];
        let last = ordinals[convs.last().expect("non-empty")];
        // Representative layer: the convolution with the most MACs.
        let representative = convs
            .iter()
            .copied()
            .max_by_key(|idx| net.layers()[*idx].macs())
            .expect("non-empty");
        let strategy = mapping.strategy_for_layer(representative);
        lines.push(format!(
            "Conv{}-{} -> {}x{}; Conv{}: {}",
            first,
            last,
            a.set_size(),
            a.design,
            ordinals[&representative],
            strategy
        ));
    }
    lines
}

/// A compact multi-line report: latency plus the per-set description.
pub fn render(net: &Network, mapping: &Mapping) -> String {
    let mut out = format!(
        "{}: {:.3} ms ({} sets, {} designs)\n",
        net.name(),
        mapping.latency_ms(),
        mapping.assignments.iter().filter(|a| !a.is_idle()).count(),
        mapping.distinct_designs()
    );
    for line in describe_mapping(net, mapping) {
        out.push_str("  ");
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Compact rendering of an accelerator set: `Acc0-3` for a contiguous id
/// range, the comma-joined ids otherwise.  The input is sorted and
/// deduplicated first, so any order is accepted.
pub fn describe_accel_set(set: &[AccelId]) -> String {
    let mut ids: Vec<usize> = set.iter().map(|a| a.0).collect();
    ids.sort_unstable();
    ids.dedup();
    match (ids.first(), ids.last()) {
        (Some(&first), Some(&last)) if ids.len() >= 2 && last - first == ids.len() - 1 => {
            format!("Acc{first}-{last}")
        }
        (Some(&only), _) if ids.len() == 1 => format!("Acc{only}"),
        _ => ids
            .iter()
            .map(|i| format!("Acc{i}"))
            .collect::<Vec<_>>()
            .join(","),
    }
}

/// Renders a co-schedule outcome: the system-level makespan/throughput line
/// (against its [`sequential_exclusive`](crate::scheduler::sequential_exclusive)
/// baseline), one line per placement, and the per-placement mapping
/// description.
///
/// `workloads` must be the slice the co-schedule was computed from (the
/// placements reference it by index for the mapping descriptions).
pub fn render_co_schedule(
    workloads: &[Workload],
    result: &CoScheduleResult,
    sequential: &SequentialBaseline,
) -> String {
    let mut out = format!(
        "co-schedule: makespan {:.3} ms (weighted {:.3}) | sequential-exclusive {:.3} ms | speedup {:.2}x | {:.1} inf/s\n",
        result.makespan_ms(),
        result.weighted_makespan_seconds * 1e3,
        sequential.makespan_ms(),
        sequential.speedup_of(result),
        result.throughput_per_second(),
    );
    for p in &result.placements {
        out.push_str(&format!(
            "  {} (w={:.1}, batch={}) on {}: {:.3} ms/inf, {:.3} ms round\n",
            p.name,
            p.weight,
            p.batch,
            describe_accel_set(&p.accels),
            p.result.latency_ms(),
            p.round_seconds() * 1e3,
        ));
        if let Some(w) = workloads.get(p.workload) {
            for line in describe_mapping(&w.network, &p.result.mapping) {
                out.push_str("    ");
                out.push_str(&line);
                out.push('\n');
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline;
    use mars_accel::Catalog;
    use mars_model::zoo;
    use mars_topology::presets;

    #[test]
    fn conv_ordinals_are_one_based_and_dense() {
        let net = zoo::alexnet(1000);
        let ords = conv_ordinals(&net);
        assert_eq!(ords.len(), 5);
        let mut values: Vec<usize> = ords.values().copied().collect();
        values.sort_unstable();
        assert_eq!(values, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn describe_mapping_mentions_designs_and_strategies() {
        let net = zoo::alexnet(1000);
        let topo = presets::f1_16xlarge();
        let catalog = Catalog::standard_three();
        let mapping = baseline::computation_prioritized(&net, &topo, &catalog);
        let lines = describe_mapping(&net, &mapping);
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("Conv1-"));
        assert!(lines[0].contains("4xDesign"));
        assert!(lines[0].contains("ES ="));
    }

    #[test]
    fn accel_set_rendering_is_compact() {
        assert_eq!(
            describe_accel_set(&[AccelId(0), AccelId(1), AccelId(2), AccelId(3)]),
            "Acc0-3"
        );
        assert_eq!(describe_accel_set(&[AccelId(5)]), "Acc5");
        assert_eq!(
            describe_accel_set(&[AccelId(0), AccelId(2), AccelId(3)]),
            "Acc0,Acc2,Acc3"
        );
        // Unsorted and duplicated inputs are normalised, not mislabeled.
        assert_eq!(
            describe_accel_set(&[AccelId(3), AccelId(1), AccelId(2), AccelId(1)]),
            "Acc1-3"
        );
        assert_eq!(
            describe_accel_set(&[AccelId(0), AccelId(3), AccelId(2)]),
            "Acc0,Acc2,Acc3"
        );
        assert_eq!(describe_accel_set(&[]), "");
    }

    #[test]
    fn render_co_schedule_reports_system_and_per_workload_lines() {
        let workloads = vec![
            crate::scheduler::Workload::new(zoo::alexnet(100))
                .with_batch(4)
                .with_weight(1.5),
            crate::scheduler::Workload::new(zoo::alexnet(10)).with_batch(2),
        ];
        let topo = presets::f1_16xlarge();
        let catalog = Catalog::standard_three();
        let config = crate::scheduler::CoScheduleConfig {
            outer: crate::GaConfig {
                population: 4,
                generations: 1,
                ..crate::GaConfig::first_level(1)
            },
            ..crate::scheduler::CoScheduleConfig::fast(1)
        };
        let cache = crate::scheduler::InnerSearchCache::new();
        let result =
            crate::scheduler::co_schedule_cached(&workloads, &topo, &catalog, &config, &cache)
                .unwrap();
        let sequential =
            crate::scheduler::sequential_exclusive(&workloads, &topo, &catalog, &config, &cache)
                .unwrap();
        let text = render_co_schedule(&workloads, &result, &sequential);
        assert!(text.contains("makespan"));
        assert!(text.contains("sequential-exclusive"));
        assert!(text.contains("AlexNet"));
        assert!(text.contains("batch=4"));
        assert!(text.contains("Conv"));
    }

    #[test]
    fn render_contains_latency_and_network_name() {
        let net = zoo::alexnet(1000);
        let topo = presets::f1_16xlarge();
        let catalog = Catalog::standard_three();
        let mapping = baseline::computation_prioritized(&net, &topo, &catalog);
        let text = render(&net, &mapping);
        assert!(text.contains("AlexNet"));
        assert!(text.contains("ms"));
    }
}
