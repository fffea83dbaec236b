//! The mix zoo: bundled multi-workload scenarios for co-scheduling.
//!
//! MARS maps one network at a time; the co-scheduler in `mars-core` places
//! *several* networks on disjoint partitions of one platform (in the spirit of
//! MAGMA and the multi-DNN accelerator literature).  The mixes below are the
//! bundled scenarios it is benchmarked on: each [`Workload`] pairs a network
//! with an SLA weight (higher = more latency-critical) and a batch size
//! (inferences per scheduling round), chosen so the per-workload compute
//! demands are comparable — the regime where co-scheduling disjoint partitions
//! beats running the workloads back-to-back on the whole platform.
//!
//! The [`bert_ish`] builder adds a transformer-encoder-shaped workload to the
//! zoo.  The mapper only consumes layer shapes, so the encoder's matrix
//! multiplies are expressed as 1×1 convolutions over a `(hidden, seq, 1)`
//! feature map: channels carry the hidden dimension and the spatial height
//! carries the sequence, which keeps both dimensions shardable by the ES/SS
//! strategies.

use crate::graph::Network;
use crate::layer::{
    ConvParams, DenseParams, Layer, LayerKind, NormActParams, PoolKind, PoolParams,
};
use crate::tensor::FeatureMap;
use crate::workload::{FaultEvent, PhasedTraffic, TrafficPhase, TrafficProfile, Workload};

/// Shorthand for building a mix entry.
fn entry(network: Network, weight: f64, batch: usize) -> Workload {
    Workload::new(network).with_weight(weight).with_batch(batch)
}

/// A BERT-style transformer encoder: `layers` blocks of multi-head attention
/// (QKV projection, score and context matmuls, output projection) and a
/// 4×-expansion feed-forward network over a `hidden`-wide representation of a
/// `seq`-token sequence, followed by average pooling and a classifier.
///
/// Every matrix multiply is encoded as a 1×1 convolution on a
/// `(channels = hidden, height = seq, width = 1)` feature map so that the
/// ES/SS strategy space can shard both the hidden and the sequence dimension.
///
/// ```
/// use mars_model::zoo::MixZoo;
///
/// let mix = MixZoo::HeteroTriple.entries();
/// let bert = mix.iter().find(|w| w.network.name() == "BERT-ish").unwrap();
/// assert!(bert.network.total_macs() > 1_000_000_000);
/// ```
pub(crate) fn bert_ish(hidden: usize, layers: usize, seq: usize) -> Network {
    let mut net = Network::new("BERT-ish");
    let shape = FeatureMap::new(hidden, seq, 1);
    let norm = NormActParams { shape };

    // Token embedding projection: the encoder's input stem.
    let mut tail = net.add_layer(Layer::new(
        "embed",
        LayerKind::Conv(ConvParams::new(hidden, hidden, seq, 1, 1, 1)),
    ));

    for block in 0..layers {
        // Fused QKV projection: hidden -> 3*hidden.
        let qkv = net
            .push_after(
                tail,
                Layer::new(
                    format!("b{block}_qkv"),
                    LayerKind::Conv(ConvParams::new(3 * hidden, hidden, seq, 1, 1, 1)),
                ),
            )
            .expect("forward edge");
        // Attention scores Q.K^T: (seq x hidden) . (hidden x seq).
        let scores = net
            .push_after(
                qkv,
                Layer::new(
                    format!("b{block}_scores"),
                    LayerKind::Conv(ConvParams::new(seq, hidden, seq, 1, 1, 1)),
                ),
            )
            .expect("forward edge");
        // Context scores.V: (seq x seq) . (seq x hidden).
        let context = net
            .push_after(
                scores,
                Layer::new(
                    format!("b{block}_context"),
                    LayerKind::Conv(ConvParams::new(hidden, seq, seq, 1, 1, 1)),
                ),
            )
            .expect("forward edge");
        // Output projection + residual + layer norm.
        let proj = net
            .push_after(
                context,
                Layer::new(
                    format!("b{block}_proj"),
                    LayerKind::Conv(ConvParams::new(hidden, hidden, seq, 1, 1, 1)),
                ),
            )
            .expect("forward edge");
        let add1 = net
            .push_after(
                proj,
                Layer::new(format!("b{block}_add1"), LayerKind::Add(norm)),
            )
            .expect("forward edge");
        net.connect(tail, add1).expect("residual edge");
        let ln1 = net
            .push_after(
                add1,
                Layer::new(format!("b{block}_ln1"), LayerKind::BatchNorm(norm)),
            )
            .expect("forward edge");

        // Feed-forward: hidden -> 4*hidden -> hidden with GELU-ish activation.
        let up = net
            .push_after(
                ln1,
                Layer::new(
                    format!("b{block}_ffn_up"),
                    LayerKind::Conv(ConvParams::new(4 * hidden, hidden, seq, 1, 1, 1)),
                ),
            )
            .expect("forward edge");
        let act = net
            .push_after(
                up,
                Layer::new(
                    format!("b{block}_gelu"),
                    LayerKind::Activation(NormActParams {
                        shape: FeatureMap::new(4 * hidden, seq, 1),
                    }),
                ),
            )
            .expect("forward edge");
        let down = net
            .push_after(
                act,
                Layer::new(
                    format!("b{block}_ffn_down"),
                    LayerKind::Conv(ConvParams::new(hidden, 4 * hidden, seq, 1, 1, 1)),
                ),
            )
            .expect("forward edge");
        let add2 = net
            .push_after(
                down,
                Layer::new(format!("b{block}_add2"), LayerKind::Add(norm)),
            )
            .expect("forward edge");
        net.connect(ln1, add2).expect("residual edge");
        tail = net
            .push_after(
                add2,
                Layer::new(format!("b{block}_ln2"), LayerKind::BatchNorm(norm)),
            )
            .expect("forward edge");
    }

    // Sequence pooling + classifier head.
    let pool = net
        .push_after(
            tail,
            Layer::new(
                "seq_pool",
                LayerKind::Pool(PoolParams {
                    kind: PoolKind::Average,
                    channels: hidden,
                    h_out: 1,
                    w_out: 1,
                    window: seq,
                    stride: seq.max(1),
                }),
            ),
        )
        .expect("forward edge");
    net.push_after(
        pool,
        Layer::new("classifier", LayerKind::Dense(DenseParams::new(2, hidden))),
    )
    .expect("forward edge");
    net
}

/// The bundled workload mixes for multi-DNN co-scheduling experiments.
///
/// ```
/// use mars_model::zoo::MixZoo;
///
/// for mix in MixZoo::ALL {
///     let entries = mix.entries();
///     assert!(entries.len() >= 2, "{mix} is not a mix");
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MixZoo {
    /// AlexNet (batched) + VGG-16: two classic single-trunk CNNs with
    /// comparable total demand — the lightest mix, used by the test suite.
    ClassicPair,
    /// ResNet-34 + CASIA-SURF-like: a deep trunk CNN next to a multi-branch
    /// heterogeneous model, the headline two-workload scenario.
    ResNetSurf,
    /// ResNet-34 + CASIA-SURF-like + BERT-ish: the three-way heterogeneous
    /// mix (CNN, multi-branch CNN, transformer encoder).
    HeteroTriple,
}

impl MixZoo {
    /// All bundled mixes.
    pub const ALL: [MixZoo; 3] = [
        MixZoo::ClassicPair,
        MixZoo::ResNetSurf,
        MixZoo::HeteroTriple,
    ];

    /// Display name of the mix.
    pub fn name(self) -> &'static str {
        match self {
            MixZoo::ClassicPair => "ClassicPair",
            MixZoo::ResNetSurf => "ResNetSurf",
            MixZoo::HeteroTriple => "HeteroTriple",
        }
    }

    /// The bundled online traffic profile of the mix: one
    /// [`TrafficProfile`] per [`entries`](MixZoo::entries) workload, in the
    /// same order.
    ///
    /// Rates are chosen so each workload's partition runs at moderate-to-high
    /// load under the fast-budget co-schedule placements (the regime where
    /// the dispatch policy of the serving simulator actually matters), and
    /// SLA budgets are a small multiple of the per-inference latency — tight
    /// enough that waiting a full fixed batching window can miss deadlines.
    ///
    /// ```
    /// use mars_model::zoo::MixZoo;
    ///
    /// for mix in MixZoo::ALL {
    ///     assert_eq!(mix.traffic().len(), mix.entries().len());
    /// }
    /// ```
    pub fn traffic(self) -> Vec<TrafficProfile> {
        match self {
            MixZoo::ClassicPair => vec![
                TrafficProfile::new(150.0, 5.0),
                TrafficProfile::new(14.0, 5.0),
            ],
            MixZoo::ResNetSurf => vec![
                TrafficProfile::new(60.0, 5.0),
                TrafficProfile::new(240.0, 5.0),
            ],
            MixZoo::HeteroTriple => vec![
                TrafficProfile::new(40.0, 5.0),
                TrafficProfile::new(120.0, 5.0),
                TrafficProfile::new(50.0, 5.0),
            ],
        }
    }

    /// The bundled *non-stationary* traffic scenario of the mix: three
    /// piecewise-constant [`TrafficPhase`]s over a twelve-second horizon
    /// that shift load between the workloads — a healthy warm-up, a surge
    /// that overloads exactly the partition a stationary placement sized
    /// small, and a third phase that moves the pressure elsewhere (including
    /// a workload departing entirely in the heaviest scenarios).
    ///
    /// The rates are sized against the fast-budget seed-42 placements'
    /// deadline-feasible throughput (≈ `0.8 / latency` at `sla_factor` 5 and
    /// batches of up to 8): phase 0 keeps every partition at moderate load,
    /// while each later phase pushes one workload 30–90% *past its static
    /// partition's* feasible rate yet comfortably inside what a re-balanced
    /// partition can absorb — the regime where the elastic runtime's drift
    /// monitor and re-scheduler (`mars-runtime`) pay for their migrations.
    ///
    /// ```
    /// use mars_model::zoo::MixZoo;
    ///
    /// for mix in MixZoo::ALL {
    ///     let scenario = mix.phased_traffic();
    ///     scenario.validate().unwrap();
    ///     assert_eq!(scenario.workloads(), mix.entries().len());
    ///     assert!(scenario.phases.len() >= 3);
    /// }
    /// ```
    pub fn phased_traffic(self) -> PhasedTraffic {
        let horizon = 12.0;
        let phases = match self {
            MixZoo::ClassicPair => vec![
                // Warm-up: both partitions at ~0.6x of feasible.
                TrafficPhase::new(
                    0.0,
                    vec![
                        TrafficProfile::new(45.0, 5.0),
                        TrafficProfile::new(4.5, 5.0),
                    ],
                ),
                // VGG-16 surge ~1.3x its static partition; AlexNet quiet
                // (VGG scales weakly, so the surge window is the longest).
                TrafficPhase::new(
                    4.0,
                    vec![
                        TrafficProfile::new(12.0, 5.0),
                        TrafficProfile::new(9.0, 5.0),
                    ],
                ),
                // Recovery: load drifts back to the warm-up shape.
                TrafficPhase::new(
                    9.0,
                    vec![
                        TrafficProfile::new(45.0, 5.0),
                        TrafficProfile::new(4.5, 5.0),
                    ],
                ),
            ],
            MixZoo::ResNetSurf => vec![
                // Warm-up: ResNet ~0.65x, CASIA ~0.6x of feasible.
                TrafficPhase::new(
                    0.0,
                    vec![
                        TrafficProfile::new(20.0, 5.0),
                        TrafficProfile::new(80.0, 5.0),
                    ],
                ),
                // ResNet-34 surge past its static partition; CASIA quiet.
                TrafficPhase::new(
                    4.0,
                    vec![
                        TrafficProfile::new(60.0, 5.0),
                        TrafficProfile::new(25.0, 5.0),
                    ],
                ),
                // ResNet fades, CASIA bursts (inside its static capacity —
                // an elastic runtime must shift capacity *back* here).
                TrafficPhase::new(
                    9.0,
                    vec![
                        TrafficProfile::new(8.0, 5.0),
                        TrafficProfile::new(95.0, 5.0),
                    ],
                ),
            ],
            MixZoo::HeteroTriple => vec![
                // Warm-up: every partition at ~0.6x of feasible.
                TrafficPhase::new(
                    0.0,
                    vec![
                        TrafficProfile::new(13.0, 5.0),
                        TrafficProfile::new(38.0, 5.0),
                        TrafficProfile::new(16.0, 5.0),
                    ],
                ),
                // BERT-ish surge ~1.9x its static partition; CNNs quiet
                // (BERT more than doubles its feasible rate on a bigger
                // partition — the strongest reallocation lever in the zoo).
                TrafficPhase::new(
                    4.0,
                    vec![
                        TrafficProfile::new(5.0, 5.0),
                        TrafficProfile::new(15.0, 5.0),
                        TrafficProfile::new(60.0, 5.0),
                    ],
                ),
                // BERT departs; ResNet surges ~1.4x its static partition.
                TrafficPhase::new(
                    8.0,
                    vec![
                        TrafficProfile::new(30.0, 5.0),
                        TrafficProfile::new(25.0, 5.0),
                        TrafficProfile::silent(5.0),
                    ],
                ),
            ],
        };
        PhasedTraffic::new(horizon, phases)
    }

    /// The bundled *failure* scenario of the mix: the
    /// [`phased_traffic`](MixZoo::phased_traffic) scenario with hardware
    /// [`FaultEvent`]s attached, sized for the 8-accelerator F1 platform.
    ///
    /// Each mix loses an accelerator early enough that most of the horizon
    /// is served on the degraded pool — the regime where a runtime that
    /// re-schedules onto the surviving sub-topology (Reactive, Oracle)
    /// visibly beats one that keeps dispatching to a dead partition
    /// (Static).  The scenarios also exercise the other two fault kinds:
    /// `ClassicPair` restores its accelerator late (recovery epoch),
    /// `ResNetSurf` degrades the links at failure time (pricier recovery
    /// migration), and `HeteroTriple` loses a second accelerator mid-surge.
    ///
    /// ```
    /// use mars_model::zoo::MixZoo;
    ///
    /// for mix in MixZoo::ALL {
    ///     let scenario = mix.failure_scenario();
    ///     scenario.validate().unwrap();
    ///     assert!(!scenario.faults.is_empty(), "{mix} must inject faults");
    ///     assert!(scenario.max_fault_accel().unwrap() < 8, "fits the F1 pool");
    /// }
    /// ```
    pub fn failure_scenario(self) -> PhasedTraffic {
        let faults = match self {
            // Kill an accelerator of the busy AlexNet partition during the
            // warm-up, revive it just after the recovery phase begins.
            MixZoo::ClassicPair => vec![
                FaultEvent::accel_down(2.0, 0),
                FaultEvent::accel_restored(9.5, 0),
            ],
            // Lose a CASIA accelerator as the ResNet surge begins, with the
            // interconnect simultaneously degraded to half bandwidth.
            MixZoo::ResNetSurf => vec![
                FaultEvent::link_degraded(2.5, 0.5),
                FaultEvent::accel_down(2.5, 4),
            ],
            // Two independent failures: one in the warm-up, a second during
            // the BERT surge — the pool shrinks to six accelerators.
            MixZoo::HeteroTriple => vec![
                FaultEvent::accel_down(2.0, 1),
                FaultEvent::accel_down(5.5, 6),
            ],
        };
        self.phased_traffic().with_faults(faults)
    }

    /// Builds the mix's workload entries.
    ///
    /// Weights and batches are chosen so that the entries' total demands are
    /// within a small factor of each other (see [`Workload::demand_macs`]):
    /// balanced demand is the regime where partitioned co-execution pays off.
    pub fn entries(self) -> Vec<Workload> {
        match self {
            MixZoo::ClassicPair => vec![
                entry(crate::zoo::alexnet(1000), 1.0, 16),
                entry(crate::zoo::vgg16(1000), 1.0, 1),
            ],
            MixZoo::ResNetSurf => vec![
                entry(crate::zoo::resnet34(1000), 1.0, 2),
                entry(crate::zoo::casia_surf_like(), 1.5, 8),
            ],
            MixZoo::HeteroTriple => vec![
                entry(crate::zoo::resnet34(1000), 1.0, 2),
                entry(crate::zoo::casia_surf_like(), 1.0, 8),
                entry(bert_ish(384, 6, 196), 1.1, 3),
            ],
        }
    }

    /// The fleet-scale serving scenario: 144 workloads drawn from six service
    /// classes, sized for a 288-accelerator pool (two accelerators per
    /// workload, ids `2w` and `2w + 1` — the synthetic-placement convention
    /// of `mars-serve::fleet_co_schedule`, which the fault schedule's
    /// accelerator ids also follow).
    ///
    /// Unlike the co-scheduling mixes above, the fleet scenario is *not* a
    /// `MixZoo` variant: it carries per-inference latencies directly instead
    /// of networks (searching 144 placements would dwarf the serving
    /// experiment it feeds), so it slots into the serving simulator without
    /// a co-schedule search.  Traffic runs three phases — warm-up, a surge
    /// at 1.6× rates with tightened SLAs, cool-down — and the fault schedule
    /// kills two partitions mid-surge, restoring one.
    ///
    /// ```
    /// use mars_model::zoo::MixZoo;
    ///
    /// let fleet = MixZoo::fleet();
    /// assert_eq!(fleet.names.len(), 144);
    /// assert!(2 * fleet.names.len() >= 64, "fleet pool has 64+ accelerators");
    /// fleet.traffic.validate().unwrap();
    /// assert!(fleet.traffic.max_fault_accel().unwrap() < 2 * fleet.names.len());
    /// ```
    pub fn fleet() -> FleetSpec {
        // (class, per-inference latency s, SLA weight, base qps, SLA factor)
        const CLASSES: [(&str, f64, f64, f64, f64); 6] = [
            ("resnet50", 2.4e-3, 1.0, 160.0, 5.0),
            ("bert-base", 5.6e-3, 2.0, 70.0, 4.0),
            ("mobilenet", 0.9e-3, 1.0, 420.0, 6.0),
            ("vgg16", 4.1e-3, 1.2, 90.0, 5.0),
            ("casia-surf", 1.7e-3, 1.5, 230.0, 4.5),
            ("gpt-decode", 7.3e-3, 2.5, 50.0, 3.5),
        ];
        const WORKLOADS: usize = 144;
        let mut names = Vec::with_capacity(WORKLOADS);
        let mut weights = Vec::with_capacity(WORKLOADS);
        let mut latencies = Vec::with_capacity(WORKLOADS);
        let mut base = Vec::with_capacity(WORKLOADS);
        let mut surge = Vec::with_capacity(WORKLOADS);
        let mut cool = Vec::with_capacity(WORKLOADS);
        for w in 0..WORKLOADS {
            let (class, latency, weight, qps, sla) = CLASSES[w % CLASSES.len()];
            // Replicas of a class get slightly slower, lighter-traffic
            // instances (older hardware tiers), so lanes never collapse
            // into identical copies of each other.
            let tier = (w / CLASSES.len()) as f64;
            let latency = latency * (1.0 + 0.06 * tier);
            let qps = qps / (1.0 + 0.08 * tier);
            names.push(format!("{class}-{w:02}"));
            weights.push(weight);
            latencies.push(latency);
            base.push(TrafficProfile::new(qps, sla));
            surge.push(TrafficProfile::new(qps * 1.6, sla * 0.8));
            cool.push(TrafficProfile::new(qps * 0.7, sla));
        }
        let traffic = PhasedTraffic::new(
            8.0,
            vec![
                TrafficPhase::new(0.0, base),
                TrafficPhase::new(2.5, surge),
                TrafficPhase::new(5.5, cool),
            ],
        )
        .with_faults(vec![
            // Workload 1 (bert-base-01) loses an accelerator in the warm-up
            // and gets it back during the cool-down.
            FaultEvent::accel_down(1.5, 3),
            // Workloads 20, 125 and 45 (the classes cycle) die mid-surge
            // and never recover — the third sits deep in the pool, so the
            // fault path is exercised well past the first 96 accelerators.
            FaultEvent::accel_down(3.25, 40),
            FaultEvent::accel_down(4.0, 250),
            FaultEvent::accel_down(4.75, 91),
            FaultEvent::accel_restored(6.0, 3),
        ]);
        FleetSpec {
            names,
            weights,
            latencies_seconds: latencies,
            traffic,
        }
    }
}

/// The fleet-scale serving scenario built by [`MixZoo::fleet`]: per-workload
/// service parameters (name, SLA weight, per-inference latency) plus the
/// phased traffic and fault schedule, with all vectors indexed by workload.
///
/// Latencies are carried directly — there is no network or mapping search
/// behind a fleet workload — so the serving layer can synthesise placements
/// for any accelerator pool without running the co-scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    /// Display name per workload (`class-index`).
    pub names: Vec<String>,
    /// SLA weight per workload (drives the `SlaWeighted` dispatch margin).
    pub weights: Vec<f64>,
    /// Per-inference latency per workload, seconds.
    pub latencies_seconds: Vec<f64>,
    /// The phased traffic (rates and SLA factors per phase) and the fault
    /// schedule, over the scenario's horizon.
    pub traffic: PhasedTraffic,
}

impl std::fmt::Display for MixZoo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bert_ish_is_a_valid_transformer_shaped_graph() {
        let net = bert_ish(384, 6, 196);
        net.validate().unwrap();
        assert_eq!(net.name(), "BERT-ish");
        // Embedding + 6 blocks x 6 matmuls + classifier.
        assert_eq!(net.compute_layers().count(), 1 + 6 * 6 + 1);
        // Residual adds make it non-linear: some layer has two predecessors.
        let has_residual = net.iter().any(|(id, _)| net.predecessors(id).len() == 2);
        assert!(has_residual);
    }

    #[test]
    fn bert_ish_macs_scale_with_depth_and_width() {
        let small = bert_ish(256, 2, 128);
        let deep = bert_ish(256, 4, 128);
        let wide = bert_ish(512, 2, 128);
        assert!(deep.total_macs() > small.total_macs());
        assert!(wide.total_macs() > small.total_macs());
        // The default mix instance sits between AlexNet and VGG-16.
        let default = bert_ish(384, 6, 196);
        assert!(default.total_macs() > crate::zoo::alexnet(1000).total_macs());
        assert!(default.total_macs() < crate::zoo::vgg16(1000).total_macs());
    }

    #[test]
    fn all_mixes_hold_valid_distinct_networks() {
        for mix in MixZoo::ALL {
            let entries = mix.entries();
            assert!(entries.len() >= 2, "{mix} must hold at least two workloads");
            let mut names: Vec<&str> = entries.iter().map(|e| e.network.name()).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), entries.len(), "{mix} repeats a network");
            for e in &entries {
                e.network.validate().unwrap();
                assert!(e.weight > 0.0 && e.weight.is_finite());
                assert!(e.batch >= 1);
                assert!(e.demand_macs() > 0);
            }
        }
    }

    #[test]
    fn mix_demands_are_balanced_within_a_small_factor() {
        for mix in MixZoo::ALL {
            let demands: Vec<u64> = mix.entries().iter().map(Workload::demand_macs).collect();
            let min = *demands.iter().min().unwrap() as f64;
            let max = *demands.iter().max().unwrap() as f64;
            assert!(
                max / min < 3.0,
                "{mix} demands unbalanced: {demands:?} (ratio {:.2})",
                max / min
            );
        }
    }

    #[test]
    fn traffic_profiles_align_with_entries_and_are_positive() {
        for mix in MixZoo::ALL {
            let profiles = mix.traffic();
            assert_eq!(profiles.len(), mix.entries().len(), "{mix}");
            for p in &profiles {
                assert!(p.qps > 0.0 && p.qps.is_finite());
                assert!(p.sla_factor > 1.0, "SLA must leave room for one inference");
            }
        }
    }

    #[test]
    fn phased_traffic_warms_up_and_then_drifts() {
        for mix in MixZoo::ALL {
            let scenario = mix.phased_traffic();
            scenario.validate().unwrap();
            assert_eq!(scenario.workloads(), mix.entries().len(), "{mix}");
            // Phase 0 is a live (non-silent) warm-up for every workload...
            assert!(
                scenario.phases[0].profiles.iter().all(|p| !p.is_silent()),
                "{mix} warm-up must exercise every workload"
            );
            // ...and at least one later phase shifts the rates.
            assert!(
                scenario
                    .phases
                    .iter()
                    .skip(1)
                    .any(|p| p.profiles != scenario.phases[0].profiles),
                "{mix} never drifts"
            );
            assert!(!scenario.boundaries().is_empty(), "{mix}");
        }
    }

    #[test]
    fn mix_names_are_unique_and_display() {
        let mut names: Vec<&str> = MixZoo::ALL.iter().map(|m| m.name()).collect();
        assert_eq!(names.len(), 3);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 3);
        assert_eq!(MixZoo::ClassicPair.to_string(), "ClassicPair");
    }
}
