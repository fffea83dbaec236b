//! Model zoo: builders for every network used in the paper's evaluation.
//!
//! * Classic CNNs (Table III): [`alexnet`], [`vgg16`].
//! * Residual networks (Table III): [`resnet34`], [`resnet101`],
//!   [`wide_resnet50_2`] (plus [`resnet18`] for convenience).
//! * Heterogeneous multi-branch models (Table IV): [`casia_surf_like`] and
//!   [`facebagnet_like`].
//! * Multi-workload mixes for the co-scheduler ([`MixZoo`]), including a
//!   transformer-shaped BERT-style encoder.
//!
//! All builders produce [`Network`]s whose parameter and MAC totals match the
//! figures reported in the paper's Table III: within 5% for VGG16 and the
//! residual networks, within 10% for AlexNet, as this module's tests check.
//! The graphs include batch-norm,
//! activation, pooling and element-wise layers so that activation traffic is
//! accounted for, but only convolution / fully-connected layers carry
//! significant compute.

mod classic;
mod hetero;
mod llm;
mod mix;
mod resnet;

pub use classic::{alexnet, vgg16};
pub use hetero::{casia_surf_like, facebagnet_like};
pub use llm::{llm_mix, LlmSpec, LlmWorkload};
pub use mix::{FleetSpec, MixZoo};
pub use resnet::{resnet101, resnet18, resnet34, wide_resnet50_2};

use crate::Network;

/// Convenience enumeration of the Table III benchmark networks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// AlexNet (5 convolutions).
    AlexNet,
    /// VGG-16 (13 convolutions).
    Vgg16,
    /// ResNet-34.
    ResNet34,
    /// ResNet-101.
    ResNet101,
    /// WideResNet-50-2.
    WideResNet50_2,
}

impl Benchmark {
    /// All Table III benchmarks in paper order.
    pub const ALL: [Benchmark; 5] = [
        Benchmark::AlexNet,
        Benchmark::Vgg16,
        Benchmark::ResNet34,
        Benchmark::ResNet101,
        Benchmark::WideResNet50_2,
    ];

    /// Builds the benchmark network with 1000 output classes.
    pub fn build(self) -> Network {
        match self {
            Benchmark::AlexNet => alexnet(1000),
            Benchmark::Vgg16 => vgg16(1000),
            Benchmark::ResNet34 => resnet34(1000),
            Benchmark::ResNet101 => resnet101(1000),
            Benchmark::WideResNet50_2 => wide_resnet50_2(1000),
        }
    }

    /// Paper-facing display name.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::AlexNet => "AlexNet",
            Benchmark::Vgg16 => "VGG16",
            Benchmark::ResNet34 => "ResNet34",
            Benchmark::ResNet101 => "ResNet101",
            Benchmark::WideResNet50_2 => "WRN-50-2",
        }
    }
}

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Expected (#params, MACs) per Table III, with a tolerance: the paper
    /// rounds and counts auxiliary layers slightly differently.
    fn check(net: &Network, params_m: f64, macs_g: f64, tol: f64) {
        let p = net.total_params() as f64 / 1e6;
        let m = net.total_macs() as f64 / 1e9;
        assert!(
            (p - params_m).abs() / params_m < tol,
            "{}: params {:.2}M, expected ~{:.2}M",
            net.name(),
            p,
            params_m
        );
        assert!(
            (m - macs_g).abs() / macs_g < tol,
            "{}: MACs {:.3}G, expected ~{:.3}G",
            net.name(),
            m,
            macs_g
        );
    }

    #[test]
    fn alexnet_matches_table3() {
        let net = alexnet(1000);
        assert_eq!(net.conv_layers().count(), 5);
        check(&net, 61.1, 0.727, 0.10);
        net.validate().unwrap();
    }

    #[test]
    fn vgg16_matches_table3() {
        let net = vgg16(1000);
        assert_eq!(net.conv_layers().count(), 13);
        check(&net, 138.0, 15.5, 0.05);
        net.validate().unwrap();
    }

    #[test]
    fn resnet34_matches_table3() {
        let net = resnet34(1000);
        // The paper counts 33 convolutions (it excludes the 3 projection
        // shortcuts); the graph itself contains 36.
        assert_eq!(net.conv_layers().count(), 36);
        check(&net, 21.8, 3.68, 0.05);
        net.validate().unwrap();
    }

    #[test]
    fn resnet101_matches_table3() {
        let net = resnet101(1000);
        // 100 convolutions in the residual trunk + 4 projection shortcuts.
        assert_eq!(net.conv_layers().count(), 104);
        check(&net, 44.55, 7.85, 0.05);
        net.validate().unwrap();
    }

    #[test]
    fn wide_resnet50_2_matches_table3() {
        let net = wide_resnet50_2(1000);
        // 49 convolutions in the trunk + 4 projection shortcuts.
        assert_eq!(net.conv_layers().count(), 53);
        check(&net, 68.8, 11.4, 0.05);
        net.validate().unwrap();
    }

    #[test]
    fn heterogeneous_models_are_multibranch() {
        let surf = casia_surf_like();
        let bag = facebagnet_like();
        surf.validate().unwrap();
        bag.validate().unwrap();
        // Both have three independent source branches (one per modality).
        assert_eq!(surf.sources().len(), 3);
        assert_eq!(bag.sources().len(), 3);
        // FaceBagNet-like is the heavier of the two (as in Table IV, where its
        // latencies are higher at every bandwidth).
        assert!(bag.total_macs() > surf.total_macs());
    }

    #[test]
    fn benchmark_enum_builds_all() {
        for b in Benchmark::ALL {
            let net = b.build();
            assert!(!net.is_empty(), "{b} is empty");
            assert!(net.total_macs() > 0);
            assert_eq!(net.name(), b.name());
        }
    }
}
