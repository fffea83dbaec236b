//! Residual network builders (ResNet-18/34/50/101 and WideResNet-50-2).
//!
//! The builders follow the torchvision reference architectures so that the
//! parameter and MAC totals match the figures the paper quotes in Table III.
//! Projection shortcuts (1×1 convolutions on the identity path) are included
//! in the graph; the paper's `#Convs` column excludes them, so ResNet-34
//! holds 36 convolutions here against the paper's 33.

use crate::graph::{LayerId, Network};
use crate::layer::{
    ConvParams, DenseParams, Layer, LayerKind, NormActParams, PoolKind, PoolParams,
};
use crate::tensor::FeatureMap;

/// Configuration of one stage of basic (two 3×3 convolution) residual blocks.
struct BasicBlockConfig {
    /// Output channels of every block in the stage.
    channels: usize,
    /// Number of blocks.
    blocks: usize,
    /// Stride of the first block (2 for a down-sampling stage).
    stride: usize,
}

/// Configuration of one stage of bottleneck (1×1 → 3×3 → 1×1) residual blocks.
struct BottleneckConfig {
    /// Channels of the inner 3×3 convolution.
    mid_channels: usize,
    /// Output channels of the block (the 1×1 expansion).
    out_channels: usize,
    /// Number of blocks.
    blocks: usize,
    /// Stride of the first block.
    stride: usize,
}

/// Incremental residual-network builder behind the constructors below.
///
/// Tracks the current tail layer and activation shape, and provides block- and
/// stage-level push operations.
#[derive(Debug)]
struct ResNetBuilder {
    net: Network,
    tail: LayerId,
    shape: FeatureMap,
}

impl ResNetBuilder {
    /// Starts a residual network with the standard 7×7/stride-2 stem and
    /// 3×3/stride-2 max pooling, for a `224×224×3` input.
    fn with_stem(name: impl Into<String>) -> Self {
        let mut net = Network::new(name);
        let stem_conv = ConvParams::new(64, 3, 112, 112, 7, 2);
        let conv1 = net.add_layer(Layer::new("conv1", LayerKind::Conv(stem_conv)));
        let bn1 = net
            .push_after(
                conv1,
                Layer::new(
                    "bn1",
                    LayerKind::BatchNorm(NormActParams {
                        shape: stem_conv.output_shape(),
                    }),
                ),
            )
            .expect("forward edge");
        let relu1 = net
            .push_after(
                bn1,
                Layer::new(
                    "relu1",
                    LayerKind::Activation(NormActParams {
                        shape: stem_conv.output_shape(),
                    }),
                ),
            )
            .expect("forward edge");
        let pool = net
            .push_after(
                relu1,
                Layer::new(
                    "maxpool",
                    LayerKind::Pool(PoolParams {
                        kind: PoolKind::Max,
                        channels: 64,
                        h_out: 56,
                        w_out: 56,
                        window: 3,
                        stride: 2,
                    }),
                ),
            )
            .expect("forward edge");
        Self {
            net,
            tail: pool,
            shape: FeatureMap::new(64, 56, 56),
        }
    }

    fn push(&mut self, layer: Layer) -> LayerId {
        let id = self
            .net
            .push_after(self.tail, layer)
            .expect("builder edges are always forward");
        self.tail = id;
        id
    }

    fn conv_bn(&mut self, name: &str, conv: ConvParams, relu: bool) {
        self.push(Layer::new(name, LayerKind::Conv(conv)));
        let shape = conv.output_shape();
        self.push(Layer::new(
            format!("{name}_bn"),
            LayerKind::BatchNorm(NormActParams { shape }),
        ));
        if relu {
            self.push(Layer::new(
                format!("{name}_relu"),
                LayerKind::Activation(NormActParams { shape }),
            ));
        }
        self.shape = shape;
    }

    /// Appends one basic residual block (two 3×3 convolutions).
    fn basic_block(&mut self, name: &str, channels: usize, stride: usize) {
        let entry = self.tail;
        let in_shape = self.shape;
        let h_out = in_shape.height / stride;
        let w_out = in_shape.width / stride;

        self.conv_bn(
            &format!("{name}_conv1"),
            ConvParams::new(channels, in_shape.channels, h_out, w_out, 3, stride),
            true,
        );
        self.conv_bn(
            &format!("{name}_conv2"),
            ConvParams::new(channels, channels, h_out, w_out, 3, 1),
            false,
        );
        let main_tail = self.tail;

        let shortcut_tail = if stride != 1 || in_shape.channels != channels {
            // Projection shortcut.
            let proj = self
                .net
                .push_after(
                    entry,
                    Layer::new(
                        format!("{name}_downsample"),
                        LayerKind::Conv(ConvParams::new(
                            channels,
                            in_shape.channels,
                            h_out,
                            w_out,
                            1,
                            stride,
                        )),
                    ),
                )
                .expect("forward edge");
            self.net
                .push_after(
                    proj,
                    Layer::new(
                        format!("{name}_downsample_bn"),
                        LayerKind::BatchNorm(NormActParams {
                            shape: FeatureMap::new(channels, h_out, w_out),
                        }),
                    ),
                )
                .expect("forward edge")
        } else {
            entry
        };

        let add = self.net.add_layer(Layer::new(
            format!("{name}_add"),
            LayerKind::Add(NormActParams {
                shape: FeatureMap::new(channels, h_out, w_out),
            }),
        ));
        self.net.connect(main_tail, add).expect("forward edge");
        self.net.connect(shortcut_tail, add).expect("forward edge");
        self.tail = add;
        self.push(Layer::new(
            format!("{name}_relu_out"),
            LayerKind::Activation(NormActParams {
                shape: FeatureMap::new(channels, h_out, w_out),
            }),
        ));
        self.shape = FeatureMap::new(channels, h_out, w_out);
    }

    /// Appends one bottleneck residual block (1×1 → 3×3 → 1×1 convolutions).
    fn bottleneck_block(
        &mut self,
        name: &str,
        mid_channels: usize,
        out_channels: usize,
        stride: usize,
    ) {
        let entry = self.tail;
        let in_shape = self.shape;
        let h_out = in_shape.height / stride;
        let w_out = in_shape.width / stride;

        self.conv_bn(
            &format!("{name}_conv1"),
            ConvParams::new(
                mid_channels,
                in_shape.channels,
                in_shape.height,
                in_shape.width,
                1,
                1,
            ),
            true,
        );
        self.conv_bn(
            &format!("{name}_conv2"),
            ConvParams::new(mid_channels, mid_channels, h_out, w_out, 3, stride),
            true,
        );
        self.conv_bn(
            &format!("{name}_conv3"),
            ConvParams::new(out_channels, mid_channels, h_out, w_out, 1, 1),
            false,
        );
        let main_tail = self.tail;

        let shortcut_tail = if stride != 1 || in_shape.channels != out_channels {
            let proj = self
                .net
                .push_after(
                    entry,
                    Layer::new(
                        format!("{name}_downsample"),
                        LayerKind::Conv(ConvParams::new(
                            out_channels,
                            in_shape.channels,
                            h_out,
                            w_out,
                            1,
                            stride,
                        )),
                    ),
                )
                .expect("forward edge");
            self.net
                .push_after(
                    proj,
                    Layer::new(
                        format!("{name}_downsample_bn"),
                        LayerKind::BatchNorm(NormActParams {
                            shape: FeatureMap::new(out_channels, h_out, w_out),
                        }),
                    ),
                )
                .expect("forward edge")
        } else {
            entry
        };

        let add = self.net.add_layer(Layer::new(
            format!("{name}_add"),
            LayerKind::Add(NormActParams {
                shape: FeatureMap::new(out_channels, h_out, w_out),
            }),
        ));
        self.net.connect(main_tail, add).expect("forward edge");
        self.net.connect(shortcut_tail, add).expect("forward edge");
        self.tail = add;
        self.push(Layer::new(
            format!("{name}_relu_out"),
            LayerKind::Activation(NormActParams {
                shape: FeatureMap::new(out_channels, h_out, w_out),
            }),
        ));
        self.shape = FeatureMap::new(out_channels, h_out, w_out);
    }

    /// Appends a stage of basic blocks.
    fn basic_stage(&mut self, stage_name: &str, cfg: BasicBlockConfig) {
        for b in 0..cfg.blocks {
            let stride = if b == 0 { cfg.stride } else { 1 };
            self.basic_block(&format!("{stage_name}_{b}"), cfg.channels, stride);
        }
    }

    /// Appends a stage of bottleneck blocks.
    fn bottleneck_stage(&mut self, stage_name: &str, cfg: BottleneckConfig) {
        for b in 0..cfg.blocks {
            let stride = if b == 0 { cfg.stride } else { 1 };
            self.bottleneck_block(
                &format!("{stage_name}_{b}"),
                cfg.mid_channels,
                cfg.out_channels,
                stride,
            );
        }
    }

    /// Appends global average pooling and the final classifier, then returns
    /// the finished network.
    fn finish_with_classifier(mut self, classes: usize) -> Network {
        let shape = self.shape;
        self.push(Layer::new(
            "avgpool",
            LayerKind::Pool(PoolParams {
                kind: PoolKind::Average,
                channels: shape.channels,
                h_out: 1,
                w_out: 1,
                window: shape.height,
                stride: shape.height,
            }),
        ));
        self.push(Layer::new(
            "fc",
            LayerKind::Dense(DenseParams::new(classes, shape.channels)),
        ));
        self.net
    }
}

fn basic_resnet(name: &str, blocks: [usize; 4], classes: usize) -> Network {
    let mut b = ResNetBuilder::with_stem(name);
    let channels = [64, 128, 256, 512];
    for (i, (&ch, &n)) in channels.iter().zip(blocks.iter()).enumerate() {
        b.basic_stage(
            &format!("layer{}", i + 1),
            BasicBlockConfig {
                channels: ch,
                blocks: n,
                stride: if i == 0 { 1 } else { 2 },
            },
        );
    }
    b.finish_with_classifier(classes)
}

fn bottleneck_resnet(name: &str, blocks: [usize; 4], width: usize, classes: usize) -> Network {
    let mut b = ResNetBuilder::with_stem(name);
    let base_mid = [64 * width, 128 * width, 256 * width, 512 * width];
    let out = [256, 512, 1024, 2048];
    for i in 0..4 {
        b.bottleneck_stage(
            &format!("layer{}", i + 1),
            BottleneckConfig {
                mid_channels: base_mid[i],
                out_channels: out[i],
                blocks: blocks[i],
                stride: if i == 0 { 1 } else { 2 },
            },
        );
    }
    b.finish_with_classifier(classes)
}

/// ResNet-18.
pub fn resnet18(classes: usize) -> Network {
    basic_resnet("ResNet18", [2, 2, 2, 2], classes)
}

/// ResNet-34 (Table III row 3: ~21.8 M parameters, ~3.68 G MACs).
pub fn resnet34(classes: usize) -> Network {
    basic_resnet("ResNet34", [3, 4, 6, 3], classes)
}

/// ResNet-101 (Table III row 4: ~44.5 M parameters, ~7.85 G MACs).
pub fn resnet101(classes: usize) -> Network {
    bottleneck_resnet("ResNet101", [3, 4, 23, 3], 1, classes)
}

/// WideResNet-50-2 (Table III row 5: ~68.8 M parameters, ~11.4 G MACs).
///
/// The inner 3×3 convolution of every bottleneck is twice as wide as in
/// ResNet-50, while the block output widths are unchanged.
pub fn wide_resnet50_2(classes: usize) -> Network {
    bottleneck_resnet("WRN-50-2", [3, 4, 6, 3], 2, classes)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// ResNet-50: checked against its published size, and the baseline
    /// WRN-50-2 widens.
    fn resnet50(classes: usize) -> Network {
        bottleneck_resnet("ResNet50", [3, 4, 6, 3], 1, classes)
    }

    #[test]
    fn resnet18_structure() {
        let net = resnet18(1000);
        net.validate().unwrap();
        // 1 stem + 16 block convs + 3 projections = 20.
        assert_eq!(net.conv_layers().count(), 20);
        let p = net.total_params() as f64 / 1e6;
        assert!((p - 11.7).abs() < 1.0, "params {p}M");
    }

    #[test]
    fn resnet50_structure() {
        let net = resnet50(1000);
        net.validate().unwrap();
        assert_eq!(net.conv_layers().count(), 53);
        let p = net.total_params() as f64 / 1e6;
        assert!((p - 25.6).abs() < 1.5, "params {p}M");
        let m = net.total_macs() as f64 / 1e9;
        assert!((m - 4.1).abs() < 0.4, "macs {m}G");
    }

    #[test]
    fn bottleneck_widths_double_in_wrn() {
        let wrn = wide_resnet50_2(1000);
        let r50 = resnet50(1000);
        // Same conv count, roughly 2.7x the parameters (68.8M vs 25.6M) and
        // 2.8x the MACs (11.4G vs 4.1G).
        assert_eq!(wrn.conv_layers().count(), r50.conv_layers().count());
        assert!(wrn.total_params() > 2 * r50.total_params());
        assert!(wrn.total_macs() > 2 * r50.total_macs());
    }

    #[test]
    fn residual_blocks_have_two_predecessor_adds() {
        let net = resnet34(1000);
        let adds: Vec<_> = net
            .iter()
            .filter(|(_, l)| matches!(l.kind, LayerKind::Add(_)))
            .collect();
        assert_eq!(adds.len(), 16);
        for (id, _) in adds {
            assert_eq!(net.predecessors(id).len(), 2, "add {id} needs 2 inputs");
        }
    }

    #[test]
    fn spatial_resolution_decreases_with_depth() {
        let net = resnet101(1000);
        let convs: Vec<ConvParams> = net
            .conv_layers()
            .map(|(_, l)| l.as_conv().unwrap())
            .collect();
        assert_eq!(convs.first().unwrap().h_out, 112);
        assert_eq!(convs.last().unwrap().h_out, 7);
    }

    #[test]
    fn resnet101_has_many_pointwise_convs() {
        let net = resnet101(1000);
        let pointwise = net
            .conv_layers()
            .filter(|(_, l)| l.as_conv().unwrap().is_pointwise())
            .count();
        // Two 1x1 convs per bottleneck block (plus projections) dominate.
        assert!(pointwise > 60);
    }
}
