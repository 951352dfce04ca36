//! The 14 benchmark DNN models of the paper's evaluation (Table III),
//! described layer-by-layer.
//!
//! The paper evaluates the SCALE-Sim topology suite: GoogleNet, MobileNet,
//! Yolo-tiny, AlexNet, FasterRCNN, DeepFace, ResNet50, MelodyExtraction,
//! Text-generation, AlphaGoZero, Sentimental-seqCNN, DeepSpeech2,
//! Transformer, and NCF. We re-describe each network from its published
//! architecture; recurrent layers are lowered to batched matrix multiplies
//! (the simulated NPU processes "convolution, fully-connected, matrix-matrix
//! multiplication, and matrix-vector multiplication", §V-A), and embedding
//! layers become row *gathers* — the fine-grained, low-spatial-locality
//! access pattern that makes `sent` and `tf` the stress cases of Figs. 4/5.
//!
//! Every layer exposes its GEMM lowering ([`LayerKind::gemm`]) and its
//! tensor sizes, from which the NPU simulator derives tiling, traffic and
//! compute cycles, and [`Model::footprint_bytes`] reproduces the *Mem
//! Footprint* column of Table III.

pub mod builder;
pub mod defs;
pub mod registry;

pub use builder::ModelBuilder;

/// Bytes per tensor element — the paper evaluates Float16 (Table II).
pub const ELEM_BYTES: u64 = 2;

/// GEMM dimensions of a layer after lowering: `C[M×N] = A[M×K] × B[K×N]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gemm {
    /// Output rows (spatial positions / batch).
    pub m: u64,
    /// Reduction dimension.
    pub k: u64,
    /// Output columns (output channels / features).
    pub n: u64,
}

impl Gemm {
    /// Multiply-accumulate count.
    #[must_use]
    pub fn macs(&self) -> u64 {
        self.m * self.k * self.n
    }
}

/// Where a layer's activation input comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TensorSource {
    /// The model's external input tensor.
    ModelInput,
    /// The output of an earlier layer (by index).
    Layer(usize),
}

/// The shape/kind of one layer.
///
/// All spatial fields are in elements; all layers compute in Float16
/// ([`ELEM_BYTES`] per element).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerKind {
    /// 2-D convolution, lowered by on-the-fly im2col (the simulated NPU has
    /// a hardware im2col block, §V-A).
    Conv {
        /// Input channels.
        in_c: u64,
        /// Input height.
        in_h: u64,
        /// Input width.
        in_w: u64,
        /// Output channels.
        out_c: u64,
        /// Kernel height.
        kh: u64,
        /// Kernel width.
        kw: u64,
        /// Stride (same in both dims).
        stride: u64,
        /// Zero padding (same on all sides).
        pad: u64,
    },
    /// Depthwise convolution (one filter per channel).
    DwConv {
        /// Channels.
        c: u64,
        /// Input height.
        in_h: u64,
        /// Input width.
        in_w: u64,
        /// Kernel size (square).
        k: u64,
        /// Stride.
        stride: u64,
        /// Padding.
        pad: u64,
    },
    /// Fully-connected layer over a batch.
    Fc {
        /// Input features.
        in_f: u64,
        /// Output features.
        out_f: u64,
        /// Batch size (rows).
        batch: u64,
    },
    /// General matrix multiply with explicit dimensions (used for attention
    /// and for recurrent layers lowered to batched GEMMs).
    MatMul {
        /// Rows of the activation operand.
        m: u64,
        /// Reduction dimension.
        k: u64,
        /// Columns of the weight operand.
        n: u64,
    },
    /// Embedding lookup: gather `seq` rows of `dim` elements from a
    /// `vocab × dim` table at data-dependent (pseudo-random) rows.
    Embedding {
        /// Table rows.
        vocab: u64,
        /// Table columns (row length in elements).
        dim: u64,
        /// Number of lookups.
        seq: u64,
    },
    /// Elementwise binary op (residual add): reads two tensors of the same
    /// shape, writes one.
    Eltwise {
        /// Channels.
        c: u64,
        /// Height.
        h: u64,
        /// Width.
        w: u64,
    },
    /// Max/avg pooling.
    Pool {
        /// Channels.
        c: u64,
        /// Input height.
        in_h: u64,
        /// Input width.
        in_w: u64,
        /// Window (square).
        k: u64,
        /// Stride.
        stride: u64,
    },
    /// Channel concatenation of several branch outputs (inception modules).
    /// Zero-cost in the simulator: branches write into adjacent buffers.
    Concat {
        /// Output channels (sum of branch channels).
        c: u64,
        /// Height.
        h: u64,
        /// Width.
        w: u64,
    },
}

impl LayerKind {
    fn conv_out(in_dim: u64, k: u64, stride: u64, pad: u64) -> u64 {
        // Saturate for windows larger than the input (global pooling,
        // pooling over a singleton dimension): output one position.
        (in_dim + 2 * pad).saturating_sub(k) / stride + 1
    }

    /// Output shape as `(channels, height, width)`; 1-D shapes use
    /// `(features, rows, 1)`.
    #[must_use]
    pub fn out_shape(&self) -> (u64, u64, u64) {
        match *self {
            LayerKind::Conv {
                in_h,
                in_w,
                out_c,
                kh,
                kw,
                stride,
                pad,
                ..
            } => (
                out_c,
                Self::conv_out(in_h, kh, stride, pad),
                Self::conv_out(in_w, kw, stride, pad),
            ),
            LayerKind::DwConv {
                c,
                in_h,
                in_w,
                k,
                stride,
                pad,
            } => (
                c,
                Self::conv_out(in_h, k, stride, pad),
                Self::conv_out(in_w, k, stride, pad),
            ),
            LayerKind::Fc { out_f, batch, .. } => (out_f, batch, 1),
            LayerKind::MatMul { m, n, .. } => (n, m, 1),
            LayerKind::Embedding { dim, seq, .. } => (dim, seq, 1),
            LayerKind::Eltwise { c, h, w } => (c, h, w),
            LayerKind::Pool {
                c,
                in_h,
                in_w,
                k,
                stride,
            } => (
                c,
                Self::conv_out(in_h, k, stride, 0),
                Self::conv_out(in_w, k, stride, 0),
            ),
            LayerKind::Concat { c, h, w } => (c, h, w),
        }
    }

    /// Output tensor size in elements.
    #[must_use]
    pub fn out_elements(&self) -> u64 {
        let (c, h, w) = self.out_shape();
        c * h * w
    }

    /// Activation-input size in elements (per input tensor).
    #[must_use]
    pub fn in_elements(&self) -> u64 {
        match *self {
            LayerKind::Conv {
                in_c, in_h, in_w, ..
            } => in_c * in_h * in_w,
            LayerKind::DwConv { c, in_h, in_w, .. } => c * in_h * in_w,
            LayerKind::Fc { in_f, batch, .. } => in_f * batch,
            LayerKind::MatMul { m, k, .. } => m * k,
            // Embedding's data-dependent *indices* are the activation input;
            // the table itself counts as the weight tensor.
            LayerKind::Embedding { seq, .. } => seq,
            LayerKind::Eltwise { c, h, w } => c * h * w,
            LayerKind::Pool { c, in_h, in_w, .. } => c * in_h * in_w,
            // Concat moves no data of its own; inputs are accounted at
            // their producers.
            LayerKind::Concat { .. } => 0,
        }
    }

    /// Weight/parameter tensor size in elements (zero for layers without
    /// parameters).
    #[must_use]
    pub fn weight_elements(&self) -> u64 {
        match *self {
            LayerKind::Conv {
                in_c,
                out_c,
                kh,
                kw,
                ..
            } => in_c * out_c * kh * kw,
            LayerKind::DwConv { c, k, .. } => c * k * k,
            LayerKind::Fc { in_f, out_f, .. } => in_f * out_f,
            LayerKind::MatMul { k, n, .. } => k * n,
            LayerKind::Embedding { vocab, dim, .. } => vocab * dim,
            LayerKind::Eltwise { .. } | LayerKind::Pool { .. } | LayerKind::Concat { .. } => 0,
        }
    }

    /// The GEMM this layer lowers to, if it is matrix-multiply shaped.
    #[must_use]
    pub fn gemm(&self) -> Option<Gemm> {
        match *self {
            LayerKind::Conv {
                in_c,
                out_c,
                kh,
                kw,
                ..
            } => {
                let (_, oh, ow) = self.out_shape();
                Some(Gemm {
                    m: oh * ow,
                    k: in_c * kh * kw,
                    n: out_c,
                })
            }
            // Depthwise conv: per-channel K = k*k GEMMs; expressed as one
            // GEMM with the channel count folded into M (array-utilization
            // is handled by the systolic model's folding).
            LayerKind::DwConv { c, k, .. } => {
                let (_, oh, ow) = self.out_shape();
                Some(Gemm {
                    m: oh * ow * c,
                    k: k * k,
                    n: 1,
                })
            }
            LayerKind::Fc { in_f, out_f, batch } => Some(Gemm {
                m: batch,
                k: in_f,
                n: out_f,
            }),
            LayerKind::MatMul { m, k, n } => Some(Gemm { m, k, n }),
            LayerKind::Embedding { .. }
            | LayerKind::Eltwise { .. }
            | LayerKind::Pool { .. }
            | LayerKind::Concat { .. } => None,
        }
    }

    /// Multiply-accumulate count (zero for data-movement layers).
    #[must_use]
    pub fn macs(&self) -> u64 {
        self.gemm().map_or(0, |g| g.macs())
    }
}

/// A named layer with its data-flow inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layer {
    /// Layer name (unique within the model).
    pub name: String,
    /// Shape/kind.
    pub kind: LayerKind,
    /// Activation inputs ([`TensorSource::Layer`] indices must be earlier
    /// layers). Most layers have one; `Eltwise` has two, `Concat` several.
    pub inputs: Vec<TensorSource>,
    /// If set, this layer reuses the weight tensor of the referenced
    /// earlier layer (tied weights, e.g. a transformer's output projection
    /// sharing its embedding table). The shared tensor is counted once in
    /// the footprint and allocated once by the runtime.
    pub weights_shared_with: Option<usize>,
}

/// A benchmark network: an ordered list of layers forming a DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Model {
    /// Short name used in the paper's figures (e.g. `"res"`).
    pub name: String,
    /// Full name (e.g. `"ResNet50"`).
    pub full_name: String,
    /// Model-input tensor size in elements.
    pub input_elements: u64,
    /// Layers in topological order.
    pub layers: Vec<Layer>,
}

impl Model {
    /// Total memory footprint in bytes: model input + every layer's
    /// parameters + every layer's output tensor (each tensor counted once)
    /// — the accounting of Table III ("ifmap, ofmap, and model
    /// parameters").
    #[must_use]
    pub fn footprint_bytes(&self) -> u64 {
        let mut bytes = self.input_elements * ELEM_BYTES;
        for layer in &self.layers {
            let weights = if layer.weights_shared_with.is_some() {
                0
            } else {
                layer.kind.weight_elements()
            };
            bytes += (weights + layer.kind.out_elements()) * ELEM_BYTES;
        }
        bytes
    }

    /// Total multiply-accumulates for one inference.
    #[must_use]
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(|l| l.kind.macs()).sum()
    }

    /// Validate the data-flow graph: inputs reference earlier layers only,
    /// `Eltwise` has two inputs and they agree in size, everything else has
    /// one.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        for (i, layer) in self.layers.iter().enumerate() {
            match layer.kind {
                LayerKind::Eltwise { .. } if layer.inputs.len() != 2 => {
                    return Err(format!(
                        "layer {i} ({}) eltwise needs 2 inputs, has {}",
                        layer.name,
                        layer.inputs.len()
                    ));
                }
                LayerKind::Concat { .. } if layer.inputs.len() < 2 => {
                    return Err(format!(
                        "layer {i} ({}) concat needs >= 2 inputs, has {}",
                        layer.name,
                        layer.inputs.len()
                    ));
                }
                LayerKind::Eltwise { .. } | LayerKind::Concat { .. } => {}
                _ if layer.inputs.len() != 1 => {
                    return Err(format!(
                        "layer {i} ({}) has {} inputs, expected 1",
                        layer.name,
                        layer.inputs.len()
                    ));
                }
                _ => {}
            }
            if let Some(j) = layer.weights_shared_with {
                if j >= i {
                    return Err(format!(
                        "layer {i} ({}) shares weights with layer {j}, which is not earlier",
                        layer.name
                    ));
                }
                if self.layers[j].kind.weight_elements() != layer.kind.weight_elements() {
                    return Err(format!(
                        "layer {i} ({}) shares weights with layer {j} of different size",
                        layer.name
                    ));
                }
            }
            for src in &layer.inputs {
                match *src {
                    TensorSource::ModelInput => {}
                    TensorSource::Layer(j) => {
                        if j >= i {
                            return Err(format!(
                                "layer {i} ({}) reads layer {j}, which is not earlier",
                                layer.name
                            ));
                        }
                    }
                }
            }
            if let LayerKind::Eltwise { .. } = layer.kind {
                let elements = layer.kind.out_elements();
                for src in &layer.inputs {
                    let size = match *src {
                        TensorSource::ModelInput => self.input_elements,
                        TensorSource::Layer(j) => self.layers[j].kind.out_elements(),
                    };
                    if size != elements {
                        return Err(format!(
                            "layer {i} ({}) eltwise over {elements} elements but input has {size}",
                            layer.name
                        ));
                    }
                }
            }
            if let LayerKind::Concat { .. } = layer.kind {
                let sum: u64 = layer
                    .inputs
                    .iter()
                    .map(|src| match *src {
                        TensorSource::ModelInput => self.input_elements,
                        TensorSource::Layer(j) => self.layers[j].kind.out_elements(),
                    })
                    .sum();
                if sum != layer.kind.out_elements() {
                    return Err(format!(
                        "layer {i} ({}) concat inputs sum to {sum}, output has {}",
                        layer.name,
                        layer.kind.out_elements()
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv() -> LayerKind {
        LayerKind::Conv {
            in_c: 3,
            in_h: 224,
            in_w: 224,
            out_c: 64,
            kh: 7,
            kw: 7,
            stride: 2,
            pad: 3,
        }
    }

    #[test]
    fn conv_shapes() {
        let c = conv();
        assert_eq!(c.out_shape(), (64, 112, 112));
        assert_eq!(c.in_elements(), 3 * 224 * 224);
        assert_eq!(c.weight_elements(), 3 * 64 * 49);
        let g = c.gemm().expect("conv lowers to gemm");
        assert_eq!(
            g,
            Gemm {
                m: 112 * 112,
                k: 147,
                n: 64
            }
        );
        assert_eq!(c.macs(), g.macs());
    }

    #[test]
    fn dwconv_shapes() {
        let d = LayerKind::DwConv {
            c: 32,
            in_h: 112,
            in_w: 112,
            k: 3,
            stride: 1,
            pad: 1,
        };
        assert_eq!(d.out_shape(), (32, 112, 112));
        assert_eq!(d.weight_elements(), 32 * 9);
        assert_eq!(d.gemm().expect("gemm").k, 9);
    }

    #[test]
    fn fc_and_matmul() {
        let fc = LayerKind::Fc {
            in_f: 1024,
            out_f: 1000,
            batch: 1,
        };
        assert_eq!(
            fc.gemm(),
            Some(Gemm {
                m: 1,
                k: 1024,
                n: 1000
            })
        );
        let mm = LayerKind::MatMul {
            m: 128,
            k: 512,
            n: 512,
        };
        assert_eq!(mm.macs(), 128 * 512 * 512);
    }

    #[test]
    fn embedding_and_pool_have_no_gemm() {
        let e = LayerKind::Embedding {
            vocab: 1000,
            dim: 64,
            seq: 16,
        };
        assert!(e.gemm().is_none());
        assert_eq!(e.weight_elements(), 64_000);
        assert_eq!(e.out_elements(), 16 * 64);
        let p = LayerKind::Pool {
            c: 64,
            in_h: 112,
            in_w: 112,
            k: 2,
            stride: 2,
        };
        assert!(p.gemm().is_none());
        assert_eq!(p.out_shape(), (64, 56, 56));
    }

    #[test]
    fn footprint_accounting() {
        let m = Model {
            name: "t".into(),
            full_name: "tiny".into(),
            input_elements: 100,
            layers: vec![Layer {
                name: "fc".into(),
                kind: LayerKind::Fc {
                    in_f: 100,
                    out_f: 10,
                    batch: 1,
                },
                inputs: vec![TensorSource::ModelInput],
                weights_shared_with: None,
            }],
        };
        assert_eq!(m.footprint_bytes(), (100 + 1000 + 10) * 2);
        assert_eq!(m.total_macs(), 1000);
        m.validate().expect("valid");
    }

    #[test]
    fn validate_rejects_forward_reference() {
        let m = Model {
            name: "bad".into(),
            full_name: "bad".into(),
            input_elements: 4,
            layers: vec![Layer {
                name: "l0".into(),
                kind: LayerKind::Eltwise { c: 4, h: 1, w: 1 },
                inputs: vec![TensorSource::ModelInput, TensorSource::Layer(5)],
                weights_shared_with: None,
            }],
        };
        assert!(m.validate().is_err());
    }

    #[test]
    fn validate_rejects_size_mismatch() {
        let m = Model {
            name: "bad".into(),
            full_name: "bad".into(),
            input_elements: 4,
            layers: vec![Layer {
                name: "l0".into(),
                kind: LayerKind::Eltwise { c: 8, h: 1, w: 1 },
                inputs: vec![TensorSource::ModelInput, TensorSource::ModelInput],
                weights_shared_with: None,
            }],
        };
        assert!(m.validate().is_err());
    }

    #[test]
    fn validate_rejects_wrong_arity() {
        let m = Model {
            name: "bad".into(),
            full_name: "bad".into(),
            input_elements: 4,
            layers: vec![Layer {
                name: "l0".into(),
                kind: LayerKind::Pool {
                    c: 1,
                    in_h: 2,
                    in_w: 2,
                    k: 2,
                    stride: 2,
                },
                inputs: vec![],
                weights_shared_with: None,
            }],
        };
        assert!(m.validate().is_err());
    }
}
