//! The four evaluated DNN workloads (Sec. 5.2).
//!
//! Layer dimensions and FLOP counts are derived from the public architecture
//! descriptions of each network. The absolute values are approximations
//! (grouped into layer blocks) — the training simulator only needs parameter
//! bytes, activation bytes and FLOPs in the right ballpark; the Themis-vs-
//! baseline comparison depends on the communication-to-compute ratio, not on
//! exact per-layer shapes.

use crate::error::WorkloadError;
use crate::layer::{Layer, LayerKind};

/// A DNN workload: a named list of layer groups.
#[derive(Debug, Clone, PartialEq)]
pub struct DnnModel {
    name: String,
    layers: Vec<Layer>,
}

impl DnnModel {
    /// Creates a model from a list of layers.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] if no layers are provided.
    pub fn new(name: impl Into<String>, layers: Vec<Layer>) -> Result<Self, WorkloadError> {
        if layers.is_empty() {
            return Err(WorkloadError::InvalidParameter {
                reason: "a model requires at least one layer".to_string(),
            });
        }
        Ok(DnnModel {
            name: name.into(),
            layers,
        })
    }

    /// Model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The layer groups.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Total trainable parameters.
    pub fn total_parameters(&self) -> u64 {
        self.layers.iter().map(Layer::parameters).sum()
    }

    /// Total trainable parameters of the given layer kind.
    pub fn parameters_of_kind(&self, kind: LayerKind) -> u64 {
        self.layers
            .iter()
            .filter(|l| l.kind() == kind)
            .map(Layer::parameters)
            .sum()
    }

    /// Total parameters of every kind *except* the given one.
    pub fn parameters_excluding_kind(&self, kind: LayerKind) -> u64 {
        self.layers
            .iter()
            .filter(|l| l.kind() != kind)
            .map(Layer::parameters)
            .sum()
    }

    /// Total forward FLOPs for one sample.
    pub fn forward_flops_per_sample(&self) -> f64 {
        self.layers
            .iter()
            .map(Layer::forward_flops_per_sample)
            .sum()
    }

    /// Total backward FLOPs for one sample.
    pub fn backward_flops_per_sample(&self) -> f64 {
        self.layers
            .iter()
            .map(Layer::backward_flops_per_sample)
            .sum()
    }

    /// Total forward FLOPs per sample contributed by layers of `kind`.
    pub fn forward_flops_of_kind(&self, kind: LayerKind) -> f64 {
        self.layers
            .iter()
            .filter(|l| l.kind() == kind)
            .map(Layer::forward_flops_per_sample)
            .sum()
    }

    /// Sum of per-sample activation bytes of layers of `kind`.
    pub fn activation_bytes_of_kind(&self, kind: LayerKind) -> f64 {
        self.layers
            .iter()
            .filter(|l| l.kind() == kind)
            .map(Layer::activation_bytes_per_sample)
            .sum()
    }
}

fn layer(
    name: &str,
    kind: LayerKind,
    parameters: u64,
    forward_flops_per_sample: f64,
    activation_bytes_per_sample: f64,
) -> Layer {
    Layer::new(
        name,
        kind,
        parameters,
        forward_flops_per_sample,
        2.0,
        activation_bytes_per_sample,
    )
    .expect("static layer definitions are valid")
}

/// ResNet-152 for ImageNet classification (~60 M parameters, ~11.5 GFLOPs per
/// 224×224 sample), grouped into its residual stages.
pub fn resnet152() -> DnnModel {
    let mb = |x: f64| x * 1024.0 * 1024.0;
    DnnModel::new(
        "ResNet-152",
        vec![
            layer(
                "stem-conv",
                LayerKind::Convolution,
                120_000,
                0.24e9,
                mb(1.53),
            ),
            layer(
                "stage1-x3",
                LayerKind::Convolution,
                220_000,
                1.32e9,
                mb(3.06),
            ),
            layer(
                "stage2-x8",
                LayerKind::Convolution,
                1_220_000,
                2.45e9,
                mb(1.53),
            ),
            layer(
                "stage3-x36",
                LayerKind::Convolution,
                26_100_000,
                5.95e9,
                mb(0.77),
            ),
            layer(
                "stage4-x3",
                LayerKind::Convolution,
                30_500_000,
                1.47e9,
                mb(0.38),
            ),
            layer(
                "classifier",
                LayerKind::Dense,
                2_050_000,
                0.004e9,
                mb(0.002),
            ),
        ],
    )
    .expect("ResNet-152 definition is valid")
}

/// GNMT: 8-layer LSTM encoder + 8-layer LSTM decoder with attention,
/// 1024 hidden units, 32 k vocabulary (~235 M parameters), sequence length 50.
pub fn gnmt() -> DnnModel {
    let seq = 50.0;
    let hidden_bytes = 1024.0 * 2.0 * seq;
    DnnModel::new(
        "GNMT",
        vec![
            layer(
                "encoder-embedding",
                LayerKind::Dense,
                33_554_432,
                0.1e9,
                hidden_bytes,
            ),
            layer(
                "encoder-lstm-x8",
                LayerKind::Recurrent,
                67_100_000,
                6.7e9,
                hidden_bytes,
            ),
            layer(
                "decoder-embedding",
                LayerKind::Dense,
                33_554_432,
                0.1e9,
                hidden_bytes,
            ),
            layer(
                "decoder-lstm-x8",
                LayerKind::Recurrent,
                68_200_000,
                6.8e9,
                hidden_bytes,
            ),
            layer(
                "attention",
                LayerKind::Attention,
                2_100_000,
                0.4e9,
                hidden_bytes,
            ),
            layer(
                "softmax-projection",
                LayerKind::Dense,
                33_554_432,
                1.7e9,
                32_768.0 * 2.0,
            ),
        ],
    )
    .expect("GNMT definition is valid")
}

/// DLRM (recommendation model, Sec. 5.2, reference \[54\]): data-parallel bottom and top
/// MLPs plus model-parallel embedding tables. The embedding tables are the
/// `Embedding` layers; their per-sample activation bytes are the pooled
/// embedding vectors exchanged through All-To-All.
pub fn dlrm() -> DnnModel {
    let tables = 26.0;
    let embedding_dim = 128.0;
    DnnModel::new(
        "DLRM",
        vec![
            layer(
                "bottom-mlp",
                LayerKind::Dense,
                6_500_000,
                13.0e6,
                128.0 * 2.0,
            ),
            layer(
                "embedding-tables-x26",
                LayerKind::Embedding,
                16_640_000_000,
                2.0e6,
                tables * embedding_dim * 2.0,
            ),
            layer("top-mlp", LayerKind::Dense, 39_000_000, 78.0e6, 2.0),
        ],
    )
    .expect("DLRM definition is valid")
}

/// Transformer-1T: a 1-trillion-parameter decoder-only transformer
/// (128 layers, hidden size 25 600, sequence length 2048), trained with
/// Microsoft ZeRO stage 2 and tensor-model-parallelism over 128 NPUs
/// (Sec. 5.2).
pub fn transformer_1t() -> DnnModel {
    let hidden = 25_600.0;
    let seq = 2_048.0;
    let layers = 128u64;
    // 12 × hidden² parameters and ~2 × params × seq FLOPs per transformer layer.
    let params_per_layer = (12.0 * hidden * hidden) as u64;
    let flops_per_layer = 2.0 * params_per_layer as f64 * seq;
    let activation_bytes = seq * hidden * 2.0;
    let mut model_layers = vec![layer(
        "token-embedding",
        LayerKind::Dense,
        51_200 * 25_600,
        0.5e9,
        activation_bytes,
    )];
    for index in 0..layers {
        model_layers.push(layer(
            &format!("transformer-layer-{index:03}"),
            LayerKind::Attention,
            params_per_layer,
            flops_per_layer,
            activation_bytes,
        ));
    }
    DnnModel::new("Transformer-1T", model_layers).expect("Transformer-1T definition is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resnet152_parameter_count_is_about_60m() {
        let model = resnet152();
        let params = model.total_parameters();
        assert!((55_000_000..=65_000_000).contains(&params), "{params}");
        // ~11.5 GFLOPs forward per 224×224 sample.
        let gflops = model.forward_flops_per_sample() / 1e9;
        assert!((10.0..=13.0).contains(&gflops), "{gflops}");
        assert!(model.backward_flops_per_sample() > model.forward_flops_per_sample());
    }

    #[test]
    fn gnmt_parameter_count_is_hundreds_of_millions() {
        let model = gnmt();
        let params = model.total_parameters();
        assert!((200_000_000..=300_000_000).contains(&params), "{params}");
        assert!(model.parameters_of_kind(LayerKind::Recurrent) > 100_000_000);
    }

    #[test]
    fn dlrm_embeddings_dominate_but_are_model_parallel() {
        let model = dlrm();
        let dense = model.parameters_excluding_kind(LayerKind::Embedding);
        let sparse = model.parameters_of_kind(LayerKind::Embedding);
        assert!(sparse > 100 * dense);
        assert!((40_000_000..=60_000_000).contains(&dense), "{dense}");
        // Pooled embeddings exchanged per sample: 26 tables × 128 dims × FP16.
        assert_eq!(
            model.activation_bytes_of_kind(LayerKind::Embedding),
            26.0 * 128.0 * 2.0
        );
    }

    #[test]
    fn transformer_has_about_one_trillion_parameters() {
        let model = transformer_1t();
        let params = model.total_parameters() as f64;
        assert!((0.95e12..=1.1e12).contains(&params), "{params}");
        assert_eq!(model.layers().len(), 129);
        assert!(model.parameters_of_kind(LayerKind::Attention) as f64 > 0.9e12);
    }

    #[test]
    fn aggregate_helpers_are_consistent() {
        let model = resnet152();
        let by_kind = model.parameters_of_kind(LayerKind::Convolution)
            + model.parameters_of_kind(LayerKind::Dense);
        assert_eq!(by_kind, model.total_parameters());
        assert_eq!(
            model.parameters_excluding_kind(LayerKind::Dense),
            model.parameters_of_kind(LayerKind::Convolution)
        );
        assert!(model.forward_flops_of_kind(LayerKind::Convolution) > 0.0);
    }

    #[test]
    fn empty_models_are_rejected() {
        assert!(DnnModel::new("empty", vec![]).is_err());
    }
}
