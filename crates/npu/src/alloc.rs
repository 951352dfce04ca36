//! Tensor address allocation inside the NPU context's protected region.
//!
//! The CPU enclave allocates non-EPC memory for the NPU during context
//! initialization (§IV-E); this module models that allocator: every tensor
//! (model input, per-layer weights, per-layer outputs) gets a page-aligned
//! address range, and a stable *tensor id* used to index the version table.
//! Tied weights ([`tnpu_models::Layer::weights_shared_with`]) resolve to
//! the owner's allocation.

use tnpu_models::Model;
use tnpu_models::ELEM_BYTES;
use tnpu_sim::Addr;

/// Page alignment for tensor allocations.
pub const TENSOR_ALIGN: u64 = 4096;

/// One allocated tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TensorInfo {
    /// Version-table index.
    pub id: u32,
    /// Base address.
    pub addr: Addr,
    /// Size in bytes.
    pub bytes: u64,
}

/// Address map of a model instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelLayout {
    /// The model input tensor.
    pub input: TensorInfo,
    /// Per-layer weight tensor (`None` for parameter-less layers; tied
    /// weights share the owner's entry).
    pub weights: Vec<Option<TensorInfo>>,
    /// Per-layer output tensor.
    pub outputs: Vec<TensorInfo>,
    /// Bytes consumed from the region (high-water mark).
    pub total_bytes: u64,
    /// Number of distinct tensor ids handed out.
    pub tensor_count: u32,
}

impl ModelLayout {
    /// Allocate every tensor of `model` starting at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not page aligned.
    #[must_use]
    pub fn allocate(model: &Model, base: Addr) -> Self {
        assert_eq!(base.0 % TENSOR_ALIGN, 0, "base must be page aligned");
        let mut next = base.0;
        let mut next_id = 0u32;
        let mut alloc = |bytes: u64| {
            let info = TensorInfo {
                id: next_id,
                addr: Addr(next),
                bytes,
            };
            next_id += 1;
            next += bytes.div_ceil(TENSOR_ALIGN) * TENSOR_ALIGN;
            info
        };
        let input = alloc(model.input_elements * ELEM_BYTES);
        let mut weights = Vec::with_capacity(model.layers.len());
        let mut outputs = Vec::with_capacity(model.layers.len());
        for layer in &model.layers {
            let w = match layer.weights_shared_with {
                Some(owner) => weights[owner],
                None => {
                    let bytes = layer.kind.weight_elements() * ELEM_BYTES;
                    (bytes > 0).then(|| alloc(bytes))
                }
            };
            weights.push(w);
            outputs.push(alloc(layer.kind.out_elements() * ELEM_BYTES));
        }
        ModelLayout {
            input,
            weights,
            outputs,
            total_bytes: next - base.0,
            tensor_count: next_id,
        }
    }

    /// Address and size of the tensor a layer input refers to.
    #[must_use]
    pub fn source(&self, src: tnpu_models::TensorSource) -> TensorInfo {
        match src {
            tnpu_models::TensorSource::ModelInput => self.input,
            tnpu_models::TensorSource::Layer(i) => self.outputs[i],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnpu_models::registry;

    #[test]
    fn allocations_are_aligned_and_disjoint() {
        let model = registry::model("alex").expect("registered");
        let layout = ModelLayout::allocate(&model, Addr(0));
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        let mut collect = |t: &TensorInfo| ranges.push((t.addr.0, t.addr.0 + t.bytes));
        collect(&layout.input);
        for w in layout.weights.iter().flatten() {
            collect(w);
        }
        for o in &layout.outputs {
            collect(o);
        }
        for (start, _) in &ranges {
            assert_eq!(start % TENSOR_ALIGN, 0);
        }
        ranges.sort_unstable();
        for pair in ranges.windows(2) {
            assert!(pair[0].1 <= pair[1].0, "overlap: {pair:?}");
        }
    }

    #[test]
    fn total_bytes_close_to_footprint() {
        let model = registry::model("res").expect("registered");
        let layout = ModelLayout::allocate(&model, Addr(0));
        let fp = model.footprint_bytes();
        assert!(layout.total_bytes >= fp);
        // Padding overhead is bounded by one page per tensor.
        let tensors = layout.tensor_count as u64;
        assert!(layout.total_bytes <= fp + tensors * TENSOR_ALIGN);
    }

    #[test]
    fn tied_weights_share_allocation() {
        let model = registry::model("tf").expect("registered");
        let layout = ModelLayout::allocate(&model, Addr(0));
        let last = model.layers.len() - 1;
        let owner = model.layers[last]
            .weights_shared_with
            .expect("tf output projection is tied");
        assert_eq!(layout.weights[last], layout.weights[owner]);
    }

    #[test]
    fn ids_are_unique_and_dense() {
        let model = registry::model("mob").expect("registered");
        let layout = ModelLayout::allocate(&model, Addr(0));
        let mut ids = vec![layout.input.id];
        for w in layout.weights.iter().flatten() {
            ids.push(w.id);
        }
        for o in &layout.outputs {
            ids.push(o.id);
        }
        ids.sort_unstable();
        ids.dedup();
        // Shared weights may duplicate; after dedup, ids must be dense.
        assert_eq!(u32::try_from(ids.len()), Ok(layout.tensor_count));
        assert_eq!(*ids.last().expect("non-empty") + 1, layout.tensor_count);
    }

    #[test]
    fn source_resolution() {
        let model = registry::model("alex").expect("registered");
        let layout = ModelLayout::allocate(&model, Addr(4096));
        assert_eq!(
            layout.source(tnpu_models::TensorSource::ModelInput),
            layout.input
        );
        assert_eq!(
            layout.source(tnpu_models::TensorSource::Layer(0)),
            layout.outputs[0]
        );
    }

    #[test]
    #[should_panic(expected = "page aligned")]
    fn unaligned_base_panics() {
        let model = registry::model("alex").expect("registered");
        let _ = ModelLayout::allocate(&model, Addr(100));
    }
}
