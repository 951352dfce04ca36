//! Per-layer timing breakdown: where the protection overhead actually
//! lands inside one inference — the layer-level view behind Fig. 14's
//! bars (embedding layers pay; compute-bound conv layers hide it).
//!
//! ```text
//! cargo run --release -p tnpu-npu --example layer_breakdown
//! ```

use tnpu_memprot::SchemeKind;
use tnpu_models::registry;
use tnpu_npu::{simulate, NpuConfig};

fn main() {
    let model = registry::model("sent").expect("registered");
    let npu = NpuConfig::small_npu();
    let unsec = simulate(&model, &npu, SchemeKind::Unsecure);
    let tree = simulate(&model, &npu, SchemeKind::TreeBased);
    let tnpu = simulate(&model, &npu, SchemeKind::Treeless);

    println!(
        "{} on the small NPU — per-layer finish times (cycles)\n",
        model.full_name
    );
    println!(
        "{:16} {:>12} {:>12} {:>12}  {:>9} {:>9}",
        "layer", "unsecure", "baseline", "tnpu", "base oh", "tnpu oh"
    );
    let mut prev = (0u64, 0u64, 0u64);
    for (i, layer) in unsec.layers.iter().enumerate() {
        if layer.data_bytes == 0 {
            continue; // zero-cost concat
        }
        let u = layer.finish.0 - prev.0;
        let b = tree.layers[i].finish.0 - prev.1;
        let t = tnpu.layers[i].finish.0 - prev.2;
        prev = (
            layer.finish.0,
            tree.layers[i].finish.0,
            tnpu.layers[i].finish.0,
        );
        println!(
            "{:16} {u:>12} {b:>12} {t:>12}  {:>8.1}% {:>8.1}%",
            layer.name,
            (b as f64 / u as f64 - 1.0) * 100.0,
            (t as f64 / u as f64 - 1.0) * 100.0,
        );
    }
    println!(
        "\ntotal            {:>12} {:>12} {:>12}  {:>8.1}% {:>8.1}%",
        unsec.total.0,
        tree.total.0,
        tnpu.total.0,
        (tree.total.as_f64() / unsec.total.as_f64() - 1.0) * 100.0,
        (tnpu.total.as_f64() / unsec.total.as_f64() - 1.0) * 100.0,
    );
    println!("\nthe embedding gather layer carries nearly all of the baseline's");
    println!("overhead — the counter cache cannot hold its scattered rows — while");
    println!("the compute-heavy convolution hides the MAC traffic of both schemes.");
}
