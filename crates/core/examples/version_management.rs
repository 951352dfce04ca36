//! The paper's running example (Figs. 9 & 13): version-number management
//! for a tiled matrix multiplication and for a ResNet50 layer with a
//! residual add (Fig. 7).
//!
//! ```text
//! cargo run --release -p tnpu-core --example version_management
//! ```

use tnpu_core::VersionTable;
use tnpu_models::registry;
use tnpu_models::LayerKind;

fn main() {
    // --- Fig. 9: 2x2-tiled matmul. The output matrix C is produced in
    // four tiles, each accumulated over two K steps.
    println!("== Fig. 9: tiled matmul (A x B = C, 2x2 tiles, 2 K-steps) ==");
    let mut table = VersionTable::new();
    let (a, b, c) = (0, 1, 2);
    for t in [a, b, c] {
        table.register(t);
    }
    table.bump(a).expect("A initialized");
    table.bump(b).expect("B initialized");
    table.expand(c, 4).expect("C expands into 2x2 tiles");
    for step in 0..2 {
        for tile in 0..4 {
            let v = table.bump_tile(c, tile).expect("mvout bumps the tile");
            println!("step {step}: mvout C tile {tile} with version {v}");
        }
    }
    let merged = table.merge(c).expect("uniform tiles merge");
    println!("all tiles equal -> merged into a single version {merged}");
    println!(
        "table storage now {} B (peak {} B)\n",
        table.storage_bytes(),
        table.peak_storage_bytes()
    );

    // --- Fig. 7: in ResNet50, the residual Add writes tensor D, so only
    // D's version moves; the tensors it reads keep theirs.
    println!("== Fig. 7: ResNet50 residual add updates only its output ==");
    let model = registry::model("res").expect("registered");
    let (idx, add) = model
        .layers
        .iter()
        .enumerate()
        .find(|(_, l)| matches!(l.kind, LayerKind::Eltwise { .. }))
        .expect("resnet has adds");
    println!("first residual add: layer {idx} ({})", add.name);
    let mut t = VersionTable::new();
    let (input_a, input_d) = (10, 11);
    t.register(input_a);
    t.register(input_d);
    t.bump(input_a).expect("A produced");
    t.bump(input_d).expect("D produced");
    let before = (
        t.version(input_a, 0).expect("a"),
        t.version(input_d, 0).expect("d"),
    );
    // Add(A, previous) -> D is updated in place in the paper's figure:
    let after_d = t.bump(input_d).expect("Add writes D");
    println!(
        "before add: version(A)={}, version(D)={}",
        before.0, before.1
    );
    println!(
        "after  add: version(A)={}, version(D)={after_d}",
        t.version(input_a, 0).expect("a")
    );

    // --- §IV-D: table storage for the full ResNet50 stays KB-scale.
    let layout = tnpu_npu::alloc::ModelLayout::allocate(&model, tnpu_sim::Addr(0));
    let mut full = VersionTable::new();
    for id in 0..layout.tensor_count {
        full.register(id);
    }
    println!(
        "\nResNet50: {} tensors -> {} B steady-state version storage (paper: ~1.3 KB average)",
        full.tensors(),
        full.storage_bytes()
    );
}
