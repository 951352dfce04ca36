//! The compiler pass of the paper's Fig. 13 (a): lowering a model into the
//! version-annotated secure instruction stream, then replay-checking it.
//!
//! ```text
//! cargo run --release -p tnpu-core --example secure_lowering
//! ```

use tnpu_core::instr::{lower_secure, replay, SecureInstr};
use tnpu_models::registry;
use tnpu_npu::alloc::ModelLayout;
use tnpu_npu::config::NpuConfig;
use tnpu_npu::tiler;
use tnpu_sim::Addr;

fn render(i: &SecureInstr) -> String {
    match *i {
        SecureInstr::TsWriteTensor {
            tensor,
            bytes,
            version,
        } => {
            format!("ts_write_tensor  t{tensor:<3} {bytes:>9} B        v{version}")
        }
        SecureInstr::Expand { tensor, tiles } => {
            format!("expand           t{tensor:<3} -> {tiles} tile versions")
        }
        SecureInstr::MvinV {
            tensor,
            tile,
            version,
            bytes,
        } => {
            format!("mvin_v           t{tensor:<3} tile {tile:<4} {bytes:>8} B  v{version}")
        }
        SecureInstr::Compute { cycles } => format!("compute          {cycles}"),
        SecureInstr::MvoutV {
            tensor,
            tile,
            version,
            bytes,
        } => {
            format!("mvout_v          t{tensor:<3} tile {tile:<4} {bytes:>8} B  v{version}")
        }
        SecureInstr::Merge { tensor, version } => {
            format!("merge            t{tensor:<3} -> single v{version}")
        }
        SecureInstr::Alias { tensor, version } => {
            format!("alias            t{tensor:<3} (concat view)     v{version}")
        }
    }
}

fn main() {
    // The paper's own example: a ResNet50 layer (Fig. 13 uses the Gemmini
    // ResNet50 code).
    let model = registry::model("res").expect("registered");
    let npu = NpuConfig::small_npu();
    let layout = ModelLayout::allocate(&model, Addr(0));
    let plan = tiler::plan(&model, &npu, &layout, 13);
    let stream = lower_secure(&plan).expect("valid plan");

    println!(
        "lowered {} ({} layers) into {} secure instructions\n",
        model.full_name,
        model.layers.len(),
        stream.len()
    );

    println!("-- initialization (CPU ts_write path) --");
    for i in stream.iter().take(4) {
        println!("  {}", render(i));
    }
    println!(
        "  ... ({} tensors initialized)\n",
        stream
            .iter()
            .filter(|i| matches!(i, SecureInstr::TsWriteTensor { .. }))
            .count()
    );

    // Show one full layer: find the first Expand and print until its Merge.
    let start = stream
        .iter()
        .position(|i| matches!(i, SecureInstr::Expand { .. }))
        .expect("has layers");
    println!("-- first layer's stream (conv1), exactly Fig. 13 (a)'s shape --");
    let mut shown = 0;
    for i in &stream[start..] {
        println!("  {}", render(i));
        shown += 1;
        if matches!(i, SecureInstr::Merge { .. }) || shown > 24 {
            if shown > 24 {
                println!("  ...");
            }
            break;
        }
    }

    replay(&stream).expect("the stream is version-consistent");
    println!("\nreplay check passed: every mvin/mvout annotation matches the");
    println!("version table state at that point — the property the MAC enforces.");
}
