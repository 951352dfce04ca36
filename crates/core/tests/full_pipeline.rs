//! The adoption scenario end to end: platform boot, context creation with
//! attestation, timing simulation of the protected inference, functional
//! verification of the same model, and the secure instruction stream — all
//! through the public API a downstream user would touch.

use tnpu_core::context::{SecureNpuSession, NELRANGE_BASE};
use tnpu_core::instr;
use tnpu_core::secure_runner::SecureRunner;
use tnpu_crypto::Key128;
use tnpu_memprot::SchemeKind;
use tnpu_models::registry;
use tnpu_npu::alloc::ModelLayout;
use tnpu_npu::{simulate, tiler, NpuConfig};
use tnpu_sim::Addr;
use tnpu_tee::driver::NpuCommand;
use tnpu_tee::{Access, Vpn, PAGE_SIZE};

#[test]
fn boot_attest_simulate_verify() {
    // 1. Platform boot and context creation.
    let mut session = SecureNpuSession::new(Key128::derive(b"device"), 1);
    let mut ctx = session
        .create_context(b"resnet-inference-app-v1", 8)
        .expect("context");

    // 2. Remote attestation round.
    let nonce = [0x5au8; 16];
    let report = session.attest(&ctx, nonce).expect("live context attests");
    assert!(session.verify(&report, &ctx.measurement, &nonce));

    // 3. The IOMMU serves the tensor range; the driver takes commands.
    let vpn = Vpn(NELRANGE_BASE / PAGE_SIZE + 3);
    session
        .iommu_translate(&mut ctx, vpn, Access::Write)
        .expect("tensor page validates");
    session
        .issue(ctx.enclave, &ctx, NpuCommand::Mvin { version: 1 })
        .expect("owner commands");

    // 4. Timing simulation of the protected inference.
    let model = registry::model("agz").expect("registered");
    let npu = NpuConfig::small_npu();
    let secure = simulate(&model, &npu, SchemeKind::Treeless);
    let unsecure = simulate(&model, &npu, SchemeKind::Unsecure);
    let overhead = secure.total.as_f64() / unsecure.total.as_f64();
    assert!((1.0..1.5).contains(&overhead), "overhead {overhead:.3}");

    // 5. Functional verification: the same model, real bytes.
    let mut runner = SecureRunner::new(&model, Key128::derive(b"session"), 42);
    runner.run().expect("verified run");
    assert!(!runner.read_output().expect("verified output").is_empty());

    // 6. The secure instruction stream for the same plan is consistent.
    let layout = ModelLayout::allocate(&model, Addr(0));
    let plan = tiler::plan(&model, &npu, &layout, 42);
    let stream = instr::lower_secure(&plan).expect("lowering succeeds");
    instr::replay(&stream).expect("stream verifies");

    // 7. Teardown.
    session.destroy_context(&ctx).expect("owner tears down");
}

/// The cost plane (the tiler's plan, which produces the figures) and the
/// functional plane (the session the attack matrix drives) describe the
/// same datapath, so they move the same payload bytes within 15 %. ncf, an
/// embedding model, sits highest (about 1.10): the session materializes
/// its `Concat`, reading both embedding outputs and writing a copy, where
/// the plan aliases the two tensors and moves nothing.
#[test]
fn timing_and_functional_agree_on_data_volume() {
    for name in ["df", "agz", "ncf"] {
        let model = registry::model(name).expect("registered");
        let layout = ModelLayout::allocate(&model, Addr(0));
        let plan = tiler::plan(&model, &NpuConfig::small_npu(), &layout, 9);
        let plan_bytes = plan.data_bytes();
        let mut runner = SecureRunner::new(&model, Key128::derive(b"agree"), 9);
        let functional_bytes: u64 = runner
            .run()
            .expect("verifies")
            .iter()
            .map(|t| (t.blocks_read + t.blocks_written) * 64)
            .sum();
        let ratio = functional_bytes as f64 / plan_bytes as f64;
        assert!(
            (0.85..=1.15).contains(&ratio),
            "{name}: functional {functional_bytes} B vs plan {plan_bytes} B ({ratio:.3})"
        );
    }
}
