//! The full trusted pipeline of the paper's Fig. 3: enclave setup with
//! measured pages, attestation, access-control checks, and a functional
//! secure inference whose every byte moves through AES-XTS + versioned
//! MACs.
//!
//! ```text
//! cargo run --release -p tnpu-core --example secure_pipeline
//! ```

use tnpu_core::secure_runner::SecureRunner;
use tnpu_crypto::Key128;
use tnpu_models::registry;
use tnpu_tee::attest::AttestationAuthority;
use tnpu_tee::driver::{NpuCommand, NpuDriverEnclave};
use tnpu_tee::enclave::{EnclaveManager, RegionKind};
use tnpu_tee::epcm::Eepcm;
use tnpu_tee::mmu::Mmu;
use tnpu_tee::pagetable::PageTable;
use tnpu_tee::{Access, Perms, Ppn, Vpn};

fn main() {
    // --- 1. Enclave setup: the ML application is loaded into a measured
    // enclave; its NPU tensors live in tree-less protected pages.
    let mut manager = EnclaveManager::new();
    let mut eepcm = Eepcm::new();
    let mut page_table = PageTable::new();
    let driver_id = manager.create();
    let app_id = manager.create();
    manager
        .add_page(
            &mut eepcm,
            &mut page_table,
            app_id,
            Vpn(0x100),
            Ppn(0x800),
            RegionKind::FullyProtected,
            Perms::RX,
            b"ml-app-code-v1",
        )
        .expect("code page");
    manager
        .add_page(
            &mut eepcm,
            &mut page_table,
            app_id,
            Vpn(0x200),
            Ppn(0x900),
            RegionKind::Treeless,
            Perms::RW,
            b"",
        )
        .expect("tensor page");
    manager
        .set_nelrange(app_id, 0x20_0000..0x40_0000)
        .expect("range");
    let measurement = manager.initialize(app_id).expect("finalize");
    println!("enclave {app_id} measured: {:02x?}...", &measurement[..8]);

    // --- 2. Attestation: the remote party verifies the enclave binary.
    let authority = AttestationAuthority::new(Key128::derive(b"device-fused-key"));
    let nonce = [0x42u8; 16];
    let report = authority.report(manager.get(app_id).expect("exists"), nonce);
    assert!(authority.verify(&report, &measurement, &nonce));
    println!("attestation report verified against expected measurement");

    // --- 3. The driver enclave grants an NPU context; a foreign enclave
    // cannot command it.
    let mut driver = NpuDriverEnclave::new(driver_id, 1);
    let npu = driver.acquire(app_id).expect("free NPU");
    driver
        .issue(app_id, npu, NpuCommand::Compute)
        .expect("owner commands");
    let intruder = manager.create();
    assert!(driver.issue(intruder, npu, NpuCommand::Compute).is_err());
    println!("driver enclave: owner may command the NPU, intruder rejected");

    // --- 4. The IOMMU catches a malicious OS remapping the tensor page.
    let mut iommu = Mmu::new(app_id, 64);
    iommu
        .translate(&page_table, &eepcm, Vpn(0x200), Access::Write)
        .expect("legitimate translation validates");
    page_table.map(Vpn(0x200), Ppn(0x800)); // OS points tensors at the code page
    iommu.flush_tlb();
    let attack = iommu.translate(&page_table, &eepcm, Vpn(0x200), Access::Write);
    println!("page-remap attack result: {attack:?}");
    assert!(attack.is_err());

    // --- 5. Functional secure inference: every byte encrypted + MAC'd,
    // versions managed per tensor/tile.
    let model = registry::model("agz").expect("registered");
    let mut runner = SecureRunner::new(&model, Key128::derive(b"session"), 7);
    runner.run().expect("untampered run verifies");
    let output = runner.read_output().expect("untampered output verifies");
    println!(
        "functional secure inference of {} produced {} verified output bytes",
        model.full_name,
        output.len()
    );
    println!("pipeline complete: setup -> attest -> access control -> secure inference");
}
