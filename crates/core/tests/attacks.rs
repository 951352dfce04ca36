//! Cross-crate attack coverage for the rows of the paper's Table I that
//! TNPU defends: malicious system software (access control), bus snooping
//! (confidentiality), tampering (integrity), and cold-boot-style replay
//! (freshness).

use tnpu_core::secure_runner::{RunError, SecureRunner};
use tnpu_crypto::Key128;
use tnpu_memprot::functional::{
    CounterTreeMemory, FunctionalMemory, IntegrityError, TreelessMemory,
};
use tnpu_sim::Addr;
use tnpu_tee::enclave::{EnclaveManager, RegionKind};
use tnpu_tee::epcm::Eepcm;
use tnpu_tee::mmu::Mmu;
use tnpu_tee::pagetable::PageTable;
use tnpu_tee::{Access, AccessError, Perms, Ppn, Vpn};

/// Table I row "Malicious System Software": the OS cannot route one
/// enclave's virtual pages onto another enclave's frames, in either the
/// CPU MMU or the NPU IOMMU.
#[test]
fn malicious_os_cannot_cross_enclaves() {
    let mut manager = EnclaveManager::new();
    let mut eepcm = Eepcm::new();
    // Each process has its own page table; the EEPCM is system-wide.
    let mut victim_table = PageTable::new();
    let mut attacker_table = PageTable::new();
    let victim = manager.create();
    let attacker = manager.create();
    manager
        .add_page(
            &mut eepcm,
            &mut victim_table,
            victim,
            Vpn(1),
            Ppn(100),
            RegionKind::Treeless,
            Perms::RW,
            b"v",
        )
        .expect("victim page");
    manager
        .add_page(
            &mut eepcm,
            &mut attacker_table,
            attacker,
            Vpn(1),
            Ppn(200),
            RegionKind::Treeless,
            Perms::RW,
            b"a",
        )
        .expect("attacker page");

    // The OS maps a page of the attacker's address space onto the
    // victim's frame.
    attacker_table.map(Vpn(7), Ppn(100));
    let mut attacker_iommu = Mmu::new(attacker, 16);
    assert_eq!(
        attacker_iommu.translate(&attacker_table, &eepcm, Vpn(7), Access::Read),
        Err(AccessError::WrongOwner { ppn: Ppn(100) })
    );
    // The victim's own access still validates.
    let mut victim_mmu = Mmu::new(victim, 16);
    assert_eq!(
        victim_mmu.translate(&victim_table, &eepcm, Vpn(1), Access::Read),
        Ok(Ppn(100))
    );
}

/// Table I row "Bus snooping": no tensor plaintext is ever observable in
/// DRAM under either scheme.
#[test]
fn bus_snooping_sees_only_ciphertext() {
    let needle = b"PROPRIETARY-WEIGHTS";
    let mut block = [0u8; 64];
    block[..needle.len()].copy_from_slice(needle);

    let mut treeless = TreelessMemory::new(Key128::derive(b"a"));
    treeless.write_block(Addr(0), 1, block);
    assert!(!treeless.dram_contains(needle));

    let mut tree = CounterTreeMemory::new(Key128::derive(b"b"), 1 << 12);
    tree.write_block(Addr(0), block);
    assert!(!tree.dram_contains(needle));
}

/// Table I row "Tampering": any single-bit flip anywhere in a protected
/// block is caught by both schemes.
#[test]
fn every_bit_flip_is_detected() {
    let mut treeless = TreelessMemory::new(Key128::derive(b"a"));
    treeless.write_block(Addr(0), 1, [0x5au8; 64]);
    for byte in [0u16, 13, 31, 63] {
        for bit in [0u16, 3, 7] {
            let flip = [byte * 8 + bit];
            assert!(treeless.tamper_bits(Addr(0), &flip), "written");
            assert!(
                treeless.read_block(Addr(0), 1).is_err(),
                "flip at byte {byte} bit {bit} undetected"
            );
            assert!(treeless.tamper_bits(Addr(0), &flip), "written"); // repair
        }
    }
    assert!(
        treeless.read_block(Addr(0), 1).is_ok(),
        "repaired block verifies"
    );
}

/// Replay protection equivalence (§III-B): the tree detects replay via the
/// counter path; TNPU detects it via the software version — and the pure
/// MAC (no version discipline) provably does not.
#[test]
fn replay_protection_equivalence() {
    // Tree-based: full replay of (data, MAC, counter) fails at the root.
    let mut tree = CounterTreeMemory::new(Key128::derive(b"t"), 1 << 12);
    tree.write_block(Addr(64), [1u8; 64]);
    let snap = tree.capture_block(Addr(64)).expect("written");
    tree.write_block(Addr(64), [2u8; 64]);
    assert!(tree.restore_block(Addr(64), &snap));
    assert!(matches!(
        tree.read_block(Addr(64)),
        Err(IntegrityError::TreeMismatch { .. })
    ));

    // Tree-less with version discipline: stale MAC fails.
    let mut tnpu = TreelessMemory::new(Key128::derive(b"l"));
    tnpu.write_block(Addr(64), 1, [1u8; 64]);
    let snap = tnpu.capture_block(Addr(64)).expect("written");
    tnpu.write_block(Addr(64), 2, [2u8; 64]);
    assert!(tnpu.restore_block(Addr(64), &snap));
    assert!(matches!(
        tnpu.read_block(Addr(64), 2),
        Err(IntegrityError::MacMismatch { .. })
    ));

    // Without the version bump, the replayed block verifies: the version
    // number IS the replay protection.
    let mut broken = TreelessMemory::new(Key128::derive(b"x"));
    broken.write_block(Addr(64), 1, [1u8; 64]);
    let snap = broken.capture_block(Addr(64)).expect("written");
    broken.write_block(Addr(64), 1, [2u8; 64]);
    assert!(broken.restore_block(Addr(64), &snap));
    assert_eq!(broken.read_block(Addr(64), 1).expect("verifies"), [1u8; 64]);
}

/// Attacks against a live inference are caught at the next `mvin`,
/// whichever tensor is hit.
#[test]
fn live_inference_attack_coverage() {
    let model = tnpu_models::registry::model("agz").expect("registered");

    // Attack the weights of a later layer while layer 0 runs.
    let mut runner = SecureRunner::new(&model, Key128::derive(b"w"), 5);
    runner.step().expect("layer 0 ok");
    let weights = runner.layout().weights[1].expect("conv weights");
    assert!(
        runner.memory_mut().tamper_bits(weights.addr, &[0]),
        "initialized"
    );
    assert!(matches!(runner.step(), Err(RunError::Integrity(_))));

    // Attack an activation: relocate a valid block of layer 0's output
    // over another block of the same tensor (same version!) — the
    // address binding in the MAC catches it.
    let mut runner = SecureRunner::new(&model, Key128::derive(b"w"), 5);
    runner.step().expect("layer 0 ok");
    let out = runner.layout().outputs[0];
    let donor = runner.memory().capture_block(out.addr).expect("written");
    assert!(runner
        .memory_mut()
        .restore_block(out.addr.offset(64), &donor));
    assert!(matches!(runner.step(), Err(RunError::Integrity(_))));
}
