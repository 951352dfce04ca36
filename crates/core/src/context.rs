//! The full secure-NPU-context lifecycle (paper §IV-A/B/E), in one place.
//!
//! A [`SecureNpuSession`] owns the platform state — EEPCM, driver enclave,
//! attestation authority, and one IOMMU per physical NPU — and hands out
//! per-application contexts: the CPU enclave is created and measured, its
//! `NELRANGE` tensor pages are added as tree-less protected pages, the
//! driver enclave assigns an NPU, and that NPU's IOMMU validates every
//! translation against the EEPCM. Attack hooks expose the OS-controlled
//! page table so tests can mount remap attacks against a live context, and
//! a teardown variant that skips the TLB shoot-down so the stale-TLB
//! window the fixed [`destroy_context`](SecureNpuSession::destroy_context)
//! closes stays demonstrable.

use tnpu_crypto::Key128;
use tnpu_tee::attest::{AttestationAuthority, Report};
use tnpu_tee::driver::{DriverError, NpuCommand, NpuDriverEnclave};
use tnpu_tee::enclave::{EnclaveError, EnclaveManager, RegionKind};
use tnpu_tee::epcm::Eepcm;
use tnpu_tee::mmu::Mmu;
use tnpu_tee::pagetable::PageTable;
use tnpu_tee::{Access, AccessError, EnclaveId, Perms, Ppn, Vpn, PAGE_SIZE};

/// Virtual base of the NPU context's protected range.
pub const NELRANGE_BASE: u64 = 0x2000_0000;

/// A live secure NPU context.
#[derive(Debug)]
pub struct NpuContext {
    /// The owning CPU enclave.
    pub enclave: EnclaveId,
    /// The assigned NPU.
    pub npu: usize,
    /// The enclave's measurement at initialization.
    pub measurement: [u8; 32],
    page_table: PageTable,
}

impl NpuContext {
    /// The context's OS-controlled page table — the attack hook (the OS
    /// may rewrite it at any time).
    pub fn page_table_mut(&mut self) -> &mut PageTable {
        &mut self.page_table
    }
}

/// Errors of the session API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// Enclave lifecycle failure.
    Enclave(EnclaveError),
    /// Driver protocol failure.
    Driver(DriverError),
    /// Access-control violation.
    Access(AccessError),
    /// The context's enclave was already torn down: attestation,
    /// translation, and (re-)destruction against it are refused.
    DeadContext(EnclaveId),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Enclave(e) => write!(f, "enclave: {e}"),
            SessionError::Driver(e) => write!(f, "driver: {e}"),
            SessionError::Access(e) => write!(f, "access: {e}"),
            SessionError::DeadContext(id) => {
                write!(f, "context of {id} was already torn down")
            }
        }
    }
}

impl std::error::Error for SessionError {}

impl From<EnclaveError> for SessionError {
    fn from(e: EnclaveError) -> Self {
        SessionError::Enclave(e)
    }
}
impl From<DriverError> for SessionError {
    fn from(e: DriverError) -> Self {
        SessionError::Driver(e)
    }
}
impl From<AccessError> for SessionError {
    fn from(e: AccessError) -> Self {
        SessionError::Access(e)
    }
}

/// Platform state for secure NPU execution.
pub struct SecureNpuSession {
    manager: EnclaveManager,
    eepcm: Eepcm,
    driver: NpuDriverEnclave,
    authority: AttestationAuthority,
    /// One IOMMU per physical NPU. The IOMMU is NPU-side hardware: it
    /// survives the tenant it was validated for, which is exactly why
    /// teardown must shoot its TLB down before the NPU is recycled.
    iommus: Vec<Mmu>,
    next_ppn: u64,
}

impl std::fmt::Debug for SecureNpuSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SecureNpuSession")
            .field("protected_pages", &self.eepcm.protected_pages())
            .field("npus", &self.iommus.len())
            .finish_non_exhaustive()
    }
}

impl SecureNpuSession {
    /// Boot the platform: `npu_count` NPUs behind a driver enclave, an
    /// attestation authority fused with `device_key`. Each NPU's IOMMU
    /// boots parked on the driver enclave until a context claims it.
    #[must_use]
    pub fn new(device_key: Key128, npu_count: usize) -> Self {
        let mut manager = EnclaveManager::new();
        let driver_id = manager.create();
        SecureNpuSession {
            manager,
            eepcm: Eepcm::new(),
            driver: NpuDriverEnclave::new(driver_id, npu_count),
            authority: AttestationAuthority::new(device_key),
            iommus: (0..npu_count).map(|_| Mmu::new(driver_id, 64)).collect(),
            next_ppn: 0x1000,
        }
    }

    fn fresh_ppn(&mut self) -> Ppn {
        let p = Ppn(self.next_ppn);
        self.next_ppn += 1;
        p
    }

    /// Create a measured enclave running `binary`, give it `tensor_pages`
    /// tree-less pages at `NELRANGE`, and assign it an NPU, re-pointing
    /// that NPU's IOMMU at the new enclave.
    ///
    /// # Errors
    ///
    /// [`SessionError`] if pages cannot be donated or no NPU is free.
    pub fn create_context(
        &mut self,
        binary: &[u8],
        tensor_pages: usize,
    ) -> Result<NpuContext, SessionError> {
        let enclave = self.manager.create();
        let mut page_table = PageTable::new();
        // Code page(s) in the fully-protected region.
        let code_ppn = self.fresh_ppn();
        self.manager.add_page(
            &mut self.eepcm,
            &mut page_table,
            enclave,
            Vpn(0x100),
            code_ppn,
            RegionKind::FullyProtected,
            Perms::RX,
            binary,
        )?;
        // Tensor pages in the tree-less region at NELRANGE.
        let first_vpn = NELRANGE_BASE / PAGE_SIZE;
        for i in 0..tensor_pages as u64 {
            let ppn = self.fresh_ppn();
            self.manager.add_page(
                &mut self.eepcm,
                &mut page_table,
                enclave,
                Vpn(first_vpn + i),
                ppn,
                RegionKind::Treeless,
                Perms::RW,
                b"",
            )?;
        }
        self.manager.set_nelrange(
            enclave,
            NELRANGE_BASE..NELRANGE_BASE + tensor_pages as u64 * PAGE_SIZE,
        )?;
        let measurement = self.manager.initialize(enclave)?;
        let npu = self.driver.acquire(enclave)?;
        // Re-owning the IOMMU does not flush its TLB (distinct hardware
        // state); the shoot-down is destroy_context's job. A correctly
        // torn-down predecessor left the TLB empty.
        // tnpu-lint: allow(panic-path) — the driver only hands out NPU
        // indices < pool size, and `iommus` is sized to the pool.
        self.iommus[npu].assign(enclave);
        Ok(NpuContext {
            enclave,
            npu,
            measurement,
            page_table,
        })
    }

    /// Produce an attestation report for a context.
    ///
    /// # Errors
    ///
    /// [`SessionError::DeadContext`] if the context's enclave was torn
    /// down — a destroyed context must not be attestable. (This used to
    /// panic via `.expect("live context")`.)
    pub fn attest(&self, ctx: &NpuContext, nonce: [u8; 16]) -> Result<Report, SessionError> {
        let enclave = self
            .manager
            .get(ctx.enclave)
            .ok_or(SessionError::DeadContext(ctx.enclave))?;
        Ok(self.authority.report(enclave, nonce))
    }

    /// Verify a report against an expected measurement.
    #[must_use]
    pub fn verify(&self, report: &Report, expected: &[u8; 32], nonce: &[u8; 16]) -> bool {
        self.authority.verify(report, expected, nonce)
    }

    /// Translate an NPU-side access through the NPU's IOMMU with EEPCM
    /// validation (Fig. 11).
    ///
    /// # Errors
    ///
    /// [`SessionError::Access`] on any validation failure;
    /// [`SessionError::DeadContext`] if the context was torn down.
    pub fn iommu_translate(
        &mut self,
        ctx: &mut NpuContext,
        vpn: Vpn,
        access: Access,
    ) -> Result<Ppn, SessionError> {
        if self.manager.get(ctx.enclave).is_none() {
            return Err(SessionError::DeadContext(ctx.enclave));
        }
        // tnpu-lint: allow(panic-path) — `ctx.npu` was assigned by the
        // driver at create_context time and is < pool size by construction.
        Ok(self.iommus[ctx.npu].translate(&ctx.page_table, &self.eepcm, vpn, access)?)
    }

    /// Whether the NPU's IOMMU currently caches a translation for `vpn`
    /// (observability for shoot-down tests and the serving layer). An NPU
    /// outside the pool caches nothing.
    #[must_use]
    pub fn iommu_cached(&self, npu: usize, vpn: Vpn) -> bool {
        self.iommus.get(npu).is_some_and(|iommu| iommu.cached(vpn))
    }

    /// Shoot down the NPU's IOMMU TLB (the OS/driver can always do this).
    ///
    /// # Panics
    ///
    /// Panics if `npu` is not an index into the session's NPU pool.
    pub fn flush_iommu(&mut self, npu: usize) {
        // tnpu-lint: allow(panic-path) — documented contract above: `npu`
        // must index the pool; an out-of-range shoot-down is caller error.
        self.iommus[npu].flush_tlb();
    }

    /// Issue an NPU command through the driver enclave (owner-checked).
    ///
    /// # Errors
    ///
    /// [`SessionError::Driver`] if the caller does not own the NPU.
    pub fn issue(
        &mut self,
        caller: EnclaveId,
        ctx: &NpuContext,
        command: NpuCommand,
    ) -> Result<(), SessionError> {
        Ok(self.driver.issue(caller, ctx.npu, command)?)
    }

    /// Tear a context down: release its NPU (owner-checked), shoot down
    /// that NPU's IOMMU TLB *before* the NPU can be recycled, destroy the
    /// enclave, and release its EEPCM frames.
    ///
    /// The shoot-down is the load-bearing step: the IOMMU belongs to the
    /// NPU, not the tenant, so translations validated for the dead enclave
    /// would otherwise keep serving its (now freed and reassignable)
    /// frames to the next tenant.
    ///
    /// # Errors
    ///
    /// [`SessionError::DeadContext`] if the context was already destroyed;
    /// [`SessionError::Driver`] if the context does not own its NPU (the
    /// teardown then does nothing — a caller holding a forged context must
    /// not be able to flush or free a victim's state).
    pub fn destroy_context(&mut self, ctx: &NpuContext) -> Result<(), SessionError> {
        self.teardown(ctx, true)
    }

    /// Attack hook: the pre-fix teardown, which recycles the NPU without
    /// shooting down its IOMMU TLB. Exists so regression tests and the
    /// adversary matrix can demonstrate the stale-TLB window that
    /// [`destroy_context`](SecureNpuSession::destroy_context) closes.
    ///
    /// # Errors
    ///
    /// As [`destroy_context`](SecureNpuSession::destroy_context).
    pub fn destroy_context_skipping_shootdown(
        &mut self,
        ctx: &NpuContext,
    ) -> Result<(), SessionError> {
        self.teardown(ctx, false)
    }

    fn teardown(&mut self, ctx: &NpuContext, shootdown: bool) -> Result<(), SessionError> {
        if self.manager.get(ctx.enclave).is_none() {
            return Err(SessionError::DeadContext(ctx.enclave));
        }
        // Owner check first: only the NPU's owner may tear the context
        // down. On NotOwner nothing has been touched yet.
        self.driver.release(ctx.enclave, ctx.npu)?;
        if shootdown {
            // tnpu-lint: allow(panic-path) — `ctx.npu` came from the
            // driver and indexes the pool; release() above verified it.
            self.iommus[ctx.npu].flush_tlb();
        }
        let dead = self.manager.destroy(ctx.enclave)?;
        for &(_, ppn, _) in dead.pages() {
            self.eepcm.release(ppn, ctx.enclave)?;
        }
        Ok(())
    }

    /// Tear down a context by value (the original API; now the full
    /// teardown of [`destroy_context`](SecureNpuSession::destroy_context)).
    ///
    /// # Errors
    ///
    /// As [`destroy_context`](SecureNpuSession::destroy_context).
    pub fn release(&mut self, ctx: NpuContext) -> Result<(), SessionError> {
        self.destroy_context(&ctx)
    }
}

/// Probe the recycled-NPU stale-translation window end to end: tenant A
/// warms NPU 0's IOMMU, is torn down (with or without the TLB shoot-down),
/// tenant B recycles the NPU — and B's first translation of the same
/// `NELRANGE` page either re-validates to B's own frame (window closed,
/// `true`) or hits A's stale, freed frame (window open, `false`).
///
/// With `shootdown` the fixed teardown runs and the probe must return
/// `true`; without it the pre-fix behavior is replayed and the probe
/// demonstrates the leak. The attack matrix runs both.
///
/// # Panics
///
/// Panics if the harness itself misbehaves (contexts fail to build).
#[must_use]
pub fn stale_tlb_probe(shootdown: bool) -> bool {
    // The expects below are the documented "# Panics" contract: a probe
    // whose scaffolding fails must abort loudly, not report a verdict.
    let mut s = SecureNpuSession::new(Key128::derive(b"stale-tlb-probe"), 1);
    let mut a = s.create_context(b"tenant-a", 1).expect("tenant A"); // tnpu-lint: allow(panic-path) — documented probe scaffolding
    let vpn = Vpn(NELRANGE_BASE / PAGE_SIZE);
    let a_frame = s
        .iommu_translate(&mut a, vpn, Access::Write)
        .expect("A validates its tensor page"); // tnpu-lint: allow(panic-path) — documented probe scaffolding
    if shootdown {
        s.destroy_context(&a).expect("teardown"); // tnpu-lint: allow(panic-path) — documented probe scaffolding
    } else {
        s.destroy_context_skipping_shootdown(&a)
            .expect("teardown without shoot-down"); // tnpu-lint: allow(panic-path) — documented probe scaffolding
    }
    let mut b = s.create_context(b"tenant-b", 1).expect("tenant B recycles"); // tnpu-lint: allow(panic-path) — documented probe scaffolding
    let b_frame = s
        .iommu_translate(&mut b, vpn, Access::Write)
        .expect("B's translation resolves"); // tnpu-lint: allow(panic-path) — documented probe scaffolding
    b_frame != a_frame
}

/// Probe the refusal taxonomy end to end: each misuse must be refused by
/// the *right* layer with the matching [`SessionError`] variant. A refusal
/// for the wrong reason would mean a different layer caught it — defense
/// in depth eroding silently while everything still "fails closed".
///
/// Four refusals are exercised: the OS remapping one tenant's page onto
/// another's frame ([`SessionError::Access`]), NPU exhaustion
/// ([`SessionError::Driver`]), use of a destroyed context
/// ([`SessionError::DeadContext`]), and a misbehaving frame allocator
/// re-issuing an owned frame ([`SessionError::Enclave`]). Returns `true`
/// only when every refusal carries its expected variant.
#[must_use]
pub fn refusal_taxonomy_probe() -> bool {
    let mut s = SecureNpuSession::new(Key128::derive(b"refusal-probe"), 2);
    let Ok(a) = s.create_context(b"tenant-a", 1) else {
        return false;
    };
    let Ok(mut b) = s.create_context(b"tenant-b", 1) else {
        return false;
    };
    // Access: the OS remaps B's tensor page onto A's first tensor frame.
    // The walk succeeds; EEPCM ownership validation must be what refuses.
    let vpn = Vpn(NELRANGE_BASE / PAGE_SIZE);
    b.page_table_mut().map(vpn, Ppn(0x1001));
    s.flush_iommu(b.npu);
    let access = matches!(
        s.iommu_translate(&mut b, vpn, Access::Read),
        Err(SessionError::Access(AccessError::WrongOwner { .. }))
    );
    // Driver: both NPUs are taken, so a third tenant must be refused by
    // the driver enclave, not by anything later in the pipeline.
    let driver = matches!(
        s.create_context(b"tenant-c", 1),
        Err(SessionError::Driver(DriverError::NoFreeNpu))
    );
    // DeadContext: any use of a torn-down context.
    if s.destroy_context(&a).is_err() {
        return false;
    }
    let dead = matches!(s.attest(&a, [0u8; 16]), Err(SessionError::DeadContext(_)));
    // Enclave: rewind the frame allocator onto B's still-owned code frame
    // (a buggy or malicious allocator); the enclave manager must refuse
    // the donation rather than silently double-mapping protected memory.
    s.next_ppn = 0x1002;
    let enclave = matches!(
        s.create_context(b"tenant-d", 1),
        Err(SessionError::Enclave(EnclaveError::PageBusy(_)))
    );
    access && driver && dead && enclave
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session() -> SecureNpuSession {
        SecureNpuSession::new(Key128::derive(b"device"), 2)
    }

    #[test]
    fn full_lifecycle() {
        let mut s = session();
        let mut ctx = s.create_context(b"ml-app", 4).expect("context");
        // Attest.
        let nonce = [9u8; 16];
        let report = s.attest(&ctx, nonce).expect("live context");
        assert!(s.verify(&report, &ctx.measurement, &nonce));
        // Legitimate tensor access through the IOMMU.
        let vpn = Vpn(NELRANGE_BASE / PAGE_SIZE);
        s.iommu_translate(&mut ctx, vpn, Access::Write)
            .expect("valid");
        // Command the NPU.
        s.issue(ctx.enclave, &ctx, NpuCommand::Mvin { version: 1 })
            .expect("owner");
        s.release(ctx).expect("owner releases");
    }

    #[test]
    fn two_contexts_are_isolated() {
        let mut s = session();
        let ctx_a = s.create_context(b"app-a", 2).expect("context a");
        let mut ctx_b = s.create_context(b"app-b", 2).expect("context b");
        assert_ne!(ctx_a.npu, ctx_b.npu);
        assert_ne!(ctx_a.measurement, ctx_b.measurement);
        // B's enclave cannot command A's NPU.
        assert!(matches!(
            s.issue(ctx_b.enclave, &ctx_a, NpuCommand::Compute),
            Err(SessionError::Driver(DriverError::NotOwner { .. }))
        ));
        // The OS remaps B's tensor page to A's frame: B's IOMMU rejects it.
        let vpn = Vpn(NELRANGE_BASE / PAGE_SIZE);
        let a_frame = Ppn(0x1001); // A's first tensor page frame
        ctx_b.page_table_mut().map(vpn, a_frame);
        s.flush_iommu(ctx_b.npu);
        assert!(matches!(
            s.iommu_translate(&mut ctx_b, vpn, Access::Read),
            Err(SessionError::Access(AccessError::WrongOwner { .. }))
        ));
    }

    #[test]
    fn npu_exhaustion_and_reuse() {
        let mut s = session();
        let a = s.create_context(b"a", 1).expect("a");
        let _b = s.create_context(b"b", 1).expect("b");
        assert!(matches!(
            s.create_context(b"c", 1),
            Err(SessionError::Driver(DriverError::NoFreeNpu))
        ));
        s.release(a).expect("release");
        let _c = s.create_context(b"c", 1).expect("npu recycled");
    }

    #[test]
    fn attestation_distinguishes_binaries() {
        let mut s = session();
        let genuine = s.create_context(b"genuine-v1", 1).expect("context");
        let trojan = s.create_context(b"trojan-v1", 1).expect("context");
        let nonce = [1u8; 16];
        let report = s.attest(&trojan, nonce).expect("live context");
        assert!(!s.verify(&report, &genuine.measurement, &nonce));
    }

    #[test]
    fn dead_context_operations_are_typed_errors() {
        // Regression test: attest on a destroyed context used to panic via
        // `.expect("live context")`; translate silently kept working
        // through the cached TLB; destroy double-freed. All three must be
        // typed DeadContext errors now.
        let mut s = session();
        let mut ctx = s.create_context(b"app", 1).expect("context");
        let id = ctx.enclave;
        s.destroy_context(&ctx).expect("first teardown");
        assert_eq!(
            s.attest(&ctx, [0u8; 16]).unwrap_err(),
            SessionError::DeadContext(id)
        );
        let vpn = Vpn(NELRANGE_BASE / PAGE_SIZE);
        assert_eq!(
            s.iommu_translate(&mut ctx, vpn, Access::Read).unwrap_err(),
            SessionError::DeadContext(id)
        );
        assert_eq!(
            s.destroy_context(&ctx).unwrap_err(),
            SessionError::DeadContext(id)
        );
        assert!(SessionError::DeadContext(id)
            .to_string()
            .contains("torn down"));
    }

    #[test]
    fn destroy_requires_npu_ownership() {
        // The destroy_context NPU-ownership audit: a context whose NPU was
        // handed to someone else (forged/stale handle) must not be able to
        // tear anything down — and the refusal must leave the real owner's
        // state intact.
        let mut s = session();
        let ctx_a = s.create_context(b"app-a", 1).expect("a");
        let ctx_b = s.create_context(b"app-b", 1).expect("b");
        // Forge a context claiming B's enclave but A's NPU.
        let forged = NpuContext {
            enclave: ctx_b.enclave,
            npu: ctx_a.npu,
            measurement: ctx_b.measurement,
            page_table: PageTable::new(),
        };
        assert!(matches!(
            s.destroy_context(&forged),
            Err(SessionError::Driver(DriverError::NotOwner { .. }))
        ));
        // Both genuine contexts still fully work.
        assert!(s.attest(&ctx_a, [2u8; 16]).is_ok());
        assert!(s.attest(&ctx_b, [2u8; 16]).is_ok());
        s.destroy_context(&ctx_a).expect("a tears down");
        s.destroy_context(&ctx_b).expect("b tears down");
    }

    #[test]
    fn destroy_releases_frames_for_reuse() {
        let mut s = session();
        let ctx = s.create_context(b"app", 2).expect("context");
        let pages_live = format!("{s:?}");
        assert!(pages_live.contains("protected_pages: 3"), "{pages_live}");
        s.destroy_context(&ctx).expect("teardown");
        let pages_after = format!("{s:?}");
        assert!(pages_after.contains("protected_pages: 0"), "{pages_after}");
    }

    #[test]
    fn recycled_npu_cannot_hit_stale_translation() {
        // Regression test for the stale-TLB window: without the teardown
        // shoot-down, tenant B's first translation on the recycled NPU
        // hits tenant A's freed frame straight from the TLB.
        assert!(
            !stale_tlb_probe(false),
            "pre-fix teardown must demonstrate the stale hit"
        );
        assert!(
            stale_tlb_probe(true),
            "destroy_context's shoot-down must close the window"
        );
    }

    #[test]
    fn destroyed_tenants_translation_is_not_cached() {
        let mut s = SecureNpuSession::new(Key128::derive(b"d"), 1);
        let mut a = s.create_context(b"a", 1).expect("a");
        let vpn = Vpn(NELRANGE_BASE / PAGE_SIZE);
        s.iommu_translate(&mut a, vpn, Access::Read).expect("warm");
        assert!(s.iommu_cached(a.npu, vpn));
        let npu = a.npu;
        s.destroy_context(&a).expect("teardown");
        assert!(!s.iommu_cached(npu, vpn), "shoot-down cleared the TLB");
    }

    #[test]
    fn iommu_probe_outside_the_pool_is_false() {
        // The observability probe is public API: an NPU index outside the
        // pool has no IOMMU, so nothing is cached there.
        let s = SecureNpuSession::new(Key128::derive(b"d"), 2);
        let vpn = Vpn(NELRANGE_BASE / PAGE_SIZE);
        assert!(!s.iommu_cached(2, vpn));
        assert!(!s.iommu_cached(usize::MAX, vpn));
    }
}
