//! Access control and trusted-execution plumbing for TNPU (paper §IV-A/B/E).
//!
//! The memory-protection engines guard against *physical* attacks; this
//! crate implements the defences against *privileged software*:
//!
//! * [`epcm::Eepcm`] — the Extended EPCM: a flat inverse page map covering
//!   the whole physical memory, holding per-page security metadata (owner
//!   enclave, expected virtual page, permissions).
//! * [`pagetable::PageTable`] — the OS-controlled forward map. The OS (the
//!   adversary) may rewrite it arbitrarily.
//! * [`mmu::Mmu`] — MMU/IOMMU with a TLB whose security invariant is that
//!   it only ever caches *validated* translations: every page-table walk is
//!   checked against the EEPCM before the TLB is filled (Fig. 11).
//! * [`enclave::EnclaveManager`] — enclave lifecycle: creation, page
//!   donation, the NPU context's protected virtual range (`NELRANGE`), and
//!   content measurement.
//! * [`driver::NpuDriverEnclave`] — the protected NPU driver: the OS can
//!   only *request* NPU operations; the driver enclave owns the MMIO path
//!   and checks that the requesting enclave owns the NPU context.
//! * [`attest::AttestationAuthority`] — SGX-style local attestation:
//!   measurement-bound reports under a device key.

pub mod attest;
pub mod driver;
pub mod enclave;
pub mod epcm;
pub mod mmu;
pub mod pagetable;

/// Page size of the simulated machine.
pub const PAGE_SIZE: u64 = 4096;

/// Identifier of an enclave (also used for the NPU driver enclave).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EnclaveId(pub u32);

impl std::fmt::Display for EnclaveId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "enclave#{}", self.0)
    }
}

/// A virtual page number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Vpn(pub u64);

/// A physical page number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ppn(pub u64);

/// Requested access type, checked against page permissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Access {
    /// Data read.
    Read,
    /// Data write.
    Write,
    /// Instruction fetch.
    Execute,
}

/// Page permissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Perms {
    /// Readable.
    pub read: bool,
    /// Writable.
    pub write: bool,
    /// Executable.
    pub execute: bool,
}

impl Perms {
    /// Read/write data page.
    pub const RW: Perms = Perms {
        read: true,
        write: true,
        execute: false,
    };
    /// Read-only page.
    pub const RO: Perms = Perms {
        read: true,
        write: false,
        execute: false,
    };
    /// Read/execute code page.
    pub const RX: Perms = Perms {
        read: true,
        write: false,
        execute: true,
    };

    /// Whether this permission set allows `access`.
    #[must_use]
    pub fn allows(self, access: Access) -> bool {
        match access {
            Access::Read => self.read,
            Access::Write => self.write,
            Access::Execute => self.execute,
        }
    }
}

/// Why an access was denied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessError {
    /// No page-table mapping for the virtual page.
    NotMapped {
        /// The unmapped virtual page.
        vpn: Vpn,
    },
    /// The physical page belongs to a different enclave (or none).
    WrongOwner {
        /// The physical page.
        ppn: Ppn,
    },
    /// The EEPCM records a different virtual page for this physical page —
    /// the OS remapped the page table.
    RemapDetected {
        /// The expected virtual page per EEPCM.
        expected: Vpn,
        /// The virtual page actually used.
        got: Vpn,
    },
    /// Permissions do not allow the requested access.
    PermissionDenied {
        /// The denied access kind.
        access: Access,
    },
    /// The virtual page falls inside the protected range but the physical
    /// page is not a protected page at all.
    UnprotectedPage {
        /// The physical page.
        ppn: Ppn,
    },
}

impl std::fmt::Display for AccessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AccessError::NotMapped { vpn } => write!(f, "no mapping for vpn {}", vpn.0),
            AccessError::WrongOwner { ppn } => {
                write!(f, "physical page {} owned by another enclave", ppn.0)
            }
            AccessError::RemapDetected { expected, got } => write!(
                f,
                "page remap detected: eepcm expects vpn {}, translation used vpn {}",
                expected.0, got.0
            ),
            AccessError::PermissionDenied { access } => {
                write!(f, "permission denied for {access:?}")
            }
            AccessError::UnprotectedPage { ppn } => {
                write!(f, "physical page {} is not protected", ppn.0)
            }
        }
    }
}

impl std::error::Error for AccessError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perms_allow() {
        assert!(Perms::RW.allows(Access::Read));
        assert!(Perms::RW.allows(Access::Write));
        assert!(!Perms::RW.allows(Access::Execute));
        assert!(!Perms::RO.allows(Access::Write));
        assert!(Perms::RX.allows(Access::Execute));
    }

    #[test]
    fn error_display() {
        let e = AccessError::RemapDetected {
            expected: Vpn(1),
            got: Vpn(2),
        };
        assert!(e.to_string().contains("remap"));
    }
}
