//! Functional (real-bytes) implementations of the protection schemes.
//!
//! The timing engines ([`crate::tree_engine`], [`crate::treeless_engine`])
//! model *cost*; the types in this module implement the actual datapath
//! with [`tnpu_crypto`] so the paper's security claims can be tested:
//! ciphertext in DRAM, per-block MACs, and counters with a real hash tree.
//!
//! These run per-byte crypto and are used by tests, examples and the
//! functional mode of the secure runner — not by the figure sweeps.
//!
//! # The attack surface
//!
//! The paper's attacker (§III) owns DRAM and nothing on-chip. Here that
//! boundary is the [`FunctionalMemory`] trait: its attack hooks
//! ([`tamper_bits`], [`capture_block`], [`restore_block`],
//! [`rollback_metadata`], [`splice_block`], [`substitute_mac`] and the
//! [`dram_contains`] probe) are the only way any code outside this crate
//! reaches a memory's untrusted state. The raw block store behind the four
//! memories, `RawDram`, lives in a private module, so the compiler rejects
//! every other path to it:
//!
//! ```compile_fail,E0603
//! use tnpu_memprot::functional::dram::RawDram;
//! ```
//!
//! [`tamper_bits`]: FunctionalMemory::tamper_bits
//! [`capture_block`]: FunctionalMemory::capture_block
//! [`restore_block`]: FunctionalMemory::restore_block
//! [`rollback_metadata`]: FunctionalMemory::rollback_metadata
//! [`splice_block`]: FunctionalMemory::splice_block
//! [`substitute_mac`]: FunctionalMemory::substitute_mac
//! [`dram_contains`]: FunctionalMemory::dram_contains

mod dram;
pub mod encrypt_only;
mod store;
pub mod tree;
pub mod treeless;
pub mod unsecure;

pub use encrypt_only::EncryptOnlyMemory;
pub use tree::CounterTreeMemory;
pub use treeless::TreelessMemory;
pub use unsecure::UnsecureMemory;

use crate::counters::SplitCounterBlock;
use crate::SchemeKind;
use dram::RawDram;
use store::PagedStore;
use tnpu_crypto::mac::{MacPrefix, MacTag};
use tnpu_crypto::Key128;
use tnpu_sim::{Addr, BLOCK_SIZE};

/// Which binding of the per-block MAC failed — the cause discriminant a
/// retry policy needs. The MAC covers *(content, address, version)*; on a
/// mismatch the schemes run a deterministic failure-path diagnosis to tell
/// the three apart: content errors are worth re-fetching (a transient bus
/// flip clears on re-read), while address/version mismatches indicate
/// relocation or replay of otherwise-valid state and must escalate
/// immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MismatchCause {
    /// The stored bytes (or the tag itself) are inconsistent — tampering
    /// or a transient fault in the data path.
    Content,
    /// The stored `(ciphertext, tag)` pair is valid *somewhere else*: it
    /// was relocated/spliced from another address.
    Address,
    /// The pair verifies under a nearby version: stale state was replayed
    /// over a newer write.
    Version,
}

impl MismatchCause {
    /// Short diagnostic label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            MismatchCause::Content => "content",
            MismatchCause::Address => "address",
            MismatchCause::Version => "version",
        }
    }
}

impl std::fmt::Display for MismatchCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Why a protected read was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntegrityError {
    /// The per-block MAC did not match.
    MacMismatch {
        /// Block base address of the failing block.
        addr: u64,
        /// Which of the MAC's three bindings is inconsistent.
        cause: MismatchCause,
    },
    /// A counter-tree node hash did not match — the counter has been
    /// tampered with or replayed.
    TreeMismatch {
        /// Tree level at which verification failed (0 = counter block).
        level: u32,
    },
    /// The block was never written (no ciphertext to return).
    NotWritten {
        /// Block base address of the missing block.
        addr: u64,
    },
    /// The DMA transfer stalled before any bytes arrived (bus timeout).
    /// Purely environmental — the stored state is untouched, so a re-issued
    /// transfer succeeds on every scheme.
    Stalled {
        /// Block base address of the stalled transfer.
        addr: u64,
    },
}

/// Issue vocabulary alias: the typed error protected reads propagate
/// instead of panicking.
pub type ProtectionError = IntegrityError;

impl std::fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IntegrityError::MacMismatch { addr, cause } => {
                write!(
                    f,
                    "mac verification failed for block at {addr:#x} ({cause})"
                )
            }
            IntegrityError::TreeMismatch { level } => {
                write!(f, "integrity-tree verification failed at level {level}")
            }
            IntegrityError::NotWritten { addr } => {
                write!(f, "block at {addr:#x} was never written")
            }
            IntegrityError::Stalled { addr } => {
                write!(
                    f,
                    "dma transfer stalled for block at {addr:#x} (bus timeout)"
                )
            }
        }
    }
}

impl std::error::Error for IntegrityError {}

/// Everything a physical attacker can capture about one block from the
/// untrusted DRAM: the stored bytes, and whatever per-block metadata the
/// scheme also keeps there (for the counter tree, the whole SC-64 counter
/// block). Fields the scheme does not have are `None` — an unprotected
/// memory has no MAC to photograph.
#[derive(Debug, Clone)]
pub struct BlockCapture {
    /// The stored bytes (ciphertext, or plaintext for [`UnsecureMemory`]).
    pub bytes: [u8; BLOCK_SIZE],
    /// The stored per-block MAC, for schemes that keep one.
    pub mac: Option<MacTag>,
    /// The covering SC-64 counter block, for the counter-tree scheme.
    pub counters: Option<SplitCounterBlock>,
}

/// Object-safe view of a functional protected memory: the datapath the
/// secure runner drives, plus the *attack surface* a physical adversary
/// has — everything DRAM-resident is attacker-readable and -writable, and
/// nothing on-chip (keys, the tree root, the version table) is.
///
/// The `version` parameter of [`write_block`]/[`read_block`] is the
/// software-managed version number of the tree-less scheme; the other
/// schemes ignore it (the counter tree manages its own counters, and the
/// unprotected/encrypt-only memories have nothing to bind it to).
///
/// The attack hooks return `false` when the scheme has no such surface
/// (e.g. [`substitute_mac`] on a memory without MACs) or when the target
/// block was never written — the harness records those cells as
/// not-applicable rather than as a survived attack.
///
/// [`write_block`]: FunctionalMemory::write_block
/// [`read_block`]: FunctionalMemory::read_block
/// [`substitute_mac`]: FunctionalMemory::substitute_mac
pub trait FunctionalMemory: std::fmt::Debug {
    /// Which scheme this memory implements.
    fn scheme(&self) -> SchemeKind;

    /// Encrypt (if applicable) and store a block under `version`.
    fn write_block(&mut self, addr: Addr, version: u64, plaintext: [u8; BLOCK_SIZE]);

    /// Fetch, verify (if applicable) and decrypt a block, expecting
    /// `version`.
    ///
    /// # Errors
    ///
    /// [`IntegrityError`] when nothing was stored or verification fails.
    fn read_block(&self, addr: Addr, version: u64) -> Result<[u8; BLOCK_SIZE], IntegrityError>;

    /// Flip the given bit positions (`0..512`) of the stored block —
    /// bus/module tampering. Returns `false` if nothing is stored there.
    fn tamper_bits(&mut self, addr: Addr, bits: &[u16]) -> bool;

    /// Photograph a block's full untrusted state (first half of a replay).
    fn capture_block(&self, addr: Addr) -> Option<BlockCapture>;

    /// Write a capture back over a block's untrusted state (second half of
    /// a replay, or installation of foreign-context state). Returns `false`
    /// if the capture lacks metadata this scheme stores.
    fn restore_block(&mut self, addr: Addr, capture: &BlockCapture) -> bool;

    /// Roll back only the *metadata* of a block to a captured state (MAC,
    /// counters), leaving the current data bytes in place. On schemes with
    /// no per-block metadata this degenerates to rolling back the data
    /// itself — the strongest rollback the scheme exposes.
    fn rollback_metadata(&mut self, addr: Addr, capture: &BlockCapture) -> bool;

    /// Copy the stored bytes (and MAC, where present) of `donor` over
    /// `victim` — ciphertext relocation/splicing. Returns `false` if the
    /// donor was never written.
    fn splice_block(&mut self, donor: Addr, victim: Addr) -> bool;

    /// Replace `victim`'s stored MAC with `donor`'s, leaving the data
    /// untouched. Returns `false` on schemes without MACs or when either
    /// block has none.
    fn substitute_mac(&mut self, victim: Addr, donor: Addr) -> bool;

    /// Whether `needle` appears anywhere in the untrusted store — the
    /// confidentiality probe.
    fn dram_contains(&self, needle: &[u8]) -> bool;

    /// Switch to the keys of re-encryption `epoch` (the version-exhaustion
    /// sweep's re-key step). The stored state is *not* touched: blocks
    /// written under the old epoch become unreadable until the sweep
    /// rewrites them, which is why callers must re-read everything first.
    /// Returns `false` on schemes with no keys to rotate.
    fn rekey(&mut self, epoch: u64) -> bool;
}

impl<M: FunctionalMemory + ?Sized> FunctionalMemory for Box<M> {
    fn scheme(&self) -> SchemeKind {
        (**self).scheme()
    }
    fn write_block(&mut self, addr: Addr, version: u64, plaintext: [u8; BLOCK_SIZE]) {
        (**self).write_block(addr, version, plaintext);
    }
    fn read_block(&self, addr: Addr, version: u64) -> Result<[u8; BLOCK_SIZE], IntegrityError> {
        (**self).read_block(addr, version)
    }
    fn tamper_bits(&mut self, addr: Addr, bits: &[u16]) -> bool {
        (**self).tamper_bits(addr, bits)
    }
    fn capture_block(&self, addr: Addr) -> Option<BlockCapture> {
        (**self).capture_block(addr)
    }
    fn restore_block(&mut self, addr: Addr, capture: &BlockCapture) -> bool {
        (**self).restore_block(addr, capture)
    }
    fn rollback_metadata(&mut self, addr: Addr, capture: &BlockCapture) -> bool {
        (**self).rollback_metadata(addr, capture)
    }
    fn splice_block(&mut self, donor: Addr, victim: Addr) -> bool {
        (**self).splice_block(donor, victim)
    }
    fn substitute_mac(&mut self, victim: Addr, donor: Addr) -> bool {
        (**self).substitute_mac(victim, donor)
    }
    fn dram_contains(&self, needle: &[u8]) -> bool {
        (**self).dram_contains(needle)
    }
    fn rekey(&mut self, epoch: u64) -> bool {
        (**self).rekey(epoch)
    }
}

/// Construct the functional memory for `kind`. `data_blocks` sizes the
/// counter tree (the other schemes grow on demand) — pass the protected
/// footprint in 64 B blocks.
#[must_use]
pub fn build_functional(
    kind: SchemeKind,
    master: Key128,
    data_blocks: u64,
) -> Box<dyn FunctionalMemory> {
    match kind {
        SchemeKind::Unsecure => Box::new(UnsecureMemory::new()),
        SchemeKind::TreeBased => Box::new(CounterTreeMemory::new(master, data_blocks)),
        SchemeKind::Treeless => Box::new(TreelessMemory::new(master)),
        SchemeKind::EncryptOnly => Box::new(EncryptOnlyMemory::new(master)),
    }
}

/// Flip `bits` (bit positions in `0..512`) of a stored block, the shared
/// implementation behind every scheme's [`FunctionalMemory::tamper_bits`].
#[expect(
    clippy::disallowed_methods,
    reason = "an attack helper of every scheme"
)]
fn flip_bits(dram: &mut RawDram, addr: Addr, bits: &[u16]) -> bool {
    let Some(block) = dram.block_mut(addr) else {
        return false;
    };
    for &bit in bits {
        let byte = (bit as usize / 8) % BLOCK_SIZE;
        block[byte] ^= 1 << (bit % 8);
    }
    true
}

/// The version step of a MAC-mismatch diagnosis: whether `tag` verifies
/// the block absorbed in `prefix` at `addr` under a version (or counter)
/// within `window` of `expected`. It probes nearest first, below before
/// above, at two compressions a probe, since the data block was absorbed
/// once.
fn verifies_nearby(
    prefix: &MacPrefix,
    addr: Addr,
    expected: u64,
    window: u64,
    tag: MacTag,
) -> bool {
    (1..=window).any(|delta| {
        [expected.checked_sub(delta), expected.checked_add(delta)]
            .into_iter()
            .flatten()
            .any(|v| prefix.tag(addr.0, v) == tag)
    })
}

/// The address step of a MAC-mismatch diagnosis: whether the identical
/// `(ct, tag)` pair is stored intact at a block other than `addr`, i.e.
/// was relocated or spliced to it. A compare loop over the tag slots finds
/// the candidates, and each one's ciphertext is checked.
#[expect(
    clippy::disallowed_methods,
    reason = "an attack helper of every scheme"
)]
fn stored_elsewhere(
    dram: &RawDram,
    macs: &PagedStore<MacTag>,
    addr: Addr,
    ct: &[u8; BLOCK_SIZE],
    tag: MacTag,
) -> bool {
    let unit = addr.block().0;
    macs.units_holding(tag)
        .filter(|&other| other != unit)
        .any(|other| dram.read_block(Addr(other * BLOCK_SIZE as u64)).as_ref() == Some(ct))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_functional_reports_scheme() {
        for kind in SchemeKind::ALL {
            let mem = build_functional(kind, Key128::derive(b"build"), 256);
            assert_eq!(mem.scheme(), kind);
        }
    }

    #[test]
    fn trait_datapath_roundtrips_on_every_scheme() {
        for kind in SchemeKind::ALL {
            let mut mem = build_functional(kind, Key128::derive(b"roundtrip"), 256);
            mem.write_block(Addr(128), 3, [0x5au8; 64]);
            assert_eq!(
                mem.read_block(Addr(128), 3).expect("clean read verifies"),
                [0x5au8; 64],
                "{kind}"
            );
        }
    }

    #[test]
    fn tamper_bits_on_missing_block_reports_false() {
        for kind in SchemeKind::ALL {
            let mut mem = build_functional(kind, Key128::derive(b"missing"), 256);
            assert!(!mem.tamper_bits(Addr(0), &[0]), "{kind}");
        }
    }

    #[test]
    fn error_display() {
        let e = IntegrityError::MacMismatch {
            addr: 0x40,
            cause: MismatchCause::Content,
        };
        assert!(e.to_string().contains("0x40"));
        assert!(e.to_string().contains("content"));
        let e = IntegrityError::TreeMismatch { level: 2 };
        assert!(e.to_string().contains("level 2"));
        let e = IntegrityError::NotWritten { addr: 0x80 };
        assert!(e.to_string().contains("never written"));
        let e = IntegrityError::Stalled { addr: 0xc0 };
        assert!(e.to_string().contains("stalled"));
    }

    #[test]
    fn mismatch_causes_have_distinct_labels() {
        let labels: std::collections::BTreeSet<_> = [
            MismatchCause::Content,
            MismatchCause::Address,
            MismatchCause::Version,
        ]
        .iter()
        .map(|c| c.label())
        .collect();
        assert_eq!(labels.len(), 3);
    }

    #[test]
    fn rekey_alone_invalidates_old_blocks_on_keyed_schemes() {
        for kind in SchemeKind::ALL {
            let mut mem = build_functional(kind, Key128::derive(b"rekey"), 256);
            mem.write_block(Addr(0), 1, [0x11u8; 64]);
            let rotated = mem.rekey(1);
            match kind {
                SchemeKind::Unsecure => {
                    assert!(!rotated, "no keys to rotate");
                    assert_eq!(mem.read_block(Addr(0), 1).expect("plaintext"), [0x11u8; 64]);
                }
                _ => {
                    assert!(rotated, "{kind}");
                    // Old-epoch state no longer decrypts/verifies cleanly
                    // until rewritten — the sweep must rewrite everything.
                    let stale = mem.read_block(Addr(0), 1);
                    assert!(
                        stale.is_err() || stale.expect("encrypt-only") != [0x11u8; 64],
                        "{kind}: old-epoch block survived a rekey"
                    );
                    // A fresh write under the new epoch round-trips.
                    mem.write_block(Addr(0), 1, [0x22u8; 64]);
                    assert_eq!(mem.read_block(Addr(0), 1).expect("new epoch"), [0x22u8; 64]);
                }
            }
        }
    }
}
