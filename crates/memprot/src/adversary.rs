//! Deterministic attack strategies against the functional memories.
//!
//! Each [`AttackKind`] models one physical-attacker capability from the
//! paper's threat model (§III): corrupting bits on the memory bus,
//! relocating ciphertext, replaying previously captured state, rolling
//! back DRAM-resident metadata, substituting MACs, and splicing state
//! captured from a *different* protection context (different keys). The
//! attacks work purely through the [`FunctionalMemory`] attack surface —
//! exactly what an attacker with DRAM access but no on-chip access has,
//! and the only way any code outside this crate reaches untrusted DRAM.
//!
//! An attack runs in two phases: [`AttackKind::observe`] photographs the
//! victim's state at a chosen moment (only the replay-family attacks need
//! it), and [`AttackKind::inject`] mutates the untrusted store at the
//! injection point. All randomness (which bits to flip, foreign plaintext)
//! comes from the caller-supplied [`SplitMix64`], so a seeded harness is
//! byte-reproducible.

use crate::functional::{BlockCapture, FunctionalMemory};
use tnpu_sim::rng::SplitMix64;
use tnpu_sim::{Addr, BLOCK_SIZE};

/// The attack taxonomy of the harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AttackKind {
    /// Flip one bit of the stored block.
    BitFlip,
    /// Flip several distinct bits of the stored block.
    MultiBitFlip,
    /// Copy another protected block's stored state over the victim.
    BlockSplice,
    /// Re-supply previously captured state for the same address after the
    /// victim has moved on (version bumped / counters advanced).
    Replay,
    /// Roll back the DRAM-resident metadata (MAC, counters) to a captured
    /// state while the data stays current.
    VersionRollback,
    /// Replace the victim's MAC with another block's MAC.
    MacSubstitution,
    /// Install state captured from a different protection context
    /// (different keys) at the same address.
    CrossContextSplice,
}

impl AttackKind {
    /// Every attack, in presentation order.
    pub const ALL: [AttackKind; 7] = [
        AttackKind::BitFlip,
        AttackKind::MultiBitFlip,
        AttackKind::BlockSplice,
        AttackKind::Replay,
        AttackKind::VersionRollback,
        AttackKind::MacSubstitution,
        AttackKind::CrossContextSplice,
    ];

    /// Stable label used in tables and seed derivation.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            AttackKind::BitFlip => "bit-flip",
            AttackKind::MultiBitFlip => "multi-bit-flip",
            AttackKind::BlockSplice => "block-splice",
            AttackKind::Replay => "replay",
            AttackKind::VersionRollback => "version-rollback",
            AttackKind::MacSubstitution => "mac-substitution",
            AttackKind::CrossContextSplice => "cross-context-splice",
        }
    }

    /// Whether the attack needs an [`observe`](Self::observe) capture (the
    /// replay family re-supplies previously captured state; the victim
    /// must be rewritten between capture and injection).
    #[must_use]
    pub fn needs_capture(self) -> bool {
        matches!(self, AttackKind::Replay | AttackKind::VersionRollback)
    }

    /// Photograph the victim's untrusted state at the capture moment (end
    /// of the clean reference pass). Returns the capture exactly when
    /// [`needs_capture`](Self::needs_capture) holds and the victim was
    /// written; the other attacks observe nothing.
    #[must_use]
    pub fn observe(self, mem: &dyn FunctionalMemory, victim: Addr) -> Option<BlockCapture> {
        if self.needs_capture() {
            mem.capture_block(victim)
        } else {
            None
        }
    }

    /// Mutate the untrusted store at the injection point, using the
    /// [`observe`](Self::observe) capture for the replay family. Returns
    /// `false` when the scheme offers no such surface (the harness records
    /// the cell as not-applicable).
    pub fn inject(
        self,
        mem: &mut dyn FunctionalMemory,
        point: &mut AttackPoint<'_>,
        captured: Option<&BlockCapture>,
    ) -> bool {
        // Bit flips stay inside the bytes the consumer reads.
        let live_bits = 8 * point.live_bytes.clamp(1, BLOCK_SIZE);
        match self {
            AttackKind::BitFlip => {
                let bit = point.rng.next_below(live_bits as u64) as u16;
                mem.tamper_bits(point.victim, &[bit])
            }
            AttackKind::MultiBitFlip => {
                // 2..=8 distinct positions: distinctness guarantees the
                // block actually changes (a bit flipped twice cancels out).
                let wanted = (2 + point.rng.next_below(7) as usize).min(live_bits);
                let mut bits: Vec<u16> = Vec::with_capacity(wanted);
                while bits.len() < wanted {
                    let bit = point.rng.next_below(live_bits as u64) as u16;
                    if !bits.contains(&bit) {
                        bits.push(bit);
                    }
                }
                mem.tamper_bits(point.victim, &bits)
            }
            AttackKind::BlockSplice => mem.splice_block(point.donor, point.victim),
            AttackKind::Replay => captured.is_some_and(|c| mem.restore_block(point.victim, c)),
            AttackKind::VersionRollback => {
                captured.is_some_and(|c| mem.rollback_metadata(point.victim, c))
            }
            AttackKind::MacSubstitution => mem.substitute_mac(point.victim, point.donor),
            AttackKind::CrossContextSplice => {
                let Some(foreign) = point.foreign.as_deref_mut() else {
                    return false;
                };
                // The attacker controls the other context, so it can
                // produce any plaintext it wants — with the *foreign* keys
                // and metadata.
                let mut plaintext = [0u8; BLOCK_SIZE];
                for chunk in plaintext.chunks_exact_mut(8) {
                    chunk.copy_from_slice(&point.rng.next_u64().to_le_bytes());
                }
                foreign.write_block(point.victim, point.version, plaintext);
                foreign
                    .capture_block(point.victim)
                    .is_some_and(|capture| mem.restore_block(point.victim, &capture))
            }
        }
    }
}

impl std::fmt::Display for AttackKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Where and with what an injection happens. The harness picks all fields
/// deterministically (seeded from model/scheme/attack labels).
pub struct AttackPoint<'a> {
    /// Block the attack lands on.
    pub victim: Addr,
    /// A different written block in the same memory (splice/MAC donors).
    pub donor: Addr,
    /// The version the victim is expected to carry at its next read —
    /// what a cross-context forger would supply.
    pub version: u64,
    /// How many leading bytes of the victim block the consumer actually
    /// reads. Bit-flip attacks stay inside this window: AES-XTS garbles
    /// only the 16 B sub-block containing a flipped ciphertext bit, so a
    /// flip in the padding tail of a partially-used block would be
    /// invisible to a consumer that truncates — an ineffective injection,
    /// not a scheme property.
    pub live_bytes: usize,
    /// A memory of the same scheme under *different keys*, for
    /// [`AttackKind::CrossContextSplice`].
    pub foreign: Option<&'a mut dyn FunctionalMemory>,
    /// Seeded randomness for the attack's choices.
    pub rng: &'a mut SplitMix64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functional::{build_functional, TreelessMemory};
    use crate::SchemeKind;
    use tnpu_crypto::Key128;

    fn written(kind: SchemeKind) -> Box<dyn FunctionalMemory> {
        let mut mem = build_functional(kind, Key128::derive(b"adv-test"), 256);
        mem.write_block(Addr(0), 1, [1u8; 64]);
        mem.write_block(Addr(64), 1, [2u8; 64]);
        mem
    }

    fn point<'a>(rng: &'a mut SplitMix64) -> AttackPoint<'a> {
        AttackPoint {
            victim: Addr(0),
            donor: Addr(64),
            version: 1,
            live_bytes: BLOCK_SIZE,
            foreign: None,
            rng,
        }
    }

    #[test]
    fn bit_flip_detected_by_treeless_only_where_macs_exist() {
        for kind in SchemeKind::ALL {
            let mut mem = written(kind);
            let mut rng = SplitMix64::new(3);
            let attack = AttackKind::BitFlip;
            let captured = attack.observe(&mem, Addr(0));
            assert!(
                attack.inject(&mut mem, &mut point(&mut rng), captured.as_ref()),
                "{kind}"
            );
            let read = mem.read_block(Addr(0), 1);
            match kind {
                SchemeKind::Treeless | SchemeKind::TreeBased => {
                    assert!(read.is_err(), "{kind} must detect the flip");
                }
                SchemeKind::EncryptOnly | SchemeKind::Unsecure => {
                    assert_ne!(
                        read.expect("no integrity check fires"),
                        [1u8; 64],
                        "{kind} silently corrupts"
                    );
                }
            }
        }
    }

    #[test]
    fn multi_bit_flip_changes_block_every_seed() {
        // Distinctness means an even number of flips can never cancel.
        for seed in 0..32 {
            let mut mem = written(SchemeKind::Unsecure);
            let mut rng = SplitMix64::new(seed);
            assert!(AttackKind::MultiBitFlip.inject(&mut mem, &mut point(&mut rng), None));
            assert_ne!(mem.read_block(Addr(0), 1).expect("unprotected"), [1u8; 64]);
        }
    }

    #[test]
    fn bit_flips_respect_the_live_window() {
        // Flips must land in the bytes the consumer reads, else a
        // truncating reader never sees the corruption.
        for seed in 0..16 {
            let mut mem = written(SchemeKind::Unsecure);
            let mut rng = SplitMix64::new(seed);
            let mut p = point(&mut rng);
            p.live_bytes = 4;
            assert!(AttackKind::BitFlip.inject(&mut mem, &mut p, None));
            let read = mem.read_block(Addr(0), 1).expect("unprotected");
            assert_eq!(read[4..], [1u8; 60], "tail untouched");
            assert_ne!(read[..4], [1u8; 4], "window corrupted");
        }
    }

    #[test]
    fn replay_needs_rewrite_to_matter_and_versions_catch_it() {
        let mut mem = written(SchemeKind::Treeless);
        let attack = AttackKind::Replay;
        let captured = attack.observe(&mem, Addr(0));
        // Victim rewrites under a bumped version; attacker re-supplies the
        // stale state; the expected version is now 2.
        mem.write_block(Addr(0), 2, [9u8; 64]);
        let mut rng = SplitMix64::new(0);
        let mut p = point(&mut rng);
        p.version = 2;
        assert!(attack.inject(&mut mem, &mut p, captured.as_ref()));
        assert!(mem.read_block(Addr(0), 2).is_err(), "stale MAC must fail");
    }

    #[test]
    fn rollback_leaves_data_but_stales_metadata_on_treeless() {
        let mut mem = TreelessMemory::new(Key128::derive(b"rb"));
        mem.write_block(Addr(0), 1, [1u8; 64]);
        let attack = AttackKind::VersionRollback;
        let captured = attack.observe(&mem, Addr(0));
        mem.write_block(Addr(0), 2, [5u8; 64]);
        let ct_before = mem.capture_block(Addr(0)).expect("written").bytes;
        let mut rng = SplitMix64::new(0);
        assert!(attack.inject(&mut mem, &mut point(&mut rng), captured.as_ref()));
        assert_eq!(
            mem.capture_block(Addr(0)).expect("written").bytes,
            ct_before,
            "data untouched"
        );
        assert!(mem.read_block(Addr(0), 2).is_err(), "stale MAC detected");
    }

    #[test]
    fn mac_substitution_not_applicable_without_macs() {
        for kind in [SchemeKind::Unsecure, SchemeKind::EncryptOnly] {
            let mut mem = written(kind);
            let mut rng = SplitMix64::new(0);
            assert!(
                !AttackKind::MacSubstitution.inject(&mut mem, &mut point(&mut rng), None),
                "{kind}"
            );
        }
    }

    #[test]
    fn cross_context_splice_fails_verification_under_victim_keys() {
        let mut mem = written(SchemeKind::Treeless);
        let mut foreign = build_functional(SchemeKind::Treeless, Key128::derive(b"other"), 256);
        let mut rng = SplitMix64::new(1);
        let mut p = point(&mut rng);
        p.foreign = Some(&mut foreign);
        assert!(AttackKind::CrossContextSplice.inject(&mut mem, &mut p, None));
        assert!(
            mem.read_block(Addr(0), 1).is_err(),
            "foreign MAC key differs"
        );
    }

    #[test]
    fn strategies_report_their_kind_and_capture_needs() {
        assert!(AttackKind::Replay.needs_capture());
        assert!(AttackKind::VersionRollback.needs_capture());
        assert!(!AttackKind::BitFlip.needs_capture());
        let labels: std::collections::BTreeSet<_> =
            AttackKind::ALL.iter().map(|a| a.label()).collect();
        assert_eq!(labels.len(), AttackKind::ALL.len());
    }

    #[test]
    fn observe_captures_exactly_for_the_replay_family_on_every_scheme() {
        for kind in SchemeKind::ALL {
            let mem = written(kind);
            for attack in AttackKind::ALL {
                let captured = attack.observe(&mem, Addr(0));
                assert_eq!(
                    captured.is_some(),
                    attack.needs_capture(),
                    "{kind} × {attack}"
                );
                if let Some(c) = captured {
                    let direct = mem.capture_block(Addr(0)).expect("written");
                    assert_eq!(
                        (c.bytes, c.mac, c.counters),
                        (direct.bytes, direct.mac, direct.counters),
                        "{kind} × {attack}: the victim's own state"
                    );
                }
                assert!(
                    attack.observe(&mem, Addr(128)).is_none(),
                    "{kind} × {attack}: an unwritten block has nothing to capture"
                );
            }
        }
    }
}
