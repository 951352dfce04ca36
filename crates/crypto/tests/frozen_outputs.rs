//! Frozen outputs of the 64 B block modes.
//!
//! `CtrMode`, `XtsMode` and `BlockMac` ciphertexts and tags over a small
//! fixed (address, counter/version) grid, rendered once and committed under
//! `tests/golden/modes.txt`. Every functional memory, attack cell and golden
//! of the simulator is built on these bytes, so any rewrite of the AES,
//! SHA-256 or HMAC internals must reproduce them exactly. Unlike the
//! simulator goldens there is no re-bless path: a mismatch is a bug.

use tnpu_crypto::ctr::CtrMode;
use tnpu_crypto::mac::BlockMac;
use tnpu_crypto::xts::XtsMode;
use tnpu_crypto::Key128;

const GOLDEN: &str = include_str!("golden/modes.txt");

/// Block addresses: first block, second block, a 2 GiB boundary and the
/// last block of the address space.
const ADDRS: [u64; 4] = [0, 0x40, 0x7fff_ffc0, u64::MAX - 63];

/// Counters / versions: fresh, first bump, the CTR seed's 56-bit
/// truncation edge, and the maximum.
const COUNTERS: [u64; 4] = [0, 1, 0x00ff_ffff_ffff_ffff, u64::MAX];

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn render() -> String {
    let key = Key128::derive(b"frozen-grid");
    let ctr = CtrMode::new(key);
    let xts = XtsMode::from_master(key);
    let mac = BlockMac::new(key);
    let data: [u8; 64] = std::array::from_fn(|i| (i as u8).wrapping_mul(37).wrapping_add(11));
    let mut out = String::new();
    for addr in ADDRS {
        for counter in COUNTERS {
            out += &format!(
                "ctr {addr:#x} {counter:#x} {}\n",
                hex(&ctr.encrypt(addr, counter, &data))
            );
        }
    }
    for addr in ADDRS {
        for version in COUNTERS {
            out += &format!(
                "mac {addr:#x} {version:#x} {}\n",
                hex(&mac.tag(addr, version, &data).0)
            );
        }
    }
    for addr in ADDRS {
        let unit = addr / 64;
        let mut plain = data;
        xts.decrypt_block(unit, &mut plain);
        out += &format!("xts-enc {unit:#x} {}\n", hex(&xts.encrypt(unit, &data)));
        out += &format!("xts-dec {unit:#x} {}\n", hex(&plain));
    }
    out
}

#[test]
fn block_modes_are_byte_identical_to_the_golden() {
    let actual = render();
    assert!(
        actual == GOLDEN,
        "block-mode outputs drifted from tests/golden/modes.txt\n--- golden ---\n{GOLDEN}\n--- actual ---\n{actual}"
    );
}
