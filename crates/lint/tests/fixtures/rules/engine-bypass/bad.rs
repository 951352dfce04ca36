//! BAD: reaches raw DRAM through two intermediate helpers. The entry
//! function contains no `RawDram` token, so a token scan cannot tie the
//! access to the entry point — the reachability rule follows the chain
//! and reports the crossing call site.

use tnpu_memprot::functional::dram::RawDram;

pub fn attack_entry() {
    helper_one();
}

fn helper_one() {
    helper_two();
}

fn helper_two() {
    let mut dram = RawDram::new();
    dram.write_block(0);
}
