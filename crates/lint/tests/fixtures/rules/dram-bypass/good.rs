use tnpu_sim::Addr;

pub fn read<M: tnpu_memprot::FunctionalMemory>(mem: &M, addr: Addr) {
    let _ = mem.read_block(addr, 0);
}

#[cfg(test)]
mod tests {
    // Physical-attack modelling belongs in tests: flipping bits on the
    // simulated bus is the threat the engines must detect.
    use tnpu_memprot::functional::RawDram;
    use tnpu_sim::Addr;

    #[test]
    fn tamper() {
        let mut dram = RawDram::new();
        dram.write_block(Addr(0), [0u8; 64]);
        dram.block_mut(Addr(0)).unwrap()[5] ^= 0xff;
    }
}
