//! GOOD: the helper surfaces a typed error instead of panicking, and the
//! one invariant panic left (a fixed-width slice of a fixed-size array)
//! carries a written justification through the allow escape hatch.

pub struct Session;

impl Session {
    pub fn attest(&self) -> Result<u64, String> {
        step_two()
    }
}

fn step_two() -> Result<u64, String> {
    let seed = [0u8; 32];
    let mut eight = [0u8; 8];
    // tnpu-lint: allow(panic-path) — `[..8]` of a fixed `[u8; 32]`.
    eight.copy_from_slice(&seed[..8]);
    Ok(u64::from_le_bytes(eight))
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_unwrap() {
        assert_eq!(super::step_two().unwrap(), 0);
    }
}
