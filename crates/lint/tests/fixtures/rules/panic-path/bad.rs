//! BAD: a panic in a private helper of the session core — the
//! attest-panics-on-dead-context bug class. No public method has to reach
//! it: every panic site in the rule's scope must become a typed error or
//! carry a justification.

pub struct Session;

fn step_two() -> u32 {
    let state: Option<u32> = None;
    state.unwrap()
}
