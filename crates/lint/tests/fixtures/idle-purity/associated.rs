//! Clean fixture in the protocol trait's shape: `activity` is an associated
//! fn over shared state, one node's state and a view — no receiver.

pub struct Rules {
    threshold: u64,
}

pub struct Proto;

impl Proto {
    // gossip-audit: contract(pure)
    pub fn activity(rules: &Rules, state: &u64, view: &[u64]) -> bool {
        *state + view.len() as u64 >= rules.threshold
    }
}
