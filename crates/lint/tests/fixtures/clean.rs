//! Fixture: deterministic, panic-free simulator code passes every rule.

use std::collections::BTreeMap;

pub enum TransportMode {
    PerPacket,
    Batched,
}

pub fn name(transport: &TransportMode) -> &'static str {
    match transport {
        TransportMode::PerPacket => "packet",
        TransportMode::Batched => "batched",
    }
}

pub fn total_per_flow(loads: &BTreeMap<u32, u64>) -> Vec<(u32, u64)> {
    loads.iter().map(|(f, l)| (*f, *l)).collect()
}
