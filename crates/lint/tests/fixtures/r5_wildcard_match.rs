//! Fixture: a `_` arm over a config enum silently swallows new variants.

pub enum TransportMode {
    PerPacket,
    Batched,
}

pub fn name(transport: &TransportMode) -> &'static str {
    match transport {
        TransportMode::PerPacket => "packet",
        _ => "other",
    }
}
