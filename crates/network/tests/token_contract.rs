//! The async NetworkAPI's token contract, checked on every backend: the
//! analytical closed form, the flow backend, the packet simulator on both
//! transports, and the blocking oracle's probe backend. Each message's
//! completion carries the token the caller sent it under, exactly once —
//! for ordinary, self and zero-size sends alike, and when a later send
//! reuses a drained token (and, on the packet and flow backends, the
//! drained message's slot).

use std::collections::BTreeMap;

use astra_des::{DataSize, Time};
use astra_garnet::{PacketNetwork, PacketSimConfig, TransportMode};
use astra_network::{AnalyticalNetwork, Completion, FlowNetwork, NetworkBackend};
use astra_system::{probe_network, NetworkBackendKind, SystemConfig};
use astra_topology::Topology;

/// One async send: `(token, at, src, dst, bytes)`.
type Send = (u32, Time, usize, usize, u64);

const TOPOLOGY: &str = "R(4)@100_SW(2)@50";

/// Every backend under test, by name, on `topo`. The probe backends
/// borrow `configs`.
fn backends<'a>(
    topo: &'a Topology,
    configs: &'a [SystemConfig],
) -> Vec<(String, Box<dyn NetworkBackend + 'a>)> {
    let packet =
        |transport| PacketNetwork::new(topo, PacketSimConfig::fast().with_transport(transport));
    let mut all: Vec<(String, Box<dyn NetworkBackend + 'a>)> = vec![
        (
            "analytical".into(),
            Box::new(AnalyticalNetwork::new(topo.clone())),
        ),
        ("flow".into(), Box::new(FlowNetwork::new(topo))),
        (
            "packet/batched".into(),
            Box::new(packet(TransportMode::Batched)),
        ),
        (
            "packet/per-packet".into(),
            Box::new(packet(TransportMode::PerPacket)),
        ),
    ];
    for config in configs {
        let name = format!("probe/{}", config.network_backend);
        all.push((name, probe_network(topo, config)));
    }
    all
}

fn probe_configs() -> Vec<SystemConfig> {
    NetworkBackendKind::ALL
        .iter()
        .map(|&kind| SystemConfig {
            network_backend: kind,
            ..SystemConfig::default()
        })
        .collect()
}

/// Sends `sends` in order, each once the backend has run up to its
/// instant, then runs the backend dry. Returns every drained completion.
fn drive(net: &mut dyn NetworkBackend, sends: &[Send]) -> Vec<Completion> {
    let mut done = Vec::new();
    for &(token, at, src, dst, bytes) in sends {
        while let Some(t) = net.next_event_time().filter(|&t| t <= at) {
            net.advance_until(t);
            net.drain_completions(&mut done);
        }
        let at = at.max(net.earliest_send_time());
        net.send_async(token, at, src, dst, DataSize::from_bytes(bytes));
    }
    run_dry(net, &mut done);
    done
}

fn run_dry(net: &mut dyn NetworkBackend, done: &mut Vec<Completion>) {
    net.drain_completions(done);
    while let Some(t) = net.next_event_time() {
        net.advance_until(t);
        net.drain_completions(done);
    }
}

/// Asserts that `done` holds exactly one completion per token of
/// `sends`, none finishing before its send, and returns the finishes by
/// token.
fn assert_each_token_once(name: &str, sends: &[Send], done: &[Completion]) -> BTreeMap<u32, Time> {
    let mut finishes = BTreeMap::new();
    for c in done {
        assert!(
            finishes.insert(c.token, c.finish).is_none(),
            "{name}: token {} came back twice",
            c.token
        );
    }
    let mut want: Vec<u32> = sends.iter().map(|s| s.0).collect();
    want.sort_unstable();
    let got: Vec<u32> = finishes.keys().copied().collect();
    assert_eq!(got, want, "{name}: completions do not match the sends");
    for &(token, at, ..) in sends {
        assert!(
            finishes[&token] >= at,
            "{name}: token {token} finished early"
        );
    }
    finishes
}

#[test]
fn every_token_comes_back_exactly_once() {
    let topo = Topology::parse(TOPOLOGY).unwrap();
    let configs = probe_configs();
    // Tokens are arbitrary and sparse; the mix holds a self-send, two
    // zero-size sends (one of them a self-send), a shared link and
    // staggered start times.
    let sends: Vec<Send> = vec![
        (7, Time::ZERO, 0, 5, 1 << 20),
        (0, Time::ZERO, 1, 5, 1 << 20),
        (1_000_000, Time::ZERO, 3, 3, 1 << 20),
        (u32::MAX - 1, Time::from_us(1), 2, 6, 0),
        (42, Time::from_us(2), 4, 4, 0),
        (9, Time::from_us(2), 0, 1, 300_000),
        (3, Time::from_us(40), 5, 0, 64 << 10),
    ];
    for (name, mut net) in backends(&topo, &configs) {
        let done = drive(net.as_mut(), &sends);
        let finishes = assert_each_token_once(&name, &sends, &done);
        // Self-sends arrive the instant they are sent. (A zero-size send
        // between two NPUs still pays latency in the closed form.)
        assert_eq!(finishes[&1_000_000], Time::ZERO, "{name}");
        assert_eq!(finishes[&42], Time::from_us(2), "{name}");
        assert_eq!(net.stats().messages, sends.len() as u64, "{name}");
    }
}

/// A token sent again once its completion is drained comes back once
/// more, and the reuse is invisible: the finishes equal those of a twin
/// backend that saw the same sends under tokens never reused.
#[test]
fn a_drained_token_can_be_sent_again() {
    let topo = Topology::parse(TOPOLOGY).unwrap();
    let configs = probe_configs();
    let first: Vec<Send> = vec![
        (1, Time::ZERO, 0, 5, 1 << 20),
        (2, Time::ZERO, 1, 5, 1 << 20),
    ];
    // Both tokens again (on the packet and flow backends, in the drained
    // slots), plus one fresh token that takes a new slot.
    let again = |at: Time| -> Vec<Send> {
        vec![
            (2, at, 4, 1, 1 << 20),
            (1, at, 5, 0, 256 << 10),
            (3, at, 1, 5, 1 << 20),
        ]
    };
    let fresh = |sends: &[Send], base: u32| -> Vec<Send> {
        sends
            .iter()
            .enumerate()
            .map(|(i, &(_, at, src, dst, bytes))| (base + i as u32, at, src, dst, bytes))
            .collect()
    };
    let reused = backends(&topo, &configs);
    let twins = backends(&topo, &configs);
    for ((name, mut net), (_, mut twin)) in reused.into_iter().zip(twins) {
        let done = drive(net.as_mut(), &first);
        let before = assert_each_token_once(&name, &first, &done);
        let at = before.values().copied().fold(Time::ZERO, Time::max);
        let second = again(at);
        let done = drive(net.as_mut(), &second);
        let after = assert_each_token_once(&name, &second, &done);

        let twin_first = fresh(&first, 100);
        let twin_second = fresh(&second, 200);
        let twin_before =
            assert_each_token_once(&name, &twin_first, &drive(twin.as_mut(), &twin_first));
        let twin_after =
            assert_each_token_once(&name, &twin_second, &drive(twin.as_mut(), &twin_second));
        let finishes = |m: &BTreeMap<u32, Time>, sends: &[Send]| -> Vec<Time> {
            sends.iter().map(|s| m[&s.0]).collect()
        };
        assert_eq!(
            finishes(&before, &first),
            finishes(&twin_before, &twin_first),
            "{name}"
        );
        assert_eq!(
            finishes(&after, &second),
            finishes(&twin_after, &twin_second),
            "{name}: reusing drained tokens changed a finish"
        );
    }
}
