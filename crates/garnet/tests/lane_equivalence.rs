//! Differential suite for the packet core's per-link lanes and for
//! completion-bounded advance.
//!
//! 1. The production core ([`PacketNetwork::new`]) schedules every
//!    per-packet hop on its link's lane; the frozen reference
//!    ([`PacketNetwork::global_heap_reference`]) puts them all on one
//!    heap. On random topologies with staggered sends, incast and sends
//!    injected mid-run, both must agree on every completion, the event
//!    count and the recorded link grants.
//! 2. [`NetworkBackend::advance_to_completion`] must hand a caller the
//!    same completion batches, at the same instants, as stepping
//!    [`NetworkBackend::advance_until`] one instant at a time — with the
//!    caller reacting to each batch by sending more traffic, and under a
//!    frontier that stops the backend short — on both transports.

use astra_des::{DataSize, Time};
use astra_garnet::{PacketNetwork, PacketSimConfig, TransportMode};
use astra_network::{Completion, LinkTrace, NetworkBackend};
use astra_topology::Topology;
use proptest::prelude::*;

fn arb_topology() -> impl Strategy<Value = Topology> {
    prop::sample::select(vec![
        "R(4)@100",
        "R(8)@100",
        "SW(8)@150",
        "FC(4)@200",
        "R(4)@100_SW(2)@50",
        "R(2)@200_FC(2)@100_SW(2)@50",
        "R(8)@100_SW(4)@50",
        "SW(8)@200_SW(8)@100",
    ])
    .prop_map(|s| Topology::parse(s).unwrap())
}

fn arb_packet_size() -> impl Strategy<Value = DataSize> {
    prop::sample::select(vec![256u64, 4096, 65536]).prop_map(DataSize::from_bytes)
}

/// Raw sends: `(src seed, dst seed, KiB, start slot)`. Seeds are reduced
/// modulo the topology's NPU count. Starts fall on a coarse grid of
/// [`SLOT`]s and sizes on a few values, so packets of different senders
/// often reach a shared link at the same instant: those ties are where an
/// order other than `(time, seq)` would show.
fn arb_sends() -> impl Strategy<Value = Vec<(usize, usize, u64, u64)>> {
    let kib = prop::sample::select(vec![1u64, 16, 64, 200]);
    prop::collection::vec((0usize..64, 0usize..64, kib, 0u64..8), 1..20)
}

/// One start slot of [`arb_sends`].
const SLOT: Time = Time::from_ns(1_000);

/// Resolves a raw send against `npus`; with `incast` every message goes
/// to NPU 0 (senders that are NPU 0 themselves become self-messages).
fn endpoints(npus: usize, incast: bool, src: usize, dst: usize) -> (usize, usize) {
    (src % npus, if incast { 0 } else { dst % npus })
}

/// Sends the first half of `sends` at their offsets, advances to `mid`,
/// sends the second half relative to the clock, and runs to idle; a
/// message's token is its index in `sends`. Returns every completion by
/// token, the event count and the link grants.
fn run_core(
    mut net: PacketNetwork,
    npus: usize,
    sends: &[(usize, usize, u64, u64)],
    incast: bool,
    mid: Time,
) -> (Vec<Option<Time>>, u64, Vec<LinkTrace>) {
    net.set_telemetry(true);
    let half = sends.len() / 2;
    for (token, &(src, dst, kib, offset)) in sends.iter().enumerate() {
        if token == half {
            net.advance_until(mid);
        }
        let (src, dst) = endpoints(npus, incast, src, dst);
        let at = if token < half {
            SLOT * offset
        } else {
            net.now() + SLOT * (offset % 3)
        };
        net.send_async(token as u32, at, src, dst, DataSize::from_kib(kib));
    }
    net.run_until_idle();
    let mut done = Vec::new();
    net.drain_completions(&mut done);
    let mut finishes = vec![None; sends.len()];
    for c in done {
        finishes[c.token as usize] = Some(c.finish);
    }
    (finishes, net.events_processed(), net.link_traces())
}

/// What a caller sees: each non-empty completion batch with the instant
/// the backend reported for it.
type Batches = Vec<(Time, Vec<Completion>)>;

/// Reacts to a completion batch the way an engine does: each completion
/// (until `budget` runs out) triggers a follow-up message, derived from
/// the completed message's token and sent under the next token, no
/// earlier than the backend allows.
fn react(net: &mut PacketNetwork, npus: usize, batch: &[Completion], budget: &mut usize) {
    for c in batch {
        if *budget == 0 {
            return;
        }
        *budget -= 1;
        let token = c.token as usize;
        let src = (token * 7 + 1) % npus;
        let dst = (token * 3 + 2) % npus;
        let at = c.finish.max(net.earliest_send_time());
        let next = net.stats().messages as u32;
        net.send_async(
            next,
            at,
            src,
            dst,
            DataSize::from_kib(16 + token as u64 % 64),
        );
    }
}

/// Sends `sends` under tokens `0..`: a message's token is its send index.
fn seed(net: &mut PacketNetwork, npus: usize, sends: &[(usize, usize, u64, u64)], incast: bool) {
    for (token, &(src, dst, kib, offset)) in sends.iter().enumerate() {
        let (src, dst) = endpoints(npus, incast, src, dst);
        net.send_async(
            token as u32,
            SLOT * offset,
            src,
            dst,
            DataSize::from_kib(kib),
        );
    }
}

/// Steps the backend one instant at a time.
fn step_by_instant(
    mut net: PacketNetwork,
    npus: usize,
    sends: &[(usize, usize, u64, u64)],
    incast: bool,
) -> (Batches, u64) {
    seed(&mut net, npus, sends, incast);
    let mut budget = sends.len();
    let mut batches = Batches::new();
    let mut batch = Vec::new();
    net.drain_completions(&mut batch);
    loop {
        if !batch.is_empty() {
            let now = net.now();
            react(&mut net, npus, &batch, &mut budget);
            batches.push((now, std::mem::take(&mut batch)));
            net.drain_completions(&mut batch);
            continue;
        }
        let Some(t) = net.next_event_time() else {
            break;
        };
        net.advance_until(t);
        net.drain_completions(&mut batch);
    }
    (batches, net.events_processed())
}

/// Drives the backend with `advance_to_completion` under a frontier that
/// moves `period` at a time (`None`: unbounded).
fn step_by_completion(
    mut net: PacketNetwork,
    npus: usize,
    sends: &[(usize, usize, u64, u64)],
    incast: bool,
    period: Option<Time>,
) -> (Batches, u64) {
    seed(&mut net, npus, sends, incast);
    let mut budget = sends.len();
    let mut batches = Batches::new();
    let mut batch = Vec::new();
    let mut frontier = period.unwrap_or(Time::MAX);
    net.drain_completions(&mut batch);
    loop {
        if !batch.is_empty() {
            let now = net.now();
            react(&mut net, npus, &batch, &mut budget);
            batches.push((now, std::mem::take(&mut batch)));
            net.drain_completions(&mut batch);
            continue;
        }
        let Some(next) = net.next_event_time() else {
            break;
        };
        match net.advance_to_completion(frontier) {
            Some(t) => {
                assert!(t <= frontier, "ran past the frontier");
                assert!(t >= next, "reported an instant before the first one run");
                assert_eq!(t, net.now());
                net.drain_completions(&mut batch);
            }
            None => {
                assert!(next > frontier, "stopped short with work at the frontier");
                frontier += period.expect("an unbounded frontier never stops short");
            }
        }
    }
    (batches, net.events_processed())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Laned core == global-heap reference: completions, event count and
    /// link grants, with sends before and after a mid-run advance.
    #[test]
    fn laned_core_matches_the_global_heap_reference(
        topo in arb_topology(),
        packet in arb_packet_size(),
        sends in arb_sends(),
        incast in any::<bool>(),
        mid_ns in 0u64..40_000,
    ) {
        let config = PacketSimConfig { packet_size: packet, ..PacketSimConfig::fast() };
        let mid = Time::from_ns(mid_ns);
        let npus = topo.npus();
        let laned = run_core(PacketNetwork::new(&topo, config), npus, &sends, incast, mid);
        let reference = run_core(
            PacketNetwork::global_heap_reference(&topo, config),
            npus,
            &sends,
            incast,
            mid,
        );
        prop_assert_eq!(&laned.0, &reference.0);
        prop_assert_eq!(laned.1, reference.1);
        prop_assert_eq!(&laned.2, &reference.2);
        prop_assert!(laned.0.iter().all(Option::is_some), "every message completes");
    }

    /// `advance_to_completion` yields the completion batches of
    /// instant-by-instant stepping, on both transports, with reactive
    /// follow-up traffic and an optional moving frontier.
    #[test]
    fn advance_to_completion_matches_instant_stepping(
        topo in arb_topology(),
        packet in arb_packet_size(),
        batched in any::<bool>(),
        sends in arb_sends(),
        incast in any::<bool>(),
        period_ns in prop::sample::select(vec![0u64, 500, 7_000, 60_000]),
    ) {
        let transport = if batched { TransportMode::Batched } else { TransportMode::PerPacket };
        let config = PacketSimConfig {
            packet_size: packet,
            ..PacketSimConfig::fast()
        }
        .with_transport(transport);
        let period = (period_ns > 0).then(|| Time::from_ns(period_ns));
        let npus = topo.npus();
        let stepped = step_by_instant(PacketNetwork::new(&topo, config), npus, &sends, incast);
        let bounded =
            step_by_completion(PacketNetwork::new(&topo, config), npus, &sends, incast, period);
        prop_assert!(!stepped.0.is_empty());
        prop_assert_eq!(&stepped.0, &bounded.0);
        prop_assert_eq!(stepped.1, bounded.1);
    }
}

/// A fixed incast through one switch down-link at 256 B packets, issued
/// in descending sender order: the senders' packets reach the down-link
/// at the same instants, and only the global `seq` (not the link index)
/// decides who goes first.
#[test]
fn switch_incast_matches_the_reference_exactly() {
    let topo = Topology::parse("SW(8)@100").unwrap();
    let config = PacketSimConfig::garnet_like();
    let sends: Vec<(usize, usize, u64, u64)> = (1..8).rev().map(|src| (src, 0, 64, 0)).collect();
    let laned = run_core(
        PacketNetwork::new(&topo, config),
        8,
        &sends,
        false,
        Time::ZERO,
    );
    let reference = run_core(
        PacketNetwork::global_heap_reference(&topo, config),
        8,
        &sends,
        false,
        Time::ZERO,
    );
    assert_eq!(laned, reference);
    assert!(laned.1 > 7 * 256, "per-packet hops were simulated");
}
