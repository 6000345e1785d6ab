//! Cross-mode equivalence suite: [`TransportMode::Batched`] must reproduce
//! the per-packet ground truth **bit-identically** on collective traffic
//! while processing a small fraction of its events.
//!
//! This is the contract that makes batched transport a pure speed knob for
//! the §IV-C speedup experiment: the runner's lockstep collectives keep
//! every packet train contiguous on every link, so coalescing a train into
//! one closed-form reservation per hop changes nothing about the simulated
//! timeline — only the event count.

use astra_collectives::Collective;
use astra_des::{DataSize, Time};
use astra_garnet::{collective_time_for, PacketNetwork, PacketSimConfig, TransportMode};
use astra_network::NetworkBackend;
use astra_topology::Topology;
use proptest::prelude::*;

fn arb_topology() -> impl Strategy<Value = Topology> {
    prop::sample::select(vec![
        "R(4)@100",
        "R(8)@100",
        "SW(8)@150",
        "SW(16)@150",
        "FC(4)@200",
        "R(4)@100_SW(2)@50",
        "R(2)@200_FC(2)@100_SW(2)@50",
        "R(8)@100_SW(4)@50",
        "R(4)@100_FC(4)@200_SW(4)@50",
        "R(8)@100_R(8)@100",
        "SW(8)@200_SW(8)@100",
    ])
    .prop_map(|s| Topology::parse(s).unwrap())
}

fn arb_config() -> impl Strategy<Value = PacketSimConfig> {
    (
        prop::sample::select(vec![256u64, 1024, 65536]),
        any::<bool>(),
    )
        .prop_map(|(pkt, overheads)| {
            let mut config = PacketSimConfig {
                packet_size: DataSize::from_bytes(pkt),
                ..PacketSimConfig::fast()
            };
            if overheads {
                config.collective_overhead = Time::from_us(20);
                config.step_overhead = Time::from_us(1);
            }
            config
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every collective pattern, on every topology in the pool, at random
    /// payloads and packet granularities: identical finish time, identical
    /// message count, and a strictly cheaper event bill for batched mode.
    #[test]
    fn collectives_bit_identical_across_transports(
        topo in arb_topology(),
        kib in 64u64..4096,
        coll in prop::sample::select(Collective::ALL.to_vec()),
        config in arb_config(),
    ) {
        let size = DataSize::from_kib(kib);
        let per_packet = collective_time_for(
            &topo, coll, size, &config.with_transport(TransportMode::PerPacket));
        let batched = collective_time_for(
            &topo, coll, size, &config.with_transport(TransportMode::Batched));
        prop_assert_eq!(
            per_packet.finish, batched.finish,
            "{} on {} ({} KiB): per-packet {:?} vs batched {:?}",
            coll, topo, kib, per_packet.finish, batched.finish
        );
        prop_assert_eq!(per_packet.messages, batched.messages);
        prop_assert!(
            batched.events <= per_packet.events,
            "batched popped more events ({} vs {})", batched.events, per_packet.events
        );
    }

    /// Single point-to-point messages (including cross-dimension routes
    /// whose per-hop bandwidths differ) complete at the identical instant
    /// under both transports.
    #[test]
    fn p2p_bit_identical_across_transports(
        topo in arb_topology(),
        src_seed in 0usize..64,
        dst_seed in 0usize..64,
        bytes in 1u64..2_000_000,
        pkt in prop::sample::select(vec![256u64, 4096, 65536]),
    ) {
        let npus = topo.npus();
        let (src, dst) = (src_seed % npus, dst_seed % npus);
        let config = PacketSimConfig {
            packet_size: DataSize::from_bytes(pkt),
            ..PacketSimConfig::fast()
        };
        let mut per_packet = PacketNetwork::new(&topo, config);
        let mut batched =
            PacketNetwork::new(&topo, config.with_transport(TransportMode::Batched));
        let size = DataSize::from_bytes(bytes);
        prop_assert_eq!(
            per_packet.p2p_delay(src, dst, size), batched.p2p_delay(src, dst, size),
            "{} -> {} on {}", src, dst, topo
        );
    }

    /// Back-to-back sequential messages between random pairs (the pattern
    /// the system layer's p2p probes produce) stay bit-identical: each
    /// message sees the same link timelines in both modes.
    #[test]
    fn sequential_p2p_stream_bit_identical(
        topo in arb_topology(),
        pairs in prop::collection::vec((0usize..64, 0usize..64, 1u64..500_000), 1..8),
    ) {
        let config = PacketSimConfig {
            packet_size: DataSize::from_kib(1),
            ..PacketSimConfig::fast()
        };
        let mut per_packet = PacketNetwork::new(&topo, config);
        let mut batched =
            PacketNetwork::new(&topo, config.with_transport(TransportMode::Batched));
        let npus = topo.npus();
        for &(s, d, bytes) in &pairs {
            let (src, dst) = (s % npus, d % npus);
            let size = DataSize::from_bytes(bytes);
            let fa = per_packet.now() + per_packet.p2p_delay(src, dst, size);
            let fb = batched.now() + batched.p2p_delay(src, dst, size);
            prop_assert_eq!(fa, fb, "{} -> {} on {}", src, dst, topo);
        }
    }
}

/// The acceptance pin for the §IV-C scale goal: a 256 B `garnet_like`
/// All-Reduce at 256 NPUs finishes at the bit-identical instant in batched
/// mode while popping ≤ 2 % of the per-packet event count.
#[test]
fn garnet_like_allreduce_256_npus_bit_identical_within_2_percent_events() {
    let topo = Topology::parse("R(16)@100_R(16)@100").unwrap();
    assert_eq!(topo.npus(), 256);
    let size = DataSize::from_mib(1);
    let config = PacketSimConfig::garnet_like();
    let per_packet = collective_time_for(
        &topo,
        Collective::AllReduce,
        size,
        &config.with_transport(TransportMode::PerPacket),
    );
    let batched = collective_time_for(
        &topo,
        Collective::AllReduce,
        size,
        &config.with_transport(TransportMode::Batched),
    );
    assert_eq!(per_packet.finish, batched.finish, "finish drifted");
    assert_eq!(per_packet.messages, batched.messages);
    let ratio = batched.events as f64 / per_packet.events as f64;
    assert!(
        ratio <= 0.02,
        "batched mode popped {:.2}% of per-packet events ({} vs {})",
        ratio * 100.0,
        batched.events,
        per_packet.events
    );
}
