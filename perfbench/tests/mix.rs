//! The `serve-mix` generator: seeded, valid, and shaped as documented.

use std::collections::{BTreeMap, BTreeSet};

use astra_perfbench::mix::{client_lines, generate, shares, CLIENTS, DISTINCT, LINES, REPEATS};
use astra_serve::SimRequest;

#[test]
fn the_same_seed_gives_byte_identical_lines() {
    assert_eq!(generate(7), generate(7));
    assert_ne!(generate(7), generate(8));
}

#[test]
fn every_line_is_a_valid_request_without_backend_collectives() {
    for line in generate(1) {
        let req = SimRequest::from_json_line(&line).expect("valid request");
        assert!(req.collectives.is_none(), "{line}");
        assert!(req.id.is_none(), "{line}");
    }
}

#[test]
fn the_mix_has_its_documented_shape() {
    for seed in [0, 1, 2, 99] {
        let lines = generate(seed);
        assert_eq!(lines.len(), LINES);
        let distinct: BTreeSet<&String> = lines.iter().collect();
        assert_eq!(distinct.len(), DISTINCT);
        let s = shares(&lines);
        assert_eq!(s.repeat, REPEATS as f64 / LINES as f64);
        assert!((s.repeat - 0.4).abs() < 1e-9);
        let total: f64 = s.network.iter().map(|&(_, share)| share).sum();
        assert!((total - 1.0).abs() < 1e-9, "{s:?}");
        for (name, share) in &s.network {
            assert!(*share > 0.25 && *share < 0.42, "{name}: {share}");
        }
    }
}

#[test]
fn repeats_stay_with_the_client_that_sent_the_original() {
    let lines = generate(3);
    let mut owner: BTreeMap<&String, usize> = BTreeMap::new();
    for client in 0..CLIENTS {
        for (_, line) in client_lines(&lines, client) {
            let first = *owner.entry(line).or_insert(client);
            assert_eq!(first, client, "{line} is sent by two clients");
        }
    }
    let fresh: Vec<usize> = (0..CLIENTS)
        .map(|c| {
            client_lines(&lines, c)
                .map(|(_, l)| l)
                .collect::<BTreeSet<_>>()
                .len()
        })
        .collect();
    assert_eq!(fresh, vec![DISTINCT / CLIENTS; CLIENTS]);
}

#[test]
fn seeds_differ_only_in_order_themis_and_repeats() {
    let configs = |seed| {
        let mut v: Vec<String> = generate(seed)
            .into_iter()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .map(|l| l.replace("\"themis\": true", "\"themis\": false"))
            .collect();
        v.sort();
        v
    };
    assert_eq!(configs(1), configs(2));
}
