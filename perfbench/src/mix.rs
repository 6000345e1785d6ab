//! The seeded `serve-mix` request generator.
//!
//! [`generate`] turns a seed into JSONL request lines for
//! `astra_serve::run_batch` and nothing else: the program under test sees
//! only the lines. The same seed always gives byte-identical lines.
//!
//! Shape of a mix:
//!
//! * [`DISTINCT`] distinct configurations: each of three topologies (two
//!   of 64 NPUs, one of 256) × eight workloads (gpt3 hybrid and pipeline, dlrm, t1t,
//!   moe with each memory preset, All-Reduce) × an analytical, flow or
//!   batched network × 16, 32 or 64 chunks, with Themis on or off as the
//!   seed draws. Collectives always use the closed form, so lowering is
//!   bypassed.
//! * [`REPEATS`] more lines (40 % of [`LINES`]) exactly repeat an earlier
//!   line of the same client.
//! * [`CLIENTS`] closed-loop clients; client `c` sends lines
//!   `c, c + CLIENTS, c + 2 * CLIENTS, ...`, one at a time.
//!
//! Every seed draws the same set of configurations apart from Themis,
//! and deals each client the same amount of each kind of work, so seeds
//! differ in order, Themis flags and which lines repeat, not in how much
//! work a pass holds. Repeats stay within one client because a client
//! waits for each reply: a repeat always finds its original finished, so
//! the warm cache's hit counts repeat exactly from run to run. A repeat
//! of another client's line could race its original and be simulated
//! twice.

/// Distinct configurations in one mix.
pub const DISTINCT: usize = 216;
/// Lines that repeat an earlier line of the same client.
pub const REPEATS: usize = 144;
/// Request lines in one mix.
pub const LINES: usize = DISTINCT + REPEATS;
/// Closed-loop clients sharing one warm cache.
pub const CLIENTS: usize = 2;

/// Topology notations of the mix: two of 64 NPUs and one of 256.
const TOPOLOGIES: [&str; 3] = [
    "R(8)@250_SW(8)@100",
    "R(4)@250_SW(4)@200_SW(4)@50",
    "SW(16)@256_SW(16)@100",
];

/// Workload fields of the mix, as JSON members.
const WORKLOADS: [&str; 8] = [
    r#""workload": "gpt3""#,
    r#""workload": "gpt3", "pipeline": 4"#,
    r#""workload": "dlrm""#,
    r#""workload": "t1t""#,
    r#""workload": "moe", "memory": "hiermem-base""#,
    r#""workload": "moe", "memory": "hiermem-opt""#,
    r#""workload": "moe", "memory": "zero-infinity""#,
    r#""all_reduce_mib": 256"#,
];

/// Network backends of the mix.
pub const NETWORKS: [&str; 3] = ["analytical", "flow", "batched"];

const CHUNKS: [u64; 3] = [16, 32, 64];

/// SplitMix64: a small, fixed, dependency-free generator, so a seed
/// means the same mix on every platform and toolchain.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

fn line(topology: &str, workload: &str, network: &str, chunks: u64, themis: bool) -> String {
    format!(
        r#"{{"topology": "{topology}", {workload}, "network": "{network}", "themis": {themis}, "chunks": {chunks}}}"#
    )
}

/// The request lines of the mix for `seed`.
pub fn generate(seed: u64) -> Vec<String> {
    let mut rng = Rng(seed);
    let [small_a, small_b, large] = TOPOLOGIES;
    let mut distinct: [Vec<String>; CLIENTS] = Default::default();
    // The two 64-NPU variants of a configuration go to different clients;
    // the 256-NPU ones alternate.
    let mut next_large = 0;
    for workload in WORKLOADS {
        for network in NETWORKS {
            for chunks in CHUNKS {
                let flip = rng.below(CLIENTS);
                for (topology, client) in
                    [(small_a, flip), (small_b, 1 - flip), (large, next_large)]
                {
                    let themis = rng.below(2) == 1;
                    distinct[client].push(line(topology, workload, network, chunks, themis));
                }
                next_large = 1 - next_large;
            }
        }
    }
    let streams: Vec<Vec<String>> = distinct
        .into_iter()
        .map(|mut fresh| {
            rng.shuffle(&mut fresh);
            let len = LINES / CLIENTS;
            // Slot 0 always sends a new configuration; the repeat slots
            // are drawn among the rest.
            let mut repeat_slot = vec![false; len];
            for slot in repeat_slot.iter_mut().skip(1).take(REPEATS / CLIENTS) {
                *slot = true;
            }
            rng.shuffle(&mut repeat_slot[1..]);
            let mut fresh = fresh.into_iter();
            let mut stream: Vec<String> = Vec::with_capacity(len);
            for repeat in repeat_slot {
                let line = if repeat {
                    stream[rng.below(stream.len())].clone()
                } else {
                    fresh
                        .next()
                        .expect("each client has LINES - REPEATS fresh lines")
                };
                stream.push(line);
            }
            stream
        })
        .collect();
    (0..LINES / CLIENTS)
        .flat_map(|slot| streams.iter().map(move |stream| stream[slot].clone()))
        .collect()
}

/// The lines client `client` sends, in order, with their slots in the mix.
pub fn client_lines(lines: &[String], client: usize) -> impl Iterator<Item = (usize, &String)> {
    lines.iter().enumerate().skip(client).step_by(CLIENTS)
}

/// Properties of a mix that cache-sensitive results depend on.
#[derive(Clone, Debug, PartialEq)]
pub struct Shares {
    /// Share of lines that exactly repeat an earlier line.
    pub repeat: f64,
    /// Share of lines per network backend, in [`NETWORKS`] order.
    pub network: Vec<(&'static str, f64)>,
}

/// Measures the repeat share and the network-backend shares of `lines`.
pub fn shares(lines: &[String]) -> Shares {
    let n = lines.len().max(1) as f64;
    let mut seen = std::collections::BTreeSet::new();
    let repeats = lines.iter().filter(|line| !seen.insert(*line)).count();
    let network = NETWORKS
        .iter()
        .map(|&name| {
            let tag = format!(r#""network": "{name}""#);
            let count = lines.iter().filter(|line| line.contains(&tag)).count();
            (name, count as f64 / n)
        })
        .collect();
    Shares {
        repeat: repeats as f64 / n,
        network,
    }
}
