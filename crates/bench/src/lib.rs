//! Benchmark harness: runners that regenerate every table and figure of
//! the paper's evaluation (§IV-C validation/speedup, §V case studies) and
//! the simulator-throughput comparisons.
//!
//! Each paper module owns one experiment: a runner producing typed `Row`s
//! (serialized as the sweep's JSON rows), a `render()` drawing the
//! paper's table/figure as text, and a `series(quick)` tying the two
//! together for [`throughput::SERIES`], which names every runnable
//! series. `astra sweep` is the table's only entry point and prints the
//! drawn tables.
//!
//! | Module | Paper artifact | Series |
//! |--------|----------------|--------|
//! | [`table2`] | Table II — target topologies | `table2` |
//! | [`table3`] | Table III — target workloads | `table3` |
//! | [`table5`] | Table V — disaggregated memory configurations | `table5` |
//! | [`fig4`] | Fig. 4 — analytical backend validation | `fig4` |
//! | [`speedup`] | §IV-C — analytical vs packet-level simulation cost | `speedup` |
//! | [`fig9a`] | Fig. 9(a) — wafer vs conventional, baseline vs Themis | `fig9a` |
//! | [`fig9b`] | Fig. 9(b) — scale-out vs wafer scale-up | `fig9b` |
//! | [`table4`] | Table IV — per-dimension message sizes & collective time | `table4` |
//! | [`fig11`] | Fig. 11 — disaggregated-memory runtime breakdown + sweep | `fig11` |
//! | [`ablations`] | modeling-choice sensitivity studies (extensions) | `ablations` |
//! | [`throughput`] | simulator-throughput comparisons (`BENCH_throughput.json`) | the default series |

use serde::{Serialize, Value};

pub mod ablations;
pub mod fig11;
pub mod fig4;
pub mod fig9a;
pub mod fig9b;
pub mod speedup;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod throughput;

/// Returns `rows` as JSON rows plus their table drawn by `render`: the
/// tail of every series runner.
fn emit<R: Serialize>(rows: &[R], render: fn(&[R]) -> String) -> (Vec<Value>, String) {
    (rows.iter().map(Serialize::to_value).collect(), render(rows))
}
