//! Paper-series golden: the quick `fig4,fig9a,fig9b,table4,fig11,table5`
//! sweep must reproduce the committed `fixtures/paper_quick.json` byte for
//! byte, series array by series array. `threads_available` depends on the
//! machine and is not compared.

use astra_bench::throughput::{parse_series, run};

const FIXTURE: &str = include_str!("fixtures/paper_quick.json");

#[test]
fn quick_paper_series_match_the_committed_golden() {
    let golden: serde_json::Value = serde_json::from_str(FIXTURE).expect("fixture is JSON");
    // Re-rendering the parsed fixture is lossless, so comparing rendered
    // arrays below compares the fixture's bytes.
    assert_eq!(serde_json::to_string_pretty(&golden).unwrap(), FIXTURE);
    let report = run(
        true,
        &parse_series("fig4,fig9a,fig9b,table4,fig11,table5").unwrap(),
    );
    let golden = golden.as_object().unwrap();
    let fresh = report.as_object().unwrap();
    // The fixture's keys open the report in the same order.
    assert!(fresh.len() >= golden.len());
    for ((key, want), (fresh_key, got)) in golden.iter().zip(fresh) {
        assert_eq!(key, fresh_key);
        if key != "threads_available" {
            assert_eq!(
                serde_json::to_string_pretty(got).unwrap(),
                serde_json::to_string_pretty(want).unwrap(),
                "series `{key}` drifted from the golden"
            );
        }
    }
}
