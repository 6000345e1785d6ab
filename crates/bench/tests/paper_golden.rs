//! Paper-series golden: the quick
//! `fig4,fig9a,fig9b,table4,fig11,table5,ablations` sweep must reproduce
//! the committed `fixtures/paper_quick.json` byte for byte, series array
//! by series array. Only those paper series are compared:
//! `threads_available` depends on the machine, and the empty placeholders
//! of the unselected throughput series follow the series table, not the
//! paper.

use astra_bench::throughput::{parse_series, run};

const FIXTURE: &str = include_str!("fixtures/paper_quick.json");

const PAPER_SERIES: &str = "fig4,fig9a,fig9b,table4,fig11,table5,ablations";

#[test]
fn quick_paper_series_match_the_committed_golden() {
    let golden: serde_json::Value = serde_json::from_str(FIXTURE).expect("fixture is JSON");
    // Re-rendering the parsed fixture is lossless, so comparing rendered
    // arrays below compares the fixture's bytes.
    assert_eq!(serde_json::to_string_pretty(&golden).unwrap(), FIXTURE);
    let series = parse_series(PAPER_SERIES).unwrap();
    let report = run(true, &series, &mut std::io::sink()).unwrap();
    for key in series.iter().map(|s| s.key) {
        let want = golden
            .get(key)
            .expect("the fixture holds every paper series");
        let got = report.get(key).expect("the report holds every series");
        assert_eq!(
            serde_json::to_string_pretty(got).unwrap(),
            serde_json::to_string_pretty(want).unwrap(),
            "series `{key}` drifted from the golden"
        );
    }
}
