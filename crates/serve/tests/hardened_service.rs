//! Hardened-service contract: budgets, panic isolation, graceful
//! shutdown, and fault-laden requests all yield structured rows —
//! deterministically, without poisoning the worker pool or the warm
//! caches — and the socket front end refuses to clobber non-socket
//! files.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use astra_serve::{
    execute, run_batch, run_batch_items, serve_unix_with, BatchLine, ServeOptions, SimRequest,
    WarmCache,
};

fn lines(raw: &[&str]) -> Vec<String> {
    raw.iter().map(|s| (*s).to_owned()).collect()
}

/// One batch mixing a healthy request, a budget-exceeding request, a
/// panicking request, a fault-laden request, and a malformed line: each
/// gets exactly one structured row at its input position, the rows are
/// byte-identical across worker counts and cache states, and the pool
/// survives to run the next batch.
#[test]
fn mixed_hardened_batch_is_deterministic_and_keeps_the_pool_alive() {
    let batch = lines(&[
        r#"{"id": "ok", "topology": "SW(8)@400", "all_reduce_mib": 64}"#,
        r#"{"id": "budget", "topology": "SW(8)@400", "all_reduce_mib": 64, "max_events": 1}"#,
        r#"{"id": "boom", "topology": "SW(8)@400", "workload": "__panic"}"#,
        r#"{"id": "degraded", "topology": "R(8)@100", "all_reduce_mib": 64,
            "faults": [{"kind": "link_degrade", "src": 0, "dst": 1, "bandwidth_pct": 50}]}"#,
        r#"{"id": "pristine", "topology": "R(8)@100", "all_reduce_mib": 64}"#,
        "{broken",
    ]);
    let (reference, summary) = run_batch(&batch, 1, &WarmCache::new());
    assert_eq!(summary.requests, 6);
    assert_eq!(summary.ok, 3, "ok, degraded, and pristine succeed");
    assert_eq!(summary.errors, 3);
    assert!(
        reference[0].contains(r#""id":"ok","ok":true"#),
        "{}",
        reference[0]
    );
    assert!(
        reference[1].contains(r#""error":"budget_exceeded""#),
        "{}",
        reference[1]
    );
    assert!(reference[1].contains(r#""id":"budget""#));
    assert!(
        reference[2].contains(r#""error":"panic""#),
        "{}",
        reference[2]
    );
    assert!(
        reference[2].contains("reserved workload `__panic` requested"),
        "{}",
        reference[2]
    );
    assert!(
        reference[3].contains(r#""id":"degraded","ok":true"#),
        "{}",
        reference[3]
    );
    assert!(reference[5].contains(r#""ok":false"#));
    // The degraded run must not alias the fault-free run of the same
    // topology/payload: its report (and row bytes) are strictly different.
    assert_ne!(reference[3], reference[4]);

    // Byte-identical across worker counts, panics and all.
    for workers in [2, 4, 8] {
        let (rows, _) = run_batch(&batch, workers, &WarmCache::new());
        assert_eq!(rows, reference, "workers={workers}");
    }
    // The pool and warm caches outlive the poisoned batch: replaying the
    // same batch against the same cache changes nothing, and a fresh
    // healthy batch still succeeds.
    let warm = WarmCache::new();
    run_batch(&batch, 4, &warm);
    let (rows, _) = run_batch(&batch, 4, &warm);
    assert_eq!(rows, reference, "warm replay after panics");
    let (rows, after) = run_batch(
        &lines(&[r#"{"id": "alive", "topology": "SW(8)@400", "all_reduce_mib": 64}"#]),
        4,
        &warm,
    );
    assert_eq!(after.ok, 1, "pool is alive after budget/panic rows");
    assert!(rows[0].contains(r#""id":"alive","ok":true"#));
}

/// Fault-laden requests key the warm caches separately from fault-free
/// ones: the same topology/payload with and without faults returns
/// different reports, while repeats of the identical fault-laden request
/// still hit the result cache.
#[test]
fn fault_laden_requests_never_alias_fault_free_cache_entries() {
    let cache = WarmCache::new();
    let pristine =
        SimRequest::from_json_line(r#"{"topology": "R(8)@100", "all_reduce_mib": 64}"#).unwrap();
    let degraded = SimRequest::from_json_line(
        r#"{"topology": "R(8)@100", "all_reduce_mib": 64,
            "faults": [{"kind": "link_degrade", "src": 0, "dst": 1, "bandwidth_pct": 50}]}"#,
    )
    .unwrap();
    let base = execute(&pristine, &cache).unwrap();
    let slow1 = execute(&degraded, &cache).unwrap();
    let slow2 = execute(&degraded, &cache).unwrap();
    assert!(
        slow1.total_time > base.total_time,
        "degraded request must not reuse the pristine result"
    );
    assert_eq!(*slow1, *slow2, "fault-laden repeat is bit-identical");
    assert!(
        Arc::ptr_eq(&slow1, &slow2),
        "identical fault-laden repeats share the result cache"
    );
}

/// An `ok` row carries one impact row per scheduled fault, as `astra
/// --json` prints them: a straggler NPU stretches the compute ops it
/// issues after its onset.
#[test]
fn ok_rows_carry_fault_impacts() {
    let batch = lines(&[
        r#"{"id": "straggler", "topology": "R(8)@100_SW(8)@50", "workload": "gpt3",
            "pipeline": 4, "network": "packet",
            "faults": [{"kind": "npu_slowdown", "npu": 3, "slowdown_pct": 200}]}"#,
        r#"{"id": "pristine", "topology": "SW(8)@400", "all_reduce_mib": 64}"#,
    ]);
    let (rows, summary) = run_batch(&batch, 1, &WarmCache::new());
    assert_eq!(summary.ok, 2, "{rows:?}");
    let report = &serde_json::parse(&rows[0]).unwrap()["report"];
    let faults = report["faults"].as_array().unwrap();
    assert_eq!(faults.len(), 1, "{}", rows[0]);
    assert_eq!(faults[0]["event"].as_u64(), Some(0));
    assert_eq!(faults[0]["kind"].as_str(), Some("npu_slowdown 3 200%"));
    assert_eq!(faults[0]["affected"].as_u64(), Some(8));
    assert!(faults[0]["extra_ps"].as_u64().unwrap() > 0, "{}", rows[0]);
    assert!(rows[1].contains(r#""faults":[]"#), "{}", rows[1]);
}

/// Once the shutdown flag is set, unclaimed lines get pinned `shutdown`
/// rejection rows (echoing the request id where one parses) instead of
/// being started.
#[test]
fn shutdown_rejections_are_pinned_rows() {
    let shutdown = AtomicBool::new(true);
    let items = vec![
        BatchLine::Request(
            r#"{"id": "later", "topology": "SW(8)@400", "all_reduce_mib": 64}"#.to_owned(),
        ),
        BatchLine::TooLong { bytes: 70_000 },
    ];
    let (rows, summary) = run_batch_items(&items, 2, &WarmCache::new(), &shutdown);
    assert_eq!(summary.requests, 2);
    assert_eq!(summary.errors, 2);
    assert_eq!(
        rows[0],
        r#"{"index":0,"id":"later","ok":false,"error":"shutdown","detail":"line 1: service shutting down; request was not started"}"#
    );
    assert_eq!(
        rows[1],
        r#"{"index":1,"id":null,"ok":false,"error":"shutdown","detail":"line 2: service shutting down; request was not started"}"#
    );
}

/// A line the transport refused to buffer still gets one pinned
/// structured row at its input position.
#[test]
fn over_long_lines_become_pinned_structured_rows() {
    let items = vec![
        BatchLine::TooLong { bytes: 70_001 },
        BatchLine::Request(r#"{"topology": "SW(8)@400", "all_reduce_mib": 64}"#.to_owned()),
    ];
    let (rows, summary) = run_batch_items(&items, 2, &WarmCache::new(), &AtomicBool::new(false));
    assert_eq!(summary.ok, 1);
    assert_eq!(summary.errors, 1);
    assert_eq!(
        rows[0],
        r#"{"index":0,"id":null,"ok":false,"error":"line_too_long","detail":"line 1: request line exceeds 65536 bytes (70001 bytes)"}"#
    );
    assert!(rows[1].contains(r#""ok":true"#));
}

/// A short line nesting arrays 10,000 deep is a JSON error row, not a
/// stack overflow that takes down the process, and the next line is still
/// answered.
#[test]
fn deeply_nested_lines_become_error_rows() {
    let deep = format!("{}{}", "[".repeat(10_000), "]".repeat(10_000));
    let batch = vec![
        deep,
        r#"{"id": "after", "topology": "SW(8)@400", "all_reduce_mib": 64}"#.to_owned(),
    ];
    let (rows, summary) = run_batch(&batch, 2, &WarmCache::new());
    assert_eq!(rows.len(), 2);
    assert_eq!(summary.ok, 1);
    assert_eq!(summary.errors, 1);
    assert_eq!(
        rows[0],
        r#"{"index":0,"id":null,"ok":false,"error":"line 1: invalid JSON: recursion limit exceeded at byte 128"}"#
    );
    assert!(rows[1].contains(r#""id":"after","ok":true"#), "{}", rows[1]);
}

/// A four-billion-chunk collective plan is one counted order, not a
/// per-chunk vector: the request is answered instead of aborting the
/// process on a 96 GB allocation. Lowered for backend execution on the
/// packet network it is one phase template whose root ops wait as one
/// counted NIC-queue entry, so nothing is allocated per chunk and the
/// event budget ends the run with a structured row. The next line is
/// still answered.
#[test]
fn huge_chunk_counts_are_answered_and_the_next_line_too() {
    let batch = lines(&[
        r#"{"id": "huge", "topology": "SW(8)@400", "all_reduce_mib": 64, "chunks": 4000000000}"#,
        r#"{"id": "huge-backend", "topology": "SW(8)@400", "all_reduce_mib": 64,
            "network": "packet", "collectives": "backend", "chunks": 4000000000,
            "max_events": 100000}"#,
        r#"{"id": "after", "topology": "SW(8)@400", "all_reduce_mib": 64}"#,
    ]);
    let (rows, summary) = run_batch(&batch, 2, &WarmCache::new());
    assert_eq!(rows.len(), 3);
    assert_eq!(summary.ok, 2, "{rows:?}");
    assert!(rows[0].contains(r#""id":"huge","ok":true"#), "{}", rows[0]);
    assert!(
        rows[1].contains(r#""id":"huge-backend","ok":false,"error":"budget_exceeded""#),
        "{}",
        rows[1]
    );
    assert!(rows[2].contains(r#""id":"after","ok":true"#), "{}", rows[2]);
}

/// The socket front end replaces only stale *sockets*: a regular file at
/// the socket path is refused, not deleted.
#[test]
fn serve_refuses_to_replace_a_non_socket_file() {
    let dir = std::env::temp_dir().join(format!("astra-hardened-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("not-a-socket");
    std::fs::write(&path, b"precious data").unwrap();
    let err = serve_unix_with(&path, &WarmCache::new(), &ServeOptions::default())
        .expect_err("must refuse to clobber a regular file");
    assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);
    assert_eq!(
        std::fs::read(&path).unwrap(),
        b"precious data",
        "the file must survive untouched"
    );
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
}

/// A pre-set shutdown flag stops the accept loop before it blocks on a
/// connection: graceful shutdown cannot hang the service.
#[test]
fn pre_set_shutdown_flag_exits_the_accept_loop() {
    let dir = std::env::temp_dir().join(format!("astra-shutdown-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("astra.sock");
    let shutdown = Arc::new(AtomicBool::new(true));
    let options = ServeOptions {
        shutdown: Some(shutdown),
        ..ServeOptions::default()
    };
    let totals = serve_unix_with(&path, &WarmCache::new(), &options).unwrap();
    assert_eq!(totals.requests, 0, "no connection was accepted");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
}
