//! The batch service's determinism contract: warm caches and worker
//! pools are pure speed knobs. Every response is bit-identical to a
//! cold, sequential single run of the same request — across network
//! backends, worker counts, request orders, and cache states.

use std::sync::Arc;

use astra_serve::{execute, execute_once, run_batch, SimRequest, WarmCache};

fn request(json: &str) -> SimRequest {
    SimRequest::from_json_line(json).unwrap()
}

/// Warm-vs-cold equality over every network backend, on a pipeline
/// workload (stage-to-stage p2p traffic exercises every network backend
/// and the delay/route warm tables).
#[test]
fn warm_reports_are_bit_identical_across_backends() {
    let cache = WarmCache::new();
    for network in ["analytical", "packet", "flow"] {
        let req = request(&format!(
            r#"{{"topology": "R(8)@100", "workload": "gpt3", "pipeline": 4,
                "network": "{network}"}}"#
        ));
        let cold = execute_once(&req).unwrap();
        let warm1 = execute(&req, &cache).unwrap();
        let warm2 = execute(&req, &cache).unwrap();
        assert_eq!(*warm1, cold, "{network}: first warm run differs from cold");
        assert_eq!(*warm2, cold, "{network}: repeat warm run differs from cold");
        assert!(
            Arc::ptr_eq(&warm1, &warm2),
            "{network}: repeat request missed the result cache"
        );
    }
}

/// Backend-executed collectives through the warm layer: on every network
/// backend the report, per-run lowering counters included, equals a cold
/// run's.
#[test]
fn warm_lowering_cache_preserves_reports_and_counters() {
    let cache = WarmCache::new();
    for network in ["analytical", "packet", "flow"] {
        let req = request(&format!(
            r#"{{"topology": "SW(8)@100_SW(2)@50", "all_reduce_mib": 64,
                "collectives": "backend", "network": "{network}", "chunks": 8}}"#
        ));
        let cold = execute_once(&req).unwrap();
        let warm = execute(&req, &cache).unwrap();
        assert_eq!(*warm, cold, "{network}");
        assert!(cold.collective_ops > 0, "{network}");
        assert_eq!(
            warm.cache.lowering_misses, cold.cache.lowering_misses,
            "{network}: warm and cold runs lower the same programs"
        );
    }
}

/// `batched`, the retired name of the packet backend's train transport,
/// is a spelling of `packet`: its line is answered with the same bytes,
/// from the same result-cache entry.
#[test]
fn batched_lines_are_answered_as_packet_from_the_same_cache_entry() {
    let line = |network: &str| {
        format!(
            r#"{{"id": "p", "topology": "R(8)@100", "workload": "gpt3", "pipeline": 4,
                "network": "{network}"}}"#
        )
        .replace('\n', " ")
    };
    let cache = WarmCache::new();
    let (packet_rows, _) = run_batch(&[line("packet")], 1, &cache);
    let (batched_rows, _) = run_batch(&[line("batched")], 1, &cache);
    assert!(
        packet_rows[0].contains(r#""ok":true"#),
        "{}",
        packet_rows[0]
    );
    assert_eq!(batched_rows, packet_rows);
    let summary = cache.summary();
    assert_eq!(summary.result_entries, 1, "batched made its own entry");
    assert_eq!(summary.result_hits, 1, "batched missed packet's entry");
}

/// The memory-system and scheduler paths round-trip through the warm
/// layer too (moe requires a remote memory system; themis reorders the
/// analytical fast path).
#[test]
fn memory_and_scheduler_requests_stay_bit_identical() {
    let cache = WarmCache::new();
    for json in [
        r#"{"topology": "SW(16)@256_SW(16)@100", "workload": "moe", "memory": "hiermem-opt"}"#,
        r#"{"topology": "SW(8)@400", "workload": "gpt3", "fsdp": true, "themis": true}"#,
        r#"{"topology": "R(4)@100_SW(4)@50", "workload": "dlrm"}"#,
    ] {
        let req = request(json);
        assert_eq!(*execute(&req, &cache).unwrap(), execute_once(&req).unwrap());
        assert_eq!(*execute(&req, &cache).unwrap(), execute_once(&req).unwrap());
    }
}

/// The concurrent-request suite: one mixed batch with duplicates, run on
/// 1, 2, and 8 workers and against pre-warmed caches — the response rows
/// are byte-identical every time.
#[test]
fn concurrent_batches_emit_identical_rows_for_every_worker_count() {
    let batch: Vec<String> = [
        r#"{"id": "p1", "topology": "R(8)@100", "workload": "gpt3", "pipeline": 4}"#,
        r#"{"id": "m1", "topology": "SW(8)@400", "all_reduce_mib": 64}"#,
        r#"{"id": "p1-dup", "topology": "R(8)@100", "workload": "gpt3", "pipeline": 4}"#,
        r#"{"id": "f1", "topology": "R(5)@200_SW(2)@25", "all_reduce_mib": 32, "network": "flow"}"#,
        r#"{"id": "bad", "topology": "Mesh(9)", "workload": "dlrm"}"#,
        r#"{"id": "c1", "topology": "SW(8)@100_SW(2)@50", "all_reduce_mib": 64, "collectives": "backend", "chunks": 8}"#,
        r#"{"id": "m1-dup", "topology": "SW(8)@400", "all_reduce_mib": 64}"#,
        "not even json",
        r#"{"id": "d1", "topology": "R(4)@100_SW(4)@50", "workload": "dlrm"}"#,
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();

    let (reference, summary) = run_batch(&batch, 1, &WarmCache::new());
    assert_eq!(summary.requests, 9);
    assert_eq!(summary.ok, 7);
    assert_eq!(summary.errors, 2);
    for workers in [2, 8] {
        let (rows, _) = run_batch(&batch, workers, &WarmCache::new());
        assert_eq!(rows, reference, "workers={workers}");
    }
    // A pre-warmed cache (same batch already executed) changes nothing.
    let warm = WarmCache::new();
    run_batch(&batch, 4, &warm);
    let (rows, _) = run_batch(&batch, 4, &warm);
    assert_eq!(rows, reference);
    // Reversing the request order permutes rows but not their contents:
    // after masking the positional fields ("index": N, "line N:"), the
    // two row sets are equal.
    let reversed: Vec<String> = batch.iter().rev().cloned().collect();
    let (rev_rows, _) = run_batch(&reversed, 4, &WarmCache::new());
    let normalize = |rows: &[String]| -> Vec<String> {
        let mut masked: Vec<String> = rows
            .iter()
            .map(|r| {
                let mut s = r.clone();
                if let Some(start) = s.find("\"index\":") {
                    let end = start + s[start..].find(',').unwrap();
                    s.replace_range(start..end, "\"index\":_");
                }
                if let Some(start) = s.find("line ") {
                    let digits = s[start + 5..]
                        .chars()
                        .take_while(char::is_ascii_digit)
                        .count();
                    s.replace_range(start + 5..start + 5 + digits, "_");
                }
                s
            })
            .collect();
        masked.sort();
        masked
    };
    assert_eq!(
        normalize(&reference),
        normalize(&rev_rows),
        "request order must not change response contents"
    );
}

/// Trace bytes are part of the determinism surface too: rendering the
/// trace of a request against a cold cache and against caches pre-warmed
/// by batches at different worker counts must produce identical bytes.
#[test]
fn traced_runs_render_identical_bytes_across_cache_states_and_workers() {
    use astra_core::TraceFormat;
    use astra_serve::execute_traced;

    // Small payload on the per-packet backend: telemetry records every
    // link reservation, so trace size scales with packet count.
    let line = r#"{"topology": "R(8)@100", "all_reduce_mib": 1,
                   "network": "packet", "collectives": "backend", "chunks": 4}"#;
    let render = |cache: &WarmCache| {
        let (_, trace) = execute_traced(&request(line), cache).unwrap();
        let trace = trace.expect("telemetry on yields a trace");
        (
            TraceFormat::Chrome.render(&trace),
            TraceFormat::Jsonl.render(&trace),
        )
    };
    let reference = render(&WarmCache::new());
    let warmup: Vec<String> = vec![
        line.to_owned(),
        r#"{"topology": "R(8)@100", "all_reduce_mib": 4}"#.to_owned(),
    ];
    for workers in [1, 4, 8] {
        let cache = WarmCache::new();
        run_batch(&warmup, workers, &cache);
        assert_eq!(
            render(&cache),
            reference,
            "trace bytes differ after a {workers}-worker warmup batch"
        );
    }
}
