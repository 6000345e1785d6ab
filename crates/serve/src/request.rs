//! Simulation requests: the JSONL schema of the batch service.
//!
//! One request is one JSON object per line. Field names mirror the
//! `astra` CLI flags (`topology` ↔ `--topology`, `all_reduce_mib` ↔
//! `--all-reduce-mib`, …) and carry the same semantics — a request is a
//! CLI invocation in data form, and resolving one produces exactly the
//! report the equivalent single-run invocation would.

use astra_core::{CollectiveMode, FaultKind, FaultSchedule, NetworkBackendKind, P2pMode, Time};
use std::error::Error;
use std::fmt;

use serde_json::Value;

/// Classification of a request failure, surfaced as the machine-readable
/// `error` field of a response row. [`ErrorKind::Request`] (bad input /
/// setup) keeps the historical free-text error bytes; the hardened kinds
/// emit a stable token (`budget_exceeded`, `panic`, …) with the free text
/// relegated to a `detail` field.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum ErrorKind {
    /// Malformed or inconsistent request (parse/schema/setup errors).
    #[default]
    Request,
    /// The run exhausted its `max_events` / `max_sim_time_ps` budget.
    BudgetExceeded,
    /// The request's execution panicked; the worker caught it and the
    /// pool stayed alive.
    Panic,
    /// The service was shutting down before this request started.
    Shutdown,
    /// The request line exceeded the service's line-length bound.
    LineTooLong,
}

impl ErrorKind {
    /// The stable token emitted in the `error` field for hardened kinds.
    pub fn token(self) -> &'static str {
        match self {
            ErrorKind::Request => "request",
            ErrorKind::BudgetExceeded => "budget_exceeded",
            ErrorKind::Panic => "panic",
            ErrorKind::Shutdown => "shutdown",
            ErrorKind::LineTooLong => "line_too_long",
        }
    }
}

/// An error resolving or executing one request. The message is
/// user-facing and mirrors the CLI's wording (field names are spelled as
/// their CLI flags); the kind classifies the failure for structured
/// response rows.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestError {
    /// Human-readable description.
    pub message: String,
    /// Machine-readable classification.
    pub kind: ErrorKind,
    /// The failing request's `id`, when the line was an object with a
    /// well-formed `id` but another field was rejected.
    pub id: Option<String>,
}

impl RequestError {
    /// A classified error.
    pub fn with_kind(kind: ErrorKind, message: impl Into<String>) -> Self {
        RequestError {
            message: message.into(),
            kind,
            id: None,
        }
    }
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl Error for RequestError {}

pub(crate) fn err(msg: impl Into<String>) -> RequestError {
    RequestError::with_kind(ErrorKind::Request, msg)
}

/// One simulation request (one JSONL line of the batch service).
///
/// Every field except [`SimRequest::id`] affects the result; together
/// they form the canonical result-cache key.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimRequest {
    /// Opaque client tag echoed back in the response row (not part of the
    /// result-cache key).
    pub id: Option<String>,
    /// Topology notation (required), e.g. `"R(4)@250_SW(2)@50"`.
    pub topology: String,
    /// Workload name: `dlrm`, `gpt3`, `t1t`, or `moe`.
    pub workload: Option<String>,
    /// All-Reduce microbenchmark payload in MiB (alternative to a
    /// workload).
    pub all_reduce_mib: Option<u64>,
    /// Model-parallel width for `gpt3` / `t1t`.
    pub mp: Option<usize>,
    /// FSDP instead of hybrid/data parallelism.
    pub fsdp: bool,
    /// Pipeline parallelism with this many stages (and as many
    /// micro-batches).
    pub pipeline: Option<usize>,
    /// Use the Themis greedy collective scheduler.
    pub themis: bool,
    /// Collective pipeline chunks.
    pub chunks: Option<u64>,
    /// Remote memory system: `hiermem-base`, `hiermem-opt`,
    /// `zero-infinity`.
    pub memory: Option<String>,
    /// Network backend: `analytical`, `packet`, `batched`, or `flow`.
    pub network: Option<NetworkBackendKind>,
    /// Engine/network integration: `async` or `blocking`.
    pub p2p: Option<P2pMode>,
    /// Collective execution: `analytical` or `backend`.
    pub collectives: Option<CollectiveMode>,
    /// Worker threads for the packet backends' parallel core.
    pub sim_threads: Option<usize>,
    /// Deterministic fault schedule (see [`FaultSchedule`]); empty by
    /// default. Part of the canonical key via its signature, so
    /// fault-laden requests never alias fault-free cache entries.
    pub faults: FaultSchedule,
    /// Event budget: fail with a `budget_exceeded` row once engine plus
    /// network backends have processed this many events.
    pub max_events: Option<u64>,
    /// Simulated-time budget in picoseconds.
    pub max_sim_time_ps: Option<u64>,
}

/// Parses the `faults` array of a request (or of an `astra --faults`
/// spec file): one object per fault event, e.g.
/// `{"at_us": 10, "kind": "link_down", "src": 0, "dst": 1}`. Kinds:
/// `link_down` (src, dst), `link_degrade` (src, dst, optional
/// `bandwidth_pct` ≤ 100 and `latency_x` ≥ 1), `npu_slowdown` (npu,
/// `slowdown_pct` ≥ 100), `switch_down` (dim, group). `at_us` defaults
/// to 0. Unknown fields are rejected.
pub(crate) fn parse_faults(value: &Value) -> Result<FaultSchedule, RequestError> {
    let Value::Array(items) = value else {
        return Err(err("`faults` expects an array of fault objects"));
    };
    let mut schedule = FaultSchedule::new();
    for (i, item) in items.iter().enumerate() {
        let Some(fields) = item.as_object() else {
            return Err(err(format!("`faults[{i}]` must be an object")));
        };
        let mut kind_name: Option<String> = None;
        let mut at_us = 0u64;
        let mut nums: Vec<(String, u64)> = Vec::new();
        for (k, v) in fields {
            match k.as_str() {
                "kind" => kind_name = Some(string_field("kind", v)?),
                "at_us" => at_us = uint_field("at_us", v)?,
                "src" | "dst" | "npu" | "dim" | "group" | "bandwidth_pct" | "latency_x"
                | "slowdown_pct" => nums.push((k.clone(), uint_field(k, v)?)),
                other => {
                    return Err(err(format!(
                        "unknown fault field `{other}` in `faults[{i}]`"
                    )));
                }
            }
        }
        let take = |name: &str| -> Result<u64, RequestError> {
            nums.iter()
                .find(|(k, _)| k == name)
                .map(|&(_, v)| v)
                .ok_or_else(|| err(format!("`faults[{i}]` is missing `{name}`")))
        };
        let take_or = |name: &str, default: u64| {
            nums.iter()
                .find(|(k, _)| k == name)
                .map_or(default, |&(_, v)| v)
        };
        let kind = match kind_name.as_deref() {
            Some("link_down") => FaultKind::LinkDown {
                src: take("src")? as usize,
                dst: take("dst")? as usize,
            },
            Some("link_degrade") => FaultKind::LinkDegrade {
                src: take("src")? as usize,
                dst: take("dst")? as usize,
                bandwidth_pct: take_or("bandwidth_pct", 100) as u32,
                latency_x: take_or("latency_x", 1) as u32,
            },
            Some("npu_slowdown") => FaultKind::NpuSlowdown {
                npu: take("npu")? as usize,
                slowdown_pct: take("slowdown_pct")? as u32,
            },
            Some("switch_down") => FaultKind::SwitchDown {
                dim: take("dim")? as usize,
                group: take("group")? as usize,
            },
            Some(other) => {
                return Err(err(format!(
                    "unknown fault kind `{other}` in `faults[{i}]` (expected `link_down`, \
                     `link_degrade`, `npu_slowdown`, or `switch_down`)"
                )));
            }
            None => return Err(err(format!("`faults[{i}]` is missing `kind`"))),
        };
        schedule.push(Time::from_us(at_us), kind);
    }
    Ok(schedule)
}

/// Parses a standalone fault-schedule JSON document (the `astra --faults
/// <spec.json>` format): a top-level array of fault objects, the same
/// schema as a request's `faults` field.
///
/// # Errors
///
/// Returns a [`RequestError`] describing the JSON or schema problem.
pub fn parse_faults_json(text: &str) -> Result<FaultSchedule, RequestError> {
    let value = serde_json::parse(text).map_err(|e| err(format!("invalid JSON: {e}")))?;
    parse_faults(&value)
}

fn string_field(key: &str, v: &Value) -> Result<String, RequestError> {
    match v {
        Value::Str(s) => Ok(s.clone()),
        _ => Err(err(format!("`{key}` expects a string"))),
    }
}

fn uint_field(key: &str, v: &Value) -> Result<u64, RequestError> {
    v.as_u64()
        .ok_or_else(|| err(format!("`{key}` expects a non-negative integer")))
}

fn bool_field(key: &str, v: &Value) -> Result<bool, RequestError> {
    v.as_bool()
        .ok_or_else(|| err(format!("`{key}` expects true or false")))
}

/// Fills every field but `id` of `req` from a request object, then checks
/// the required ones.
fn read_fields(req: &mut SimRequest, fields: &[(String, Value)]) -> Result<(), RequestError> {
    for (key, v) in fields {
        match key.as_str() {
            "id" => {}
            "topology" => req.topology = string_field(key, v)?,
            "workload" => req.workload = Some(string_field(key, v)?),
            "all_reduce_mib" => req.all_reduce_mib = Some(uint_field(key, v)?),
            "mp" => req.mp = Some(uint_field(key, v)? as usize),
            "fsdp" => req.fsdp = bool_field(key, v)?,
            "pipeline" => req.pipeline = Some(uint_field(key, v)? as usize),
            "themis" => req.themis = bool_field(key, v)?,
            "chunks" => req.chunks = Some(uint_field(key, v)?),
            "memory" => req.memory = Some(string_field(key, v)?),
            "network" => req.network = Some(string_field(key, v)?.parse().map_err(err)?),
            "p2p" => req.p2p = Some(string_field(key, v)?.parse().map_err(err)?),
            "collectives" => {
                req.collectives = Some(string_field(key, v)?.parse().map_err(err)?);
            }
            "sim_threads" => {
                let threads = uint_field(key, v)? as usize;
                if threads == 0 {
                    return Err(err("`sim_threads` must be at least 1"));
                }
                req.sim_threads = Some(threads);
            }
            "faults" => req.faults = parse_faults(v)?,
            "max_events" => {
                let cap = uint_field(key, v)?;
                if cap == 0 {
                    return Err(err("`max_events` must be at least 1"));
                }
                req.max_events = Some(cap);
            }
            "max_sim_time_ps" => {
                let cap = uint_field(key, v)?;
                if cap == 0 {
                    return Err(err("`max_sim_time_ps` must be at least 1"));
                }
                req.max_sim_time_ps = Some(cap);
            }
            other => return Err(err(format!("unknown request field `{other}`"))),
        }
    }
    if req.topology.is_empty() {
        return Err(err("`topology` is required"));
    }
    if req.workload.is_none() && req.all_reduce_mib.is_none() {
        return Err(err("one of `workload` or `all_reduce_mib` is required"));
    }
    Ok(())
}

impl SimRequest {
    /// Parses one request from a decoded JSON value. Unknown fields are
    /// rejected so a typo cannot silently run the wrong configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`RequestError`] naming the offending field when the
    /// value is not an object, a field has the wrong type or an unknown
    /// name, or the required `topology` is missing. The `id` is read
    /// first, so an error in any other field still carries it.
    pub fn from_value(value: &Value) -> Result<Self, RequestError> {
        let Some(fields) = value.as_object() else {
            return Err(err("request must be a JSON object"));
        };
        // The last `id` wins, as for every other repeated field.
        let id = match fields.iter().rev().find(|(key, _)| key == "id") {
            Some((_, Value::Str(s))) => Some(s.clone()),
            Some((_, Value::UInt(n))) => Some(n.to_string()),
            Some((_, Value::Int(n))) => Some(n.to_string()),
            Some(_) => return Err(err("`id` expects a string or integer")),
            None => None,
        };
        let mut req = SimRequest {
            id,
            ..SimRequest::default()
        };
        read_fields(&mut req, fields).map_err(|e| RequestError {
            id: req.id.clone(),
            ..e
        })?;
        Ok(req)
    }

    /// Parses one JSONL line.
    ///
    /// # Errors
    ///
    /// Returns a [`RequestError`] with the JSON parse error (byte offset
    /// included) or the schema problem.
    pub fn from_json_line(line: &str) -> Result<Self, RequestError> {
        let value = serde_json::parse(line).map_err(|e| err(format!("invalid JSON: {e}")))?;
        Self::from_value(&value)
    }

    /// The canonical result-cache key: every result-affecting field in a
    /// fixed order. Two requests with equal keys produce bit-identical
    /// reports, so the batch service memoizes whole reports under it.
    /// `id` is deliberately excluded.
    pub fn canonical_key(&self) -> String {
        format!(
            "topology={};workload={:?};all_reduce_mib={:?};mp={:?};fsdp={};pipeline={:?};\
             themis={};chunks={:?};memory={:?};network={:?};p2p={:?};\
             collectives={:?};sim_threads={:?};faults={};max_events={:?};max_sim_time_ps={:?}",
            self.topology,
            self.workload,
            self.all_reduce_mib,
            self.mp,
            self.fsdp,
            self.pipeline,
            self.themis,
            self.chunks,
            self.memory,
            self.network,
            self.p2p,
            self.collectives,
            self.sim_threads,
            self.faults.signature(),
            self.max_events,
            self.max_sim_time_ps,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_request() {
        let req = SimRequest::from_json_line(
            r#"{"id": "r1", "topology": "R(4)@200_SW(4)@50", "workload": "gpt3",
                "mp": 4, "themis": true, "chunks": 64,
                "network": "flow", "p2p": "async", "collectives": "analytical"}"#,
        )
        .unwrap();
        assert_eq!(req.id.as_deref(), Some("r1"));
        assert_eq!(req.topology, "R(4)@200_SW(4)@50");
        assert_eq!(req.mp, Some(4));
        assert!(req.themis);
        assert_eq!(req.network, Some(NetworkBackendKind::Flow));
    }

    #[test]
    fn rejects_malformed_and_unknown() {
        assert!(SimRequest::from_json_line("{not json").is_err());
        assert!(SimRequest::from_json_line(r#"{"topology": 4}"#).is_err());
        assert!(
            SimRequest::from_json_line(r#"{"topology": "R(4)@100", "frobnicate": 1}"#).is_err()
        );
        // Missing topology / workload are schema errors, not panics.
        assert!(SimRequest::from_json_line(r#"{"workload": "dlrm"}"#).is_err());
        assert!(SimRequest::from_json_line(r#"{"topology": "R(4)@100"}"#).is_err());
        assert!(SimRequest::from_json_line("[1, 2]").is_err());
    }

    #[test]
    fn canonical_key_ignores_id_only() {
        let base = SimRequest::from_json_line(
            r#"{"topology": "R(4)@100", "workload": "dlrm", "id": "a"}"#,
        )
        .unwrap();
        let renamed = SimRequest::from_json_line(
            r#"{"topology": "R(4)@100", "workload": "dlrm", "id": "b"}"#,
        )
        .unwrap();
        let changed = SimRequest::from_json_line(
            r#"{"topology": "R(4)@100", "workload": "dlrm", "themis": true}"#,
        )
        .unwrap();
        assert_eq!(base.canonical_key(), renamed.canonical_key());
        assert_ne!(base.canonical_key(), changed.canonical_key());
    }
}
