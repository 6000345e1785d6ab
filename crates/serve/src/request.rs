//! Simulation requests: the one request schema of `astra` and `astra
//! serve`.
//!
//! One request is one JSON object per line. Its fields are the rows of
//! [`FIELDS`], plus an echoed `id` and an inline `faults` array. The
//! `astra` CLI reads the same table: every row is also a `--kebab-name`
//! flag (`all_reduce_mib` ↔ `--all-reduce-mib`, a bare flag for bools),
//! and `astra --help` lists the rows. A request is a CLI invocation in
//! data form, and resolving one produces exactly the report the
//! equivalent single-run invocation would.

use astra_core::{CollectiveMode, FaultKind, FaultSchedule, NetworkBackendKind, Time};
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
    /// All-Reduce microbenchmark payload in MiB (instead of a workload).
    pub all_reduce_mib: Option<u64>,
    /// Model-parallel width for `gpt3` / `t1t`.
    pub mp: Option<usize>,
    /// FSDP instead of hybrid/data parallelism.
    pub fsdp: bool,
    /// Pipeline parallelism with this many stages and micro-batches.
    pub pipeline: Option<usize>,
    /// Use the Themis greedy collective scheduler.
    pub themis: bool,
    /// Collective pipeline chunks.
    pub chunks: Option<u64>,
    /// Remote memory system: `hiermem-base`, `hiermem-opt`, `zero-infinity`.
    pub memory: Option<String>,
    /// Network backend: `analytical`, `packet`, `batched`, or `flow`.
    pub network: Option<NetworkBackendKind>,
    /// Collective execution: `analytical` or `backend`.
    pub collectives: Option<CollectiveMode>,
    /// Worker threads for the packet backends' parallel core.
    pub sim_threads: Option<usize>,
    /// Deterministic fault schedule (see [`FaultSchedule`]); empty by
    /// default.
    pub faults: FaultSchedule,
    /// Event budget: fail with a `budget_exceeded` row past this many events.
    pub max_events: Option<u64>,
    /// Simulated-time budget in picoseconds.
    pub max_sim_time_ps: Option<u64>,
}

/// The value kind of a request field, holding the setter that stores a
/// read value into a [`SimRequest`].
#[derive(Clone, Copy, Debug)]
pub enum FieldKind {
    /// Any string.
    Str(fn(&mut SimRequest, String)),
    /// One of the listed names, the first being the default; the setter
    /// parses the name.
    Enum(
        &'static [&'static str],
        fn(&mut SimRequest, &str) -> Result<(), String>,
    ),
    /// A non-negative integer.
    Int(fn(&mut SimRequest, u64)),
    /// An integer of at least 1.
    Count(fn(&mut SimRequest, u64)),
    /// `true` or `false`; a bare flag on the command line.
    Bool(fn(&mut SimRequest, bool)),
}

/// One row of the request schema: a [`SimRequest`] field as `astra serve`
/// reads it (`"snake_name": value`) and as `astra` reads it
/// (`--kebab-name VALUE`, or a bare `--kebab-name` for bools).
#[derive(Clone, Copy, Debug)]
pub struct Field {
    /// The JSON name; the CLI flag is its kebab-case spelling.
    pub name: &'static str,
    /// Placeholder for the value in `--help` (empty for bools).
    pub value: &'static str,
    /// `--help` text, wrapped when printed.
    pub help: &'static str,
    /// How the value is read and where it is stored.
    pub kind: FieldKind,
}

/// The request schema: every [`SimRequest`] field except `id` and
/// `faults`, in `--help` order. Adding a request field means adding its
/// row here.
pub const FIELDS: &[Field] = &[
    Field {
        name: "topology",
        value: "<NOTATION>",
        help: "required, e.g. \"R(4)@250_SW(2)@50\" (Ring/R, FullyConnected/FC, Switch/SW)",
        kind: FieldKind::Str(|r, v| r.topology = v),
    },
    Field {
        name: "workload",
        value: "<NAME>",
        help: "dlrm | gpt3 | t1t | moe (Table III presets); this or --all-reduce-mib is required",
        kind: FieldKind::Str(|r, v| r.workload = Some(v)),
    },
    Field {
        name: "all_reduce_mib",
        value: "<MiB>",
        help: "single world All-Reduce of this many MiB",
        kind: FieldKind::Int(|r, v| r.all_reduce_mib = Some(v)),
    },
    Field {
        name: "mp",
        value: "<N>",
        help: "model-parallel width (gpt3/t1t; default Table III)",
        kind: FieldKind::Int(|r, v| r.mp = Some(v as usize)),
    },
    Field {
        name: "fsdp",
        value: "",
        help: "fully-sharded data parallelism instead of hybrid",
        kind: FieldKind::Bool(|r, v| r.fsdp = v),
    },
    Field {
        name: "pipeline",
        value: "<STAGES>",
        help: "GPipe-style pipeline parallelism (STAGES stages, as many micro-batches); \
               its stage-to-stage sends are what --network routes",
        kind: FieldKind::Int(|r, v| r.pipeline = Some(v as usize)),
    },
    Field {
        name: "themis",
        value: "",
        help: "Themis greedy collective scheduler",
        kind: FieldKind::Bool(|r, v| r.themis = v),
    },
    Field {
        name: "chunks",
        value: "<N>",
        help: "collective pipeline chunks (default 128)",
        kind: FieldKind::Int(|r, v| r.chunks = Some(v)),
    },
    Field {
        name: "memory",
        value: "<SYSTEM>",
        help: "hiermem-base | hiermem-opt | zero-infinity (required for moe)",
        kind: FieldKind::Str(|r, v| r.memory = Some(v)),
    },
    Field {
        name: "network",
        value: "<BACKEND>",
        help: "the p2p network backend; batched scales to fine packets and is \
               bit-identical to packet unless concurrent trains interleave on a link",
        kind: FieldKind::Enum(&["analytical", "packet", "batched", "flow"], |r, v| {
            v.parse().map(|kind| r.network = Some(kind))
        }),
    },
    Field {
        name: "collectives",
        value: "<MODE>",
        help: "closed-form multi-rail collectives, or chunk-level send/recv programs \
               run on the --network backend (baseline scheduler only)",
        kind: FieldKind::Enum(&["analytical", "backend"], |r, v| {
            v.parse().map(|mode| r.collectives = Some(mode))
        }),
    },
    Field {
        name: "sim_threads",
        value: "<N>",
        help: "run the packet backends on the parallel core with N worker threads; \
               bit-identical for every N (default: the sequential core)",
        kind: FieldKind::Count(|r, v| r.sim_threads = Some(v as usize)),
    },
    Field {
        name: "max_events",
        value: "<N>",
        help: "event budget: fail once the engine and network backends processed N events",
        kind: FieldKind::Count(|r, v| r.max_events = Some(v)),
    },
    Field {
        name: "max_sim_time_ps",
        value: "<PS>",
        help: "simulated-time budget in picoseconds",
        kind: FieldKind::Count(|r, v| r.max_sim_time_ps = Some(v)),
    },
];

impl Field {
    /// The row whose CLI flag is `flag` (`--kebab-name`).
    pub fn for_flag(flag: &str) -> Option<&'static Field> {
        let name = flag.strip_prefix("--").filter(|n| !n.contains('_'))?;
        let name = name.replace('-', "_");
        FIELDS.iter().find(|f| f.name == name)
    }

    /// The CLI flag, `--kebab-name`.
    pub fn flag(&self) -> String {
        format!("--{}", self.name.replace('_', "-"))
    }

    /// Reads the field's JSON value into `req`, or names the field in a
    /// type or range error.
    fn read(&self, req: &mut SimRequest, v: &Value) -> Result<(), RequestError> {
        let key = self.name;
        match self.kind {
            FieldKind::Str(set) => set(req, string_field(key, v)?),
            FieldKind::Enum(_, set) => set(req, &string_field(key, v)?).map_err(err)?,
            FieldKind::Int(set) => set(req, uint_field(key, v)?),
            FieldKind::Count(set) => {
                let n = uint_field(key, v)?;
                if n == 0 {
                    return Err(err(format!("`{key}` must be at least 1")));
                }
                set(req, n);
            }
            FieldKind::Bool(set) => set(req, bool_field(key, v)?),
        }
        Ok(())
    }

    /// Reads the field from the command line: `arg` is the text after a
    /// valued flag, `None` for a bare bool flag. Text that is not an
    /// integer reaches an integer field as a string, so the error is the
    /// one a JSON request gets.
    ///
    /// # Errors
    ///
    /// Returns a [`RequestError`] naming the field when the value has the
    /// wrong type or is out of range.
    pub fn read_arg(&self, req: &mut SimRequest, arg: Option<&str>) -> Result<(), RequestError> {
        let v = match (self.kind, arg) {
            (FieldKind::Int(_) | FieldKind::Count(_), Some(text)) => text
                .parse()
                .map_or_else(|_| Value::Str(text.to_owned()), Value::UInt),
            (_, Some(text)) => Value::Str(text.to_owned()),
            (_, None) => Value::Bool(true),
        };
        self.read(req, &v)
    }
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
            "faults" => req.faults = parse_faults(v)?,
            name => match FIELDS.iter().find(|f| f.name == name) {
                Some(field) => field.read(req, v)?,
                None => return Err(err(format!("unknown request field `{name}`"))),
            },
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

    /// The canonical result-cache key: every result-affecting field. Two
    /// requests with equal keys produce bit-identical reports, so the
    /// batch service memoizes whole reports under it. `id` is excluded,
    /// and of `sim_threads` only the choice of packet core counts: every
    /// thread count of the parallel core gives the same report. The key
    /// is the `Debug` form, so a new field joins it on its own.
    pub fn canonical_key(&self) -> String {
        let core = if self.sim_threads.is_some() {
            "parallel"
        } else {
            "sequential"
        };
        let rest = SimRequest {
            id: None,
            sim_threads: None,
            ..self.clone()
        };
        format!("{rest:?};core={core}")
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
                "network": "flow", "collectives": "analytical"}"#,
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
        // The blocking-p2p oracle is not a request option.
        let e = SimRequest::from_json_line(
            r#"{"topology": "R(4)@100", "workload": "dlrm", "p2p": "blocking"}"#,
        )
        .unwrap_err();
        assert_eq!(e.message, "unknown request field `p2p`");
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
