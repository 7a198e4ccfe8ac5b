//! Typed `alperf-obs-v1` trace events: the public record-parsing API.
//!
//! The sink ([`crate::sink`]) *writes* trace lines and this module is the
//! one place that knows how to *read* them back — and, symmetrically, how
//! to render a typed event into the exact bytes the sink would have
//! written ([`SpanEvent::to_line`] / [`RecordEvent::to_line`] call the same
//! line writers as the live emit path, so writer→reader round-trips are
//! lossless by construction). Consumers that analyze traces (the
//! `alperf-trace` crate, the `validate_trace` CI gate) parse through
//! [`Event::parse`] instead of hand-rolling field extraction.

use crate::json::{self, Json};
use std::collections::BTreeMap;
use std::fmt;

/// One parsed line of an `alperf-obs-v1` trace.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// The schema-declaring first line.
    Meta(MetaEvent),
    /// A closed span (emitted on guard drop, so children precede parents).
    Span(SpanEvent),
    /// A structured record with free-form fields.
    Record(RecordEvent),
}

/// The meta line: schema identity and time unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetaEvent {
    /// Schema identifier (see [`crate::sink::SCHEMA`]).
    pub schema: String,
    /// Time unit of all `*_ns` fields (always `"ns"` under v1).
    pub unit: String,
}

/// A span event: name, thread, identity/parentage, interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name.
    pub name: String,
    /// Per-process thread id of the emitting thread.
    pub tid: u64,
    /// Process-unique span id (absent in pre-id traces).
    pub id: Option<u64>,
    /// Parent span name, when one was open (or explicitly attached).
    pub parent: Option<String>,
    /// Parent span id — the unambiguous link; absent in pre-id traces.
    pub parent_id: Option<u64>,
    /// Start time, nanoseconds since the process epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

impl SpanEvent {
    /// End time (`start_ns + dur_ns`, saturating).
    pub fn end_ns(&self) -> u64 {
        self.start_ns.saturating_add(self.dur_ns)
    }

    /// Does this span's interval contain `other`'s (inclusive)?
    pub fn contains(&self, other: &SpanEvent) -> bool {
        self.start_ns <= other.start_ns && other.end_ns() <= self.end_ns()
    }

    /// Render the exact JSONL line the sink would emit for this event.
    pub fn to_line(&self) -> String {
        span_line(
            &self.name,
            self.tid,
            self.id,
            self.parent.as_deref(),
            self.parent_id,
            self.start_ns,
            self.dur_ns,
        )
    }
}

/// A record event: name, thread, and free-form fields.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordEvent {
    /// Record name (e.g. `al.iteration`).
    pub name: String,
    /// Per-process thread id of the emitting thread.
    pub tid: u64,
    /// The `fields` object, key-sorted.
    pub fields: BTreeMap<String, Json>,
}

impl RecordEvent {
    /// Numeric field accessor.
    pub fn f64(&self, key: &str) -> Option<f64> {
        self.fields.get(key).and_then(Json::as_f64)
    }

    /// String field accessor.
    pub fn str(&self, key: &str) -> Option<&str> {
        self.fields.get(key).and_then(Json::as_str)
    }

    /// Render a JSONL line for this event (field order is the key-sorted
    /// map order, which the live emit path also produces for sorted input).
    pub fn to_line(&self) -> String {
        let mut line = String::with_capacity(128);
        line.push_str("{\"v\":1,\"t\":\"record\",\"name\":");
        json::escape_into(&mut line, &self.name);
        line.push_str(&format!(",\"tid\":{},\"fields\":{{", self.tid));
        for (i, (key, value)) in self.fields.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            json::escape_into(&mut line, key);
            line.push(':');
            write_json(&mut line, value);
        }
        line.push_str("}}");
        line
    }
}

fn write_json(out: &mut String, v: &Json) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => out.push_str(&json::number(*n)),
        Json::Str(s) => json::escape_into(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json(out, item);
            }
            out.push(']');
        }
        Json::Obj(map) => {
            out.push('{');
            for (i, (k, val)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::escape_into(out, k);
                out.push(':');
                write_json(out, val);
            }
            out.push('}');
        }
    }
}

/// Build a span JSONL line. This is the single writer used by both the
/// live sink emit path and [`SpanEvent::to_line`]; keeping one writer is
/// what makes the reader round-trip byte-exact.
#[allow(clippy::too_many_arguments)] // flat mirror of the wire fields
pub(crate) fn span_line(
    name: &str,
    tid: u64,
    id: Option<u64>,
    parent: Option<&str>,
    parent_id: Option<u64>,
    start_ns: u64,
    dur_ns: u64,
) -> String {
    let mut line = String::with_capacity(112);
    line.push_str("{\"v\":1,\"t\":\"span\",\"name\":");
    json::escape_into(&mut line, name);
    line.push_str(&format!(",\"tid\":{tid}"));
    if let Some(id) = id {
        line.push_str(&format!(",\"id\":{id}"));
    }
    if let Some(p) = parent {
        line.push_str(",\"parent\":");
        json::escape_into(&mut line, p);
    }
    if let Some(pid) = parent_id {
        line.push_str(&format!(",\"pid\":{pid}"));
    }
    line.push_str(&format!(",\"start_ns\":{start_ns},\"dur_ns\":{dur_ns}}}"));
    line
}

/// A line that failed to parse as a typed event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventError(pub String);

impl fmt::Display for EventError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for EventError {}

fn req_f64(obj: &Json, key: &str) -> Result<f64, EventError> {
    obj.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| EventError(format!("missing/non-numeric \"{key}\"")))
}

fn req_str<'a>(obj: &'a Json, key: &str) -> Result<&'a str, EventError> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| EventError(format!("missing/non-string \"{key}\"")))
}

fn opt_u64(obj: &Json, key: &str) -> Option<u64> {
    obj.get(key).and_then(Json::as_f64).map(|v| v as u64)
}

impl Event {
    /// Parse one trace line into a typed event, checking required fields
    /// per event type (`v == 1`; spans: `name`/`tid`/`start_ns`/`dur_ns`;
    /// records: `name`/`tid` + a `fields` object; meta: `schema`).
    pub fn parse(line: &str) -> Result<Event, EventError> {
        let obj = json::parse(line).map_err(EventError)?;
        if obj.as_obj().is_none() {
            return Err(EventError("event is not a JSON object".into()));
        }
        if req_f64(&obj, "v")? != 1.0 {
            return Err(EventError("unsupported event version".into()));
        }
        match req_str(&obj, "t")? {
            "meta" => Ok(Event::Meta(MetaEvent {
                schema: req_str(&obj, "schema")?.to_string(),
                unit: obj
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("ns")
                    .to_string(),
            })),
            "span" => Ok(Event::Span(SpanEvent {
                name: req_str(&obj, "name")?.to_string(),
                tid: req_f64(&obj, "tid")? as u64,
                id: opt_u64(&obj, "id"),
                parent: obj.get("parent").and_then(Json::as_str).map(str::to_string),
                parent_id: opt_u64(&obj, "pid"),
                start_ns: req_f64(&obj, "start_ns")? as u64,
                dur_ns: req_f64(&obj, "dur_ns")? as u64,
            })),
            "record" => {
                let fields = obj
                    .get("fields")
                    .and_then(Json::as_obj)
                    .ok_or_else(|| EventError("record without \"fields\" object".into()))?
                    .clone();
                Ok(Event::Record(RecordEvent {
                    name: req_str(&obj, "name")?.to_string(),
                    tid: req_f64(&obj, "tid")? as u64,
                    fields,
                }))
            }
            other => Err(EventError(format!("unknown event type {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_line_round_trips() {
        let ev = SpanEvent {
            name: "gp.fit.restart".into(),
            tid: 3,
            id: Some(41),
            parent: Some("gp.fit".into()),
            parent_id: Some(40),
            start_ns: 123,
            dur_ns: 456,
        };
        let line = ev.to_line();
        match Event::parse(&line).unwrap() {
            Event::Span(back) => assert_eq!(back, ev),
            other => panic!("expected span, got {other:?}"),
        }
    }

    #[test]
    fn minimal_span_without_ids_round_trips() {
        let ev = SpanEvent {
            name: "x".into(),
            tid: 1,
            id: None,
            parent: None,
            parent_id: None,
            start_ns: 0,
            dur_ns: 0,
        };
        match Event::parse(&ev.to_line()).unwrap() {
            Event::Span(back) => assert_eq!(back, ev),
            other => panic!("expected span, got {other:?}"),
        }
    }

    #[test]
    fn record_line_round_trips() {
        let mut fields = BTreeMap::new();
        fields.insert("iter".to_string(), Json::Num(3.0));
        fields.insert("kind".to_string(), Json::Str("warm \"q\"".into()));
        fields.insert("ok".to_string(), Json::Bool(true));
        let ev = RecordEvent {
            name: "al.iteration".into(),
            tid: 2,
            fields,
        };
        match Event::parse(&ev.to_line()).unwrap() {
            Event::Record(back) => assert_eq!(back, ev),
            other => panic!("expected record, got {other:?}"),
        }
    }

    #[test]
    fn meta_parses() {
        let line = format!(
            "{{\"v\":1,\"t\":\"meta\",\"schema\":\"{}\",\"unit\":\"ns\"}}",
            crate::sink::SCHEMA
        );
        match Event::parse(&line).unwrap() {
            Event::Meta(m) => {
                assert_eq!(m.schema, crate::sink::SCHEMA);
                assert_eq!(m.unit, "ns");
            }
            other => panic!("expected meta, got {other:?}"),
        }
    }

    #[test]
    fn bad_lines_are_rejected() {
        assert!(Event::parse("not json").is_err());
        assert!(Event::parse("{\"v\":2,\"t\":\"span\"}").is_err());
        assert!(Event::parse("{\"v\":1,\"t\":\"mystery\"}").is_err());
        assert!(Event::parse("{\"v\":1,\"t\":\"span\",\"name\":\"a\"}").is_err());
        assert!(Event::parse("{\"v\":1,\"t\":\"record\",\"name\":\"a\",\"tid\":1}").is_err());
    }
}
