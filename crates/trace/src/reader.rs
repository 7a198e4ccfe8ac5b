//! Streaming `alperf-obs-v1` trace reading.
//!
//! Traces can be large (one line per span; a full `repro_fig7` run emits
//! hundreds of thousands), so the reader consumes the input line by line
//! through any [`BufRead`] instead of slurping the file, keeping only the
//! typed events. Error classification is part of the contract: CI gates
//! need to tell "the trace was never written" from "the trace is from a
//! newer schema" from "the trace is corrupt", so each failure mode is its
//! own [`TraceError`] variant with its own conventional exit code.

use alperf_obs::event::{Event, RecordEvent, SpanEvent};
use alperf_obs::sink::SCHEMA;
use std::fmt;
use std::io::BufRead;
use std::path::Path;

/// A fully read trace: schema-checked meta plus all spans and records in
/// file (= span close) order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Schema identifier from the meta line.
    pub schema: String,
    /// All span events, in emission (close) order.
    pub spans: Vec<SpanEvent>,
    /// All record events, in emission order.
    pub records: Vec<RecordEvent>,
}

impl Trace {
    /// Record events named `name`, in emission order.
    pub fn records_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a RecordEvent> {
        self.records.iter().filter(move |r| r.name == name)
    }
}

/// Why a trace could not be read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The file does not exist or cannot be opened/read.
    Io(String),
    /// The file exists but contains no lines (not even a meta record).
    Empty,
    /// The first line is not a meta record.
    MissingMeta,
    /// The meta record declares a schema this reader does not understand.
    UnknownSchema(String),
    /// A line failed to parse as a v1 event.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// Parser message.
        msg: String,
    },
}

impl TraceError {
    /// Conventional process exit code for this failure class, used by the
    /// `validate_trace` / `trace_report` CI gates: missing or unreadable
    /// input is 3, an empty trace is 4, a schema mismatch is 5, and
    /// malformed content is 1. (2 is reserved for usage errors.)
    pub fn exit_code(&self) -> u8 {
        match self {
            TraceError::Io(_) => 3,
            TraceError::Empty => 4,
            TraceError::MissingMeta | TraceError::UnknownSchema(_) => 5,
            TraceError::Malformed { .. } => 1,
        }
    }
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "cannot read trace: {e}"),
            TraceError::Empty => write!(f, "empty trace file (no meta record)"),
            TraceError::MissingMeta => write!(f, "line 1: first line must be the meta record"),
            TraceError::UnknownSchema(s) => {
                write!(f, "unknown schema {s:?} (expected {SCHEMA:?})")
            }
            TraceError::Malformed { line, msg } => write!(f, "line {line}: {msg}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// Read a trace from any buffered reader. The first line must be a meta
/// record declaring schema [`SCHEMA`]; every further line must parse as a
/// v1 `span`/`record`/`meta` event (extra meta lines are tolerated and
/// ignored so concatenated traces from one process still read).
pub fn read_trace<R: BufRead>(reader: R) -> Result<Trace, TraceError> {
    let mut trace = Trace::default();
    let mut saw_meta = false;
    for (idx, line) in reader.lines().enumerate() {
        let line_no = idx + 1;
        let line = line.map_err(|e| TraceError::Io(e.to_string()))?;
        if line.trim().is_empty() {
            continue;
        }
        let event = Event::parse(&line).map_err(|e| {
            if saw_meta {
                TraceError::Malformed {
                    line: line_no,
                    msg: e.0,
                }
            } else {
                TraceError::MissingMeta
            }
        })?;
        match event {
            Event::Meta(meta) => {
                if meta.schema != SCHEMA {
                    return Err(TraceError::UnknownSchema(meta.schema));
                }
                if !saw_meta {
                    trace.schema = meta.schema;
                    saw_meta = true;
                }
            }
            Event::Span(span) if saw_meta => trace.spans.push(span),
            Event::Record(record) if saw_meta => trace.records.push(record),
            Event::Span(_) | Event::Record(_) => return Err(TraceError::MissingMeta),
        }
    }
    if !saw_meta {
        return Err(TraceError::Empty);
    }
    Ok(trace)
}

/// Read a trace file from disk (see [`read_trace`] for the format rules).
pub fn read_path(path: &Path) -> Result<Trace, TraceError> {
    let file = std::fs::File::open(path)
        .map_err(|e| TraceError::Io(format!("{}: {e}", path.display())))?;
    read_trace(std::io::BufReader::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;

    const META: &str = "{\"v\":1,\"t\":\"meta\",\"schema\":\"alperf-obs-v1\",\"unit\":\"ns\"}";

    fn read_str(s: &str) -> Result<Trace, TraceError> {
        read_trace(s.as_bytes())
    }

    #[test]
    fn reads_spans_and_records() {
        let text = format!(
            "{META}\n\
             {{\"v\":1,\"t\":\"span\",\"name\":\"a\",\"tid\":1,\"id\":2,\"start_ns\":5,\"dur_ns\":7}}\n\
             {{\"v\":1,\"t\":\"record\",\"name\":\"r\",\"tid\":1,\"fields\":{{\"k\":3}}}}\n"
        );
        let trace = read_str(&text).unwrap();
        assert_eq!(trace.schema, SCHEMA);
        assert_eq!(trace.spans.len(), 1);
        assert_eq!(trace.spans[0].name, "a");
        assert_eq!(trace.spans[0].end_ns(), 12);
        assert_eq!(trace.records.len(), 1);
        assert_eq!(trace.records_named("r").count(), 1);
        assert_eq!(trace.records[0].f64("k"), Some(3.0));
    }

    #[test]
    fn empty_input_is_its_own_error() {
        assert_eq!(read_str(""), Err(TraceError::Empty));
        assert_eq!(read_str("\n  \n"), Err(TraceError::Empty));
        assert_eq!(TraceError::Empty.exit_code(), 4);
    }

    #[test]
    fn unknown_schema_is_its_own_error() {
        let text = "{\"v\":1,\"t\":\"meta\",\"schema\":\"alperf-obs-v9\",\"unit\":\"ns\"}\n";
        match read_str(text) {
            Err(TraceError::UnknownSchema(s)) => {
                assert_eq!(s, "alperf-obs-v9");
                assert_eq!(TraceError::UnknownSchema(s).exit_code(), 5);
            }
            other => panic!("expected UnknownSchema, got {other:?}"),
        }
    }

    #[test]
    fn missing_meta_first_line_rejected() {
        let text =
            "{\"v\":1,\"t\":\"span\",\"name\":\"a\",\"tid\":1,\"start_ns\":0,\"dur_ns\":1}\n";
        assert_eq!(read_str(text), Err(TraceError::MissingMeta));
    }

    #[test]
    fn malformed_line_reports_line_number() {
        let text = format!("{META}\nnot json\n");
        match read_str(&text) {
            Err(TraceError::Malformed { line: 2, .. }) => {}
            other => panic!("expected Malformed at line 2, got {other:?}"),
        }
    }

    #[test]
    fn missing_file_is_io() {
        let err = read_path(Path::new("/nonexistent/alperf/trace.jsonl")).unwrap_err();
        assert!(matches!(err, TraceError::Io(_)));
        assert_eq!(err.exit_code(), 3);
    }
}
