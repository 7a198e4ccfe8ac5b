//! The JSONL trace sink.
//!
//! One file per run, one JSON object per line. The first line is a meta
//! record carrying the schema version; every subsequent line is either a
//! `span` (name, thread, optional parent, start + duration in ns) or a
//! `record` (name, thread, free-form `fields` object). Lines are written
//! whole under one lock, so concurrent writers (replicate workers)
//! interleave at line granularity only.
//!
//! Schema `alperf-obs-v1`, field reference:
//!
//! ```json
//! {"v":1,"t":"meta","schema":"alperf-obs-v1","unit":"ns"}
//! {"v":1,"t":"span","name":"gp.fit","tid":1,"parent":"al.iteration","start_ns":123,"dur_ns":456}
//! {"v":1,"t":"record","name":"al.iteration","tid":1,"fields":{"iter":0,"rmse":0.5}}
//! ```

use crate::json;
use crate::span::SpanCtx;
use std::fmt::Write as _;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Schema identifier written in the meta line of every trace file.
pub const SCHEMA: &str = "alperf-obs-v1";

/// A field value for [`crate::record`] events.
#[derive(Debug, Clone, Copy)]
pub enum Value<'a> {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (non-finite values serialize as `null`).
    F64(f64),
    /// Array of floats (non-finite entries serialize as `null`).
    F64s(&'a [f64]),
    /// String.
    Str(&'a str),
    /// Boolean.
    Bool(bool),
}

impl Value<'_> {
    /// Append the value's JSON to `out`, numbers formatted in place.
    fn write_into(&self, out: &mut String) {
        match self {
            Value::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::F64(v) => json::number_into(out, *v),
            Value::F64s(vs) => {
                out.push('[');
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    json::number_into(out, *v);
                }
                out.push(']');
            }
            Value::Str(s) => json::escape_into(out, s),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        }
    }
}

/// Take `m`'s lock, recovering it if a thread panicked while holding it:
/// every critical section here either swaps the installed sink or writes
/// a line formatted before the lock was taken, so the guarded data is
/// valid whenever a panic could interrupt it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

struct Sink {
    writer: Mutex<BufWriter<std::fs::File>>,
}

impl Drop for Sink {
    // Flush guarantee: a replaced sink (a second `install_jsonl`) flushes
    // its buffered tail when the last handle drops, so no trace lines are
    // lost across reinstalls. Process exit still requires [`flush`] /
    // [`uninstall`] (statics are not dropped), which the bench crate's
    // telemetry guard does on drop — panics included.
    fn drop(&mut self) {
        let _ = lock(&self.writer).flush();
    }
}

static SINK: Mutex<Option<Arc<Sink>>> = Mutex::new(None);
/// Fast "is a sink installed" check so emit paths skip the lock entirely
/// when tracing to a file is not configured.
static SINK_PRESENT: AtomicBool = AtomicBool::new(false);

fn current_sink() -> Option<Arc<Sink>> {
    if !SINK_PRESENT.load(Ordering::Relaxed) {
        return None;
    }
    lock(&SINK).as_ref().map(Arc::clone)
}

/// Install a JSONL sink writing to `path` (truncating), and write the
/// schema meta line. Replaces any previously installed sink.
pub fn install_jsonl(path: &Path) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    let sink = Arc::new(Sink {
        writer: Mutex::new(BufWriter::new(file)),
    });
    {
        let mut w = lock(&sink.writer);
        writeln!(
            w,
            "{{\"v\":1,\"t\":\"meta\",\"schema\":\"{SCHEMA}\",\"unit\":\"ns\"}}"
        )?;
    }
    *lock(&SINK) = Some(sink);
    SINK_PRESENT.store(true, Ordering::Relaxed);
    Ok(())
}

/// Flush and remove the installed sink (if any).
pub fn uninstall() {
    SINK_PRESENT.store(false, Ordering::Relaxed);
    if let Some(sink) = lock(&SINK).take() {
        let _ = lock(&sink.writer).flush();
    }
}

/// Flush the installed sink without removing it.
pub fn flush() {
    if let Some(sink) = current_sink() {
        let _ = lock(&sink.writer).flush();
    }
}

/// Is a JSONL sink currently installed?
pub fn active() -> bool {
    SINK_PRESENT.load(Ordering::Relaxed)
}

/// Small monotone per-thread id for disambiguating interleaved events.
fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

fn write_line(line: &str) {
    if let Some(sink) = current_sink() {
        let mut w = lock(&sink.writer);
        let _ = writeln!(w, "{line}");
    }
}

/// Emit a span line (called by the span guard on drop). No-op without a
/// sink. The line carries the span's process-unique `id` and, when a
/// parent is known, the parent's `parent` (name) + `pid` (id) — `pid` is
/// what trace readers link trees by; the name survives for readability
/// and for pre-id consumers.
pub fn emit_span(name: &str, id: u64, parent: Option<SpanCtx>, start_ns: u64, dur_ns: u64) {
    if !active() {
        return;
    }
    let line = crate::event::span_line(
        name,
        thread_id(),
        Some(id),
        parent.map(|c| c.name),
        parent.map(|c| c.id),
        start_ns,
        dur_ns,
    );
    write_line(&line);
}

/// Emit a record line with free-form fields. No-op without a sink.
pub fn emit_record(name: &str, fields: &[(&str, Value<'_>)]) {
    if !active() {
        return;
    }
    let mut line = String::with_capacity(128);
    line.push_str("{\"v\":1,\"t\":\"record\",\"name\":");
    json::escape_into(&mut line, name);
    let _ = write!(line, ",\"tid\":{},\"fields\":{{", thread_id());
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        json::escape_into(&mut line, key);
        line.push(':');
        value.write_into(&mut line);
    }
    line.push_str("}}");
    write_line(&line);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    // Sink installation is global; serialize with the crate-level tests
    // that flip global state.
    #[test]
    fn emitted_lines_parse_and_follow_schema() {
        let _l = crate::tests::test_lock();
        let path =
            std::env::temp_dir().join(format!("alperf_obs_sink_{}.jsonl", std::process::id()));
        install_jsonl(&path).unwrap();
        emit_span(
            "unit.span",
            7,
            Some(SpanCtx {
                name: "unit.parent",
                id: 6,
            }),
            10,
            25,
        );
        emit_record(
            "unit.record",
            &[
                ("iter", Value::U64(3)),
                ("rmse", Value::F64(0.25)),
                ("kind", Value::Str("warm \"quoted\"")),
                ("ok", Value::Bool(true)),
                ("delta", Value::I64(-2)),
                ("bad", Value::F64(f64::NAN)),
                ("theta", Value::F64s(&[0.5, -1e-9, f64::INFINITY])),
            ],
        );
        uninstall();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        let meta = json::parse(lines[0]).unwrap();
        assert_eq!(meta.get("schema").and_then(Json::as_str), Some(SCHEMA));
        let span = json::parse(lines[1]).unwrap();
        assert_eq!(span.get("t").and_then(Json::as_str), Some("span"));
        assert_eq!(span.get("dur_ns").and_then(Json::as_f64), Some(25.0));
        assert_eq!(span.get("id").and_then(Json::as_f64), Some(7.0));
        assert_eq!(span.get("pid").and_then(Json::as_f64), Some(6.0));
        assert_eq!(
            span.get("parent").and_then(Json::as_str),
            Some("unit.parent")
        );
        let prefix = "{\"v\":1,\"t\":\"record\",\"name\":\"unit.record\",\"tid\":";
        let (head, tail) = lines[2].split_at(prefix.len());
        assert_eq!(head, prefix);
        let (tid, tail) = tail.split_once(',').unwrap();
        assert_eq!(tid, thread_id().to_string());
        assert_eq!(
            tail,
            "\"fields\":{\"iter\":3,\"rmse\":0.25,\"kind\":\"warm \\\"quoted\\\"\",\
             \"ok\":true,\"delta\":-2,\"bad\":null,\"theta\":[0.5,-0.000000001,null]}}"
        );
        let rec = json::parse(lines[2]).unwrap();
        let fields = rec.get("fields").unwrap();
        assert_eq!(fields.get("iter").and_then(Json::as_f64), Some(3.0));
        assert_eq!(
            fields.get("kind").and_then(Json::as_str),
            Some("warm \"quoted\"")
        );
        assert_eq!(fields.get("bad"), Some(&Json::Null));
    }

    #[test]
    fn no_sink_means_noop() {
        let _l = crate::tests::test_lock();
        uninstall();
        assert!(!active());
        emit_span("unit.nosink", 1, None, 0, 0);
        emit_record("unit.nosink", &[]);
    }
}
