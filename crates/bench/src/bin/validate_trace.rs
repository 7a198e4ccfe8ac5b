//! Validate an `alperf-obs-v1` JSONL trace file — the CI gate that keeps
//! the telemetry schema honest.
//!
//! Usage: `validate_trace <trace.jsonl>`
//!
//! Built on the shared `alperf-trace` reader (the same parser every
//! analysis consumer uses, so the validator can never drift from them).
//! Checks, in order:
//! * the file reads under schema `alperf-obs-v1` (first line is the meta
//!   record; every line parses as a typed v1 event);
//! * the spans reconstruct into a *connected* forest — every span that
//!   declares a parent resolves to it, including spans emitted on rayon
//!   worker threads (the cross-thread parentage invariant);
//! * `al.iteration` records carry the per-iteration payload and a
//!   strictly increasing `iter` per `run` id.
//!
//! Exit codes: 0 valid; 1 malformed content or violated invariant;
//! 2 usage; 3 unreadable input; 4 empty trace; 5 unknown schema.

use alperf_trace::{read_path, SpanForest, Trace};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

fn check_iterations(trace: &Trace) -> Result<usize, String> {
    let mut iterations = 0usize;
    // run id -> last seen iteration index for the monotonicity check.
    let mut last_iter: BTreeMap<u64, u64> = BTreeMap::new();
    for rec in trace.records_named("al.iteration") {
        iterations += 1;
        let f = |key: &str| {
            rec.f64(key)
                .ok_or_else(|| format!("al.iteration record missing numeric \"{key}\""))
        };
        // Presence of the per-iteration payload.
        for key in ["rmse", "amsd", "sigma", "cum_cost", "fit_ns", "pool_size"] {
            f(key)?;
        }
        rec.str("refit")
            .ok_or("al.iteration record missing \"refit\"")?;
        let run = f("run")? as u64;
        let iter = f("iter")? as u64;
        if let Some(&prev) = last_iter.get(&run) {
            if iter <= prev {
                return Err(format!(
                    "run {run} iteration index not monotone ({prev} then {iter})"
                ));
            }
        }
        last_iter.insert(run, iter);
    }
    Ok(iterations)
}

fn main() -> ExitCode {
    let Some(path) = std::env::args().nth(1) else {
        eprintln!("usage: validate_trace <trace.jsonl>");
        return ExitCode::from(2);
    };
    let trace = match read_path(Path::new(&path)) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{path}: INVALID — {e}");
            return ExitCode::from(e.exit_code());
        }
    };
    let forest = match SpanForest::build(&trace.spans) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{path}: INVALID — {e}");
            return ExitCode::FAILURE;
        }
    };
    match check_iterations(&trace) {
        Ok(iterations) => {
            println!(
                "{path}: OK — {} spans in {} connected trees, {} records \
                 ({iterations} al.iteration) under schema {}",
                forest.len(),
                forest.roots.len(),
                trace.records.len(),
                trace.schema
            );
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("{path}: INVALID — {msg}");
            ExitCode::FAILURE
        }
    }
}
