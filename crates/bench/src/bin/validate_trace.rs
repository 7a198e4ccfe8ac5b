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
//!   declares a parent resolves to it, including spans emitted on worker
//!   threads (the cross-thread parentage invariant);
//! * `al.iteration` records carry the per-iteration payload and a
//!   strictly increasing `iter` per `run` id, and the refit trigger's
//!   `stale_gain` is finite wherever present;
//! * `gp.fit.done` records, the one place a fit's LML evaluation counts
//!   are kept, carry `n`, `evaluations`, `values`, `gradients`,
//!   `jitter_retries`, `noise` and `noise_at_floor`, with
//!   `evaluations == values + gradients`, the fitted log-hyperparameters
//!   `theta` (a non-empty array of finite numbers, one per hyperparameter
//!   searched) and the boolean `inherited_h`.
//!
//! Exit codes: 0 valid; 1 malformed content or violated invariant;
//! 2 usage; 3 unreadable input; 4 empty trace; 5 unknown schema.

use alperf_obs::json::Json;
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
        // The refit trigger's statistic, on the iterations that ran its
        // test: a non-finite value is encoded as null and fails here.
        if rec.fields.contains_key("stale_gain") && !f("stale_gain")?.is_finite() {
            return Err("al.iteration record with a non-finite \"stale_gain\"".into());
        }
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

fn check_fits(trace: &Trace) -> Result<usize, String> {
    let mut fits = 0usize;
    for rec in trace.records_named("gp.fit.done") {
        fits += 1;
        let f = |key: &str| {
            rec.f64(key)
                .ok_or_else(|| format!("gp.fit.done record missing numeric \"{key}\""))
        };
        for key in ["n", "jitter_retries", "noise"] {
            f(key)?;
        }
        for key in ["noise_at_floor", "inherited_h"] {
            if !matches!(rec.fields.get(key), Some(Json::Bool(_))) {
                return Err(format!("gp.fit.done record missing boolean \"{key}\""));
            }
        }
        // A non-finite entry is encoded as null and fails here.
        match rec.fields.get("theta") {
            Some(Json::Arr(theta))
                if !theta.is_empty()
                    && theta.iter().all(|v| v.as_f64().is_some_and(f64::is_finite)) => {}
            _ => {
                return Err(
                    "gp.fit.done record without a non-empty array of finite \"theta\"".into(),
                )
            }
        }
        let (evaluations, values, gradients) = (f("evaluations")?, f("values")?, f("gradients")?);
        if evaluations != values + gradients {
            return Err(format!(
                "gp.fit.done record with evaluations {evaluations} != \
                 values {values} + gradients {gradients}"
            ));
        }
    }
    Ok(fits)
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
    let checked =
        check_iterations(&trace).and_then(|iters| check_fits(&trace).map(|fits| (iters, fits)));
    match checked {
        Ok((iterations, fits)) => {
            println!(
                "{path}: OK — {} spans in {} connected trees, {} records \
                 ({iterations} al.iteration, {fits} gp.fit.done) under schema {}",
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
