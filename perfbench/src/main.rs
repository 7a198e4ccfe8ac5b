//! The benchmark's command line.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig7|fig8|grid_claims> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a report, then as its last line one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! Exits 1 when an output check fails, 2 on bad arguments.

use alperf_perfbench::run::{self, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Where summaries and traces go: beside the executable, inside the build
/// directory.
fn out_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("executable has no directory")?
        .join("perfbench-out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <fig7|fig8|grid_claims> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let outcome = out_dir().and_then(|dir| {
        let o = run::run(args.workload, args.seed, args.seconds, args.trace, &dir)?;
        if args.trace {
            let path = dir.join(format!(
                "trace-{}-seed{}.jsonl",
                args.workload.name(),
                args.seed
            ));
            run::write_spans(&path, &o.spans).map_err(|e| format!("{}: {e}", path.display()))?;
            println!("spans: {} written to {}", o.spans.len(), path.display());
        }
        Ok(o)
    });
    match outcome {
        Ok(o) => {
            for line in &o.report {
                println!("{line}");
            }
            println!("{}", run::json_line(&o));
            if o.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
