//! The grid executor: run every config of an expansion across worker
//! threads and commit one summary line per campaign **in config order**,
//! bit-identically for any worker count.
//!
//! Determinism argument, in three parts:
//!
//! 1. each campaign is a pure function of its [`CampaignConfig`]
//!    (campaign module), so *what* a worker computes never depends on
//!    which worker runs it or when;
//! 2. workers claim config indices from a shared atomic counter
//!    (dynamic load balancing — campaign durations vary wildly across
//!    the fault/batch axes), and each runs its campaign under
//!    `with_threads(1, ..)` so nested pool parallelism cannot introduce
//!    a second scheduling dimension;
//! 3. finished records flow to the committer through a channel and wait
//!    in a reorder buffer until their index is next — the file is an
//!    append-only log in config order no matter the completion order.
//!
//! Two commit modes exist only to *prove* the stream layer is inert:
//! [`CommitMode::Streaming`] writes each record as it commits (the
//! pipelined default — summaries overlap campaign execution),
//! [`CommitMode::Buffered`] holds everything and writes once at the
//! end. Byte-identical output across modes is part of the determinism
//! test, and the streaming overhead is budgeted in `BENCH_grid.json`.
//!
//! Resume: re-running onto a partially written file validates the meta
//! line against the spec byte-for-byte, keeps the longest valid prefix
//! of complete records (a torn tail line from a kill is discarded), and
//! re-executes only the remaining configs — producing, by part 1, the
//! exact bytes the uninterrupted run would have written.

use crate::campaign::run_campaign;
use crate::spec::{CampaignConfig, GridSpec, SpecError};
use crate::summary::{parse_record, render_meta, render_record};
use alperf_linalg::threads;
use alperf_obs::names::GRID_RUN_START;
use alperf_obs::Value;
use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// How committed records reach the output file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CommitMode {
    /// Write each record the moment it commits (summary stream pipelined
    /// against campaign execution; flushed per line so a killed run
    /// loses at most the torn tail resume discards).
    #[default]
    Streaming,
    /// Hold all records in memory and write once after the last commit.
    Buffered,
}

/// Executor options.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecConfig {
    /// Commit mode (stream vs buffer; bytes are identical either way).
    pub mode: CommitMode,
    /// Record real wall/CPU nanoseconds per campaign. Forfeits
    /// byte-identity across runs — off in the deterministic default.
    pub timing: bool,
    /// Resume onto an existing partial summary file instead of starting
    /// over.
    pub resume: bool,
}

/// What a grid run did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridReport {
    /// Configs in the expansion.
    pub n_configs: usize,
    /// Configs skipped because a resume found them already committed.
    pub skipped: usize,
    /// Configs executed this run.
    pub executed: usize,
    /// Campaigns that ended in an error record.
    pub errors: usize,
    /// Campaigns with at least one degraded iteration.
    pub degraded: usize,
    /// Worker threads used.
    pub width: usize,
}

/// Grid execution error.
#[derive(Debug)]
pub enum GridError {
    /// Spec validation failed.
    Spec(SpecError),
    /// Filesystem failure on the summary file.
    Io(std::io::Error),
    /// The resume target does not match this grid.
    Resume(String),
}

impl std::fmt::Display for GridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridError::Spec(e) => write!(f, "{e}"),
            GridError::Io(e) => write!(f, "grid io: {e}"),
            GridError::Resume(m) => write!(f, "grid resume: {m}"),
        }
    }
}

impl std::error::Error for GridError {}

impl From<SpecError> for GridError {
    fn from(e: SpecError) -> Self {
        GridError::Spec(e)
    }
}

impl From<std::io::Error> for GridError {
    fn from(e: std::io::Error) -> Self {
        GridError::Io(e)
    }
}

/// Thread CPU time from `/proc/thread-self/stat` (utime + stime, in
/// clock ticks — assumed 100 Hz, the Linux default). Best-effort: 0 when
/// unavailable. Only consulted when timing is armed.
fn thread_cpu_ns() -> u64 {
    let Ok(stat) = fs::read_to_string("/proc/thread-self/stat") else {
        return 0;
    };
    // Field 2 (comm) may contain spaces; everything after the closing
    // paren is well-formed. utime/stime are fields 14/15 (1-based), so
    // offsets 11/12 in the remainder that starts at field 3.
    let Some(rest) = stat.rsplit(')').next() else {
        return 0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) * 10_000_000
}

/// The longest valid prefix of `text` for resuming `spec`: checks the
/// meta line byte-for-byte, then every complete record line against the
/// expansion (index + key). Returns (prefix bytes, records kept).
fn valid_prefix(
    text: &str,
    meta_line: &str,
    configs: &[CampaignConfig],
) -> Result<(usize, usize), GridError> {
    let Some(first_end) = text.find('\n') else {
        // No complete meta line survived — start over.
        return Ok((0, 0));
    };
    if &text[..first_end] != meta_line {
        return Err(GridError::Resume(format!(
            "existing file is a different grid (meta line mismatch)\n  file: {}\n  spec: {meta_line}",
            &text[..first_end]
        )));
    }
    let mut offset = first_end + 1;
    let mut kept = 0usize;
    while kept < configs.len() {
        let rest = &text[offset..];
        let Some(line_end) = rest.find('\n') else {
            break; // torn tail from a kill — discard
        };
        let line = &rest[..line_end];
        let Ok(rec) = parse_record(line, kept + 2) else {
            break; // malformed line: discard it and everything after
        };
        if rec.index != kept || rec.key != configs[kept].key() {
            return Err(GridError::Resume(format!(
                "record {} does not match the expansion (got index {}, key {:?})",
                kept, rec.index, rec.key
            )));
        }
        offset += line_end + 1;
        kept += 1;
    }
    Ok((offset, kept))
}

struct Commit {
    index: usize,
    line: String,
    error: bool,
    degraded: bool,
}

/// Expand `spec` and run every config, writing the summary stream to
/// `out`. See the module docs for the determinism and resume contracts.
pub fn run_grid(spec: &GridSpec, out: &Path, exec: &ExecConfig) -> Result<GridReport, GridError> {
    let spec = spec.clone().canonicalize()?;
    let configs = spec.expand()?;
    let meta_line = render_meta(&spec, configs.len(), exec.timing);

    // Resume: keep the valid prefix (truncating any torn tail in place).
    let mut start = 0usize;
    if exec.resume {
        if let Ok(existing) = fs::read_to_string(out) {
            let (prefix_bytes, kept) = valid_prefix(&existing, &meta_line, &configs)?;
            if prefix_bytes > 0 {
                if prefix_bytes < existing.len() {
                    fs::write(out, &existing.as_bytes()[..prefix_bytes])?;
                }
                start = kept;
            }
        }
    }
    let mut file = if start > 0 {
        fs::OpenOptions::new().append(true).open(out)?
    } else {
        let mut f = fs::File::create(out)?;
        f.write_all(meta_line.as_bytes())?;
        f.write_all(b"\n")?;
        f
    };

    let remaining = configs.len() - start;
    let width = threads::current().max(1).min(remaining.max(1));
    alperf_obs::record(
        GRID_RUN_START,
        &[
            ("grid", Value::Str(spec.name.as_str())),
            ("n_configs", Value::U64(configs.len() as u64)),
            ("resumed_at", Value::U64(start as u64)),
            ("width", Value::U64(width as u64)),
        ],
    );

    let next = AtomicUsize::new(start);
    let (tx, rx) = mpsc::channel::<Commit>();
    let timing = exec.timing;
    let (mut executed, mut errors, mut degraded_total) = (0usize, 0usize, 0usize);
    std::thread::scope(|scope| -> Result<(), GridError> {
        for _ in 0..width {
            let tx = tx.clone();
            let next = &next;
            let configs = &configs;
            scope.spawn(move || {
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= configs.len() {
                        break;
                    }
                    let cfg = &configs[i];
                    // Campaigns are the unit of parallelism; nested pool
                    // parallelism would not break determinism (the pool
                    // reductions are order-fixed) but oversubscribes.
                    let (res, wall_ns, cpu_ns) = threads::with_threads(1, || {
                        if timing {
                            let t0 = std::time::Instant::now();
                            let c0 = thread_cpu_ns();
                            let res = run_campaign(cfg);
                            (res, t0.elapsed().as_nanos() as u64, thread_cpu_ns() - c0)
                        } else {
                            (run_campaign(cfg), 0, 0)
                        }
                    });
                    let commit = Commit {
                        index: i,
                        line: render_record(cfg, &res, wall_ns, cpu_ns),
                        error: res.error.is_some(),
                        degraded: res.degraded > 0,
                    };
                    if tx.send(commit).is_err() {
                        break; // committer bailed on an io error
                    }
                }
            });
        }
        drop(tx);

        // The committer: reorder-buffer until each index is next, then
        // append in config order.
        let mut pending: BTreeMap<usize, Commit> = BTreeMap::new();
        let mut next_commit = start;
        let mut buffered = String::new();
        for commit in rx {
            pending.insert(commit.index, commit);
            while let Some(c) = pending.remove(&next_commit) {
                match exec.mode {
                    CommitMode::Streaming => {
                        file.write_all(c.line.as_bytes())?;
                        file.write_all(b"\n")?;
                        file.flush()?;
                    }
                    CommitMode::Buffered => {
                        buffered.push_str(&c.line);
                        buffered.push('\n');
                    }
                }
                executed += 1;
                errors += c.error as usize;
                degraded_total += c.degraded as usize;
                next_commit += 1;
            }
        }
        debug_assert!(pending.is_empty());
        if exec.mode == CommitMode::Buffered {
            file.write_all(buffered.as_bytes())?;
            file.flush()?;
        }
        Ok(())
    })?;

    Ok(GridReport {
        n_configs: configs.len(),
        skipped: start,
        executed,
        errors,
        degraded: degraded_total,
        width,
    })
}
