#![warn(missing_docs)]
//! Shared plumbing for the reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md §3 for the index). They print their series to stdout and
//! write CSV files under `target/repro/` so results can be plotted or
//! diffed. Each binary regenerates the simulated measurement campaign
//! from its fixed seed, so all figures come from the *same* dataset,
//! exactly as in the paper.

pub mod plot;

pub use alperf_cluster::campaign::FocusSlice;
use alperf_cluster::campaign::{Campaign, CampaignOutput};
use alperf_data::dataset::DataSet;
use std::path::PathBuf;

/// Directory for reproduction outputs (`target/repro`).
pub fn repro_dir() -> PathBuf {
    let dir = PathBuf::from("target/repro");
    std::fs::create_dir_all(&dir).expect("create target/repro");
    dir
}

/// The two campaign datasets.
pub struct Datasets {
    /// Performance dataset (~3.3k jobs; response Runtime).
    pub performance: DataSet,
    /// Power dataset (~0.4k jobs; responses Runtime, Energy).
    pub power: DataSet,
}

/// Generate the campaign datasets. The campaign is seeded, so every call
/// returns the same rows.
pub fn load_datasets() -> Datasets {
    let CampaignOutput {
        performance, power, ..
    } = Campaign::default().run().expect("campaign");
    Datasets { performance, power }
}

/// Cut the focus slice from the generated Performance dataset
/// ([`load_datasets`]'s campaign).
pub fn focus_slice() -> FocusSlice {
    Campaign::default()
        .run()
        .expect("campaign")
        .focus_slice()
        .expect("focus slice")
}

/// Write a simple CSV of named columns to `target/repro/<name>.csv`.
///
/// # Panics
/// Panics if columns have unequal lengths or the file cannot be written.
pub fn write_series(name: &str, columns: &[(&str, &[f64])]) {
    let n = columns.first().map(|(_, c)| c.len()).unwrap_or(0);
    assert!(
        columns.iter().all(|(_, c)| c.len() == n),
        "write_series: ragged columns"
    );
    let mut out = String::new();
    out.push_str(
        &columns
            .iter()
            .map(|(h, _)| h.to_string())
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push('\n');
    for i in 0..n {
        out.push_str(
            &columns
                .iter()
                .map(|(_, c)| format!("{}", c[i]))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
    }
    let path = repro_dir().join(format!("{name}.csv"));
    std::fs::write(&path, out).expect("write series CSV");
    println!("[wrote {}]", path.display());
}

/// Pretty-print a header for a reproduction section.
pub fn banner(title: &str) {
    println!("\n=== {title} ===");
}

/// Telemetry switched on from the environment by [`obs_from_env`].
///
/// Dropping the guard finishes the run's telemetry: it flushes the JSONL
/// trace. The drop also runs while a panic unwinds out of `main` and on
/// every early `return`, so a failed paper check or a usage error still
/// leaves a complete, readable trace.
#[must_use = "telemetry is finished when the guard drops; bind it with `let _obs = ...`"]
pub struct ObsGuard(());

impl Drop for ObsGuard {
    fn drop(&mut self) {
        alperf_obs::sink::flush();
    }
}

/// Configure the run from the environment: the global thread width from
/// `ALPERF_NUM_THREADS` (see [`threads_from_env`]), and telemetry, if
/// requested.
///
/// `ALPERF_OBS_TRACE=<path>` installs a JSONL trace sink at `<path>` and
/// switches instrumentation on.
///
/// Hold the returned guard for the rest of `main`
/// (`let _obs = alperf_bench::obs_from_env();`): its drop flushes the
/// trace, panics and early returns included.
pub fn obs_from_env() -> ObsGuard {
    threads_from_env();
    if let Some(path) = std::env::var("ALPERF_OBS_TRACE")
        .ok()
        .filter(|p| !p.is_empty())
    {
        let p = std::path::Path::new(&path);
        if let Some(dir) = p.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).expect("create trace directory");
        }
        alperf_obs::sink::install_jsonl(p).expect("install JSONL trace sink");
        eprintln!("(telemetry: JSONL trace -> {path})");
        alperf_obs::set_enabled(true);
    }
    ObsGuard(())
}

/// Configure the global thread width from `ALPERF_NUM_THREADS`, once per
/// process. [`obs_from_env`] calls it, so every binary that holds an
/// [`ObsGuard`] honours the variable; binaries without one call it at the
/// top of `main`. Returns the configured width (`0` = all cores) and its
/// source label (`"env"` / `"default"`) for run metadata.
pub fn threads_from_env() -> (usize, &'static str) {
    let (n, source) = alperf_linalg::threads::configure_from_env();
    (n, source.label())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_series_roundtrip() {
        write_series("_test_series", &[("a", &[1.0, 2.0]), ("b", &[3.0, 4.0])]);
        let text = std::fs::read_to_string(repro_dir().join("_test_series.csv")).unwrap();
        assert_eq!(text, "a,b\n1,3\n2,4\n");
        std::fs::remove_file(repro_dir().join("_test_series.csv")).ok();
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_series_rejected() {
        write_series("_bad", &[("a", &[1.0]), ("b", &[1.0, 2.0])]);
    }
}
