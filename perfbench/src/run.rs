//! One benchmark run: set up from the seed, measure a workload at its
//! pinned width, check its outputs, and derive the metrics.

use crate::gridload::{self, GridExtra};
use crate::instrument::Span;
use crate::paper::{self, Figure};
use crate::pass::Pass;
use crate::stats::{median, tail, Tail};
use crate::sys::{self, Sched, SchedWindow};
use alperf_linalg::threads;
use std::fmt::Write as _;
use std::path::Path;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 7 at width 1.
    Fig7,
    /// Fig. 8 at width 1.
    Fig8,
    /// The paper-claims grid subset at width 2.
    GridClaims,
}

impl Workload {
    /// Parse a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "fig7" => Some(Workload::Fig7),
            "fig8" => Some(Workload::Fig8),
            "grid_claims" => Some(Workload::GridClaims),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig7 => "fig7",
            Workload::Fig8 => "fig8",
            Workload::GridClaims => "grid_claims",
        }
    }

    /// The pool width the workload runs at, whatever the environment says.
    pub fn width(self) -> usize {
        match self {
            Workload::Fig7 | Workload::Fig8 => 1,
            Workload::GridClaims => gridload::WIDTH,
        }
    }

    /// Groups of campaigns (pairs, or grid rounds) a run of `seconds`
    /// measures: the seconds over one group's duration on a 2-vCPU Xeon
    /// at 2.1 GHz. The work is fixed by the arguments, not by a clock, so
    /// every run of a seed does the same work and its sample counts, tail
    /// ranks and RMSE do not depend on the machine's speed.
    pub fn groups(self, seconds: u64) -> usize {
        let group_ms = match self {
            Workload::Fig7 => 1_000,
            Workload::Fig8 => 15_000,
            Workload::GridClaims => 3_300,
        };
        ((seconds * 1000 + group_ms / 2) / group_ms).max(1) as usize
    }

    /// Groups in each of a traced run's two passes (untraced, then
    /// traced): half an untraced run's, so a traced run takes about as
    /// long as an untraced one.
    pub fn traced_groups(self, seconds: u64) -> usize {
        (self.groups(seconds) / 2).max(1)
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Campaigns attempted.
    pub attempted: usize,
    /// Campaigns that errored or failed a check.
    pub failed: usize,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Human-readable report lines.
    pub report: Vec<String>,
    /// Spans recorded by the traced run.
    pub spans: Vec<Span>,
}

/// What a workload's measured section produced.
struct Measured {
    setup_s: f64,
    generate_ms: f64,
    build_ms: f64,
    jobs: usize,
    jobs_failed: usize,
    rows: usize,
    plain: Pass,
    traced: Option<Pass>,
    grid: Option<GridExtra>,
    sched: Sched,
    width: usize,
}

fn fmt_tail(t: Option<Tail>) -> String {
    match t {
        Some(t) => format!(
            "{:.4} ms (p{:.1} of {} samples)",
            t.value, t.percentile, t.samples
        ),
        None => "n/a (fewer than 11 samples)".into(),
    }
}

/// Run `workload` from `seed` for the work `seconds` stands for (see
/// [`Workload::groups`]); `out_dir` takes the grid's summary files.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
    out_dir: &Path,
) -> Result<Outcome, String> {
    let speed_before = sys::speed_probe_ms();
    let groups = if traced {
        workload.traced_groups(seconds)
    } else {
        workload.groups(seconds)
    };
    let m = match workload {
        Workload::Fig7 | Workload::Fig8 => {
            let figure = if workload == Workload::Fig7 {
                Figure::Fig7
            } else {
                Figure::Fig8
            };
            threads::with_threads(workload.width(), || -> Result<Measured, String> {
                let mut setup = paper::setup(seed)?;
                let slice = setup.slice.clone();
                let window = SchedWindow::start();
                let plain =
                    paper::run_pass(figure, &slice, seed, groups, false, &mut || setup.repeat())?;
                let traced_pass = if traced {
                    Some(paper::run_pass(
                        figure,
                        &slice,
                        seed,
                        groups,
                        true,
                        &mut || Ok(()),
                    )?)
                } else {
                    None
                };
                Ok(Measured {
                    setup_s: median(&setup.total_s),
                    generate_ms: median(&setup.generate_ms),
                    build_ms: median(&setup.slice_ms),
                    jobs: setup.jobs,
                    jobs_failed: setup.jobs_failed,
                    rows: setup.slice.y.len(),
                    plain,
                    traced: traced_pass,
                    grid: None,
                    sched: window.finish(),
                    width: threads::current(),
                })
            })?
        }
        Workload::GridClaims => {
            let mut setup = gridload::setup(seed)?;
            let window = SchedWindow::start();
            let (plain, extra) = gridload::run_pass(seed, groups, out_dir, &mut || setup.repeat())?;
            let traced_pass = if traced {
                Some(gridload::run_traced_pass(seed, groups)?)
            } else {
                None
            };
            let sched = window.finish();
            Measured {
                setup_s: median(&setup.total_s),
                generate_ms: median(&setup.expand_ms),
                build_ms: median(&setup.build_ms),
                jobs: 0,
                jobs_failed: 0,
                rows: gridload::spec(seed, 0).rows,
                plain,
                traced: traced_pass,
                width: extra.width,
                grid: Some(extra),
                sched,
            }
        }
    };
    let speed_after = sys::speed_probe_ms();
    Ok(finish(workload, seed, m, speed_before, speed_after))
}

fn finish(
    workload: Workload,
    seed: u64,
    m: Measured,
    speed_before: f64,
    speed_after: f64,
) -> Outcome {
    let p = &m.plain;
    let mut report = Vec::new();
    let mut problems = p.problems.clone();
    report.push(format!(
        "workload {} seed {seed}: pool width {} (pinned in-process), {} groups, {} campaigns, {} iterations in {:.3} s",
        workload.name(),
        m.width,
        p.groups,
        p.attempted,
        p.iterations,
        p.window_ns as f64 / 1e9
    ));
    report.push(format!(
        "drift: speed probe {speed_before:.3} ms before, {speed_after:.3} ms after; cpu {:.3} s, run-queue wait {:.1} ms",
        m.sched.cpu_s, m.sched.runq_wait_ms
    ));
    let propose_tail = tail(&p.propose_ms);
    let campaign_tail = tail(&p.campaign_ms);
    let rss = sys::peak_rss_mb();
    let mut metrics = vec![
        Metric {
            name: "setup_s",
            value: m.setup_s,
            unit: "s",
        },
        Metric {
            name: "iters_per_s",
            value: p.iters_per_s(),
            unit: "1/s",
        },
        Metric {
            name: "propose_ms_p50",
            value: median(&p.propose_ms),
            unit: "ms",
        },
        Metric {
            name: "propose_ms_tail",
            value: propose_tail.map_or(f64::NAN, |t| t.value),
            unit: "ms",
        },
        Metric {
            name: "campaign_ms_p50",
            value: median(&p.campaign_ms),
            unit: "ms",
        },
        Metric {
            name: "rmse_mean",
            value: p.rmse_mean(),
            unit: "response",
        },
        Metric {
            name: "ok_frac",
            value: p.ok_frac(),
            unit: "ratio",
        },
        Metric {
            name: "peak_rss_mb",
            value: rss,
            unit: "MiB",
        },
    ];
    let mut lines = String::new();
    for mt in &metrics {
        let _ = writeln!(lines, "  {:<18} {:>14.6} {}", mt.name, mt.value, mt.unit);
    }
    report.push(format!("end-to-end (untraced):\n{}", lines.trim_end()));
    report.push(format!("  propose_ms_tail    {}", fmt_tail(propose_tail)));
    report.push(format!("  campaign_ms_tail   {}", fmt_tail(campaign_tail)));
    if workload == Workload::GridClaims {
        report.push(
            "  (grid_claims: propose_ms is each campaign's wall_ns over its proposals)".into(),
        );
    }

    let mut correct = p.failed == 0 && problems.is_empty();
    let mut spans = Vec::new();
    if let Some(t) = &m.traced {
        if t.digests != p.digests {
            problems.push("traced trajectories differ from the untraced pass".into());
            correct = false;
        }
        if t.rmse_mean().to_bits() != p.rmse_mean().to_bits() {
            problems.push("traced rmse_mean differs from the untraced pass".into());
            correct = false;
        }
        let per_iter = |ms: f64| ms / t.proposals().max(1) as f64;
        let reopt = t.samples.iter().filter(|s| s.reopt).count() as f64;
        let floor = t.samples.iter().filter(|s| s.at_floor).count() as f64;
        let evals: u64 = t.samples.iter().map(|s| s.lml_evals).sum();
        let busy = match &m.grid {
            Some(g) => {
                g.timed.iter().map(|c| c.wall_ns as f64).sum::<f64>()
                    / (g.width as f64 * p.window_ns as f64)
            }
            None => p.campaign_ms.iter().sum::<f64>() * 1e6 / p.window_ns as f64,
        };
        metrics = vec![
            Metric {
                name: "setup.generate_ms",
                value: m.generate_ms,
                unit: "ms",
            },
            Metric {
                name: "data.build_ms",
                value: m.build_ms,
                unit: "ms",
            },
            Metric {
                name: "cluster.jobs",
                value: m.jobs as f64,
                unit: "count",
            },
            Metric {
                name: "cluster.jobs_failed",
                value: m.jobs_failed as f64,
                unit: "count",
            },
            Metric {
                name: "data.rows",
                value: m.rows as f64,
                unit: "count",
            },
            Metric {
                name: "al.model_ms_per_iter",
                value: per_iter(t.span_ms("model")),
                unit: "ms",
            },
            Metric {
                name: "al.select_ms_per_iter",
                value: per_iter(t.span_ms("select")),
                unit: "ms",
            },
            Metric {
                name: "al.oracle_ms_per_iter",
                value: per_iter(t.span_ms("oracle")),
                unit: "ms",
            },
            Metric {
                name: "al.reopt_iters",
                value: reopt,
                unit: "count",
            },
            Metric {
                name: "al.extend_iters",
                value: t.samples.len() as f64 - reopt,
                unit: "count",
            },
            Metric {
                name: "al.sigma_floor_iters",
                value: floor,
                unit: "count",
            },
            Metric {
                name: "al.lost_frac",
                value: t.lost as f64 / t.proposals().max(1) as f64,
                unit: "ratio",
            },
            Metric {
                name: "gp.lml_evals_per_iter",
                value: evals as f64 / t.proposals().max(1) as f64,
                unit: "count",
            },
            Metric {
                name: "gp.cross_ms_per_iter",
                value: per_iter(t.span_ms("cross")),
                unit: "ms",
            },
            Metric {
                name: "gp.lml_eval_us",
                value: t.probe_median(|q| q.lml_eval_us),
                unit: "us",
            },
            Metric {
                name: "gp.fit_ms",
                value: t.probe_median(|q| q.fit_ms),
                unit: "ms",
            },
            Metric {
                name: "gp.rank1_us",
                value: t.probe_median(|q| q.rank1_us),
                unit: "us",
            },
            Metric {
                name: "gp.predict_us",
                value: t.probe_median(|q| q.predict_us),
                unit: "us",
            },
            Metric {
                name: "linalg.cholesky_ms",
                value: t.probe_median(|q| q.cholesky_ms),
                unit: "ms",
            },
            Metric {
                name: "grid.worker_busy_frac",
                value: busy,
                unit: "ratio",
            },
            Metric {
                name: "grid.degraded",
                value: m.grid.as_ref().map_or(0.0, |g| g.degraded as f64),
                unit: "count",
            },
            Metric {
                name: "grid.errors",
                value: m.grid.as_ref().map_or(0.0, |g| g.errors as f64),
                unit: "count",
            },
            Metric {
                name: "proc.cpu_s",
                value: m.sched.cpu_s,
                unit: "s",
            },
            Metric {
                name: "proc.runq_wait_ms",
                value: m.sched.runq_wait_ms,
                unit: "ms",
            },
            Metric {
                name: "proc.speed_probe_ms",
                value: speed_before,
                unit: "ms",
            },
            Metric {
                name: "trace.overhead_pct",
                value: 100.0 * (p.iters_per_s() / t.iters_per_s() - 1.0),
                unit: "%",
            },
        ];
        let mut lines = String::new();
        for mt in &metrics {
            let _ = writeln!(lines, "  {:<24} {:>14.6} {}", mt.name, mt.value, mt.unit);
        }
        report.push(format!(
            "per-layer (traced pass over the same {} groups; untraced {:.3} it/s, traced {:.3} it/s):\n{}",
            t.groups,
            p.iters_per_s(),
            t.iters_per_s(),
            lines.trim_end()
        ));
        if let Some(g) = &m.grid {
            for kernel in ["se", "m52"] {
                let ms = gridload::slice_p50_ms(g, |c| c.kernel == kernel);
                report.push(format!("  grid.campaign_ms_p50.{kernel:<9} {ms:>10.4} ms"));
            }
            for fault in [0.0, 0.2] {
                let ms = gridload::slice_p50_ms(g, |c| c.fault == fault);
                let label = format!("fault{fault}");
                report.push(format!("  grid.campaign_ms_p50.{label:<9} {ms:>10.4} ms"));
            }
        }
        spans = t.spans.clone();
    }
    if metrics.iter().any(|mt| !mt.value.is_finite()) {
        problems.push("a metric is not finite".into());
        correct = false;
    }
    for why in &problems {
        report.push(format!("CHECK FAILED: {why}"));
    }
    Outcome {
        correct,
        attempted: p.attempted,
        failed: if correct { 0 } else { p.failed.max(1) },
        metrics,
        report,
        spans,
    }
}

/// The result line: one JSON object.
pub fn json_line(o: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.correct, o.attempted, o.failed
    );
    for (i, m) in o.metrics.iter().enumerate() {
        let value = if m.value.is_finite() {
            format!("{:?}", m.value)
        } else {
            "null".into()
        };
        let _ = write!(
            s,
            "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.unit
        );
    }
    s.push_str("}}");
    s
}

/// Write spans as JSON lines.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"parent\":\"{}\",\"campaign\":{},\"iter\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.parent, s.campaign, s.iter, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let json = alperf_obs::json::parse(&text).expect("valid JSON");
        let Some(alperf_obs::json::Json::Arr(items)) = json.get(section) else {
            panic!("{section} is not an array");
        };
        items
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(|v| v.as_str()).expect(k).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn printed(traced: bool) -> Vec<(String, String)> {
        let m = Measured {
            setup_s: 1.0,
            generate_ms: 1.0,
            build_ms: 1.0,
            jobs: 1,
            jobs_failed: 0,
            rows: 1,
            plain: Pass::default(),
            traced: traced.then(Pass::default),
            grid: None,
            sched: Sched::default(),
            width: 1,
        };
        finish(Workload::Fig7, 1, m, 1.0, 1.0)
            .metrics
            .into_iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn printed_metrics_are_the_declared_ones() {
        assert_eq!(printed(false), declared("end_to_end"));
        assert_eq!(printed(true), declared("per_layer"));
    }

    #[test]
    fn result_line_is_one_json_object() {
        let o = Outcome {
            correct: true,
            attempted: 2,
            failed: 0,
            metrics: vec![Metric {
                name: "setup_s",
                value: 0.0125,
                unit: "s",
            }],
            report: Vec::new(),
            spans: Vec::new(),
        };
        let line = json_line(&o);
        let v = alperf_obs::json::parse(&line).expect("valid JSON");
        assert_eq!(v.get("attempted").and_then(|x| x.as_f64()), Some(2.0));
        let setup = v
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("metric");
        assert_eq!(setup.get("value").and_then(|x| x.as_f64()), Some(0.0125));
        assert_eq!(setup.get("unit").and_then(|x| x.as_str()), Some("s"));
    }
}
