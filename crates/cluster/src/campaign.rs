//! End-to-end measurement campaign: workload -> scheduler -> measurements
//! -> the paper's two datasets.
//!
//! [`Campaign::run`] reproduces the full data-collection pipeline of
//! Section IV and produces:
//!
//! * the **Performance dataset** (every completed job; response: Runtime),
//!   ~3246 jobs with the default spec;
//! * the **Power dataset** (jobs whose IPMI trace passed the record-rate
//!   filter; responses: Runtime and Energy), ~640 jobs.
//!
//! Both come back as [`alperf_data::DataSet`]s with the Table I columns:
//! `Operator` (categorical), `Global Problem Size`, `NP`, `CPU Frequency`.
//! [`CampaignOutput::focus_slice`] cuts the paper's evaluation slice from
//! the Performance dataset.

use crate::executor::{self, JobOutcome};
use crate::fault::{FaultPlan, RetryPolicy};
use crate::job::{FailedJob, JobRecord, JobRequest};
use crate::power::PowerSampler;
use crate::scheduler::{self, ScheduleError};
use crate::workload::{self, WorkloadSpec};
use alperf_data::dataset::{DataSet, DataSetError};
use alperf_hpgmg::model::PerfModel;
use alperf_linalg::matrix::Matrix;
use alperf_linalg::threads;
use alperf_obs::{names, Value};

/// Column names used in the generated datasets (Table I's variables).
pub const COL_OPERATOR: &str = "Operator";
/// Column name for the problem size.
pub const COL_SIZE: &str = "Global Problem Size";
/// Column name for the rank count.
pub const COL_NP: &str = "NP";
/// Column name for the CPU frequency.
pub const COL_FREQ: &str = "CPU Frequency";
/// Response name for runtime in seconds.
pub const RESP_RUNTIME: &str = "Runtime";
/// Response name for energy in Joules.
pub const RESP_ENERGY: &str = "Energy";
/// Response name for peak per-node memory in bytes.
pub const RESP_MEMORY: &str = "Memory";

/// A full measurement campaign.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// The workload design.
    pub spec: WorkloadSpec,
    /// The machine/performance model.
    pub model: PerfModel,
    /// The IPMI sampler configuration.
    pub sampler: PowerSampler,
    /// Thread width the measurement executor runs at (0 counts as 1).
    /// Defaults to [`threads::current`], so campaigns follow
    /// `ALPERF_NUM_THREADS` and any enclosing [`threads::with_threads`].
    pub workers: usize,
    /// Retry policy for faulted jobs.
    pub retry: RetryPolicy,
}

impl Default for Campaign {
    fn default() -> Self {
        Campaign {
            spec: WorkloadSpec::default(),
            model: PerfModel::calibrated(),
            sampler: PowerSampler::default(),
            workers: threads::current(),
            retry: RetryPolicy::default(),
        }
    }
}

/// Anything that can abort a campaign.
#[derive(Debug)]
pub enum CampaignError {
    /// Dataset assembly failed.
    Data(DataSetError),
    /// The scheduler rejected the batch.
    Schedule(ScheduleError),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Data(e) => write!(f, "dataset assembly: {e:?}"),
            CampaignError::Schedule(e) => write!(f, "scheduler: {e}"),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<DataSetError> for CampaignError {
    fn from(e: DataSetError) -> Self {
        CampaignError::Data(e)
    }
}

impl From<ScheduleError> for CampaignError {
    fn from(e: ScheduleError) -> Self {
        CampaignError::Schedule(e)
    }
}

/// Everything a campaign produces.
#[derive(Debug, Clone)]
pub struct CampaignOutput {
    /// Accounting records for every completed job.
    pub records: Vec<JobRecord>,
    /// Jobs that exhausted their retry budget, with the compute cost they
    /// burned (charged against the budget — nothing vanishes silently).
    pub failures: Vec<FailedJob>,
    /// The Performance dataset (response: Runtime).
    pub performance: DataSet,
    /// The Power dataset (responses: Runtime, Energy).
    pub power: DataSet,
    /// Scheduler makespan of the whole campaign, seconds.
    pub makespan: f64,
}

/// The paper's focus slice — the Performance dataset's poisson1 jobs at
/// NP = 32 (251 jobs in the paper's Fig. 6) — and its 2-D problem:
/// (log10 size, frequency) -> log10 runtime.
#[derive(Debug, Clone)]
pub struct FocusSlice {
    /// The slice's rows.
    pub data: DataSet,
    /// One row per job: `[log10 Global Problem Size, CPU Frequency]`.
    pub x: Matrix,
    /// log10 Runtime, one value per job.
    pub y: Vec<f64>,
    /// Runtime in seconds, one value per job; callers derive their cost
    /// unit from it.
    pub runtime: Vec<f64>,
}

impl FocusSlice {
    /// Fig. 3's 1-D cross-section: the slice's 2.4 GHz jobs as
    /// (log10 size, log10 runtime).
    pub fn cross_section(&self) -> (Vec<f64>, Vec<f64>) {
        let sub = self.data.fix_variable(COL_FREQ, 2.4).expect("freq");
        let log10 = |v: &[f64]| v.iter().map(|v| v.log10()).collect();
        (
            log10(&sub.variable(COL_SIZE).expect("size").values),
            log10(sub.response(RESP_RUNTIME).expect("runtime")),
        )
    }
}

impl CampaignOutput {
    /// Cut the [`FocusSlice`] from the Performance dataset.
    ///
    /// # Errors
    /// [`DataSetError`] when no poisson1 job completed, so the `Operator`
    /// column has no such level.
    pub fn focus_slice(&self) -> Result<FocusSlice, DataSetError> {
        let data = self
            .performance
            .fix_level(COL_OPERATOR, "poisson1")?
            .fix_variable(COL_NP, 32.0)?;
        let sizes = &data.variable(COL_SIZE)?.values;
        let freqs = &data.variable(COL_FREQ)?.values;
        let runtime = data.response(RESP_RUNTIME)?.to_vec();
        let y = runtime.iter().map(|v| v.log10()).collect();
        let n = data.n_rows();
        let mut flat = Vec::with_capacity(2 * n);
        for i in 0..n {
            flat.push(sizes[i].log10());
            flat.push(freqs[i]);
        }
        let x = Matrix::from_vec(n, 2, flat).expect("two values per row");
        Ok(FocusSlice {
            data,
            x,
            y,
            runtime,
        })
    }
}

impl Campaign {
    /// The fault plan this campaign injects: seeded from the workload seed
    /// (on an independent stream from measurement noise) at the spec's
    /// `failure_rate`. A rate of zero yields a plan that never fires.
    pub fn fault_plan(&self) -> FaultPlan {
        FaultPlan::new(self.spec.seed ^ 0xfa17_9a71, self.spec.failure_rate)
    }

    /// Run the whole pipeline.
    ///
    /// ```no_run
    /// let out = alperf_cluster::Campaign::default().run().unwrap();
    /// println!("{} performance jobs, {} with energy estimates ({} failed)",
    ///          out.performance.n_rows(), out.power.n_rows(), out.failures.len());
    /// ```
    ///
    /// Jobs fault according to [`Campaign::fault_plan`]; fatal faults are
    /// retried under [`Campaign::retry`], and jobs that exhaust their
    /// budget land in [`CampaignOutput::failures`] with the compute cost
    /// they burned — the paper charges failed experiments, so nothing is
    /// silently dropped anymore.
    ///
    /// # Errors
    /// Propagates dataset-assembly and scheduler-rejection errors. Per-job
    /// faults are *not* errors.
    pub fn run(&self) -> Result<CampaignOutput, CampaignError> {
        let requests = workload::build_requests(&self.spec, &self.model);
        let plan = self.fault_plan();
        // One record per campaign with every parameter needed to replay
        // the exact fault/retry behaviour (consumed by `chaos_replay`).
        alperf_obs::record(
            names::CLUSTER_FAULT_PLAN,
            &[
                ("plan_seed", Value::U64(plan.seed)),
                ("failure_rate", Value::F64(plan.failure_rate)),
                ("permanent_fraction", Value::F64(plan.permanent_fraction)),
                (
                    "second_attempt_fraction",
                    Value::F64(plan.second_attempt_fraction),
                ),
                ("campaign_seed", Value::U64(self.spec.seed)),
                (
                    "focus_size_levels",
                    Value::U64(self.spec.focus_size_levels as u64),
                ),
                (
                    "default_size_levels",
                    Value::U64(self.spec.default_size_levels as u64),
                ),
                ("repeats", Value::U64(self.spec.repeats as u64)),
                ("workers", Value::U64(self.workers as u64)),
                ("max_attempts", Value::U64(self.retry.max_attempts as u64)),
                ("base_backoff_ns", Value::U64(self.retry.base_backoff_ns)),
                ("multiplier", Value::F64(self.retry.multiplier)),
                ("max_backoff_ns", Value::U64(self.retry.max_backoff_ns)),
                ("jitter", Value::F64(self.retry.jitter)),
                ("n_jobs", Value::U64(requests.len() as u64)),
            ],
        );
        // Measure runtimes + traces (concurrently, deterministically),
        // injecting faults and retrying at the executor boundary.
        let outcomes = threads::with_threads(self.workers.max(1), || {
            executor::measure_all(
                &self.model,
                &self.sampler,
                &requests,
                self.spec.seed,
                Some(&plan),
                &self.retry,
            )
        });
        // Partition: completed jobs proceed to scheduling; failures are
        // charged the compute their attempts burned (the model's expected
        // runtime per attempt — the noisy measurement never materialized).
        let mut survivors: Vec<JobRequest> = Vec::new();
        let mut measurements = Vec::new();
        let mut attempts_per_job = Vec::new();
        let mut failures: Vec<FailedJob> = Vec::new();
        for (req, outcome) in requests.iter().zip(outcomes) {
            match outcome {
                JobOutcome::Ok {
                    measurement,
                    attempts,
                    ..
                } => {
                    survivors.push(*req);
                    measurements.push(measurement);
                    attempts_per_job.push(attempts);
                }
                JobOutcome::Failed {
                    attempts, fault, ..
                } => {
                    let charged_cost = if fault.kind.charges_compute() {
                        attempts as f64
                            * self.model.runtime_mean(req.op, req.size, req.np, req.freq)
                            * req.np as f64
                    } else {
                        0.0
                    };
                    failures.push(FailedJob {
                        request: *req,
                        attempts,
                        fault,
                        charged_cost,
                    });
                }
            }
        }
        // Schedule the completed batch for realistic start times / makespan.
        let runtimes: Vec<f64> = measurements.iter().map(|m| m.runtime).collect();
        let sched = scheduler::try_schedule_batch(&self.model, &survivors, &runtimes)?;
        // Assemble records with energy integration.
        let records: Vec<JobRecord> = survivors
            .iter()
            .zip(&measurements)
            .zip(&attempts_per_job)
            .zip(&sched.placements)
            .map(|(((req, m), &attempts), &(start, nodes))| {
                let energy = self.sampler.integrate(m.runtime, &m.trace);
                JobRecord {
                    request: *req,
                    submit_time: 0.0,
                    start_time: start,
                    runtime: m.runtime,
                    nodes,
                    energy,
                    memory_per_node: m.memory_per_node,
                    power_samples: m.trace.len(),
                    attempts,
                }
            })
            .collect();
        let performance = records_to_performance_dataset(&records)?;
        let power = records_to_power_dataset(&records)?;
        Ok(CampaignOutput {
            records,
            failures,
            performance,
            power,
            makespan: sched.makespan,
        })
    }
}

fn push_variables(data: &mut DataSet, records: &[&JobRecord]) -> Result<(), DataSetError> {
    let ops: Vec<&str> = records.iter().map(|r| r.request.op.name()).collect();
    data.add_categorical_variable(COL_OPERATOR, &ops)?;
    data.add_numeric_variable(COL_SIZE, records.iter().map(|r| r.request.size).collect())?;
    data.add_numeric_variable(
        COL_NP,
        records.iter().map(|r| r.request.np as f64).collect(),
    )?;
    data.add_numeric_variable(COL_FREQ, records.iter().map(|r| r.request.freq).collect())?;
    Ok(())
}

/// Build the Performance dataset (all records; response: Runtime).
fn records_to_performance_dataset(records: &[JobRecord]) -> Result<DataSet, DataSetError> {
    let refs: Vec<&JobRecord> = records.iter().collect();
    let mut data = DataSet::new();
    push_variables(&mut data, &refs)?;
    data.add_response(RESP_RUNTIME, refs.iter().map(|r| r.runtime).collect())?;
    data.add_response(
        RESP_MEMORY,
        refs.iter().map(|r| r.memory_per_node).collect(),
    )?;
    Ok(data)
}

/// Build the Power dataset (records with surviving energy estimates;
/// responses: Runtime and Energy).
fn records_to_power_dataset(records: &[JobRecord]) -> Result<DataSet, DataSetError> {
    let refs: Vec<&JobRecord> = records.iter().filter(|r| r.energy.is_some()).collect();
    let mut data = DataSet::new();
    if refs.is_empty() {
        return Ok(data);
    }
    push_variables(&mut data, &refs)?;
    data.add_response(RESP_RUNTIME, refs.iter().map(|r| r.runtime).collect())?;
    data.add_response(
        RESP_ENERGY,
        refs.iter().map(|r| r.energy.expect("filtered")).collect(),
    )?;
    Ok(data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use alperf_linalg::stats;

    /// A smaller campaign for fast tests.
    fn small() -> Campaign {
        Campaign {
            spec: WorkloadSpec {
                focus_size_levels: 8,
                default_size_levels: 3,
                ..Default::default()
            },
            workers: 4,
            ..Default::default()
        }
    }

    #[test]
    fn pipeline_produces_consistent_datasets() {
        let out = small().run().unwrap();
        assert!(!out.records.is_empty());
        assert_eq!(out.performance.n_rows(), out.records.len());
        let with_energy = out.records.iter().filter(|r| r.energy.is_some()).count();
        assert_eq!(out.power.n_rows(), with_energy);
        assert!(with_energy > 0, "no jobs survived the power filter");
        assert!(
            with_energy < out.records.len(),
            "power filter dropped nothing"
        );
        assert!(out.makespan > 0.0);
    }

    #[test]
    fn power_dataset_noisier_than_performance() {
        // The paper's Fig. 1 observation: per-setting relative spread of
        // Energy exceeds that of Runtime. Compare average relative std over
        // repeated settings.
        let out = small().run().unwrap();
        let vars = [COL_OPERATOR, COL_SIZE, COL_NP, COL_FREQ];
        let rel_spread = |d: &DataSet, resp: &str| -> f64 {
            let groups = d.group_by_settings(&vars).unwrap();
            let col = d.response(resp).unwrap();
            let mut acc = Vec::new();
            for (_, rows) in groups.iter().filter(|(_, r)| r.len() >= 2) {
                let vals: Vec<f64> = rows.iter().map(|&i| col[i]).collect();
                acc.push(stats::std_dev(&vals) / stats::mean(&vals).abs().max(1e-300));
            }
            stats::mean(&acc)
        };
        let perf_spread = rel_spread(&out.performance, RESP_RUNTIME);
        let energy_spread = rel_spread(&out.power, RESP_ENERGY);
        assert!(
            energy_spread > perf_spread,
            "energy {energy_spread} !> runtime {perf_spread}"
        );
    }

    #[test]
    fn runtime_range_matches_table1() {
        let out = Campaign::default().run().unwrap();
        let rt = out.performance.response(RESP_RUNTIME).unwrap();
        let lo = stats::min(rt).unwrap();
        let hi = stats::max(rt).unwrap();
        // Table I: 0.005 – 458.436 s. Same orders of magnitude.
        assert!(lo > 0.002 && lo < 0.02, "min runtime {lo}");
        assert!(hi > 300.0 && hi < 600.0, "max runtime {hi}");
    }

    #[test]
    fn energy_range_matches_table1() {
        let out = Campaign::default().run().unwrap();
        let en = out.power.response(RESP_ENERGY).unwrap();
        let lo = stats::min(en).unwrap();
        let hi = stats::max(en).unwrap();
        // Table I: 6.4e3 – 1.1e5 J. Same orders of magnitude.
        assert!(lo > 1e3 && lo < 2e4, "min energy {lo}");
        assert!(hi > 4e4 && hi < 4e5, "max energy {hi}");
    }

    #[test]
    fn dataset_sizes_match_paper_scale() {
        let out = Campaign::default().run().unwrap();
        let n_perf = out.performance.n_rows();
        let n_power = out.power.n_rows();
        // Paper: 3246 and 640.
        assert!((2500..=4000).contains(&n_perf), "performance: {n_perf}");
        assert!((280..=1100).contains(&n_power), "power: {n_power}");
        assert!(n_power < n_perf / 2, "power should be a small subset");
    }

    #[test]
    fn performance_dataset_has_memory_response() {
        let out = small().run().unwrap();
        let mem = out.performance.response(RESP_MEMORY).unwrap();
        assert_eq!(mem.len(), out.performance.n_rows());
        // Plausible per-node footprints: above the 120 MB per-rank base,
        // below the 128 GB node RAM.
        assert!(mem.iter().all(|&m| m > 1e8 && m < 128e9));
        // Larger problems use more memory: compare the extremes.
        let sizes = &out.performance.variable(COL_SIZE).unwrap().values;
        let (mut small_mem, mut big_mem) = (f64::INFINITY, 0.0f64);
        for (s, m) in sizes.iter().zip(mem) {
            if *s < 1e4 {
                small_mem = small_mem.min(*m);
            }
            if *s > 1e8 {
                big_mem = big_mem.max(*m);
            }
        }
        assert!(big_mem > 10.0 * small_mem, "{small_mem} vs {big_mem}");
    }

    #[test]
    fn deterministic_output() {
        let a = small().run().unwrap();
        let b = small().run().unwrap();
        assert_eq!(a.performance.n_rows(), b.performance.n_rows());
        assert_eq!(
            a.performance.response(RESP_RUNTIME).unwrap(),
            b.performance.response(RESP_RUNTIME).unwrap()
        );
        assert_eq!(
            a.power.response(RESP_ENERGY).unwrap(),
            b.power.response(RESP_ENERGY).unwrap()
        );
    }

    #[test]
    fn empty_records_make_empty_power_dataset() {
        let d = records_to_power_dataset(&[]).unwrap();
        assert_eq!(d.n_rows(), 0);
    }

    #[test]
    fn failures_are_accounted_not_dropped() {
        let c = Campaign {
            spec: WorkloadSpec {
                focus_size_levels: 8,
                default_size_levels: 3,
                failure_rate: 0.3,
                ..Default::default()
            },
            workers: 4,
            ..Default::default()
        };
        let out = c.run().unwrap();
        let n_requests = crate::workload::build_requests(&c.spec, &c.model).len();
        // Every submitted job is either a record or a failure.
        assert_eq!(out.records.len() + out.failures.len(), n_requests);
        assert!(!out.failures.is_empty(), "rate 0.3 must fail some jobs");
        // Failures carry fatal faults and non-negative charged cost;
        // anything that burned compute charges a positive cost.
        for f in &out.failures {
            assert!(f.fault.kind.is_fatal());
            assert!(f.attempts >= 1);
            if f.fault.kind.charges_compute() {
                assert!(f.charged_cost > 0.0, "{:?}", f.fault.kind);
            } else {
                assert_eq!(f.charged_cost, 0.0);
            }
        }
        // Retried-then-recovered jobs surface in the records.
        assert!(out.records.iter().any(|r| r.attempts > 1));
        // And the budget totals include the failed-run cost.
        let machine = alperf_hpgmg::model::MachineSpec::cloudlab_wisconsin();
        let stats =
            crate::accounting::queue_stats_with_failures(&out.records, &out.failures, &machine);
        assert_eq!(stats.n_failed, out.failures.len());
        assert!(stats.failed_cost > 0.0);
        let completed: f64 = out.records.iter().map(|r| r.cost()).sum();
        assert!((stats.total_cost - completed - stats.failed_cost).abs() < 1e-9);
    }

    #[test]
    fn chaos_campaign_identical_across_worker_counts() {
        let mk = |workers: usize| Campaign {
            spec: WorkloadSpec {
                focus_size_levels: 6,
                default_size_levels: 2,
                failure_rate: 0.3,
                ..Default::default()
            },
            workers,
            ..Default::default()
        };
        let base = mk(1).run().unwrap();
        for workers in [2, 8] {
            let out = mk(workers).run().unwrap();
            assert_eq!(out.records, base.records, "workers={workers}");
            assert_eq!(out.failures, base.failures, "workers={workers}");
            assert_eq!(out.makespan, base.makespan, "workers={workers}");
        }
    }

    #[test]
    fn default_workers_follow_the_thread_width() {
        for width in [1, 3] {
            let c = threads::with_threads(width, Campaign::default);
            assert_eq!(c.workers, width);
        }
    }

    #[test]
    fn zero_failure_rate_fails_nothing() {
        let c = Campaign {
            spec: WorkloadSpec {
                focus_size_levels: 4,
                default_size_levels: 2,
                failure_rate: 0.0,
                ..Default::default()
            },
            workers: 2,
            ..Default::default()
        };
        let out = c.run().unwrap();
        assert!(out.failures.is_empty());
        assert!(out.records.iter().all(|r| r.attempts == 1));
    }
}
