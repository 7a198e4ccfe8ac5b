//! SLURM-`sacct`-style accounting: export job records as CSV and compute
//! queue/utilization statistics.
//!
//! The paper's pipeline collects "SLURM accounting information" alongside
//! benchmark output (Section IV); this module is that bookkeeping for the
//! simulator — useful both to sanity-check the scheduler (utilization,
//! wait-time distribution) and to give downstream users the familiar
//! per-job table.

use crate::job::{FailedJob, JobRecord};
use alperf_hpgmg::model::MachineSpec;
use alperf_linalg::stats;

/// Aggregate scheduler statistics over a batch of completed jobs.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueStats {
    /// Number of jobs.
    pub n_jobs: usize,
    /// Mean queue wait, seconds.
    pub mean_wait: f64,
    /// Maximum queue wait, seconds.
    pub max_wait: f64,
    /// Makespan (last end time), seconds.
    pub makespan: f64,
    /// Node-seconds actually used by jobs.
    pub busy_node_seconds: f64,
    /// Cluster utilization: busy node-seconds / (nodes x makespan).
    pub utilization: f64,
    /// Total core-seconds billed: completed-job cost **plus** the compute
    /// burned by failed jobs — the paper charges failed experiments
    /// against the budget.
    pub total_cost: f64,
    /// Number of jobs that exhausted their retry budget.
    pub n_failed: usize,
    /// Core-seconds charged to failed jobs (included in `total_cost`).
    pub failed_cost: f64,
}

/// Compute queue statistics for a batch with no failed jobs.
#[cfg(test)]
fn queue_stats(records: &[JobRecord], machine: &MachineSpec) -> QueueStats {
    queue_stats_with_failures(records, &[], machine)
}

/// Compute queue statistics for a batch, charging failed jobs' burned
/// compute into `total_cost`/`failed_cost`.
pub fn queue_stats_with_failures(
    records: &[JobRecord],
    failures: &[FailedJob],
    machine: &MachineSpec,
) -> QueueStats {
    let waits: Vec<f64> = records.iter().map(|r| r.wait_time()).collect();
    let makespan = records.iter().map(|r| r.end_time()).fold(0.0f64, f64::max);
    let busy: f64 = records.iter().map(|r| r.runtime * r.nodes as f64).sum();
    let capacity = machine.nodes as f64 * makespan;
    let completed_cost: f64 = records.iter().map(|r| r.cost()).sum();
    let failed_cost: f64 = failures.iter().map(|f| f.charged_cost).sum();
    QueueStats {
        n_jobs: records.len(),
        mean_wait: stats::mean(&waits),
        max_wait: stats::max(&waits).unwrap_or(0.0),
        makespan,
        busy_node_seconds: busy,
        utilization: if capacity > 0.0 { busy / capacity } else { 0.0 },
        total_cost: completed_cost + failed_cost,
        n_failed: failures.len(),
        failed_cost,
    }
}

/// Render records as a `sacct`-style CSV table.
pub fn to_sacct_csv(records: &[JobRecord]) -> String {
    let mut out = String::from(
        "JobID,Operator,Size,NP,Freq,Repeat,Submit,Start,End,Elapsed,NNodes,CoreSeconds,EnergyJ,PowerSamples,Attempts\n",
    );
    for (id, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
            id,
            r.request.op.name(),
            r.request.size,
            r.request.np,
            r.request.freq,
            r.request.repeat,
            r.submit_time,
            r.start_time,
            r.end_time(),
            r.runtime,
            r.nodes,
            r.cost(),
            r.energy.map(|e| e.to_string()).unwrap_or_default(),
            r.power_samples,
            r.attempts,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobRequest;
    use alperf_hpgmg::operator::OperatorKind;

    fn record(start: f64, runtime: f64, nodes: usize, np: usize) -> JobRecord {
        JobRecord {
            request: JobRequest {
                op: OperatorKind::Poisson1,
                size: 1e6,
                np,
                freq: 2.4,
                repeat: 0,
            },
            submit_time: 0.0,
            start_time: start,
            runtime,
            nodes,
            energy: if runtime > 5.0 {
                Some(runtime * 200.0)
            } else {
                None
            },
            memory_per_node: 2e9,
            power_samples: runtime as usize,
            attempts: 1,
        }
    }

    #[test]
    fn stats_on_simple_batch() {
        let machine = MachineSpec::cloudlab_wisconsin();
        // Two jobs back to back on the full cluster.
        let recs = vec![record(0.0, 10.0, 4, 64), record(10.0, 10.0, 4, 64)];
        let s = queue_stats(&recs, &machine);
        assert_eq!(s.n_jobs, 2);
        assert_eq!(s.makespan, 20.0);
        assert_eq!(s.busy_node_seconds, 80.0);
        assert!((s.utilization - 1.0).abs() < 1e-12);
        assert_eq!(s.mean_wait, 5.0);
        assert_eq!(s.max_wait, 10.0);
        assert_eq!(s.total_cost, 2.0 * 10.0 * 64.0);
    }

    #[test]
    fn partial_utilization() {
        let machine = MachineSpec::cloudlab_wisconsin();
        // One 1-node job for 10 s: 10 busy node-s out of 40 capacity.
        let recs = vec![record(0.0, 10.0, 1, 16)];
        let s = queue_stats(&recs, &machine);
        assert!((s.utilization - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_batch() {
        let machine = MachineSpec::cloudlab_wisconsin();
        let s = queue_stats(&[], &machine);
        assert_eq!(s.n_jobs, 0);
        assert_eq!(s.utilization, 0.0);
        assert_eq!(s.makespan, 0.0);
    }

    #[test]
    fn sacct_csv_shape() {
        let recs = vec![record(0.0, 10.0, 2, 32), record(1.0, 2.0, 1, 8)];
        let csv = to_sacct_csv(&recs);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("JobID,Operator"));
        // First job has an energy value; second (short) does not.
        assert!(lines[1].contains("poisson1"));
        let fields: Vec<&str> = lines[2].split(',').collect();
        assert_eq!(fields[12], "", "short job must have empty EnergyJ");
        // Round-trippable count of columns (Attempts is the trailing one).
        assert_eq!(fields.len(), 15);
        assert_eq!(fields[14], "1");
    }

    #[test]
    fn failed_jobs_charge_the_budget() {
        let machine = MachineSpec::cloudlab_wisconsin();
        let recs = vec![record(0.0, 10.0, 4, 64)];
        let failures = vec![
            FailedJob {
                request: recs[0].request,
                attempts: 3,
                fault: crate::fault::Fault {
                    kind: crate::fault::FaultKind::WorkerTimeout,
                    persistence: crate::fault::Persistence::Permanent,
                },
                charged_cost: 120.0,
            },
            FailedJob {
                request: recs[0].request,
                attempts: 3,
                fault: crate::fault::Fault {
                    kind: crate::fault::FaultKind::SchedulerReject,
                    persistence: crate::fault::Persistence::Permanent,
                },
                charged_cost: 0.0,
            },
        ];
        let s = queue_stats_with_failures(&recs, &failures, &machine);
        assert_eq!(s.n_failed, 2);
        assert_eq!(s.failed_cost, 120.0);
        assert_eq!(s.total_cost, 10.0 * 64.0 + 120.0);
        // The failure-free wrapper stays backward compatible.
        let plain = queue_stats(&recs, &machine);
        assert_eq!(plain.n_failed, 0);
        assert_eq!(plain.total_cost, 640.0);
    }

    #[test]
    fn campaign_accounting_is_consistent() {
        let out = crate::campaign::Campaign {
            spec: crate::workload::WorkloadSpec {
                focus_size_levels: 4,
                default_size_levels: 2,
                ..Default::default()
            },
            workers: 2,
            ..Default::default()
        }
        .run()
        .expect("campaign");
        let machine = MachineSpec::cloudlab_wisconsin();
        let s = queue_stats(&out.records, &machine);
        assert_eq!(s.n_jobs, out.records.len());
        assert!((s.makespan - out.makespan).abs() < 1e-9);
        assert!(s.utilization > 0.0 && s.utilization <= 1.0 + 1e-12);
        let csv = to_sacct_csv(&out.records);
        assert_eq!(csv.lines().count(), out.records.len() + 1);
    }
}
