//! Analytic performance and power model, calibrated to the paper's Table I.
//!
//! The paper's datasets cover Global Problem Sizes up to `1.1e9` unknowns —
//! far beyond what a test process can execute — so the cluster simulator
//! uses this model as the "physics" behind each simulated job. The model's
//! structure follows the benchmark's actual cost anatomy:
//!
//! * **Compute**: FMG is `O(N)`; work per unknown depends on the operator's
//!   stencil ([`crate::operator::OperatorKind::flops_per_point`]) times the
//!   multigrid sweep count; per-core throughput scales linearly with the
//!   CPU frequency (the benchmark is compute/cache-bound, Table I varies
//!   frequency 1.2–2.4 GHz).
//! * **Communication**: per-sweep halo exchanges move `O((N/np)^{2/3})`
//!   bytes plus a latency term growing with `log2(np)`; crossing nodes
//!   costs more than staying inside one.
//! * **Oversubscription**: the testbed has 4 nodes x 16 cores = 64 hardware
//!   cores, but Table I's `NP` goes to 128 — oversubscribed runs get no
//!   extra parallelism, only scheduling overhead.
//! * **Power**: server-level draw across all *provisioned* nodes (CloudLab
//!   IPMI measures whole servers, idle or not): per-node idle power plus
//!   per-active-core dynamic power `~ f^3`.
//!
//! Calibration anchors (see tests): the serial `poisson1` job at the
//! largest size and lowest frequency lands at Table I's maximum runtime
//! (458 s); the smallest jobs land at the minimum (5 ms); cluster-wide
//! energy spans Table I's `6.4e3 – 1.1e5 J` for the jobs that survive the
//! power-trace filter.

use crate::operator::OperatorKind;
use rand::Rng;

/// Hardware description of the testbed (defaults model the paper's
/// CloudLab Wisconsin machines: 2x 8-core E5-2630v3, 1.2–2.4 GHz).
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSpec {
    /// Number of provisioned nodes.
    pub nodes: usize,
    /// Hardware cores per node.
    pub cores_per_node: usize,
    /// Allowed CPU frequencies in GHz (DVFS levels).
    pub freq_levels: Vec<f64>,
    /// Effective useful flops per core per cycle (memory stalls included).
    pub flops_per_cycle: f64,
    /// Idle power per node, Watts.
    pub idle_power_w: f64,
    /// Static per-active-core power, Watts.
    pub core_power_base_w: f64,
    /// Dynamic per-core power coefficient, Watts per GHz^3.
    pub core_power_cubic_w: f64,
    /// Cross-node message latency, seconds.
    pub network_latency_s: f64,
    /// Network bandwidth, bytes/second (10 GbE).
    pub network_bw: f64,
    /// RAM per node, bytes.
    pub ram_per_node: f64,
}

impl MachineSpec {
    /// The paper's testbed: 4 nodes, 2x8 cores each, 128 GB RAM, 10 GbE.
    pub fn cloudlab_wisconsin() -> Self {
        MachineSpec {
            nodes: 4,
            cores_per_node: 16,
            freq_levels: vec![1.2, 1.5, 1.8, 2.1, 2.4],
            flops_per_cycle: 0.8,
            idle_power_w: 50.0,
            core_power_base_w: 1.2,
            core_power_cubic_w: 0.5,
            network_latency_s: 20e-6,
            network_bw: 1.25e9,
            ram_per_node: 128e9,
        }
    }

    /// Total hardware cores.
    fn total_cores(&self) -> usize {
        self.nodes * self.cores_per_node
    }

    /// Nodes needed to host `np` ranks (16 per node, capped at the cluster).
    pub fn nodes_used(&self, np: usize) -> usize {
        np.div_ceil(self.cores_per_node).min(self.nodes).max(1)
    }
}

impl Default for MachineSpec {
    fn default() -> Self {
        MachineSpec::cloudlab_wisconsin()
    }
}

/// Breakdown of a predicted runtime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuntimeBreakdown {
    /// Fixed job overhead (launch, setup), seconds.
    pub overhead: f64,
    /// Compute time, seconds.
    pub compute: f64,
    /// Communication time, seconds.
    pub communication: f64,
}

impl RuntimeBreakdown {
    /// Total runtime.
    pub fn total(&self) -> f64 {
        self.overhead + self.compute + self.communication
    }
}

/// The analytic model. All means are deterministic; sampling adds
/// multiplicative lognormal noise (performance measurements are noisy but
/// strictly positive).
#[derive(Debug, Clone, PartialEq)]
pub struct PerfModel {
    /// The machine the model describes.
    pub machine: MachineSpec,
    /// Multigrid sweep factor: effective operator applications per unknown
    /// over a full FMG solve.
    pub mg_sweeps: f64,
    /// Fixed per-job overhead in seconds (scheduler, binary launch, setup).
    pub overhead_s: f64,
    /// Halo traffic per boundary point, bytes.
    pub halo_bytes: f64,
    /// Communication sweeps per solve (smoother + transfer exchanges).
    pub comm_stages: f64,
    /// Lognormal sigma for runtime noise.
    pub runtime_noise_sigma: f64,
}

impl PerfModel {
    /// Model calibrated to Table I on the default testbed.
    pub fn calibrated() -> Self {
        PerfModel {
            machine: MachineSpec::cloudlab_wisconsin(),
            mg_sweeps: 50.0,
            overhead_s: 0.004,
            halo_bytes: 8.0,
            comm_stages: 60.0,
            runtime_noise_sigma: 0.03,
        }
    }

    /// Effective parallel width for `np` ranks: capped at the hardware
    /// core count (oversubscription adds no parallelism).
    fn effective_parallelism(&self, np: usize) -> f64 {
        (np.min(self.machine.total_cores())) as f64
    }

    /// Oversubscription penalty factor (`>= 1`).
    fn oversub_penalty(&self, np: usize) -> f64 {
        let cores = self.machine.total_cores();
        if np > cores {
            1.0 + 0.08 * (np as f64 / cores as f64 - 1.0)
        } else {
            1.0
        }
    }

    /// Deterministic runtime prediction with component breakdown.
    ///
    /// `size` is the Global Problem Size (unknowns), `np` the rank count,
    /// `freq` the CPU frequency in GHz.
    fn runtime_breakdown(
        &self,
        op: OperatorKind,
        size: f64,
        np: usize,
        freq: f64,
    ) -> RuntimeBreakdown {
        assert!(size > 0.0 && np > 0 && freq > 0.0, "invalid job parameters");
        let flops_per_unknown = op.flops_per_point() * self.mg_sweeps;
        let rate_per_core = self.machine.flops_per_cycle * freq * 1e9;
        let p = self.effective_parallelism(np);
        let compute = flops_per_unknown * size / (rate_per_core * p) * self.oversub_penalty(np);
        let communication = if np > 1 {
            let local = size / np as f64;
            // Six halo faces of the local subdomain.
            let halo = 6.0 * local.powf(2.0 / 3.0) * self.halo_bytes;
            // Intra-node exchanges are ~40x cheaper than crossing the wire.
            let nodes = self.machine.nodes_used(np);
            let latency = if nodes > 1 {
                self.machine.network_latency_s
            } else {
                self.machine.network_latency_s / 40.0
            };
            let bw = if nodes > 1 {
                self.machine.network_bw
            } else {
                self.machine.network_bw * 40.0
            };
            self.comm_stages * ((np as f64).log2() * latency + halo / bw)
        } else {
            0.0
        };
        RuntimeBreakdown {
            overhead: self.overhead_s,
            compute,
            communication,
        }
    }

    /// Deterministic mean runtime in seconds.
    pub fn runtime_mean(&self, op: OperatorKind, size: f64, np: usize, freq: f64) -> f64 {
        self.runtime_breakdown(op, size, np, freq).total()
    }

    /// Sample a noisy runtime (multiplicative lognormal noise).
    pub fn sample_runtime(
        &self,
        op: OperatorKind,
        size: f64,
        np: usize,
        freq: f64,
        rng: &mut impl Rng,
    ) -> f64 {
        let mean = self.runtime_mean(op, size, np, freq);
        mean * lognormal_factor(self.runtime_noise_sigma, rng)
    }

    /// Instantaneous cluster-wide power draw in Watts while a job with `np`
    /// ranks runs at `freq` GHz. All provisioned nodes contribute idle
    /// power (CloudLab IPMI measures whole servers).
    pub fn power_mean(&self, np: usize, freq: f64) -> f64 {
        let active = (np.min(self.machine.total_cores())) as f64;
        self.machine.nodes as f64 * self.machine.idle_power_w
            + active
                * (self.machine.core_power_base_w + self.machine.core_power_cubic_w * freq.powi(3))
    }

    /// Deterministic mean energy in Joules: cluster power x runtime.
    pub fn energy_mean(&self, op: OperatorKind, size: f64, np: usize, freq: f64) -> f64 {
        self.power_mean(np, freq) * self.runtime_mean(op, size, np, freq)
    }

    /// Peak per-node memory footprint in bytes: ~6 working vectors of
    /// 8 bytes per unknown spread over the nodes used, plus a fixed
    /// per-process base (MPI buffers, binary, PETSc overhead). This is the
    /// "memory usage on every node" attribute SLURM records per job and the
    /// third response the paper's prototype models.
    pub fn memory_per_node(&self, size: f64, np: usize) -> f64 {
        let nodes = self.machine.nodes_used(np).max(1) as f64;
        let ranks_per_node = (np as f64 / nodes).ceil();
        let base_per_rank = 120e6; // ~120 MB per MPI rank
        size * 8.0 * 6.0 / nodes + ranks_per_node * base_per_rank
    }

    /// Sample a noisy per-node memory measurement (allocator slack and
    /// fragmentation vary run to run, ~2%).
    pub fn sample_memory_per_node(&self, size: f64, np: usize, rng: &mut impl Rng) -> f64 {
        self.memory_per_node(size, np) * lognormal_factor(0.02, rng)
    }

    /// Whether a job fits in memory (per-node footprint within RAM).
    fn memory_fits(&self, size: f64, np: usize) -> bool {
        self.memory_per_node(size, np) <= self.machine.ram_per_node
    }

    /// Whether the experimenter would schedule this job at all: fits in
    /// memory and predicted to finish within the benchmarking budget cap.
    /// The paper's observed maximum runtime (458 s) is the serial
    /// `poisson1` job at the largest size — jobs predicted beyond 500 s
    /// were evidently not run.
    pub fn would_run(&self, op: OperatorKind, size: f64, np: usize, freq: f64) -> bool {
        self.memory_fits(size, np) && self.runtime_mean(op, size, np, freq) <= 500.0
    }
}

/// Multiplicative lognormal factor `exp(sigma * xi)`, `xi ~ N(0,1)` via
/// Box–Muller (keeps the offline crate list free of `rand_distr`).
pub fn lognormal_factor(sigma: f64, rng: &mut impl Rng) -> f64 {
    (sigma * standard_normal(rng)).exp()
}

/// One standard normal deviate via Box–Muller.
pub fn standard_normal(rng: &mut impl Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> PerfModel {
        PerfModel::calibrated()
    }

    #[test]
    fn calibration_anchor_max_runtime() {
        // Table I: max Runtime 458.436 s = serial poisson1, largest size,
        // lowest frequency.
        let t = model().runtime_mean(OperatorKind::Poisson1, 1.1e9, 1, 1.2);
        assert!((t - 458.3).abs() < 5.0, "t = {t}");
        // And it is within the scheduling cap.
        assert!(model().would_run(OperatorKind::Poisson1, 1.1e9, 1, 1.2));
    }

    #[test]
    fn calibration_anchor_min_runtime() {
        // Table I: min Runtime 0.005 s = smallest size, fast config.
        let t = model().runtime_mean(OperatorKind::Poisson1, 1.7e3, 1, 2.4);
        assert!(t > 0.004 && t < 0.007, "t = {t}");
    }

    #[test]
    fn expensive_operators_are_slower() {
        let m = model();
        let t1 = m.runtime_mean(OperatorKind::Poisson1, 1e7, 8, 2.1);
        let ta = m.runtime_mean(OperatorKind::Poisson2Affine, 1e7, 8, 2.1);
        let t2 = m.runtime_mean(OperatorKind::Poisson2, 1e7, 8, 2.1);
        assert!(t1 < ta && ta < t2, "{t1} {ta} {t2}");
    }

    #[test]
    fn runtime_monotone_in_size_and_freq() {
        let m = model();
        let op = OperatorKind::Poisson1;
        assert!(m.runtime_mean(op, 1e8, 16, 1.8) > m.runtime_mean(op, 1e7, 16, 1.8));
        assert!(m.runtime_mean(op, 1e8, 16, 1.2) > m.runtime_mean(op, 1e8, 16, 2.4));
    }

    #[test]
    fn parallel_speedup_saturates_at_hardware_cores() {
        let m = model();
        let op = OperatorKind::Poisson1;
        let t1 = m.runtime_mean(op, 1e9, 1, 2.4);
        let t64 = m.runtime_mean(op, 1e9, 64, 2.4);
        let t128 = m.runtime_mean(op, 1e9, 128, 2.4);
        // Large problem: near-linear speedup to 64 cores.
        assert!(t1 / t64 > 30.0, "speedup {}", t1 / t64);
        // Oversubscription is a (mild) slowdown, never a speedup.
        assert!(t128 >= t64, "t128={t128} t64={t64}");
    }

    #[test]
    fn small_problems_do_not_scale() {
        // Strong-scaling a tiny problem is overhead-dominated: NP=64 cannot
        // be much faster than NP=4.
        let m = model();
        let t4 = m.runtime_mean(OperatorKind::Poisson1, 1.7e3, 4, 2.4);
        let t64 = m.runtime_mean(OperatorKind::Poisson1, 1.7e3, 64, 2.4);
        assert!(t64 > 0.5 * t4, "t4={t4} t64={t64}");
    }

    #[test]
    fn power_increases_with_np_and_freq() {
        let m = model();
        assert!(m.power_mean(64, 2.4) > m.power_mean(1, 2.4));
        assert!(m.power_mean(16, 2.4) > m.power_mean(16, 1.2));
        // Oversubscription does not add power beyond the core count.
        assert_eq!(m.power_mean(128, 2.4), m.power_mean(64, 2.4));
    }

    #[test]
    fn energy_in_table1_range_for_long_jobs() {
        // Jobs that survive the power-trace filter (runtime >~ 30 s) must
        // span roughly Table I's 6.4e3 – 1.1e5 J.
        let m = model();
        let mut lo = f64::INFINITY;
        let mut hi = 0.0f64;
        for op in OperatorKind::all() {
            for &size in &[1e7, 1e8, 5e8, 1.1e9] {
                for np in [1usize, 4, 16, 32, 64] {
                    for &f in &[1.2, 1.8, 2.4] {
                        if !m.would_run(op, size, np, f) {
                            continue;
                        }
                        let t = m.runtime_mean(op, size, np, f);
                        if t < 30.0 {
                            continue;
                        }
                        let e = m.energy_mean(op, size, np, f);
                        lo = lo.min(e);
                        hi = hi.max(e);
                    }
                }
            }
        }
        assert!(lo > 2e3 && lo < 2e4, "lo = {lo}");
        assert!(hi > 5e4 && hi < 3e5, "hi = {hi}");
    }

    #[test]
    fn memory_model_is_sane() {
        let m = model();
        // Footprint grows with size, shrinks per node with more nodes.
        assert!(m.memory_per_node(1e8, 1) > m.memory_per_node(1e7, 1));
        assert!(m.memory_per_node(1e9, 64) < m.memory_per_node(1e9, 16));
        // The largest Table I job fits on 4 nodes but a 10x larger one
        // would not fit on one.
        assert!(m.memory_fits(1.1e9, 64));
        assert!(!m.memory_fits(1.1e10, 1));
        // Sampling is positive and near the mean.
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let s = m.sample_memory_per_node(1e8, 16, &mut rng);
        let mean = m.memory_per_node(1e8, 16);
        assert!(s > 0.8 * mean && s < 1.2 * mean);
    }

    #[test]
    fn would_run_excludes_oversized_and_overlong() {
        let m = model();
        // poisson2 serial at the largest size takes ~1200 s: not run.
        assert!(!m.would_run(OperatorKind::Poisson2, 1.1e9, 1, 1.2));
        // Absurd memory footprint.
        assert!(!m.memory_fits(1e12, 1));
        assert!(m.memory_fits(1.1e9, 64));
    }

    #[test]
    fn sampling_is_noisy_but_unbiased_ish() {
        let m = model();
        let mut rng = StdRng::seed_from_u64(1);
        let mean = m.runtime_mean(OperatorKind::Poisson1, 1e6, 8, 1.8);
        let samples: Vec<f64> = (0..2000)
            .map(|_| m.sample_runtime(OperatorKind::Poisson1, 1e6, 8, 1.8, &mut rng))
            .collect();
        let avg = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((avg - mean).abs() / mean < 0.01, "avg {avg} vs mean {mean}");
        assert!(samples.iter().all(|&t| t > 0.0));
        // Noise really present.
        assert!(samples.iter().any(|&t| (t - mean).abs() / mean > 0.02));
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(2);
        let xs: Vec<f64> = (0..20000).map(|_| standard_normal(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn nodes_used_rounding() {
        let m = MachineSpec::cloudlab_wisconsin();
        assert_eq!(m.nodes_used(1), 1);
        assert_eq!(m.nodes_used(16), 1);
        assert_eq!(m.nodes_used(17), 2);
        assert_eq!(m.nodes_used(64), 4);
        assert_eq!(m.nodes_used(128), 4); // capped at the cluster
    }

    #[test]
    fn breakdown_sums_to_total() {
        let m = model();
        let b = m.runtime_breakdown(OperatorKind::Poisson2, 1e8, 32, 1.5);
        assert!((b.total() - (b.overhead + b.compute + b.communication)).abs() < 1e-15);
        assert!(b.communication > 0.0);
        let serial = m.runtime_breakdown(OperatorKind::Poisson2, 1e8, 1, 1.5);
        assert_eq!(serial.communication, 0.0);
    }
}
