//! Declarative grid specs and their expansion into campaign configs.
//!
//! A [`GridSpec`] names one value list per axis (strategy × kernel ×
//! noise × batch size × fault rate × seed). Expansion
//! is the full cartesian product in a **fixed canonical nesting order**
//! over **canonically sorted, deduplicated** axis values — so two specs
//! that declare the same sets of values, in any order and with any
//! duplication, expand to the identical config list. That is the
//! property the whole determinism story rests on: a config's index in
//! the expansion *is* its identity, and its per-config seed is derived
//! from that index by a splitmix64 chain (a composition of bijections,
//! hence collision-free across the grid).
//!
//! Seed layout per config (see DESIGN.md §4k):
//!
//! * `run_seed = splitmix64(base_seed + (index + 1) · φ64)` — drives the
//!   strategy RNG and hyperparameter restarts; injective in `index`.
//! * the *dataset* seed is derived from `(base_seed, noise, seed, rows)`
//!   only — deliberately shared by every strategy/batch in a
//!   scenario slice, so strategies compete on identical data,
//!   partitions, and fault verdicts.

use std::fmt::Write as _;

/// 64-bit golden-ratio constant (odd, so multiplication by it is a
/// bijection mod 2^64).
const PHI64: u64 = 0x9e37_79b9_7f4a_7c15;

/// splitmix64 finalizer — a bijection on u64.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(PHI64);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Mix a tag/value into a seed chain (not required to be injective —
/// used only for *independence* between seed domains, never identity).
pub fn mix(seed: u64, v: u64) -> u64 {
    splitmix64(seed ^ v.wrapping_mul(PHI64))
}

/// Acquisition strategy axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StrategyKind {
    /// The paper's variance-reduction strategy (argmax predictive SD).
    VarianceReduction,
    /// The paper's cost-efficiency strategy (SD per unit cost).
    CostEfficiency,
    /// Uniform random sampling — the baseline the paper's claim is
    /// measured against.
    Random,
}

impl StrategyKind {
    /// All supported strategies, canonical order.
    pub const ALL: [StrategyKind; 3] = [
        StrategyKind::VarianceReduction,
        StrategyKind::CostEfficiency,
        StrategyKind::Random,
    ];

    /// Stable name, matching `alperf_al::Strategy::name()`.
    pub fn name(self) -> &'static str {
        match self {
            StrategyKind::VarianceReduction => "variance_reduction",
            StrategyKind::CostEfficiency => "cost_efficiency",
            StrategyKind::Random => "random",
        }
    }

    /// Parse a spec-file value (full name or the `vr`/`ce` shorthand).
    pub fn parse(s: &str) -> Result<Self, SpecError> {
        match s {
            "variance_reduction" | "vr" => Ok(StrategyKind::VarianceReduction),
            "cost_efficiency" | "ce" => Ok(StrategyKind::CostEfficiency),
            "random" => Ok(StrategyKind::Random),
            _ => Err(SpecError(format!("unknown strategy {s:?}"))),
        }
    }
}

/// Kernel family axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum KernelKind {
    /// Squared-exponential (the paper's kernel).
    Se,
    /// Matérn 3/2.
    Matern32,
    /// Matérn 5/2.
    Matern52,
    /// Rational quadratic.
    RationalQuadratic,
}

impl KernelKind {
    /// Stable short name used in config keys.
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Se => "se",
            KernelKind::Matern32 => "m32",
            KernelKind::Matern52 => "m52",
            KernelKind::RationalQuadratic => "rq",
        }
    }

    /// Parse a spec-file value.
    pub fn parse(s: &str) -> Result<Self, SpecError> {
        match s {
            "se" => Ok(KernelKind::Se),
            "m32" => Ok(KernelKind::Matern32),
            "m52" => Ok(KernelKind::Matern52),
            "rq" => Ok(KernelKind::RationalQuadratic),
            _ => Err(SpecError(format!("unknown kernel {s:?}"))),
        }
    }
}

/// The surrogate tier every campaign fits: only exact GPR exists. It stays
/// a name so config keys, summary records and spec files still read
/// `tier=exact`, and so `perfbench/` still compiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TierKind {
    /// Exact GPR.
    Exact,
}

impl TierKind {
    /// Stable short name used in config keys.
    pub fn name(self) -> &'static str {
        match self {
            TierKind::Exact => "exact",
        }
    }

    /// Parse a spec-file value.
    pub fn parse(s: &str) -> Result<Self, SpecError> {
        match s {
            "exact" => Ok(TierKind::Exact),
            _ => Err(SpecError(format!("unknown tier {s:?}"))),
        }
    }
}

/// Spec parse / validation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "grid spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

/// A declarative campaign grid: one value list per axis plus the shared
/// campaign shape (rows, iterations) and the grid's base seed.
///
/// Every axis has a single-value default, so a spec only declares the
/// axes it sweeps (per-axis overrides). [`GridSpec::canonicalize`] sorts
/// and dedups each axis; [`GridSpec::expand`] is always performed on the
/// canonical form.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSpec {
    /// Grid name (appears in the summary meta line and metric labels).
    pub name: String,
    /// Base seed every per-config seed is derived from.
    pub base_seed: u64,
    /// Synthetic dataset rows per campaign.
    pub rows: usize,
    /// Experiment budget (AL iterations) per campaign.
    pub iters: usize,
    /// Strategy axis.
    pub strategies: Vec<StrategyKind>,
    /// Kernel axis.
    pub kernels: Vec<KernelKind>,
    /// Observation noise half-width axis (uniform noise on the synthetic
    /// response).
    pub noises: Vec<f64>,
    /// Batch size axis (experiments selected per round).
    pub batches: Vec<usize>,
    /// Fault-rate axis (probability an experiment is faulty).
    pub fault_rates: Vec<f64>,
    /// Replicate seed axis.
    pub seeds: Vec<u64>,
}

impl Default for GridSpec {
    fn default() -> Self {
        GridSpec {
            name: "grid".into(),
            base_seed: 42,
            rows: 40,
            iters: 10,
            strategies: vec![StrategyKind::VarianceReduction],
            kernels: vec![KernelKind::Se],
            noises: vec![0.1],
            batches: vec![1],
            fault_rates: vec![0.0],
            seeds: vec![0],
        }
    }
}

fn canon_f64(xs: &mut Vec<f64>, axis: &'static str) -> Result<(), SpecError> {
    if xs.iter().any(|x| !x.is_finite() || *x < 0.0) {
        return Err(SpecError(format!("{axis} values must be finite and >= 0")));
    }
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    xs.dedup();
    Ok(())
}

impl GridSpec {
    /// Sort + dedup every axis into the canonical form expansion uses.
    /// Declaring `noise = 0.5, 0.1, 0.5` is the same grid as
    /// `noise = 0.1, 0.5` — axis declaration order never matters.
    pub fn canonicalize(mut self) -> Result<GridSpec, SpecError> {
        for (axis, empty) in [
            ("strategy", self.strategies.is_empty()),
            ("kernel", self.kernels.is_empty()),
            ("noise", self.noises.is_empty()),
            ("batch", self.batches.is_empty()),
            ("fault", self.fault_rates.is_empty()),
            ("seed", self.seeds.is_empty()),
        ] {
            if empty {
                return Err(SpecError(format!("axis {axis} has no values")));
            }
        }
        if self.rows < 8 {
            return Err(SpecError("rows must be >= 8".into()));
        }
        if self.iters == 0 {
            return Err(SpecError("iters must be >= 1".into()));
        }
        if self.batches.contains(&0) {
            return Err(SpecError("batch values must be >= 1".into()));
        }
        if self.fault_rates.iter().any(|&f| f >= 1.0) {
            return Err(SpecError("fault rates must be < 1".into()));
        }
        self.strategies.sort();
        self.strategies.dedup();
        self.kernels.sort();
        self.kernels.dedup();
        canon_f64(&mut self.noises, "noise")?;
        self.batches.sort();
        self.batches.dedup();
        canon_f64(&mut self.fault_rates, "fault")?;
        self.seeds.sort();
        self.seeds.dedup();
        Ok(self)
    }

    /// Number of configs the canonical spec expands to.
    pub fn n_configs(&self) -> usize {
        self.strategies.len()
            * self.kernels.len()
            * self.noises.len()
            * self.batches.len()
            * self.fault_rates.len()
            * self.seeds.len()
    }

    /// Expand the cartesian product in the canonical nesting order
    /// (strategy ▸ kernel ▸ noise ▸ batch ▸ fault ▸ seed, seed
    /// innermost). Call on a [`canonicalize`](Self::canonicalize)d spec;
    /// this canonicalizes defensively either way.
    pub fn expand(&self) -> Result<Vec<CampaignConfig>, SpecError> {
        let spec = self.clone().canonicalize()?;
        let mut out = Vec::with_capacity(spec.n_configs());
        for &strategy in &spec.strategies {
            for &kernel in &spec.kernels {
                for &noise in &spec.noises {
                    for &batch in &spec.batches {
                        for &fault_rate in &spec.fault_rates {
                            for &seed in &spec.seeds {
                                let index = out.len();
                                out.push(CampaignConfig {
                                    index,
                                    strategy,
                                    kernel,
                                    tier: TierKind::Exact,
                                    noise,
                                    batch,
                                    fault_rate,
                                    seed,
                                    rows: spec.rows,
                                    iters: spec.iters,
                                    run_seed: derived_seed(spec.base_seed, index),
                                    base_seed: spec.base_seed,
                                });
                            }
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    /// Parse the tiny line-oriented spec format:
    ///
    /// ```text
    /// # comments and blank lines ignored
    /// name = sweep
    /// base_seed = 42
    /// rows = 40
    /// iters = 10
    /// strategy = vr, ce, random
    /// kernel = se, m52
    /// tier = exact        # optional; the only tier
    /// noise = 0.05, 0.2, 0.5
    /// batch = 1, 2
    /// fault = 0, 0.2
    /// seed = 0..28        # half-open range, or an explicit list
    /// ```
    ///
    /// Unknown keys are errors (a typo must not silently shrink a grid).
    pub fn parse(text: &str) -> Result<GridSpec, SpecError> {
        let mut spec = GridSpec::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let bad = |msg: String| SpecError(format!("line {}: {msg}", lineno + 1));
            let (key, val) = line
                .split_once('=')
                .ok_or_else(|| bad(format!("expected key = value, got {line:?}")))?;
            let (key, val) = (key.trim(), val.trim());
            let list = || val.split(',').map(str::trim).filter(|v| !v.is_empty());
            let f64s = || -> Result<Vec<f64>, SpecError> {
                list()
                    .map(|v| {
                        v.parse::<f64>()
                            .map_err(|_| bad(format!("bad number {v:?}")))
                    })
                    .collect()
            };
            match key {
                "name" => spec.name = val.to_string(),
                "base_seed" => {
                    spec.base_seed = val.parse().map_err(|_| bad(format!("bad seed {val:?}")))?
                }
                "rows" => spec.rows = val.parse().map_err(|_| bad(format!("bad rows {val:?}")))?,
                "iters" => {
                    spec.iters = val.parse().map_err(|_| bad(format!("bad iters {val:?}")))?
                }
                "strategy" => {
                    spec.strategies = list()
                        .map(|v| StrategyKind::parse(v).map_err(|e| bad(e.0)))
                        .collect::<Result<_, _>>()?
                }
                "kernel" => {
                    spec.kernels = list()
                        .map(|v| KernelKind::parse(v).map_err(|e| bad(e.0)))
                        .collect::<Result<_, _>>()?
                }
                "tier" => {
                    let tiers = list()
                        .map(|v| TierKind::parse(v).map_err(|e| bad(e.0)))
                        .collect::<Result<Vec<_>, _>>()?;
                    if tiers.is_empty() {
                        return Err(SpecError("axis tier has no values".into()));
                    }
                }
                "noise" => spec.noises = f64s()?,
                "batch" => {
                    spec.batches = list()
                        .map(|v| v.parse().map_err(|_| bad(format!("bad batch {v:?}"))))
                        .collect::<Result<_, _>>()?
                }
                "fault" => spec.fault_rates = f64s()?,
                "seed" => {
                    spec.seeds = if let Some((lo, hi)) = val.split_once("..") {
                        let lo: u64 = lo
                            .trim()
                            .parse()
                            .map_err(|_| bad(format!("bad range start {lo:?}")))?;
                        let hi: u64 = hi
                            .trim()
                            .parse()
                            .map_err(|_| bad(format!("bad range end {hi:?}")))?;
                        (lo..hi).collect()
                    } else {
                        list()
                            .map(|v| v.parse().map_err(|_| bad(format!("bad seed {v:?}"))))
                            .collect::<Result<_, _>>()?
                    }
                }
                _ => return Err(bad(format!("unknown key {key:?}"))),
            }
        }
        spec.canonicalize()
    }

    /// Canonical one-line rendering of the spec (the form embedded in the
    /// summary meta record, compared byte-for-byte on resume).
    pub fn canonical_text(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "name={} base_seed={} rows={} iters={}",
            self.name, self.base_seed, self.rows, self.iters
        );
        let join = |parts: Vec<String>| parts.join(",");
        let _ = write!(
            s,
            " strategy={}",
            join(self.strategies.iter().map(|v| v.name().into()).collect())
        );
        let _ = write!(
            s,
            " kernel={}",
            join(self.kernels.iter().map(|v| v.name().into()).collect())
        );
        let _ = write!(s, " tier={}", TierKind::Exact.name());
        let _ = write!(
            s,
            " noise={}",
            join(self.noises.iter().map(|v| format!("{v}")).collect())
        );
        let _ = write!(
            s,
            " batch={}",
            join(self.batches.iter().map(|v| format!("{v}")).collect())
        );
        let _ = write!(
            s,
            " fault={}",
            join(self.fault_rates.iter().map(|v| format!("{v}")).collect())
        );
        let _ = write!(
            s,
            " seed={}",
            join(self.seeds.iter().map(|v| format!("{v}")).collect())
        );
        s
    }
}

/// Per-config seed: `splitmix64(base + (index + 1) · φ64)`. The inner
/// map `index → base + (index + 1) · φ64 (mod 2^64)` is injective (φ64
/// is odd) and splitmix64 is a bijection, so distinct configs can never
/// collide — the property `tests/proptest_grid.rs` checks across whole
/// grids.
pub fn derived_seed(base_seed: u64, index: usize) -> u64 {
    splitmix64(base_seed.wrapping_add((index as u64 + 1).wrapping_mul(PHI64)))
}

/// One fully-resolved campaign in a grid expansion.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Position in the canonical expansion — the config's identity.
    pub index: usize,
    /// Strategy axis value.
    pub strategy: StrategyKind,
    /// Kernel axis value.
    pub kernel: KernelKind,
    /// The fit tier, always [`TierKind::Exact`].
    pub tier: TierKind,
    /// Noise axis value.
    pub noise: f64,
    /// Batch-size axis value.
    pub batch: usize,
    /// Fault-rate axis value.
    pub fault_rate: f64,
    /// Replicate-seed axis value.
    pub seed: u64,
    /// Dataset rows (shared grid shape).
    pub rows: usize,
    /// Experiment budget (shared grid shape).
    pub iters: usize,
    /// Injective per-config seed (strategy RNG, restarts).
    pub run_seed: u64,
    /// The grid's base seed (dataset seeds derive from it).
    pub base_seed: u64,
}

impl CampaignConfig {
    /// Canonical config key: every axis value, space-separated.
    pub fn key(&self) -> String {
        format!(
            "strategy={} kernel={} tier={} noise={} batch={} fault={} seed={}",
            self.strategy.name(),
            self.kernel.name(),
            self.tier.name(),
            self.noise,
            self.batch,
            self.fault_rate,
            self.seed
        )
    }

    /// Scenario-slice key: the config key minus strategy and replicate
    /// seed — the grouping the leaderboards rank strategies within.
    pub fn slice_key(&self) -> String {
        format!(
            "kernel={} tier={} noise={} batch={} fault={}",
            self.kernel.name(),
            self.tier.name(),
            self.noise,
            self.batch,
            self.fault_rate
        )
    }

    /// Seed for the synthetic dataset, partition, and fault oracle:
    /// derived from `(base_seed, noise, seed, rows)` only, so every
    /// strategy/batch in a slice sees identical data, splits, and
    /// fault verdicts. (Strategy comparisons stay paired.)
    pub fn data_seed(&self) -> u64 {
        let mut s = mix(self.base_seed, 0x6772_6964); // "grid"
        s = mix(s, self.noise.to_bits());
        s = mix(s, self.seed);
        mix(s, self.rows as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep() -> GridSpec {
        GridSpec {
            strategies: vec![StrategyKind::Random, StrategyKind::VarianceReduction],
            kernels: vec![KernelKind::Se, KernelKind::Matern52],
            noises: vec![0.5, 0.1],
            fault_rates: vec![0.2, 0.0],
            seeds: vec![3, 1, 2],
            ..GridSpec::default()
        }
    }

    #[test]
    fn expansion_size_and_index_identity() {
        let configs = sweep().expand().unwrap();
        assert_eq!(configs.len(), 2 * 2 * 2 * 2 * 3);
        for (i, c) in configs.iter().enumerate() {
            assert_eq!(c.index, i);
            assert_eq!(c.run_seed, derived_seed(42, i));
        }
    }

    #[test]
    fn axis_declaration_order_is_irrelevant() {
        let a = sweep().expand().unwrap();
        let mut shuffled = sweep();
        shuffled.seeds = vec![2, 3, 1, 3, 3];
        shuffled.seeds.push(1);
        shuffled.noises = vec![0.1, 0.5, 0.1];
        shuffled.strategies = vec![
            StrategyKind::VarianceReduction,
            StrategyKind::Random,
            StrategyKind::VarianceReduction,
        ];
        let b = shuffled.expand().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn parse_round_trips_canonical_text() {
        let text = "
            # a sweep
            name = demo
            strategy = random, vr
            kernel = m52, se
            noise = 0.5, 0.1
            fault = 0, 0.2
            seed = 0..4
            batch = 2, 1
        ";
        let spec = GridSpec::parse(text).unwrap();
        assert_eq!(spec.n_configs(), 2 * 2 * 2 * 2 * 2 * 4);
        let reparsed = GridSpec::parse(&spec.canonical_text().replace(' ', "\n")).unwrap();
        assert_eq!(spec, reparsed);
    }

    #[test]
    fn unknown_keys_and_bad_values_are_errors() {
        assert!(GridSpec::parse("stratgy = vr").is_err());
        assert!(GridSpec::parse("strategy = gradient").is_err());
        assert!(GridSpec::parse("noise = -0.1").is_err());
        assert!(GridSpec::parse("fault = 1.0").is_err());
        assert!(GridSpec::parse("batch = 0").is_err());
        assert!(GridSpec::parse("seed = ").is_err());
        assert_eq!(
            GridSpec::parse("name = demo\nstrategy = vr, gradient"),
            Err(SpecError("line 2: unknown strategy \"gradient\"".into()))
        );
        assert_eq!(
            GridSpec::parse("name = demo\nkernel = se, m72"),
            Err(SpecError("line 2: unknown kernel \"m72\"".into()))
        );
    }

    #[test]
    fn removed_tiers_are_typed_errors_and_exact_still_reads_exact() {
        for tier in ["approx", "auto"] {
            assert_eq!(
                GridSpec::parse(&format!("tier = {tier}")),
                Err(SpecError(format!("line 1: unknown tier {tier:?}")))
            );
        }
        assert_eq!(
            GridSpec::parse("tier = "),
            Err(SpecError("axis tier has no values".into()))
        );
        assert_eq!(
            GridSpec::parse("tier = exact").unwrap(),
            GridSpec::parse("").unwrap()
        );
        // The golden fixture's meta line, byte for byte.
        let golden = GridSpec {
            name: "golden".into(),
            base_seed: 11,
            rows: 16,
            iters: 4,
            strategies: StrategyKind::ALL.to_vec(),
            noises: vec![0.1, 0.4],
            fault_rates: vec![0.2],
            seeds: vec![0, 1, 2],
            ..GridSpec::default()
        };
        assert_eq!(
            golden.canonicalize().unwrap().canonical_text(),
            "name=golden base_seed=11 rows=16 iters=4 \
             strategy=variance_reduction,cost_efficiency,random kernel=se tier=exact \
             noise=0.1,0.4 batch=1 fault=0.2 seed=0,1,2"
        );
    }

    #[test]
    fn data_seed_shared_across_strategies_not_replicates() {
        let configs = sweep().expand().unwrap();
        let a = &configs[0];
        let twin = configs
            .iter()
            .find(|c| {
                c.strategy != a.strategy && c.slice_key() == a.slice_key() && c.seed == a.seed
            })
            .unwrap();
        assert_eq!(a.data_seed(), twin.data_seed());
        let other = configs
            .iter()
            .find(|c| c.slice_key() == a.slice_key() && c.seed != a.seed)
            .unwrap();
        assert_ne!(a.data_seed(), other.data_seed());
    }
}
