//! The typed experiment grid: what each unit of an experiment's work is.
//!
//! An experiment declares its work as a grid of [`Point`]s — a workload
//! source × a machine × sim options — and the [`Artifact`]s its table
//! reads at each point. The engine leases the cached artifacts the
//! resulting [`Cell`]s read (`Cell::reads`) to the experiment and counts
//! them (deduplicated by [`Cell::key`]), the table body walks the same
//! grid and computes each artifact into the shared cache or finds it
//! there, and metrics collection (`crate::metrics`) matches the same
//! typed fields.

use std::fmt::Display;
use std::sync::Arc;

use bmp_core::PenaltyAnalysis;
use bmp_sim::{SimOptions, SimResult, Simulator};
use bmp_uarch::fp::fnv1a;
use bmp_uarch::{presets, MachineConfig, MachineConfigBuilder};
use bmp_workloads::{micro, spec, WorkloadProfile};

use crate::artifacts::cache_key;
use crate::engine::{
    analysis_key, functional_key, kernel_trace_key, profile_trace_key, sim_key, superblock_key,
    Ctx, Held, TraceHandle,
};
use crate::error::CellError;
use crate::Scale;

/// Where a grid point's trace comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A SPEC-like statistical profile from [`spec::NAMES`].
    Profile(&'static str),
    /// An executed RV32IM kernel from [`bmp_isa::NAMES`].
    Kernel(&'static str),
    /// The mispredicting dependence-chain microbenchmark of E-F7/E-F8
    /// (`micro::branch_resolution_kernel`, every branch taken) with this
    /// many chained ops ahead of each branch.
    Chain(u32),
    /// E-F9's profile: `parser` with a 24 KiB hot set, so small L1s turn
    /// its loads into short misses.
    HotParser,
}

impl Workload {
    /// The name in tables and cell keys: the profile or kernel name,
    /// `chain<N>` or `parser-hot24k`.
    pub fn name(&self) -> String {
        match self {
            Workload::Profile(name) | Workload::Kernel(name) => (*name).to_owned(),
            Workload::Chain(chain) => format!("chain{chain}"),
            Workload::HotParser => "parser-hot24k".to_owned(),
        }
    }

    /// The trace at `scale`, through the shared cache.
    ///
    /// # Panics
    ///
    /// With a structured [`CellError`] payload for a profile or kernel
    /// name the registries do not know.
    pub fn trace(&self, ctx: &Ctx, scale: Scale) -> TraceHandle {
        match *self {
            Workload::Profile(name) => ctx.named_trace(name, scale),
            Workload::Kernel(name) => ctx.kernel_trace(name, scale),
            Workload::Chain(_) => {
                let key = self.trace_key(scale).expect("a chain always has a trace");
                ctx.keyed_trace(key, || self.synthesize(scale))
            }
            Workload::HotParser => ctx.trace(&hot_parser(), scale),
        }
    }

    /// The cache key of the trace at `scale`, without synthesizing it;
    /// `None` for a profile or kernel name the registries do not know.
    pub(crate) fn trace_key(&self, scale: Scale) -> Option<u64> {
        match *self {
            Workload::Profile(name) => spec::by_name(name).map(|p| profile_trace_key(&p, scale)),
            Workload::Kernel(name) => bmp_isa::NAMES
                .contains(&name)
                .then(|| kernel_trace_key(name, scale)),
            Workload::Chain(chain) => {
                let params = [
                    fnv1a(b"branch_resolution_kernel"),
                    scale.ops as u64,
                    u64::from(chain),
                    CHAIN_TAKEN_BIAS.to_bits(),
                    scale.seed,
                ];
                Some(cache_key("micro", &params))
            }
            Workload::HotParser => Some(profile_trace_key(&hot_parser(), scale)),
        }
    }

    /// The trace at `scale`, synthesized afresh in array-of-structs form:
    /// what [`trace`](Self::trace) compiles and caches.
    ///
    /// # Panics
    ///
    /// For a profile or kernel name the registries do not know.
    pub(crate) fn synthesize(&self, scale: Scale) -> bmp_trace::Trace {
        match *self {
            Workload::Profile(name) => spec::by_name(name)
                .expect("known profile")
                .generate(scale.ops, scale.seed),
            Workload::Kernel(name) => {
                bmp_isa::kernel_trace(name, scale.ops, scale.seed).expect("known kernel")
            }
            Workload::Chain(chain) => {
                micro::branch_resolution_kernel(scale.ops, chain, CHAIN_TAKEN_BIAS, scale.seed)
            }
            Workload::HotParser => hot_parser().generate(scale.ops, scale.seed),
        }
    }
}

/// Every branch of a [`Workload::Chain`] trace is taken.
const CHAIN_TAKEN_BIAS: f64 = 1.0;

/// [`Workload::HotParser`]'s profile.
fn hot_parser() -> WorkloadProfile {
    let mut profile = spec::by_name("parser").expect("known profile");
    profile.memory.hot_bytes = 24 * 1024;
    profile.memory.hot_frac = 0.93;
    profile.memory.warm_frac = 0.06;
    profile
}

/// The machine a grid point runs on.
#[derive(Debug, Clone, PartialEq)]
pub enum Machine {
    /// `presets::baseline_4wide()`.
    Baseline,
    /// The baseline with a predictor generation from
    /// [`presets::GENERATIONS`] swapped in.
    Generation(&'static str),
    /// An explicit sweep configuration named `tag`. A sweep point stays a
    /// sweep even when it equals the baseline, so metrics collection never
    /// takes it for the baseline epoch.
    Sweep {
        /// The point's name in its experiment.
        tag: String,
        /// The configuration.
        config: Box<MachineConfig>,
    },
}

impl Machine {
    /// A sweep point named `tag`.
    pub fn sweep(tag: impl Into<String>, config: MachineConfig) -> Self {
        let (tag, config) = (tag.into(), Box::new(config));
        Machine::Sweep { tag, config }
    }

    /// The machine configuration.
    ///
    /// # Panics
    ///
    /// With a structured [`CellError`] payload for an unknown generation.
    pub fn config(&self) -> MachineConfig {
        match self {
            Machine::Baseline => presets::baseline_4wide(),
            Machine::Generation(pred) => presets::generation_machine(pred).unwrap_or_else(|| {
                let message = format!("unknown predictor generation `{pred}`");
                std::panic::panic_any(CellError::invalid_config(format!("pred-{pred}"), message))
            }),
            Machine::Sweep { config, .. } => MachineConfig::clone(config),
        }
    }
}

/// The simulator options of a grid point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimMode {
    /// Cold start: the default options.
    Cold,
    /// Statistics reset after the first 20% of the trace.
    Warmup,
    /// Cold start, recording the per-cycle dispatch timeline (E-F1).
    Timeline,
}

/// What a cell computes at its point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Artifact {
    /// The simulation under the point's machine and mode.
    Sim,
    /// The interval-model analysis under the point's machine.
    Analysis,
    /// The trace whose branch sites the per-branch-class attribution
    /// classifies.
    Classes,
}

/// One `(workload × machine × sim options)` point of an experiment grid,
/// with the artifacts a table reads there.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// Where the trace comes from.
    pub workload: Workload,
    /// The machine simulated and analysed.
    pub machine: Machine,
    /// The simulator options.
    pub mode: SimMode,
}

impl Point {
    /// A cold-start point.
    pub fn new(workload: Workload, machine: Machine) -> Self {
        let mode = SimMode::Cold;
        Self {
            workload,
            machine,
            mode,
        }
    }

    /// A cold-start point on the baseline machine.
    pub fn baseline(workload: Workload) -> Self {
        Self::new(workload, Machine::Baseline)
    }

    /// The same point simulated in `mode`.
    pub fn with_mode(self, mode: SimMode) -> Self {
        Self { mode, ..self }
    }

    /// The point's trace.
    pub fn trace(&self, ctx: &Ctx, scale: Scale) -> TraceHandle {
        self.workload.trace(ctx, scale)
    }

    /// The simulator of the point's machine and mode.
    pub(crate) fn simulator(&self, scale: Scale) -> Simulator {
        let options = match self.mode {
            SimMode::Cold => SimOptions::default(),
            SimMode::Warmup => SimOptions::with_warmup(scale.ops as u64 / 5),
            SimMode::Timeline => SimOptions::with_timeline(),
        };
        Simulator::with_options(self.machine.config(), options)
    }

    /// The point's simulation.
    pub fn sim(&self, ctx: &Ctx, scale: Scale) -> Arc<SimResult> {
        ctx.sim(&self.simulator(scale), &self.trace(ctx, scale))
    }

    /// The point's interval-model analysis.
    pub fn analysis(&self, ctx: &Ctx, scale: Scale) -> Arc<PenaltyAnalysis> {
        ctx.analyze(&self.machine.config(), &self.trace(ctx, scale))
    }

    /// The cell computing `artifact` at this point. Only a simulation
    /// depends on the sim options, so any other artifact's cell is
    /// normalized to a cold-start point.
    pub fn cell(&self, artifact: Artifact) -> Cell {
        let mut point = self.clone();
        if artifact != Artifact::Sim {
            point.mode = SimMode::Cold;
        }
        Cell { point, artifact }
    }
}

/// One unit of an experiment's declared work: an artifact at a grid
/// point.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Where the artifact is computed.
    pub point: Point,
    /// What is computed.
    pub artifact: Artifact,
}

impl Cell {
    /// The content key: cells with equal keys compute the same artifact,
    /// so the engine counts one of them. It covers the workload, the
    /// machine configuration (not its tag), the sim options and the
    /// artifact kind.
    pub fn key(&self) -> u64 {
        let workload = fnv1a(self.point.workload.name().as_bytes());
        let machine = self.point.machine.config().fingerprint();
        let (mode, artifact) = (self.point.mode as u64, self.artifact as u64);
        cache_key("cell", &[workload, machine, mode, artifact])
    }

    /// Every cached artifact computing the cell reads or builds: the
    /// trace, and on it the superblock map and the simulation, or the
    /// functional pass and the analysis. Empty for a workload the
    /// registries do not know: the experiment's body fails on it.
    pub(crate) fn reads(&self, scale: Scale) -> Vec<Held> {
        let Some(trace) = self.point.workload.trace_key(scale) else {
            return Vec::new();
        };
        let cfg = self.point.machine.config();
        match self.artifact {
            Artifact::Sim => vec![
                Held::Trace(trace),
                Held::Superblock(superblock_key(trace, cfg.caches.l1i().line_bytes())),
                Held::Sim(sim_key(&self.point.simulator(scale), trace)),
            ],
            Artifact::Analysis => vec![
                Held::Trace(trace),
                Held::Functional(functional_key(&cfg, trace)),
                Held::Analysis(analysis_key(&cfg, trace)),
            ],
            Artifact::Classes => vec![Held::Trace(trace)],
        }
    }
}

/// The cells computing each of `artifacts` at every point of `grid`.
pub(crate) fn cells(grid: impl IntoIterator<Item = Point>, artifacts: &[Artifact]) -> Vec<Cell> {
    grid.into_iter()
        .flat_map(|point| artifacts.iter().map(move |&a| point.cell(a)))
        .collect()
}

/// The baseline machine with `edit` applied to its builder: a sweep
/// point's configuration.
///
/// # Panics
///
/// If the edited configuration does not validate.
pub(crate) fn baseline_with(
    edit: impl FnOnce(&mut MachineConfigBuilder) -> &mut MachineConfigBuilder,
) -> MachineConfig {
    let mut builder = presets::baseline_4wide().to_builder();
    edit(&mut builder).build().expect("valid sweep machine")
}

/// A sweep over named profiles: every profile × every `(key, config)`
/// variant, profile-major, as `(profile, key, point)` rows. Each sweep
/// machine's tag is `prefix` followed by its key.
pub(crate) fn sweep<K: Display + Clone>(
    names: &'static [&'static str],
    prefix: &'static str,
    variants: Vec<(K, MachineConfig)>,
) -> impl Iterator<Item = (&'static str, K, Point)> {
    names.iter().flat_map(move |&name| {
        variants.clone().into_iter().map(move |(key, cfg)| {
            let machine = Machine::sweep(format!("{prefix}{key}"), cfg);
            (name, key, Point::new(Workload::Profile(name), machine))
        })
    })
}

/// Cold-start baseline points over the named profiles.
pub(crate) fn profiles(names: &'static [&'static str]) -> impl Iterator<Item = Point> {
    names.iter().map(|&n| Point::baseline(Workload::Profile(n)))
}

/// Cold-start baseline points over every executed kernel.
pub(crate) fn kernels() -> impl Iterator<Item = Point> {
    bmp_isa::NAMES
        .map(|n| Point::baseline(Workload::Kernel(n)))
        .into_iter()
}

#[cfg(test)]
mod tests {
    use super::*;
    use Artifact::{Analysis, Sim};

    /// Every trace the registry and the surrogate read, synthetic and
    /// executed: the cached compiled trace rebuilds the fresh synthesis
    /// op for op, so the short-lived traces the reference engine and the
    /// trace statistics read are exact.
    #[test]
    fn cached_traces_rebuild_every_op() {
        let scale = Scale {
            ops: 1_000,
            seed: 42,
        };
        let ctx = Ctx::new();
        let registry = crate::engine::experiment_defs()
            .iter()
            .flat_map(|d| (d.cells)())
            .map(|c| c.point.workload)
            .collect::<Vec<_>>();
        let surrogate = spec::NAMES
            .iter()
            .map(|&n| Workload::Profile(n))
            .chain(bmp_isa::NAMES.iter().map(|&n| Workload::Kernel(n)));
        let mut seen = std::collections::HashSet::new();
        for w in registry.into_iter().chain(surrogate) {
            if !seen.insert(w.name()) {
                continue;
            }
            let fresh = w.synthesize(scale);
            let cached = w.trace(&ctx, scale);
            assert_eq!(cached.len(), fresh.len(), "{}", w.name());
            for (i, op) in fresh.iter().enumerate() {
                assert_eq!(cached.op(i), *op, "{} op {i}", w.name());
            }
        }
        assert_eq!(seen.len() as u64, ctx.cache_stats().trace_misses);
        assert!(seen.len() > spec::NAMES.len() + bmp_isa::NAMES.len());
    }

    #[test]
    fn keys_follow_content_not_tags() {
        let key = |p: &Point, a| p.cell(a).key();
        let gzip = |machine| Point::new(Workload::Profile("gzip"), machine);
        let base = gzip(Machine::Baseline);
        let depth = |d| Machine::sweep("depth5", presets::deep_frontend(d).unwrap());
        // A sweep point equal to the baseline is the same work.
        assert_eq!(key(&base, Sim), key(&gzip(depth(5)), Sim));
        assert_ne!(key(&base, Sim), key(&gzip(depth(20)), Sim));
        assert_ne!(key(&base, Sim), key(&base, Analysis));
        // Sim options key sim cells only: an analysis ignores them.
        let warm = base.clone().with_mode(SimMode::Warmup);
        assert_ne!(key(&base, Sim), key(&warm, Sim));
        assert_eq!(key(&base, Analysis), key(&warm, Analysis));
        // A warm-up point's analysis cell is the cold point's.
        assert_eq!(warm.cell(Analysis).point, base.cell(Analysis).point);
    }
}
