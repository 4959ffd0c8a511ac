//! Every workload and metric the benchmark emits. `BENCHMARK.json` at
//! the repository root lists the same names; a test keeps the two equal.

/// A metric's name, unit and which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Name as printed in the result line.
    pub name: &'static str,
    /// Unit as printed in the result line.
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: true,
    }
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["suite", "sweep", "model", "kernels"];

/// End-to-end metrics, measured on untraced passes.
pub const END_TO_END: [Metric; 3] = [
    lower("pass_s", "s"),
    lower("setup_s", "s"),
    lower("peak_rss_mb", "MB"),
];

/// Per-layer metrics, measured on traced passes. Times are self times
/// per pass; counts are per pass.
pub const PER_LAYER: [Metric; 35] = [
    lower("workloads.generate_s", "s"),
    lower("workloads.generate_calls", "count"),
    lower("workloads.ns_per_op", "ns/op"),
    lower("isa.kernel_trace_s", "s"),
    lower("isa.kernel_trace_calls", "count"),
    lower("isa.ns_per_op", "ns/op"),
    lower("trace.compile_s", "s"),
    lower("trace.superblock_s", "s"),
    higher("trace.mean_region_len", "ops"),
    lower("sim.run_s", "s"),
    lower("sim.execute_s", "s"),
    lower("sim.assemble_s", "s"),
    lower("sim.runs", "count"),
    higher("sim.mips", "Minstr/s"),
    lower("sim.ns_per_cycle", "ns/cycle"),
    lower("sim.cycles", "cycles"),
    lower("sim.instructions", "count"),
    lower("branch.mispredicts", "count"),
    lower("cache.l1d_misses", "count"),
    lower("cache.long_dmisses", "count"),
    lower("core.analyze_s", "s"),
    lower("core.analyze_calls", "count"),
    lower("core.ns_per_op", "ns/op"),
    lower("analyze.static_bounds_s", "s"),
    lower("analyze.static_calls", "count"),
    lower("bench.run_all_s", "s"),
    lower("bench.unattributed_s", "s"),
    lower("bench.io_s", "s"),
    lower("bench.surrogate_s", "s"),
    lower("bench.cells", "count"),
    lower("bench.cells_requested", "count"),
    higher("bench.memo_hit_ratio", "ratio"),
    lower("bench.sims_computed", "count"),
    lower("tracing.overhead_pct", "%"),
    higher("tracing.coverage_pct", "%"),
];
