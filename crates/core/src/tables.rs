//! The published tables' schemas: each CSV's name and columns, declared
//! once.
//!
//! Every experiment of the reproduction writes one table to
//! `results/<id>.csv`. The experiment takes its registry name and its
//! header from the table's [`TableSchema`] here, and `bmp-lint --static`
//! finds a CSV's checks by matching its header line against the same
//! schemas and reads the cells by column name ([`col`]), so renaming or
//! reordering a column changes the producer and the checks together.

/// One published table: its CSV file stem and its columns, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableSchema {
    /// Stable identifier: the experiment's registry name and the CSV
    /// file stem.
    pub id: &'static str,
    /// Column headers, in CSV order.
    pub columns: &'static [&'static str],
}

impl TableSchema {
    /// The CSV header line (no line terminator).
    pub fn header(&self) -> String {
        self.columns.join(",")
    }

    /// The position of the column named `name`, if the table has it.
    pub fn column(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| *c == name)
    }
}

/// Declares one `&str` constant per column name.
macro_rules! columns {
    ($($name:ident = $text:literal,)*) => {
        $(#[doc = concat!("The `", $text, "` column.")] pub const $name: &str = $text;)*
    };
}

/// Declares one [`TableSchema`] constant per table, and [`ALL`] in
/// declaration order.
macro_rules! schemas {
    ($($name:ident = $id:literal [$($column:expr),* $(,)?];)*) => {
        $(
            #[doc = concat!("`results/", $id, ".csv`.")]
            pub const $name: TableSchema = TableSchema { id: $id, columns: &[$($column),*] };
        )*

        /// Every published table, in registry order (the order `run_all`
        /// reports the experiments).
        pub const ALL: &[TableSchema] = &[$($name),*];
    };
}

/// Column names that more than one table has or that a static check
/// reads; a column only its own table names is a literal in its schema.
pub mod col {
    columns! {
        BENCHMARK = "benchmark",
        WORKLOAD = "workload",
        PREDICTOR = "predictor",
        IPC = "IPC",
        BR_MISS_RATE = "br-miss-rate",
        BR_MPKI = "br-MPKI",
        L1I_MPKI = "L1I-MPKI",
        LONG_D_MPKI = "long-D-MPKI",
        L1D_MISS_RATE = "l1d-miss-rate",
        FRONTEND_DEPTH = "frontend-depth",
        MEASURED_PENALTY = "measured-penalty",
        MODEL_PENALTY = "model-penalty",
        MEAN_PENALTY = "mean-penalty",
        MEASURED_RESOLUTION = "measured-resolution",
        MODEL_RESOLUTION = "model-resolution",
        SIM_RESOLUTION = "sim-resolution",
        MODEL_LOCAL_RESOLUTION = "model-local-resolution",
        MODEL_EFFECTIVE_RESOLUTION = "model-effective-resolution",
        INTERVAL_BUCKET_LO = "interval-bucket-lo",
        N_MEASURED = "n-measured",
        FRACTION = "fraction",
        MEASURED_FRAC = "measured-frac",
        MODEL_FRAC = "model-frac",
        FRONTEND_I = "frontend(i)",
        BASE = "base",
        ILP_III = "ilp(iii)",
        FU_LATENCY_IV = "fu-latency(iv)",
        SHORT_DMISS_V = "short-dmiss(v)",
        CARRYOVER_II = "carryover(ii)",
        TOTAL_PENALTY = "total-penalty",
        LATENCY_SCALE = "latency-scale",
        MODEL_FU_SHARE_IV = "model-fu-share(iv)",
        CHAIN_LENGTH = "chain-length",
        MODEL_ILP_SHARE_III = "model-ilp-share(iii)",
        MODEL_SHORT_DMISS_SHARE_V = "model-short-dmiss-share(v)",
        EVENTS_AGREE = "events-agree",
        CORRELATION = "correlation",
        SIM_CPI = "sim-CPI",
        STACK_CPI = "stack-CPI",
        SCHED_CPI = "sched-CPI",
        WINDOW = "window",
        ROB = "rob",
        SIM_EFFECTIVE = "sim-effective",
        MODEL_EFFECTIVE = "model-effective",
        MODEL_LOCAL = "model-local",
        CLOSED_FORM = "closed-form",
        SLOTS_USED = "slots-used",
        SLOTS_FRONTEND = "slots-frontend",
        SLOTS_ROB = "slots-rob",
        SLOTS_WINDOW = "slots-window",
        MEAN_BASE = "mean-base",
        MEAN_ILP = "mean-ilp",
        MEAN_FU = "mean-fu",
        MEAN_DMISS = "mean-dmiss",
        CLASS = "class",
        SITES = "sites",
        INTERVALS = "intervals",
        ILP = "ilp",
        FU = "fu",
        DMISS = "dmiss",
        LOCAL = "local",
        REFILL = "refill",
        TOTAL = "total",
    }
}

use col::*;

schemas! {
    TABLE1 = "table1_config" ["parameter", "value"];
    TABLE2 = "table2_benchmarks" [BENCHMARK, IPC, BR_MISS_RATE, BR_MPKI, L1I_MPKI, "L1D-MPKI",
        "L2-MPKI", LONG_D_MPKI];
    FIG1 = "fig1_interval_profile" ["cycle-rel-to-mispredict-fetch", "mean-dispatch-rate"];
    FIG2 = "fig2_penalty_per_benchmark" [BENCHMARK, MEASURED_PENALTY, "two-run-penalty",
        MODEL_PENALTY, FRONTEND_DEPTH, MEASURED_RESOLUTION];
    FIG3 = "fig3_penalty_vs_interval" [BENCHMARK, INTERVAL_BUCKET_LO, N_MEASURED,
        MEASURED_RESOLUTION, MODEL_LOCAL_RESOLUTION, MODEL_EFFECTIVE_RESOLUTION];
    FIG4 = "fig4_interval_distribution" [BENCHMARK, INTERVAL_BUCKET_LO, FRACTION, "count"];
    FIG5 = "fig5_contributor_breakdown" [BENCHMARK, FRONTEND_I, BASE, ILP_III, FU_LATENCY_IV,
        SHORT_DMISS_V, CARRYOVER_II, TOTAL_PENALTY];
    FIG6 = "fig6_pipeline_depth" [BENCHMARK, FRONTEND_DEPTH, MEASURED_PENALTY,
        MEASURED_RESOLUTION, MODEL_PENALTY, IPC];
    FIG7 = "fig7_fu_latency" [WORKLOAD, LATENCY_SCALE, MEASURED_RESOLUTION, MODEL_RESOLUTION,
        MODEL_FU_SHARE_IV];
    FIG8 = "fig8_ilp" [CHAIN_LENGTH, MEASURED_RESOLUTION, MODEL_RESOLUTION, MODEL_ILP_SHARE_III];
    FIG9 = "fig9_l1d_misses" ["l1d-size-KiB", L1D_MISS_RATE, MEASURED_RESOLUTION,
        MODEL_RESOLUTION, MODEL_SHORT_DMISS_SHARE_V];
    FIG10 = "fig10_model_validation" [BENCHMARK, EVENTS_AGREE, SIM_RESOLUTION, MODEL_RESOLUTION,
        "resolution-err", CORRELATION, SIM_CPI, STACK_CPI, SCHED_CPI];
    FIG11 = "fig11_penalty_distribution" [BENCHMARK, "resolution-bucket-lo", MEASURED_FRAC,
        MODEL_FRAC, "measured-n"];
    EX1 = "ex1_predictor_study" [BENCHMARK, PREDICTOR, BR_MISS_RATE, BR_MPKI, MEAN_PENALTY, IPC];
    EX2 = "ex2_window_sweep" [BENCHMARK, WINDOW, ROB, MEASURED_RESOLUTION, MODEL_RESOLUTION, IPC];
    EX3 = "ex3_closed_form" [BENCHMARK, SIM_EFFECTIVE, MODEL_EFFECTIVE, MODEL_LOCAL, CLOSED_FORM,
        "closed-form-err-vs-local"];
    EX4 = "ex4_prefetch_study" [BENCHMARK, "prefetch", L1D_MISS_RATE, LONG_D_MPKI, MEAN_PENALTY,
        IPC, "prefetches"];
    EX5 = "ex5_occupancy_study" [BENCHMARK, "mean-occupancy", "rob-full-frac", SLOTS_USED,
        SLOTS_FRONTEND, SLOTS_ROB, SLOTS_WINDOW, "mean-resolution"];
    EX6 = "ex6_replacement_study" [BENCHMARK, "policy", L1D_MISS_RATE, LONG_D_MPKI, IPC];
    EX7 = "ex7_indirect_study" [BENCHMARK, "target-predictor", "indirect-miss-rate",
        "indirect-misses", "cond-misses", IPC];
    EX8 = "ex8_warmup_study" [BENCHMARK, "mode", IPC, LONG_D_MPKI, L1I_MPKI, MEAN_PENALTY];
    EX_GENERATIONS = "ex_predictor_generations" [BENCHMARK, PREDICTOR, BR_MISS_RATE, BR_MPKI,
        MEAN_PENALTY, MEAN_BASE, MEAN_ILP, MEAN_FU, MEAN_DMISS, IPC];
    EX_H2P = "ex_h2p_contributors" [BENCHMARK, CLASS, SITES, INTERVALS, BASE, ILP, FU, DMISS,
        LOCAL, REFILL, TOTAL];
    EX_ISA = "ex_isa_contributors" ["kernel", "ops", BR_MISS_RATE, BR_MPKI, MEAN_PENALTY,
        MEAN_BASE, MEAN_ILP, MEAN_FU, MEAN_DMISS, IPC];
    EX_ISA_VS_SYNTHETIC = "ex_isa_vs_synthetic" ["source", WORKLOAD, "branch-frac", "mem-frac",
        "mean-dep-dist", "avg-taken-run", BR_MISS_RATE, "sim-penalty", MODEL_PENALTY, IPC];
}
