//! The experiment implementations, one function per table/figure of the
//! reconstructed evaluation and its extensions (DESIGN.md, E-T1 … E-F11,
//! E-X1 … E-X11).

mod characterize;
mod extensions;
mod generations;
mod isa;
mod sensitivity;
mod tables;
mod validation;

pub use characterize::{
    fig11_penalty_distribution, fig1_interval_profile, fig2_penalty_per_benchmark,
    fig3_penalty_vs_interval, fig4_interval_distribution, fig5_contributor_breakdown,
};
pub use extensions::{
    ex1_predictor_study, ex2_window_sweep, ex3_closed_form, ex4_prefetch_study,
    ex5_occupancy_study, ex6_replacement_study, ex7_indirect_study, ex8_warmup_study,
};
pub use generations::{
    ex_h2p_contributors, ex_predictor_generations, generation_machine, generation_predictor,
    GENERATIONS, GENERATION_WORKLOADS,
};
pub use isa::{ex_isa_contributors, ex_isa_vs_synthetic, ISA_COMPARISON_WORKLOADS};
pub use sensitivity::{fig6_pipeline_depth, fig7_fu_latency, fig8_ilp, fig9_l1d_misses};
pub use tables::{table1_config, table2_benchmarks};
pub use validation::fig10_model_validation;
