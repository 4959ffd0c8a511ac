//! Burstiness study: why clustered miss events are (individually) cheap.
//!
//! Contributor (ii) of the penalty is the number of instructions since
//! the last miss event. This example builds two custom workloads with the
//! same misprediction *count* but different clustering, and shows the
//! per-misprediction resolution differ exactly as interval analysis
//! predicts: branches dispatched into an emptier window resolve faster.
//!
//! ```text
//! cargo run --release --example burstiness_study
//! ```

use mispredict::core::{intervals::bucket_label, PenaltyModel};
use mispredict::sim::Simulator;
use mispredict::uarch::{presets, PredictorConfig};
use mispredict::workloads::{ProfileBuilder, WorkloadProfile};

fn run(label: &str, profile: &WorkloadProfile) {
    let machine = presets::baseline_4wide()
        .to_builder()
        .predictor(PredictorConfig::default())
        .build()
        .expect("valid machine");
    let trace = profile.generate(150_000, 11);
    let result = Simulator::new(machine.clone()).run(&trace);
    let analysis = PenaltyModel::new(machine).analyze(&trace);

    println!("\n== {label} ==");
    println!(
        "mispredictions: {}   mean measured resolution: {:.1} cycles",
        result.mispredicts.len(),
        result.mean_resolution().unwrap_or(0.0),
    );
    println!("resolution vs. instructions-since-last-event (model, window-ramp-up):");
    for (bucket, mean, n) in analysis.local_resolution_by_interval_length() {
        let bar = "#".repeat((mean / 2.0).round() as usize);
        let lo = bucket_label(bucket);
        println!("  >= {lo:>4} insts : {mean:>6.1} cycles  ({n:>5} events) {bar}");
    }
}

fn main() {
    // Bursty: small blocks and mostly-hard branches -> events cluster.
    let bursty = ProfileBuilder::new("bursty")
        .block_size(4.0)
        .hard_branches(0.7)
        .dependence_distance(2.5)
        .build()
        .expect("valid bursty profile");

    // Spread: large blocks, mostly-easy branches -> rare, isolated events.
    let spread = ProfileBuilder::new("spread")
        .block_size(14.0)
        .hard_branches(0.05)
        .dependence_distance(2.5)
        .build()
        .expect("valid spread profile");

    run("bursty events (short intervals dominate)", &bursty);
    run("spread events (long intervals dominate)", &spread);

    println!(
        "\nBoth workloads share machine and ILP structure; the ramp-up curves are the\n\
         same shape, but the bursty workload's mispredictions sit on the cheap left\n\
         end — its *average* penalty is lower even though each event costs the same\n\
         at equal interval length. That is contributor (ii)."
    );
}
