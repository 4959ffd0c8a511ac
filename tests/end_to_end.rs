//! End-to-end integration tests spanning every crate: workload synthesis
//! → cycle-level simulation → interval-model analysis.

use mispredict::core::{cpi, IntervalEventKind, PenaltyModel};
use mispredict::sim::Simulator;
use mispredict::uarch::{presets, PredictorConfig};
use mispredict::workloads::{micro, spec};

const OPS: usize = 30_000;

#[test]
fn every_spec_profile_runs_through_the_full_stack() {
    let machine = presets::baseline_4wide();
    let sim = Simulator::new(machine.clone());
    let model = PenaltyModel::new(machine.clone());
    for profile in spec::all_profiles() {
        let trace = profile.generate(OPS, 3);
        let result = sim.run(&trace);
        assert_eq!(result.instructions, OPS as u64, "{}", profile.name);
        assert!(
            result.ipc() > 0.05 && result.ipc() <= 4.0,
            "{}",
            profile.name
        );

        let analysis = model.analyze(&trace);
        assert!(
            !analysis.breakdowns.is_empty(),
            "{} should mispredict sometimes",
            profile.name
        );
        // The headline invariant on every workload.
        let penalty = result.mean_penalty().expect("has mispredictions");
        assert!(
            penalty > f64::from(machine.frontend_depth),
            "{}: penalty {penalty} vs frontend {}",
            profile.name,
            machine.frontend_depth
        );
    }
}

#[test]
fn perfect_prediction_removes_branch_penalties_and_speeds_up() {
    let trace = spec::by_name("twolf").unwrap().generate(OPS, 5);
    let base = presets::baseline_4wide();
    let with_misses = Simulator::new(base.clone()).run(&trace);
    let perfect_cfg = base
        .to_builder()
        .predictor(PredictorConfig::Perfect)
        .build()
        .unwrap();
    let perfect = Simulator::new(perfect_cfg).run(&trace);
    // A perfect *direction* predictor removes exactly the conditional
    // mispredictions; indirect-jump targets (BTB) and RAS-overflow
    // returns legitimately remain.
    assert!(
        perfect.mispredicts.len() < with_misses.mispredicts.len(),
        "perfect run must mispredict less: {} vs {}",
        perfect.mispredicts.len(),
        with_misses.mispredicts.len()
    );
    for m in &perfect.mispredicts {
        let kind = trace
            .get(m.branch_idx)
            .and_then(|op| op.branch_info())
            .expect("mispredict points at a branch")
            .kind;
        assert!(
            !kind.is_conditional(),
            "oracle must not miss a conditional branch (got one at {})",
            m.branch_idx
        );
    }
    assert!(perfect.cycles < with_misses.cycles);
    // The two-run difference is roughly the per-event penalty times the
    // event count (overlap makes it inexact; demand the right order).
    let saved = (with_misses.cycles - perfect.cycles) as f64;
    let accounted = with_misses.mean_penalty().unwrap() * with_misses.mispredicts.len() as f64;
    let ratio = saved / accounted;
    assert!(
        (0.4..=1.6).contains(&ratio),
        "two-run saving {saved} vs accounted {accounted}"
    );
}

#[test]
fn event_kinds_respond_to_machine_knockouts() {
    // Knock out each miss source in turn and check its events vanish.
    let mut profile = spec::by_name("gcc").unwrap();
    profile.memory.hot_frac = 0.4; // plenty of data misses
    let trace = profile.generate(OPS, 7);

    let base = presets::baseline_4wide();
    let events_of = |cfg: &mispredict::uarch::MachineConfig| {
        let res = Simulator::new(cfg.clone()).run(&trace);
        res.events.iter().fold([0usize; 4], |mut acc, e| {
            let i = match e.kind {
                IntervalEventKind::BranchMispredict => 0,
                IntervalEventKind::ICacheMiss => 1,
                IntervalEventKind::ICacheLongMiss => 2,
                IntervalEventKind::LongDCacheMiss => 3,
            };
            acc[i] += 1;
            acc
        })
    };

    let all = events_of(&base);
    // Short vs long I-misses split depends on L2 pressure; require each
    // *category* (branch, I-side, D-side) rather than each kind.
    assert!(all[0] > 0, "baseline has branch events: {all:?}");
    assert!(all[1] + all[2] > 0, "baseline has I-cache events: {all:?}");
    assert!(all[3] > 0, "baseline has long D-miss events: {all:?}");

    let perfect = base
        .to_builder()
        .predictor(PredictorConfig::Perfect)
        .build()
        .unwrap();
    let no_branch = events_of(&perfect);
    // Indirect-target and RAS-overflow misses remain; the conditional-
    // direction misses vanish, cutting branch events substantially.
    assert!(
        no_branch[0] < all[0] / 2,
        "perfect predictor removes the conditional majority: {no_branch:?} vs {all:?}"
    );
    assert!(no_branch[3] > 0, "data misses remain");
}

#[test]
fn cpi_stack_tracks_simulator_within_bounds() {
    let machine = presets::baseline_4wide();
    for name in ["gzip", "gcc", "twolf", "crafty"] {
        let trace = spec::by_name(name).unwrap().generate(OPS, 11);
        let measured = Simulator::new(machine.clone()).run(&trace).cpi();
        let stack = cpi::predict(&trace, &machine).cpi();
        let sched = cpi::predict_cycles_scheduled(&trace, &machine) as f64 / OPS as f64;
        let stack_err = (stack - measured).abs() / measured;
        let sched_err = (sched - measured).abs() / measured;
        assert!(stack_err < 0.35, "{name}: stack CPI {stack} vs {measured}");
        assert!(sched_err < 0.35, "{name}: sched CPI {sched} vs {measured}");
    }
}

#[test]
fn microbenchmarks_isolate_their_contributor() {
    let wrong = presets::baseline_4wide()
        .to_builder()
        .predictor(PredictorConfig::AlwaysNotTaken)
        .build()
        .unwrap();
    let model = PenaltyModel::new(wrong.clone());

    // ILP kernel: contributor (iii) dominates the local resolution.
    let ilp_trace = micro::branch_resolution_kernel(OPS, 16, 1.0, 3);
    let a = model.analyze(&ilp_trace);
    let (base, ilp, fu, dmiss) = a.mean_contributions().unwrap();
    assert!(
        ilp > base + fu + dmiss,
        "chain kernel must be ILP-dominated: base {base}, ilp {ilp}, fu {fu}, dmiss {dmiss}"
    );

    // Memory kernel with L1-busting set: contributor (v) appears.
    let mem_trace = micro::memory_kernel(OPS, 256 * 1024, 4, false, 3);
    let sim_res = Simulator::new(wrong).run(&mem_trace);
    assert!(
        sim_res.hierarchy.short_dmisses > 100,
        "short misses expected, got {}",
        sim_res.hierarchy.short_dmisses
    );
}

#[test]
fn deterministic_end_to_end() {
    // Same profile + seed => identical simulation and analysis results.
    let machine = presets::baseline_4wide();
    let t1 = spec::by_name("vpr").unwrap().generate(OPS, 99);
    let t2 = spec::by_name("vpr").unwrap().generate(OPS, 99);
    assert_eq!(t1, t2);
    let r1 = Simulator::new(machine.clone()).run(&t1);
    let r2 = Simulator::new(machine.clone()).run(&t2);
    assert_eq!(r1.cycles, r2.cycles);
    assert_eq!(r1.events, r2.events);
    assert_eq!(r1.mispredicts, r2.mispredicts);
    let a1 = PenaltyModel::new(machine.clone()).analyze(&t1);
    let a2 = PenaltyModel::new(machine).analyze(&t2);
    assert_eq!(a1.breakdowns, a2.breakdowns);
}
