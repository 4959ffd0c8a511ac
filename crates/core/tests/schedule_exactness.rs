//! Exactness of the streaming whole-trace schedule: `drain::schedule_trace`
//! keeps op timings and the slot ledger in rings, and must produce the
//! same enter, issue and done cycles, field for field, as the reference
//! schedule below, which keeps every op's timing and a ledger as long
//! as the schedule — reading the trace in either layout.

use bmp_core::drain::{schedule_trace, FrontendEvent, MachineModel, OpTiming};
use bmp_core::{FunctionalOutcome, IntervalEventKind};
use bmp_trace::{MicroOp, OpView, Trace};
use bmp_uarch::{presets, LatencyTable, OpClass};
use bmp_workloads::spec;
use proptest::prelude::*;

/// The reference whole-trace schedule: per-op arrays and a per-cycle
/// slot ledger that grows with the schedule and is never recycled.
fn oracle(
    ops: &[MicroOp],
    model: MachineModel,
    lat: &LatencyTable,
    loads: &[Option<u32>],
    events: &[FrontendEvent],
) -> Vec<OpTiming> {
    let d = u64::from(model.dispatch_width.max(1));
    let w = model.window_size as usize;
    let r = model.rob_size as usize;
    let fe = u64::from(model.frontend_depth);
    let issue_width = model.issue_width.min(255) as u8;
    let mut total: Vec<u8> = Vec::new();
    let mut kinds: Vec<[u8; 5]> = Vec::new();
    let mut out: Vec<OpTiming> = Vec::with_capacity(ops.len());
    let mut cursor = 0u64;
    let mut count = 0u64;
    let mut next_event = 0usize;
    let mut pending_barrier: Option<u64> = None;
    for (i, op) in ops.iter().enumerate() {
        let mut mispredict_here = false;
        while let Some(ev) = events.get(next_event) {
            match *ev {
                FrontendEvent::FetchStall { pos, extra } if pos == i => {
                    cursor += u64::from(extra);
                    count = 0;
                }
                FrontendEvent::Mispredict { pos } if pos == i => mispredict_here = true,
                _ => break,
            }
            next_event += 1;
        }
        if let Some(b) = pending_barrier.take() {
            if b > cursor {
                cursor = b;
                count = 0;
            }
        }
        let mut floor = cursor;
        if i >= w {
            floor = floor.max(out[i - w].issue);
        }
        if i >= r {
            floor = floor.max(out[i - r].done);
        }
        if floor > cursor {
            cursor = floor;
            count = 0;
        }
        let e = cursor;
        count += 1;
        if count >= d {
            cursor += 1;
            count = 0;
        }
        let mut start = e + 1;
        for dist in op.src_distances() {
            let dist = dist as usize;
            if dist <= i {
                start = start.max(out[i - dist].done);
            }
        }
        let kind = op.class().fu_kind().index();
        let latency = u64::from(match op.class() {
            OpClass::Load => loads[i].unwrap_or_else(|| lat.latency(OpClass::Load)),
            c => lat.latency(c),
        })
        .max(1);
        let occ = match op.class() {
            OpClass::IntDiv | OpClass::FpDiv => latency as usize,
            _ => 1,
        };
        // Oldest-first slot search over the ever-growing ledger.
        let mut t = start as usize;
        loop {
            if t + occ >= total.len() {
                total.resize(t + occ + 64, 0);
                kinds.resize(t + occ + 64, [0; 5]);
            }
            if total[t] >= issue_width {
                t += 1;
                continue;
            }
            let busy = kinds[t..t + occ]
                .iter()
                .position(|row| row[kind] >= model.fu_counts[kind]);
            if let Some(c) = busy {
                t += c + 1;
                continue;
            }
            total[t] += 1;
            for row in &mut kinds[t..t + occ] {
                row[kind] += 1;
            }
            break;
        }
        let issue = t as u64;
        out.push(OpTiming {
            enter: e,
            issue,
            done: issue + latency,
        });
        if mispredict_here {
            pending_barrier = Some(issue + latency + fe);
        }
    }
    out
}

/// The streaming schedule over the array-of-structs slice and over its
/// compiled form, every visited op collected; the two must agree.
fn streamed(
    ops: &[MicroOp],
    model: MachineModel,
    lat: &LatencyTable,
    loads: &[Option<u32>],
    events: &[FrontendEvent],
) -> Vec<OpTiming> {
    let aos = collect(ops, model, lat, loads, events);
    let compiled = Trace::from_ops_unchecked(ops.to_vec()).compile();
    assert_eq!(
        aos,
        collect(&compiled, model, lat, loads, events),
        "the layouts agree"
    );
    aos
}

/// The streaming schedule over one layout, every visited op collected.
fn collect<T: OpView + ?Sized>(
    ops: &T,
    model: MachineModel,
    lat: &LatencyTable,
    loads: &[Option<u32>],
    events: &[FrontendEvent],
) -> Vec<OpTiming> {
    let mut out = Vec::with_capacity(ops.len());
    schedule_trace(
        ops,
        model,
        lat,
        |i| loads[i],
        events,
        |i, t| {
            assert_eq!(i, out.len(), "ops are visited once, in order");
            out.push(t);
        },
    );
    out
}

fn assert_exact(
    ops: &[MicroOp],
    model: MachineModel,
    lat: &LatencyTable,
    loads: &[Option<u32>],
    events: &[FrontendEvent],
) -> proptest::TestCaseResult {
    let got = streamed(ops, model, lat, loads, events);
    let want = oracle(ops, model, lat, loads, events);
    prop_assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        prop_assert_eq!(g, w, "op {} under {:?}", i, model);
    }
    Ok(())
}

/// Machine shapes: widths 1–8, windows 1–256, a ROB at least as large as
/// the window. Unit counts run from 1 to 4 per kind, and the mul/div
/// kinds often have a single unit, so a non-pipelined divide blocks its
/// unit for its whole latency and long bookings wrap the ledger ring.
fn arb_model() -> impl Strategy<Value = MachineModel> {
    (
        (1u32..=8, 1u32..=8, 1u32..=256, 0u32..=256, 0u32..=24),
        (1u8..=4, 1u8..=4, 1u8..=4, 1u8..=4, 1u8..=4),
        any::<bool>(),
    )
        .prop_map(
            |((dispatch, issue, window, extra_rob, fe), (a, b, c, d, e), single_div)| {
                let mut fu_counts = [a, b, c, d, e];
                if single_div {
                    fu_counts[1] = 1;
                    fu_counts[3] = 1;
                }
                MachineModel {
                    dispatch_width: dispatch,
                    issue_width: issue,
                    window_size: window,
                    rob_size: window + extra_rob,
                    frontend_depth: fe,
                    fu_counts,
                }
            },
        )
}

/// Frontend events of a functional pass: every misprediction, and every
/// I-cache miss as a fetch stall of `stall` cycles.
fn events_of(outcome: &FunctionalOutcome, stall: u32) -> Vec<FrontendEvent> {
    outcome
        .events
        .iter()
        .filter_map(|e| match e.kind {
            IntervalEventKind::BranchMispredict => Some(FrontendEvent::Mispredict { pos: e.pos }),
            IntervalEventKind::ICacheMiss | IntervalEventKind::ICacheLongMiss => {
                Some(FrontendEvent::FetchStall {
                    pos: e.pos,
                    extra: stall,
                })
            }
            IntervalEventKind::LongDCacheMiss => None,
        })
        .collect()
}

/// A divide-heavy trace: serial chains of integer and FP divides mixed
/// with loads, so bookings run far past the entry cycle.
fn divide_chain(n: usize) -> Vec<MicroOp> {
    (0..n)
        .map(|i| {
            let pc = i as u64 * 4;
            match i % 4 {
                0 => MicroOp::alu(pc, OpClass::IntDiv, [Some(4), None]),
                1 => MicroOp::alu(pc, OpClass::FpDiv, [Some(4), Some(1)]),
                2 => MicroOp::load(pc, 0x1000 + pc, [Some(2), None]),
                _ => MicroOp::alu(pc, OpClass::IntAlu, [Some(1), Some(3)]),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Spec-profile traces under random machines, latency scalings,
    /// fetch stalls and mispredictions. Every seventh load loses its
    /// recorded latency to exercise the table fallback.
    #[test]
    fn streamed_schedule_equals_reference_on_spec_traces(
        name in prop::sample::select(spec::NAMES.to_vec()),
        seed in 0u64..1_000,
        model in arb_model(),
        scale in 0.5f64..8.0,
        stall in 1u32..=300,
    ) {
        let trace = spec::by_name(name).expect("spec profile").generate(3_000, seed);
        let outcome = FunctionalOutcome::compute(trace.ops(), &presets::baseline_4wide());
        let mut loads: Vec<_> = (0..trace.len()).map(|i| outcome.load_latency(i)).collect();
        for (i, l) in loads.iter_mut().enumerate() {
            if (i as u64 + seed).is_multiple_of(7) {
                *l = None;
            }
        }
        let lat = LatencyTable::default().scaled(scale);
        assert_exact(trace.ops(), model, &lat, &loads, &events_of(&outcome, stall))?;
    }

    /// Executed RV32IM kernels: register reuse distances reach far past
    /// the window, so the timing ring is sized by the sources.
    #[test]
    fn streamed_schedule_equals_reference_on_kernel_traces(
        name in prop::sample::select(bmp_isa::NAMES.to_vec()),
        seed in 0u64..100,
        model in arb_model(),
        stall in 1u32..=300,
    ) {
        let trace = bmp_isa::kernel_trace(name, 4_000, seed).expect("kernel");
        let outcome = FunctionalOutcome::compute(trace.ops(), &presets::baseline_4wide());
        let lat = LatencyTable::default();
        let loads: Vec<_> = (0..trace.len()).map(|i| outcome.load_latency(i)).collect();
        assert_exact(trace.ops(), model, &lat, &loads, &events_of(&outcome, stall))?;
    }

    /// Divide chains and long loads under a single divider: divides hold
    /// their unit for their full latency, so the ledger must grow while
    /// live rows are kept at their cycles.
    #[test]
    fn streamed_schedule_equals_reference_on_divide_chains(
        model in arb_model(),
        scale in 1.0f64..8.0,
        load_lat in 1u32..=400,
        every in 2usize..=40,
    ) {
        let ops = divide_chain(2_000);
        let loads: Vec<Option<u32>> = (0..ops.len())
            .map(|i| (i % 4 == 2).then_some(if i % every == 2 { load_lat } else { 2 }))
            .collect();
        let events: Vec<FrontendEvent> = (0..ops.len())
            .step_by(every)
            .map(|pos| FrontendEvent::Mispredict { pos })
            .collect();
        let lat = LatencyTable::default().scaled(scale);
        assert_exact(&ops, model, &lat, &loads, &events)?;
    }
}

/// Sources past the start of the trace are ready, whatever their
/// distance: a decoded trace may carry `u32::MAX`, which must neither
/// size the timing ring nor index it.
#[test]
fn sources_before_the_trace_are_ready() {
    let ops: Vec<MicroOp> = (0..600)
        .map(|i| {
            let far = match i % 3 {
                0 => u32::MAX,
                1 => i + 1,
                _ => i + 1_000,
            };
            MicroOp::alu(u64::from(i) * 4, OpClass::IntAlu, [Some(far), Some(1)])
        })
        .collect();
    let model = MachineModel::from(&presets::baseline_4wide());
    let lat = LatencyTable::default();
    let loads = vec![None; ops.len()];
    let got = streamed(&ops, model, &lat, &loads, &[]);
    assert_eq!(got, oracle(&ops, model, &lat, &loads, &[]));
    // A pure chain through distance 1: one op per cycle after the first.
    assert_eq!(got[0].done, 2);
    assert_eq!(got[599].done, 601);
}

/// The ROB bounds how far back a source can bind. Op R − 1 waits on a
/// long load R − 1 ops back; op R names the same load, but the ROB cap
/// already held its entry until the load completed.
#[test]
fn sources_bind_up_to_the_rob() {
    let model = MachineModel::from(&presets::baseline_4wide());
    let r = model.rob_size as usize;
    let mut ops: Vec<MicroOp> = (0..r + 8)
        .map(|i| MicroOp::alu(i as u64 * 4, OpClass::IntAlu, [None, None]))
        .collect();
    ops[0] = MicroOp::load(0, 0x100, [None, None]);
    ops[r - 1] = MicroOp::alu(
        4 * (r as u64 - 1),
        OpClass::IntAlu,
        [Some(r as u32 - 1), None],
    );
    ops[r] = MicroOp::alu(4 * r as u64, OpClass::IntAlu, [Some(r as u32), None]);
    let lat = LatencyTable::default();
    let mut loads = vec![None; ops.len()];
    loads[0] = Some(1_000);
    let got = streamed(&ops, model, &lat, &loads, &[]);
    assert_eq!(got, oracle(&ops, model, &lat, &loads, &[]));
    assert_eq!(got[r - 1].issue, got[0].done, "the source binds");
    assert!(got[r].enter >= got[0].done, "the ROB cap binds first");
    assert_eq!(got[r].issue, got[r].enter + 1);
}

#[test]
fn empty_trace_visits_nothing() {
    let model = MachineModel::from(&presets::baseline_4wide());
    assert!(streamed(&[], model, &LatencyTable::unit(), &[], &[]).is_empty());
}
