//! Host-speed calibration.
//!
//! The benchmark runs on shared hosts whose speed drifts by tens of
//! percent over minutes, which no amount of repetition inside one run
//! averages away. Each pass therefore also times a fixed calibration
//! loop, before and after the pass. The loop lives in this directory
//! and never changes with the program, so the ratio of a pass's time to
//! the loop's time measures the program, not the host.
//!
//! The loop is a pseudo-random read-modify-write walk with
//! data-dependent branches over three table sizes (L1-, L2- and
//! L3-resident), because the workloads mix all three. The largest table
//! is 4 MB, well under every workload's peak RSS, so the loop run
//! before the pass does not set the peak.

use std::time::Instant;

/// [`calibrate`]'s result on a quiet 2-vCPU Xeon host: reported times
/// are host seconds × `REFERENCE_S / calibrate()`, seconds on that host.
pub const REFERENCE_S: f64 = 0.016;

/// One walk of `steps` pseudo-random accesses over `1 << log2_len`
/// words; returns its wall time in seconds.
fn walk(log2_len: u32, steps: u64) -> f64 {
    let mask = (1usize << log2_len) - 1;
    let mut table: Vec<u32> = (0..=mask as u32)
        .map(|i| i.wrapping_mul(2_654_435_761))
        .collect();
    let t0 = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc: u64 = 0;
    for _ in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = x as usize & mask;
        let v = table[i];
        if v & 1 == 0 {
            acc = acc.wrapping_add(u64::from(v));
        } else {
            acc ^= u64::from(v);
        }
        if x >> 61 == 0 {
            table[i] = v.wrapping_add(acc as u32);
        }
    }
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64()
}

/// Wall time of the calibration loop, in seconds: the geometric mean of
/// three walks over 16 KB, 256 KB and 4 MB.
pub fn calibrate() -> f64 {
    let walks = [
        walk(12, 6_000_000),
        walk(16, 5_000_000),
        walk(20, 3_000_000),
    ];
    walks.iter().product::<f64>().cbrt()
}
