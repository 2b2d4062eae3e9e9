//! Machine-speed calibration for the wall-clock throughput figure.
//!
//! On a shared VM the speed of identical passes drifts in phases of
//! seconds to minutes (other tenants' load on shared cores and caches;
//! no steal time is visible from inside). A fixed kernel timed right
//! after each pass slows down with it, so `rate × kernel time` stays
//! put while both drift. The kernel is the benchmark's own code — a
//! deterministic, allocation-heavy ordered-map churn, the access
//! pattern the simulator and runtime are made of — and calls nothing
//! in the program. It runs in a fresh child process, so the heap a
//! pass leaves behind (its fragmentation, the allocator's trim and
//! mmap thresholds) cannot reach it either: a change to the program
//! cannot move the kernel's time.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// Kernel time, in seconds, that defines the reference machine speed:
/// a pass's rate is scaled by `kernel time / REFERENCE_S`. Any fixed
/// value gives the same comparisons; this one is the kernel's time on
/// an unloaded 2-vCPU Xeon VM, so scaled rates read close to raw ones.
pub const REFERENCE_S: f64 = 0.040;

/// The first argument that makes the binary run the kernel, print its
/// time and exit, instead of running a workload.
pub const FLAG: &str = "--calibrate";

/// Kernel runs per measurement; the fastest counts.
const RUNS: usize = 3;

fn kernel() -> f64 {
    let t0 = Instant::now();
    let mut map: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut x: u64 = 1;
    for i in 0..200_000u64 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        map.insert(x % 50_000, vec![i; (x % 7) as usize]);
        if i % 3 == 0 {
            map.remove(&((x >> 7) % 50_000));
        }
    }
    black_box(&map);
    t0.elapsed().as_secs_f64()
}

/// The child's side: print the fastest of a few kernel runs, in
/// seconds.
pub fn serve() {
    let best = (0..RUNS).map(|_| kernel()).fold(f64::INFINITY, f64::min);
    println!("{best}");
}

/// Run the kernel in a fresh child process of this binary and return
/// its time, in seconds. The child has ended when this returns.
pub fn measure() -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("calibration: {e}"))?;
    let out = Command::new(exe)
        .arg(FLAG)
        .output()
        .map_err(|e| format!("calibration: {e}"))?;
    if !out.status.success() {
        return Err(format!("calibration child exited with {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse::<f64>()
        .map_err(|e| format!("calibration child printed no time: {e}"))
}
