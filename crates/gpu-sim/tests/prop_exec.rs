//! Property tests of the device simulator: resource conservation, timing
//! bounds, and completion guarantees for arbitrary kernel soups, with
//! residency read from the recorder's per-SMM samples.

use std::collections::HashMap;
use std::rc::Rc;

use desim::SimTime;
use gpu_arch::TaskShape;
use gpu_sim::{BlockWork, DeviceConfig, GpuDevice, Kernel, Notify, WarpWork};
use pagoda_obs::{Obs, Recording};
use proptest::prelude::*;

fn quiet() -> DeviceConfig {
    let mut c = DeviceConfig::titan_x();
    c.launch_issue_cost = desim::Dur::from_ps(0);
    c
}

/// Runs the device to quiescence, returning the tags of the kernels that
/// retired, in retirement order.
fn retire_all(dev: &mut GpuDevice) -> Vec<u64> {
    let (mut done, mut batch) = (Vec::new(), Vec::new());
    while dev.step_bounded_into(SimTime::MAX, &mut batch).is_some() {
        for n in &batch {
            if let Notify::KernelDone { tag } = *n {
                done.push(tag);
            }
        }
    }
    done
}

/// ∫ resident warps dt (warp·ps) over `[0, now]`, summed over the SMMs,
/// read from a recorded run's per-SMM samples: each SMM holds a sample's
/// `resident_warps` until its next sample, and its last one until `now`.
fn resident_warp_ps(rec: &Recording, now: SimTime) -> u128 {
    let mut last: HashMap<u32, (u64, u32)> = HashMap::new();
    let mut total = 0u128;
    for s in &rec.snapshot().smm {
        if let Some((at, warps)) = last.insert(s.sm, (s.at_ps, s.resident_warps)) {
            total += u128::from(warps) * u128::from(s.at_ps - at);
        }
    }
    let tails = last
        .values()
        .map(|&(at, warps)| u128::from(warps) * u128::from(now.as_ps() - at));
    total + tails.sum::<u128>()
}

/// A kernel of `s.tbs` threadblocks of `s.threads` threads with
/// `smem_kb` KB of shared memory each, every warp running `work`.
fn kernel(s: &KSpec, smem_kb: u32, work: WarpWork) -> Rc<Kernel> {
    let block = BlockWork::uniform(s.threads.div_ceil(32), work);
    Kernel::new(
        s.threads,
        smem_kb * 1024,
        false,
        vec![block; s.tbs as usize],
    )
    .unwrap()
}

#[derive(Debug, Clone)]
struct KSpec {
    threads: u32,
    tbs: u32,
    instrs: u64,
    cpi_tenths: u32,
    smem_kb: u32,
}

fn arb_kernel() -> impl Strategy<Value = KSpec> {
    (1u32..=1024, 1u32..=8, 0u64..500_000, 10u32..200, 0u32..=48).prop_map(
        |(threads, tbs, instrs, cpi_tenths, smem_kb)| KSpec {
            threads,
            tbs,
            instrs,
            cpi_tenths,
            smem_kb,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn every_launched_kernel_completes(specs in prop::collection::vec(arb_kernel(), 1..24)) {
        let mut dev = GpuDevice::new(quiet());
        let mut launched = Vec::new();
        for (i, s) in specs.iter().enumerate() {
            let work = WarpWork::compute(s.instrs, f64::from(s.cpi_tenths) / 10.0);
            if dev.launch_kernel(kernel(s, s.smem_kb, work), i as u64).is_ok() {
                launched.push(i as u64);
            }
        }
        let mut done = retire_all(&mut dev);
        done.sort_unstable();
        prop_assert_eq!(done, launched, "every accepted kernel must retire");
    }

    #[test]
    fn makespan_bounded_by_serial_and_ideal(specs in prop::collection::vec(arb_kernel(), 1..12)) {
        // The device can never beat perfect issue-bound parallelism, nor
        // be slower than running every warp alone back to back.
        let mut dev = GpuDevice::new(quiet());
        let mut total_work = 0f64;       // thread-instructions
        let mut serial_bound = 0f64;     // seconds
        for (i, s) in specs.iter().enumerate() {
            let cpi = f64::from(s.cpi_tenths) / 10.0;
            let k = kernel(s, 0, WarpWork::compute(s.instrs, cpi));
            let warps = k.total_warps() as f64;
            total_work += warps * s.instrs as f64;
            serial_bound += warps * (s.instrs as f64 * cpi / 32.0 / 1e9);
            prop_assume!(dev.launch_kernel(k, i as u64).is_ok());
        }
        retire_all(&mut dev);
        let t = dev.now().as_secs_f64();
        let ideal = total_work / (24.0 * 128e9);
        prop_assert!(t + 1e-12 >= ideal, "t={t} ideal={ideal}");
        prop_assert!(t <= serial_bound + 1e-6, "t={t} serial={serial_bound}");
    }

    #[test]
    fn occupancy_metrics_stay_in_range(specs in prop::collection::vec(arb_kernel(), 1..10)) {
        let mut dev = GpuDevice::new(quiet());
        let (obs, rec) = Obs::recording();
        dev.attach_obs(obs);
        for (i, s) in specs.iter().enumerate() {
            let _ = dev.launch_kernel(kernel(s, 0, WarpWork::compute(s.instrs, 4.0)), i as u64);
        }
        retire_all(&mut dev);
        let run = dev.avg_running_occupancy();
        // A run that ends at 0 holds nothing resident: 0, as for `run`.
        let slots_ps = f64::from(dev.spec().max_resident_warps()) * dev.now().as_ps().max(1) as f64;
        let res = resident_warp_ps(&rec, dev.now()) as f64 / slots_ps;
        prop_assert!((0.0..=1.0).contains(&run));
        prop_assert!((0.0..=1.0).contains(&res));
        prop_assert!(run <= res + 1e-9, "running {run} cannot exceed resident {res}");
    }
}

#[test]
fn occupancy_stats_reflect_residency() {
    let mut dev = GpuDevice::new(quiet());
    let (obs, rec) = Obs::recording();
    dev.attach_obs(obs);
    let mk = TaskShape {
        threads_per_tb: 1024,
        num_tbs: 48,
        regs_per_thread: 32,
        smem_per_tb: 32 * 1024,
    };
    let tbs = dev.launch_persistent(mk).unwrap();
    let w = tbs[0].warps[0];
    dev.assign_warp(w, WarpWork::compute(32_000, 4.0), 1);
    retire_all(&mut dev);
    // All 1536 warps resident the whole time.
    let now = dev.now();
    assert_eq!(resident_warp_ps(&rec, now), 1536 * u128::from(now.as_ps()));
    // Only one warp ever ran.
    let run = dev.avg_running_occupancy();
    assert!((run - 1.0 / 1536.0).abs() < 1e-6, "running occ {run}");
}
