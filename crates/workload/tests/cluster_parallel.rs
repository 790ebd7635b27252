//! Calendar-clock contracts: `ClockKind::Parallel` (the calendar clock,
//! which advances busy lanes inline at every pool width) must be
//! **bit-identical** to the reference serial clock — every completion
//! timestamp, migration, preemption count and histogram bin — for every
//! sharing system, any replica count, any `advance_order` permutation
//! and any pool worker count.
//!
//! The pool's worker count is fixed when the first parallel call builds
//! it (`SGDRC_THREADS` honored at pool build), so one process cannot
//! sweep worker counts itself; CI runs this suite under
//! `SGDRC_THREADS=2` and `SGDRC_THREADS=4` in addition to the default
//! 1-worker run, which is how the {1, 2, 4, 8} axis of the equivalence
//! matrix is actually exercised (8 via the bench's self-exec probes).

use gpu_spec::GpuModel;
use proptest::prelude::*;
use workload::cluster::{ClockKind, ClusterConfig, ControllerConfig, RouterKind};
use workload::trace::TraceConfig;
use workload::SystemKind;

fn short_horizon() -> f64 {
    if cfg!(debug_assertions) {
        1e5
    } else {
        2.5e5
    }
}

fn run_with_clock(
    cfg: &ClusterConfig,
    router: RouterKind,
    clock: ClockKind,
) -> workload::ClusterResult {
    let mut cfg = cfg.clone();
    cfg.clock = clock;
    let mut r = router.make(cfg.seed);
    workload::run_cluster(&cfg, r.as_mut())
}

/// Every sharing system, heterogeneous 4-replica fleet, controller
/// ticking with adaptive Ch_BE: the parallel epoch clock reproduces the
/// serial clock exactly.
#[test]
fn parallel_clock_matches_serial_clock_for_every_system() {
    let gpus = vec![
        GpuModel::RtxA2000,
        GpuModel::Gtx1080,
        GpuModel::RtxA2000,
        GpuModel::Gtx1080,
    ];
    for system in SystemKind::all() {
        let mut cfg = ClusterConfig::new(gpus.clone(), system);
        cfg.horizon_us = short_horizon();
        cfg.trace = TraceConfig::apollo_like().scaled(2.0).with_bursts(2.0, 0.3);
        cfg.controller = ControllerConfig {
            period_us: 2e4,
            breach_ratio: 0.9,
            adaptive_ch_be: true,
            ..Default::default()
        };
        let serial = run_with_clock(&cfg, RouterKind::ShortestBacklog, ClockKind::Serial);
        let parallel = run_with_clock(&cfg, RouterKind::ShortestBacklog, ClockKind::Parallel);
        assert_eq!(
            serial,
            parallel,
            "{}: parallel fleet clock diverged from the serial clock",
            system.name()
        );
        assert!(serial.requests > 0, "{}: degenerate case", system.name());
    }
}

/// The parallel clock ignores `advance_order` (placement is scheduling,
/// not semantics): a serial run under any permutation equals a parallel
/// run under any other.
#[test]
fn parallel_clock_is_invariant_to_advance_order() {
    let mut cfg = ClusterConfig::new(
        vec![GpuModel::RtxA2000, GpuModel::Gtx1080, GpuModel::TeslaP40],
        SystemKind::Sgdrc,
    );
    cfg.horizon_us = short_horizon();
    cfg.trace = TraceConfig::apollo_like()
        .scaled(2.2)
        .with_diurnal(0.3, 0.3);
    cfg.controller.period_us = 2e4;
    let baseline = run_with_clock(&cfg, RouterKind::P2cSlo, ClockKind::Parallel);
    for order in [vec![2, 0, 1], vec![1, 2, 0]] {
        let mut serial_cfg = cfg.clone();
        serial_cfg.advance_order = order.clone();
        let serial = run_with_clock(&serial_cfg, RouterKind::P2cSlo, ClockKind::Serial);
        assert_eq!(baseline, serial, "order {order:?}");
        let mut par_cfg = cfg.clone();
        par_cfg.advance_order = order.clone();
        let parallel = run_with_clock(&par_cfg, RouterKind::P2cSlo, ClockKind::Parallel);
        assert_eq!(baseline, parallel, "parallel under order {order:?}");
    }
}

/// Deterministic permutation of `0..n` from a seed (Fisher–Yates over a
/// splitmix64 chain) — lets the property below draw arbitrary
/// `advance_order`s from one sampled integer.
fn permutation(n: usize, mut seed: u64) -> Vec<usize> {
    let split = |z: &mut u64| {
        *z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = *z;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    };
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (split(&mut seed) % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    perm
}

proptest! {
    /// Random fleets (size, GPU mix, system, router, trace intensity,
    /// seed) under random `advance_order` permutations: serial and
    /// parallel clocks agree bit for bit. Runs under whatever pool the
    /// process was started with — the CI matrix supplies the
    /// multi-worker pools.
    #[test]
    fn serial_and_parallel_clocks_agree(
        n_replicas in 1usize..5,
        gpu_bits in 0u64..16,
        system_idx in 0usize..6,
        router_idx in 0usize..3,
        scale in 0.8f64..2.6,
        seed in 0u64..1_000_000,
        perm_seed in 0u64..1_000_000,
    ) {
        // P40 excluded: MPS (one of the sampled systems) cannot run on
        // it, and capability filtering is not what this property tests.
        let models = [GpuModel::RtxA2000, GpuModel::Gtx1080];
        let gpus: Vec<GpuModel> = (0..n_replicas)
            .map(|r| models[((gpu_bits >> r) & 1) as usize])
            .collect();
        let system = SystemKind::all()[system_idx];
        let router = RouterKind::all()[router_idx];
        let mut cfg = ClusterConfig::new(gpus, system);
        cfg.horizon_us = if cfg!(debug_assertions) { 2.5e4 } else { 6e4 };
        cfg.trace = TraceConfig::apollo_like().scaled(scale);
        cfg.seed = seed;
        cfg.controller = ControllerConfig {
            period_us: 1.2e4,
            breach_ratio: 0.9,
            adaptive_ch_be: true,
            ..Default::default()
        };
        cfg.advance_order = permutation(n_replicas, perm_seed);
        let serial = run_with_clock(&cfg, router, ClockKind::Serial);
        let parallel = run_with_clock(&cfg, router, ClockKind::Parallel);
        prop_assert_eq!(serial, parallel);
    }
}
