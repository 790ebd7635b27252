//! `perfbench` — the simulator's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fleet-8|fleet-512|overload-tiers|fig17-sweep> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with nothing traced;
//! `--trace 1` gives the per-layer ledger (see `layers.rs`). The last
//! line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md` for
//! the workloads, the metrics and the layer each one belongs to.

mod digest;
mod layers;
mod report;
mod sys;
mod workloads;

use report::{Metric, Report};
use std::process::Command;
use std::time::{Duration, Instant};
use workloads::{PassOutcome, Prepared, Workload};

/// Cold set-ups measured per run, one per child process; `setup_s` is
/// their mean.
const SETUP_PROCS: usize = 21;
/// Fewest measured passes per run, however long they take.
const MIN_PASSES: usize = 3;

/// Parsed command line.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny horizons, for the schema tests.
    pub smoke: bool,
    /// Child mode: one cold set-up, timed from process start.
    pub setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut smoke = false;
    let mut setup_probe = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--smoke" => smoke = true,
            "--setup-probe" => setup_probe = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        smoke,
        setup_probe,
    })
}

/// Caps the pool at the CPUs the process may use: the benchmark never
/// oversubscribes the host, whatever `SGDRC_THREADS` asks for. Must run
/// before the first parallel call builds the pool.
fn cap_pool_width() {
    let cpus = sys::detected_cpus();
    let asked = std::env::var(rayon::THREADS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok());
    if asked.is_some_and(|n| n > cpus) {
        std::env::set_var(rayon::THREADS_ENV, cpus.to_string());
    }
}

/// Set-up timings of one run, at the reference host's speed.
pub struct Setup {
    /// Mean seconds from process start to the first simulated event.
    pub mean_s: f64,
    /// Mean cold compile-and-profile time of the workload's deployments
    /// (ms), and of the prepare step after it (ms).
    pub deploy_ms: f64,
    pub prepare_ms: f64,
    pub kernels_compiled: u64,
}

/// One cold set-up in this fresh process (`--setup-probe`): compile and
/// profile every deployment the workload uses, then prepare it. Prints
/// the seconds from process start to the end, and the two phases.
fn setup_probe(args: &Args, start: Instant) {
    let t = Instant::now();
    for g in args.workload.gpus() {
        workload::Deployment::cached(g);
    }
    let deploy_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let prepared = workloads::prepare(args.workload, args.seed, args.smoke, false);
    let prepare_s = t.elapsed().as_secs_f64();
    let total_s = start.elapsed().as_secs_f64();
    drop(prepared);
    println!("setup_probe: {total_s} {deploy_s} {prepare_s}");
}

/// Times `SETUP_PROCS` cold set-ups, each in a fresh child process, and
/// scales them to the reference host's speed by the median of a canary
/// run before each.
/// Fresh processes because one process's set-ups all share its memory
/// layout, which moves set-up time by up to half between processes.
fn set_up(args: &Args) -> Setup {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let mut canaries = Vec::new();
    let mut probes: Vec<[f64; 3]> = Vec::new();
    for _ in 0..SETUP_PROCS {
        canaries.push(sys::canary());
        let mut cmd = Command::new(&exe);
        cmd.args(["--setup-probe", "--workload", args.workload.name()]);
        cmd.args(["--seed", &args.seed.to_string()]);
        if args.smoke {
            cmd.arg("--smoke");
        }
        let out = cmd.output().expect("run a set-up probe");
        assert!(out.status.success(), "a set-up probe failed");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let fields: Vec<f64> = stdout
            .lines()
            .find_map(|l| l.strip_prefix("setup_probe: "))
            .expect("the probe's timing line")
            .split_whitespace()
            .map(|v| v.parse().expect("a number of seconds"))
            .collect();
        probes.push([fields[0], fields[1], fields[2]]);
    }
    let (speed, _) = sys::Canary::speeds(&canaries);
    let mean = |i: usize| probes.iter().map(|p| p[i]).sum::<f64>() / probes.len() as f64 * speed;
    let kernels_compiled = args
        .workload
        .gpus()
        .into_iter()
        .map(workload::Deployment::cached)
        .map(|d| {
            d.ls_tasks
                .iter()
                .chain(d.be_tasks.iter())
                .map(|t| t.kernels.len() as u64)
                .sum::<u64>()
        })
        .sum();
    Setup {
        mean_s: mean(0),
        deploy_ms: mean(1) * 1e3,
        prepare_ms: mean(2) * 1e3,
        kernels_compiled,
    }
}

/// One measured pass.
pub struct Sample {
    /// Measured wall and CPU seconds.
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Reference canary time over the canary's wall and CPU time
    /// around this pass (below 1 when the host ran slower than the
    /// reference).
    pub speed: f64,
    pub cpu_speed: f64,
    pub outcome: PassOutcome,
}

impl Sample {
    /// Wall seconds at the reference host's speed.
    pub fn wall_ref_s(&self) -> f64 {
        self.wall_s * self.speed
    }

    /// CPU seconds at the reference host's speed.
    pub fn cpu_ref_s(&self) -> f64 {
        self.cpu_s * self.cpu_speed
    }
}

/// Runs passes until `budget` has elapsed (and at least `MIN_PASSES`),
/// timing each between two runs of the box-speed canary.
fn measure(p: &mut Prepared, budget: Duration) -> Vec<Sample> {
    let t0 = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_PASSES || t0.elapsed() < budget {
        let canary_before = sys::canary();
        let cpu = sys::process_cpu_time();
        let t = Instant::now();
        let r = workloads::run_pass(p);
        let wall_s = t.elapsed().as_secs_f64();
        let cpu_s = (sys::process_cpu_time() - cpu).as_secs_f64();
        let (speed, cpu_speed) = sys::Canary::speeds(&[canary_before, sys::canary()]);
        samples.push(Sample {
            wall_s,
            cpu_s,
            speed,
            cpu_speed,
            outcome: workloads::outcome(p, &r),
        });
    }
    samples
}

pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median wall seconds per pass at the reference host's speed.
pub fn wall_per_pass(samples: &[Sample]) -> f64 {
    median(&samples.iter().map(Sample::wall_ref_s).collect::<Vec<_>>())
}

/// Prints every pass's measured wall time and host speed.
fn print_passes(samples: &[Sample]) {
    let list = |f: fn(&Sample) -> f64| {
        samples
            .iter()
            .map(|s| format!("{:.4}", f(s)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "passes: {}  wall_per_pass_s: {}  (at reference host speed)",
        samples.len(),
        wall_per_pass(samples)
    );
    println!("  measured wall_s: {}", list(|s| s.wall_s));
    println!("  measured cpu_s:  {}", list(|s| s.cpu_s));
    println!("  host speed:      {}", list(|s| s.speed));
    println!("  host CPU speed:  {}", list(|s| s.cpu_speed));
}

/// Checks every pass and that all passes simulated the same thing.
/// Returns (all correct, arrivals attempted, arrivals of failed passes).
fn verdict(samples: &[Sample], reference: &PassOutcome) -> (bool, u64, u64) {
    let mut correct = true;
    let mut attempted = 0;
    let mut failed = 0;
    for s in samples {
        let o = &s.outcome;
        attempted += o.sim.injected;
        let same = o.digest == reference.digest && o.sim == reference.sim;
        if !o.correct() || !same {
            correct = false;
            failed += o.sim.injected;
            for (name, ok) in &o.checks {
                if !ok {
                    eprintln!("check failed: {name}");
                }
            }
            if !same {
                eprintln!("check failed: pass differs from the first pass");
            }
        }
    }
    (correct, attempted, failed)
}

fn print_context(args: &Args) {
    println!(
        "workload: {}  seed: {}  seconds: {}  trace: {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "threads: detected_cpus={} pool_workers={} SGDRC_THREADS={}",
        sys::detected_cpus(),
        rayon::current_pool_workers(),
        std::env::var(rayon::THREADS_ENV).unwrap_or_else(|_| "unset".into())
    );
}

/// The simulated statistics every run prints. Those the end-to-end
/// metrics do not carry vary with the workload seed by more than any
/// bound the benchmark may set, so they are printed for comparison
/// across commits on one seed, not gated.
fn print_sim(o: &PassOutcome) {
    let s = &o.sim;
    println!(
        "sim: injected={} completed={} slo_met={} be_completed={} simulated_s={}",
        s.injected, s.completed, s.slo_met, s.be_completed, s.simulated_s
    );
    let mut shown = vec![
        Metric::new(
            "sim_ls_failed_frac",
            s.injected.saturating_sub(s.completed) as f64 / s.injected as f64,
            "frac",
        ),
        Metric::new("sim_ls_p50_us", s.p50_us, "us"),
        Metric::new("sim_ls_p99_us", s.p99_us, "us"),
        Metric::new("sim_ls_latency_samples", s.latency_samples as f64, "count"),
        Metric::new("sim_be_per_s", s.be_completed as f64 / s.simulated_s, "1/s"),
    ];
    if let Some(x) = s.be_vs_orion_x {
        shown.push(Metric::new("sim_be_vs_orion_x", x, "x"));
    }
    println!("simulated, printed only:");
    report::print_table(&shown);
    println!("digest: {:016x}", o.digest);
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(setup: &Setup, samples: &[Sample], first: &PassOutcome) -> Vec<Metric> {
    let per_pass = |f: &dyn Fn(&Sample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    let s = &first.sim;
    let injected = s.injected as f64;
    vec![
        Metric::new(
            "host_events_per_s",
            per_pass(&|x| x.outcome.events as f64 / x.wall_ref_s()),
            "1/s",
        ),
        Metric::new(
            "host_cpu_ns_per_event",
            per_pass(&|x| x.cpu_ref_s() * 1e9 / x.outcome.events as f64),
            "ns",
        ),
        Metric::new("setup_s", setup.mean_s, "s"),
        Metric::new("peak_rss_mib", sys::peak_rss_mib(), "MiB"),
        Metric::new("sim_ls_slo_attainment", s.slo_met as f64 / injected, "frac"),
        Metric::new(
            "sim_ls_completed_frac",
            s.completed as f64 / injected,
            "frac",
        ),
        Metric::new("sim_weighted_goodput_hz", s.weighted_goodput_hz, "1/s"),
    ]
}

fn main() {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.setup_probe {
        setup_probe(&args, start);
        return;
    }
    cap_pool_width();
    let setup = set_up(&args);
    let mut prepared = workloads::prepare(args.workload, args.seed, args.smoke, false);
    print_context(&args);

    // Warm-up: builds the pool and fills the contexts' storage.
    let warm = workloads::run_pass(&mut prepared);
    let reference = workloads::outcome(&prepared, &warm);
    drop(warm);

    let report = if args.trace {
        layers::traced_run(&args, &setup, &mut prepared, &reference)
    } else {
        let samples = measure(&mut prepared, Duration::from_secs_f64(args.seconds));
        let (correct, attempted, failed) = verdict(&samples, &reference);
        print_passes(&samples);
        let metrics = end_to_end(&setup, &samples, &reference);
        println!("end-to-end:");
        report::print_table(&metrics);
        Report {
            correct,
            attempted,
            failed,
            metrics,
        }
    };
    print_sim(&reference);
    report.print();
}
