//! Host measurements the standard library does not offer: process CPU
//! time, peak resident set, and the detected CPU count.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` and `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock(clock: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target) that outlives the call, and
    // both clock ids are constants the kernel always accepts.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// User + system CPU time consumed so far by every thread of this
/// process, at nanosecond resolution.
pub fn process_cpu_time() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// CPUs this process may run on.
pub fn detected_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Seconds the box-speed canary takes on an unloaded reference host.
pub const CANARY_REF_S: f64 = 0.015;

/// What one canary measured: its wall seconds and its CPU seconds.
#[derive(Clone, Copy)]
pub struct Canary {
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl Canary {
    fn mean(xs: &[Canary]) -> Canary {
        let n = xs.len() as f64;
        Canary {
            wall_s: xs.iter().map(|c| c.wall_s).sum::<f64>() / n,
            cpu_s: xs.iter().map(|c| c.cpu_s).sum::<f64>() / n,
        }
    }

    /// Host speed factors from a set of canaries: `CANARY_REF_S` over
    /// their median wall time, for wall times, and over their median CPU
    /// time, for CPU times.
    pub fn speeds(xs: &[Canary]) -> (f64, f64) {
        let median = |f: fn(&Canary) -> f64| {
            let mut v: Vec<f64> = xs.iter().map(f).collect();
            v.sort_by(f64::total_cmp);
            let n = v.len();
            (v[(n - 1) / 2] + v[n / 2]) / 2.0
        };
        (
            CANARY_REF_S / median(|c| c.wall_s),
            CANARY_REF_S / median(|c| c.cpu_s),
        )
    }
}

/// The box-speed canary: a fixed loop of hashing, table reads and
/// writes and floating point over a 128 KiB table, run once alone and
/// once on one thread per detected CPU at once. Returns the mean of the
/// lone run and the concurrent threads' mean.
///
/// The host this benchmark runs on is shared. Other tenants' work slows
/// a pass by up to a fifth, for seconds at a time, without showing up
/// as steal: on the same cores it costs the pass both wall and CPU
/// time, and while it holds the CPUs it costs wall time only. The
/// canary runs right before and right after every pass. The pass's wall
/// time is scaled by `CANARY_REF_S` over the canary's wall time, and
/// its CPU time by `CANARY_REF_S` over the canary's CPU time — the
/// pass's cost at the reference host's speed. It times one thread and
/// every CPU because the passes run on one thread between pool batches
/// and on every worker inside them. The canary is this file's own code,
/// so no change to the program can move it.
pub fn canary() -> Canary {
    let threads = detected_cpus();
    let alone = canary_loop();
    let together: Vec<Canary> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(canary_loop)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("canary thread"))
            .collect()
    });
    Canary::mean(&[alone, Canary::mean(&together)])
}

fn canary_loop() -> Canary {
    use std::hint::black_box;
    let t = std::time::Instant::now();
    let cpu = cpu_clock(CLOCK_THREAD_CPUTIME_ID);
    let mut table = vec![0.0f64; 1 << 14];
    let mut z = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0.0f64;
    for i in 0..2_000_000u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        let slot = (x as usize) & (table.len() - 1);
        let v = table[slot];
        table[slot] = if x & 1 == 0 {
            v * 0.5 + i as f64
        } else {
            (v + 1.0).sqrt()
        };
        acc += table[(slot * 7) & (table.len() - 1)] / (1.0 + v.abs());
    }
    black_box((acc, &table));
    Canary {
        wall_s: t.elapsed().as_secs_f64(),
        cpu_s: (cpu_clock(CLOCK_THREAD_CPUTIME_ID) - cpu).as_secs_f64(),
    }
}
