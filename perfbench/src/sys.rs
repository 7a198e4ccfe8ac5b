//! Process diagnostics: scheduler statistics, peak memory, and a
//! machine-speed probe. They adjust no metric; they show whether two sets
//! of runs disagree because of the machine or because of the code.

use crate::stats::median;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// `(on-CPU ns, run-queue wait ns)` of every live thread, by thread id,
/// from `/proc/self/task/*/schedstat`.
fn task_schedstats() -> BTreeMap<u64, (u64, u64)> {
    let mut out = BTreeMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let Ok(text) = std::fs::read_to_string(entry.path().join("schedstat")) else {
            continue;
        };
        let mut f = text
            .split_whitespace()
            .map(|v| v.parse::<u64>().unwrap_or(0));
        if let (Some(cpu), Some(wait)) = (f.next(), f.next()) {
            out.insert(tid, (cpu, wait));
        }
    }
    out
}

/// Scheduler statistics accumulated over a window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Sched {
    /// CPU time of the process's threads, seconds.
    pub cpu_s: f64,
    /// Time those threads sat runnable on a run queue, milliseconds.
    pub runq_wait_ms: f64,
}

/// Samples `/proc/self/task/*/schedstat` on a background thread, so that
/// threads which start and exit inside the window (the grid's workers)
/// are counted up to their last sample.
pub struct SchedWindow {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<BTreeMap<u64, (u64, u64)>>,
    base: BTreeMap<u64, (u64, u64)>,
}

const SCHED_POLL: Duration = Duration::from_millis(20);

impl SchedWindow {
    /// Open a window now.
    pub fn start() -> SchedWindow {
        let base = task_schedstats();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let own = own_tid();
            let mut last: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
            loop {
                let done = flag.load(Ordering::SeqCst);
                for (tid, v) in task_schedstats() {
                    if Some(tid) != own {
                        last.insert(tid, v);
                    }
                }
                if done {
                    return last;
                }
                std::thread::sleep(SCHED_POLL);
            }
        });
        SchedWindow { stop, handle, base }
    }

    /// Close the window, join the sampler and sum every thread's growth.
    pub fn finish(self) -> Sched {
        self.stop.store(true, Ordering::SeqCst);
        let last = self.handle.join().expect("schedstat sampler panicked");
        let (mut cpu, mut wait) = (0u64, 0u64);
        for (tid, (c, w)) in last {
            let (c0, w0) = self.base.get(&tid).copied().unwrap_or((0, 0));
            cpu += c.saturating_sub(c0);
            wait += w.saturating_sub(w0);
        }
        Sched {
            cpu_s: cpu as f64 / 1e9,
            runq_wait_ms: wait as f64 / 1e6,
        }
    }
}

fn own_tid() -> Option<u64> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Machine-speed probe: the median time of a fixed floating-point kernel
/// (64×64 matrix products, about 50 MFLOP per repeat), milliseconds.
pub fn speed_probe_ms() -> f64 {
    const N: usize = 64;
    const PRODUCTS: usize = 100;
    let a: Vec<f64> = (0..N * N).map(|i| ((i * 7) % 13) as f64 / 13.0).collect();
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut c = a.clone();
            let mut next = vec![0.0; N * N];
            for _ in 0..PRODUCTS {
                for i in 0..N {
                    let row = &mut next[i * N..(i + 1) * N];
                    row.iter_mut().for_each(|v| *v = 0.0);
                    for k in 0..N {
                        let cik = c[i * N + k];
                        for (r, &b) in row.iter_mut().zip(&a[k * N..(k + 1) * N]) {
                            *r += cik * b;
                        }
                    }
                }
                // Renormalize so the values stay finite and unchanged in scale.
                let norm = next.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1e-300);
                for (ci, &ni) in c.iter_mut().zip(&next) {
                    *ci = ni / norm;
                }
            }
            black_box(&c);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}
