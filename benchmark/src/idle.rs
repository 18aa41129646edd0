//! Keeping the CPUs awake while the benchmark measures.
//!
//! On a virtual machine an idle vCPU halts, and the hypervisor has to
//! schedule it again before it can run a thread that a request wakes.
//! On a busy host that takes milliseconds, and an open loop at a third of
//! capacity pays it on nearly every request. On a 2-vCPU KVM guest, two
//! back-to-back `store_geographica` runs of one seed read p50 29 ms with
//! 16% of the CPU time stolen by the host, and 18 ms with the spinners
//! below; across runs without them, the steal (0.3–17%) set the p50.
//! [`IdleSpin`] runs one `SCHED_IDLE` thread per CPU that spins while
//! nothing else is runnable, so the vCPUs never halt. A `SCHED_IDLE`
//! thread has the lowest weight the Linux scheduler knows and a waking
//! thread preempts it at once, so the program's threads keep the CPUs.
//! With the spinners the host charged 0.1–1% steal during a run.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;

/// Spinner threads, stopped and joined on drop.
pub struct IdleSpin {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    /// Spinners running at `SCHED_IDLE`. A thread that cannot take that
    /// policy does not spin: at normal priority it would compete with
    /// the program.
    pub active: usize,
}

#[cfg(target_os = "linux")]
fn become_idle_class() -> bool {
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    // SAFETY: pid 0 is the calling thread; the parameter outlives the call.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &SchedParam { sched_priority: 0 }) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn become_idle_class() -> bool {
    false
}

impl IdleSpin {
    /// Start one spinner per CPU; returns once each has taken (or failed
    /// to take) the idle policy.
    pub fn start() -> IdleSpin {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let stop = Arc::new(AtomicBool::new(false));
        let active = Arc::new(AtomicUsize::new(0));
        let ready = Arc::new(Barrier::new(cpus + 1));
        let threads = (0..cpus)
            .map(|_| {
                let (stop, active, ready) = (stop.clone(), active.clone(), ready.clone());
                std::thread::spawn(move || {
                    let idle = become_idle_class();
                    if idle {
                        active.fetch_add(1, Ordering::Relaxed);
                    }
                    ready.wait();
                    while idle && !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        ready.wait();
        IdleSpin {
            stop,
            threads,
            active: active.load(Ordering::Relaxed),
        }
    }
}

impl Drop for IdleSpin {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}
