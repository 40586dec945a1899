//! Thread placement for the networked workloads.
//!
//! On two CPUs the rebuild worker, the serving thread and the client all
//! want a CPU at the moment an update schedules a rebuild, and which one
//! waits is up to the scheduler: the acknowledgement then measures that
//! lottery. So the pool's worker gets a CPU of its own, and the client and
//! the serving threads, which take turns in a closed loop, share the
//! other; a round trip then never waits for a second CPU to be scheduled.
//! New threads inherit the affinity of the thread that spawns them.

use std::sync::OnceLock;

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The first two CPUs the process could run on when first asked (before
/// any pinning), if it could run on two.
fn two_cpus() -> Option<[usize; 2]> {
    static FIRST: OnceLock<Option<[usize; 2]>> = OnceLock::new();
    *FIRST.get_or_init(|| {
        let mut mask: CpuSet = [0; 16];
        // SAFETY: pid 0 is the calling thread; the kernel writes at most
        // `size_of::<CpuSet>()` bytes into `mask`, which lives for the call.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
        if rc != 0 {
            return None;
        }
        let mut cpus = (0..1024).filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1);
        Some([cpus.next()?, cpus.next()?])
    })
}

/// Restricts the calling thread to `cpu`; threads it spawns from now on
/// inherit that. A refusal leaves the thread where it was.
fn pin_current_thread(cpu: usize) {
    let mut mask: CpuSet = [0; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: pid 0 is the calling thread; the kernel reads
    // `size_of::<CpuSet>()` bytes from `mask`, which lives for the call.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask) };
}

/// Runs `spawn_pool` on the second CPU, so the pool worker it spawns lives
/// there, then moves the calling thread, and every thread it spawns from
/// then on, to the first CPU. Does nothing on one CPU.
pub fn worker_apart<T>(spawn_pool: impl FnOnce() -> T) -> T {
    let cpus = two_cpus();
    if let Some([_, worker]) = cpus {
        pin_current_thread(worker);
    }
    let out = spawn_pool();
    if let Some([client, _]) = cpus {
        pin_current_thread(client);
    }
    out
}

/// Runs `f` on the calling thread moved to the second CPU, the one
/// [`worker_apart`] gave the pool's worker, then moves it back to the
/// first. Runs `f` in place on one CPU.
pub fn on_worker_cpu<T>(f: impl FnOnce() -> T) -> T {
    let Some([client, worker]) = two_cpus() else {
        return f();
    };
    pin_current_thread(worker);
    let out = f();
    pin_current_thread(client);
    out
}
