//! Spread a single-threaded measurement over every CPU the process may
//! run on.
//!
//! On a shared host each CPU's speed drifts on its own: another tenant's
//! load on the same physical core slows it for seconds to minutes.  On
//! the 2-vCPU host the benchmark was tuned on, sorts pinned alternately
//! to the two CPUs gave 10-second medians that correlated only 0.2
//! between the CPUs.  The scheduler does not move an unpinned
//! single-threaded loop off the CPU it started on (`se.nr_migrations`
//! stayed 0 through a 20-second `sort_spill` run), so such a run sampled
//! one CPU's drift, and runs that started on different CPUs disagreed.
//! Pinning sample `i` to the `i`-th CPU, cyclically, pools every CPU in
//! every run.

use std::mem::size_of;
use std::os::raw::c_int;

/// `cpu_set_t`: a mask of 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
}

/// The CPUs a thread may run on, and the mask to restore after pinning.
pub struct Cpus {
    mask: CpuSet,
    ids: Vec<usize>,
}

impl Cpus {
    /// The calling thread's CPUs.  When the mask cannot be read, pinning
    /// does nothing.
    pub fn of_this_thread() -> Cpus {
        let mut mask: CpuSet = [0; 16];
        // SAFETY: `mask` is a writable `cpu_set_t` of the size passed;
        // pid 0 is the calling thread.
        let ok = unsafe { sched_getaffinity(0, size_of::<CpuSet>(), &mut mask) } == 0;
        let ids = if ok {
            (0..64 * mask.len())
                .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
                .collect()
        } else {
            Vec::new()
        };
        Cpus { mask, ids }
    }

    /// Run `f` on the calling thread pinned to its `i`-th CPU
    /// (cyclically), then restore the thread's mask.  Threads `f` spawns
    /// inherit the pin, so `f` should not spawn any that outlive it.
    pub fn on<T>(&self, i: usize, f: impl FnOnce() -> T) -> T {
        if self.ids.len() < 2 {
            return f();
        }
        let cpu = self.ids[i % self.ids.len()];
        let mut one: CpuSet = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        set(&one);
        let out = f();
        set(&self.mask);
        out
    }
}

/// Set the calling thread's mask.  A failure leaves the mask as it was,
/// which only loses the spreading.
fn set(mask: &CpuSet) {
    // SAFETY: `mask` is a readable `cpu_set_t` of the size passed; pid 0
    // is the calling thread.
    unsafe { sched_setaffinity(0, size_of::<CpuSet>(), mask) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_restores_the_mask() {
        let cpus = Cpus::of_this_thread();
        for i in 0..3 {
            assert_eq!(cpus.on(i, || i + 1), i + 1);
        }
        assert_eq!(Cpus::of_this_thread().ids, cpus.ids);
    }
}
