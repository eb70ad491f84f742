//! The engine workloads' clock: CPU time of the calling thread.
//!
//! The host the benchmark runs on is shared, and when it is oversubscribed
//! it stops running the VM's vCPUs for a while — the `steal` column of
//! `/proc/stat` — sometimes for stretches as long as a whole run. The
//! kernel keeps stolen time out of a thread's CPU time (paravirtual steal
//! accounting), as it keeps out the time another thread holds the CPU.
//! The engine loop is single-threaded and never blocks, so its CPU time is
//! what it takes on a CPU of its own, however busy the host is. A reading
//! is one `clock_gettime` system call, about a quarter of a microsecond.

use std::ops::Sub;
use std::os::raw::{c_int, c_long};
use std::time::Duration;

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

/// A reading of the calling thread's CPU-time clock. Readings compare
/// only within one thread.
#[derive(Clone, Copy)]
pub struct CpuInstant(Duration);

impl CpuInstant {
    pub fn now() -> CpuInstant {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live, exclusively borrowed `struct timespec`;
        // clock_gettime writes only within it.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
        CpuInstant(Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32))
    }

    /// CPU time the thread has run since this reading.
    pub fn elapsed(&self) -> Duration {
        CpuInstant::now() - *self
    }
}

impl Sub for CpuInstant {
    type Output = Duration;

    fn sub(self, earlier: CpuInstant) -> Duration {
        self.0.saturating_sub(earlier.0)
    }
}
