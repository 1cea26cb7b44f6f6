//! CPU-time clocks (`clock_gettime`). On a guest with paravirtual steal
//! accounting, CPU time excludes the time the hypervisor gave the vCPU to
//! someone else.

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn read_ms(clock: i32) -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a writable `struct timespec` (two 64-bit fields on
    // x86-64 Linux) and both clock ids are valid on Linux.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.sec as f64 * 1e3 + ts.nsec as f64 / 1e6
}

/// CPU time of every thread of the process so far, in milliseconds.
pub fn process_cpu_ms() -> f64 {
    read_ms(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread so far, in milliseconds.
pub fn thread_cpu_ms() -> f64 {
    read_ms(CLOCK_THREAD_CPUTIME_ID)
}
