//! Pinning the calling thread, and every thread it starts while pinned,
//! to the one CPU it runs on.
//!
//! A run whose load comes from one thread pins itself, so that its work
//! never moves between virtual CPUs. Unpinned, `tcp_crowd`'s client and
//! server worker either share a CPU or ping-pong between two, and both
//! modes are stable: in the second, every handoff wakes an idle virtual
//! CPU, which waits for the hypervisor. A lone busy thread, as in
//! `live_hs1`, is moved now and then, with the same wake-up at each
//! move. On a busy host those runs measure the host's scheduler
//! instead of the program.

use std::io;
use std::marker::PhantomData;

/// glibc's `cpu_set_t`: a mask of 1024 CPUs.
#[repr(C)]
#[derive(Clone, Copy)]
struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    fn sched_getcpu() -> i32;
}

fn set(mask: &CpuSet) -> io::Result<()> {
    // SAFETY: pid 0 is the calling thread, and `mask` is a valid
    // `cpu_set_t` of the size passed.
    let r = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask) };
    if r == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// The calling thread pinned to one CPU; dropping it restores the
/// thread's earlier mask. Threads started meanwhile keep the pin.
pub struct OneCpu {
    saved: CpuSet,
    /// The mask belongs to the thread that pinned: stay on it.
    _thread: PhantomData<*const ()>,
}

impl OneCpu {
    pub fn pin() -> io::Result<OneCpu> {
        let mut saved = CpuSet([0; 16]);
        // SAFETY: pid 0 is the calling thread, and `saved` is a writable
        // `cpu_set_t` of the size passed.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut saved) } != 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: no arguments; returns -1 on failure.
        let cpu =
            usize::try_from(unsafe { sched_getcpu() }).map_err(|_| io::Error::last_os_error())?;
        let mut one = CpuSet([0; 16]);
        let word =
            one.0.get_mut(cpu / 64).ok_or_else(|| io::Error::other("CPU beyond cpu_set_t"))?;
        *word = 1 << (cpu % 64);
        set(&one)?;
        Ok(OneCpu { saved, _thread: PhantomData })
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        let _ = set(&self.saved);
    }
}
