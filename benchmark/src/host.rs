//! Keeps the host's own noise out of the open-loop latencies.
//!
//! The benchmark was defined on a 2-vCPU VM whose hypervisor takes a
//! vCPU away for 1–60 ms now and then, and whose idle vCPUs take longer
//! to wake the busier the host is. Both move a latency percentile more
//! than a regression of the server would. While the server runs, a
//! [`Watch`] keeps two threads on every CPU the benchmark may use:
//!
//! - a **probe** at real-time priority, above the load generator's: it
//!   sleeps [`PROBE_PERIOD`] at a time and notes every wake-up more than
//!   [`STALL`] late. It preempts every ordinary thread, so nothing the
//!   server does delays it; a late wake-up means the host did not run
//!   that CPU, a [`Stall`];
//! - a **keep-awake spinner** at `SCHED_IDLE`, which runs only when
//!   nothing else wants the CPU. The vCPU then never halts, so waking a
//!   server thread is a context switch inside the guest instead of a
//!   hypervisor wake-up whose cost depends on the host's load.
//!
//! A request whose time in flight overlaps a stall is *disturbed*: the
//! benchmark leaves it out of `p50_us`/`p99_us`, and refuses a round in
//! which too many requests were (see `main.rs`). A slow stretch of the
//! server itself, such as a lock held across a catalog write, stalls no
//! probe, so its requests stay in the figures.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a probe sleeps between checks. Each wake-up preempts
/// whatever runs on that CPU: at 250 µs the probes raised the server's
/// own p50 on `fresh_large` from 259–276 µs to 310–359 µs, at 1 ms they
/// cost little. A stall widens to at least this period (see [`Stall`]).
const PROBE_PERIOD: Duration = Duration::from_millis(1);
/// A probe waking this much later than asked saw a stall; below it is
/// timer and scheduling noise.
const STALL: Duration = Duration::from_micros(200);
/// Real-time priority of the probes, above the load generator's
/// ([`crate::client::prioritize_client`]) so a busy generator never
/// looks like a stall.
const PROBE_PRIORITY: i32 = 20;

/// A stretch in which the host did not run one of the CPUs, ns after
/// the segment start, widened to every request it may have slowed: from
/// when the probe went to sleep (the stall began at some point after
/// that) to its late wake-up plus the stall's length again (the time the
/// server needs to work off the backlog the stall built up).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stall {
    pub from_ns: u64,
    pub until_ns: u64,
}

mod sys {
    #[repr(C)]
    pub struct SchedParam {
        pub priority: i32,
    }

    pub const SCHED_FIFO: i32 = 1;
    pub const SCHED_IDLE: i32 = 5;
    pub const PR_SET_TIMERSLACK: i32 = 29;
    /// `cpu_set_t` holds 1024 CPUs.
    pub const CPU_WORDS: usize = 16;

    extern "C" {
        pub fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        pub fn prctl(option: i32, ...) -> i32;
    }
}

/// The CPUs this process may run on.
fn allowed_cpus() -> io::Result<Vec<usize>> {
    let mut mask = [0u64; sys::CPU_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    if unsafe { sys::sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((0..64 * sys::CPU_WORDS)
        .filter(|&cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect())
}

/// Pin the calling thread to `cpu` and give it `policy` at `priority`.
fn place_thread(cpu: usize, policy: i32, priority: i32) -> io::Result<()> {
    let mut mask = [0u64; sys::CPU_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    let param = sys::SchedParam { priority };
    // SAFETY: `mask` and `param` outlive the calls, the size passed is
    // the mask's, and pid 0 names the calling thread.
    unsafe {
        if sys::sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) != 0
            || sys::sched_setscheduler(0, policy, &param) != 0
        {
            return Err(io::Error::last_os_error());
        }
    }
    Ok(())
}

/// The probes and spinners, running from [`Watch::start`] until the
/// watch is dropped.
pub struct Watch {
    stop: Arc<AtomicBool>,
    /// Every late probe wake-up so far: when it went to sleep, when it
    /// woke.
    late: Arc<Mutex<Vec<(Instant, Instant)>>>,
    threads: Vec<JoinHandle<()>>,
}

impl Watch {
    /// Start a probe and a spinner on every allowed CPU. Fails when the
    /// process may not pin threads or use real-time priority: without
    /// them the probes would report the server's load as host stalls.
    pub fn start() -> io::Result<Watch> {
        let mut watch = Watch {
            stop: Arc::new(AtomicBool::new(false)),
            late: Arc::new(Mutex::new(Vec::new())),
            threads: Vec::new(),
        };
        let (ready_tx, ready) = mpsc::channel::<io::Result<()>>();
        let cpus = allowed_cpus()?;
        for &cpu in &cpus {
            let (stop, late, tx) = (
                Arc::clone(&watch.stop),
                Arc::clone(&watch.late),
                ready_tx.clone(),
            );
            watch.threads.push(std::thread::spawn(move || {
                let placed = place_thread(cpu, sys::SCHED_FIFO, PROBE_PRIORITY);
                // SAFETY: PR_SET_TIMERSLACK takes one unsigned long and
                // sets only this thread's timer slack (1 ns).
                unsafe { sys::prctl(sys::PR_SET_TIMERSLACK, 1u64) };
                let ok = placed.is_ok();
                let _ = tx.send(placed);
                while ok && !stop.load(Ordering::Relaxed) {
                    let slept_at = Instant::now();
                    std::thread::sleep(PROBE_PERIOD);
                    let woke_at = Instant::now();
                    if woke_at - slept_at > PROBE_PERIOD + STALL {
                        late.lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .push((slept_at, woke_at));
                    }
                }
            }));
            let (stop, tx) = (Arc::clone(&watch.stop), ready_tx.clone());
            watch.threads.push(std::thread::spawn(move || {
                let placed = place_thread(cpu, sys::SCHED_IDLE, 0);
                let ok = placed.is_ok();
                let _ = tx.send(placed);
                while ok && !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            }));
        }
        for _ in 0..watch.threads.len() {
            let placed = ready
                .recv()
                .unwrap_or_else(|_| Err(io::Error::other("a watch thread died")));
            if let Err(e) = placed {
                return Err(io::Error::new(
                    e.kind(),
                    format!("pinning a thread at SCHED_FIFO/SCHED_IDLE: {e}"),
                ));
            }
        }
        Ok(watch)
    }

    /// The stalls seen so far that ended after `t0`, in ns after `t0`,
    /// sorted by start.
    pub fn stalls_since(&self, t0: Instant) -> Vec<Stall> {
        let ns = |at: Instant| {
            u64::try_from(at.saturating_duration_since(t0).as_nanos()).unwrap_or(u64::MAX)
        };
        let mut stalls: Vec<Stall> = self
            .late
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .filter(|(_, woke_at)| *woke_at > t0)
            .map(|&(slept_at, woke_at)| {
                let stalled = (woke_at - slept_at).saturating_sub(PROBE_PERIOD);
                Stall {
                    from_ns: ns(slept_at),
                    until_ns: ns(woke_at + stalled),
                }
            })
            .collect();
        stalls.sort_by_key(|s| s.from_ns);
        stalls
    }
}

impl Drop for Watch {
    /// Stop every thread and wait for each.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}
