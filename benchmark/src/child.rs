//! Child processes: the `gmark` CLI runs and the `gmark serve` daemon the
//! end-to-end workloads measure from outside.
//!
//! Wall time is taken around spawn-to-reap; peak RSS and CPU come from the
//! child's own `wait4` rusage, so they describe the program under test and
//! not the harness. The workspace is offline (no `libc` crate), hence the
//! three hand-declared libc symbols below — the same approach `gmark serve`
//! takes for `signal`.

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads rusage and /proc and is written for 64-bit Linux");

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct RawRusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RawRusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

/// A set of CPUs, as the kernel's affinity calls take it (1024 CPUs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuSet([u64; 16]);

impl CpuSet {
    fn cpus(&self) -> Vec<usize> {
        (0..1024)
            .filter(|&cpu| self.0[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    }

    fn of(cpus: &[usize]) -> CpuSet {
        let mut set = CpuSet([0; 16]);
        for &cpu in cpus {
            set.0[cpu / 64] |= 1 << (cpu % 64);
        }
        set
    }

    /// Restricts the calling thread — and every thread or process it
    /// creates from now on — to this set.
    pub fn pin_current_thread(&self) {
        // SAFETY: the pointer covers `size_of::<CpuSet>()` readable bytes;
        // pid 0 addresses the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), self.0.as_ptr()) };
    }
}

/// One `SCHED_IDLE` busy thread per CPU, alive as long as the guard: the
/// guest-side equivalent of booting with `idle=poll`.
///
/// In the serve workloads both CPUs go idle between every request and its
/// response. On a virtual machine a halted CPU takes tens of microseconds
/// to wake, by an amount that depends on what the host is doing, and that
/// cost — not the daemon's — decided the numbers: `serve-hot` read
/// p50 = 0.31 ms in one ten-run set and 0.40 ms in the next. With the CPUs
/// kept out of the idle state the same set repeats within 1 %. The pollers
/// run in the idle scheduling class, which any runnable thread of the
/// daemon or the clients preempts at once.
pub struct IdlePollers {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl IdlePollers {
    /// Starts one poller on each CPU of `cpus`. A poller that cannot enter
    /// the idle class exits at once rather than compete with the daemon.
    pub fn start(cpus: &CpuSet) -> IdlePollers {
        const SCHED_IDLE: i32 = 5;
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let threads = cpus
            .cpus()
            .into_iter()
            .map(|cpu| {
                let stop = std::sync::Arc::clone(&stop);
                std::thread::spawn(move || {
                    CpuSet::of(&[cpu]).pin_current_thread();
                    let priority = 0i32;
                    // SAFETY: `priority` is a valid `sched_param` (one int)
                    // for the duration of the call; pid 0 is this thread.
                    if unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) } != 0 {
                        return;
                    }
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        IdlePollers { stop, threads }
    }
}

impl Drop for IdlePollers {
    fn drop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// Which CPUs the serve workloads give to the daemon and which to the load
/// generator. The two never share a core: when they do, every request's two
/// wake-ups are either core-local or cross-core depending on where the
/// scheduler happened to put the four threads, and whole runs flip between
/// the two modes (p50 of `serve-hot` read 0.15 ms or 0.21 ms). With the
/// halves apart every wake-up crosses cores, every time.
#[derive(Debug, Clone, Copy)]
pub struct CpuSplit {
    /// Every CPU this process may run on.
    pub all: CpuSet,
    /// The lower half: the daemon (child process or in-process server).
    pub daemon: CpuSet,
    /// The upper half: the client threads.
    pub clients: CpuSet,
}

impl CpuSplit {
    /// Splits the CPUs this process is allowed on. With a single CPU both
    /// halves are that CPU.
    pub fn detect() -> Result<CpuSplit, String> {
        let mut all = CpuSet([0; 16]);
        // SAFETY: the pointer covers `size_of::<CpuSet>()` writable bytes;
        // pid 0 addresses the calling thread.
        let got =
            unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), all.0.as_mut_ptr()) };
        let cpus = all.cpus();
        if got < 0 || cpus.is_empty() {
            return Err(format!(
                "sched_getaffinity failed: {}",
                std::io::Error::last_os_error()
            ));
        }
        let (lower, upper) = cpus.split_at((cpus.len() / 2).max(1).min(cpus.len()));
        Ok(CpuSplit {
            all,
            daemon: CpuSet::of(lower),
            clients: CpuSet::of(if upper.is_empty() { lower } else { upper }),
        })
    }

    /// `"daemon on CPUs [0], clients on CPUs [1]"`, for the run's notes.
    pub fn describe(&self) -> String {
        format!(
            "daemon on CPUs {:?}, clients on CPUs {:?}",
            self.daemon.cpus(),
            self.clients.cpus()
        )
    }
}

const SIGTERM: i32 = 15;
const SIGKILL: i32 = 9;
const WNOHANG: i32 = 1;

/// What a reaped child cost.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// Spawn-to-reap wall time in seconds.
    pub wall_s: f64,
    /// User CPU seconds.
    pub user_s: f64,
    /// System CPU seconds.
    pub sys_s: f64,
    /// Peak resident set in MiB (`ru_maxrss`).
    pub peak_rss_mb: f64,
    /// Whether the child exited with status 0.
    pub success: bool,
}

/// Reaps `pid`, returning `(exit status word, rusage)`; `None` with
/// `WNOHANG` when the child is still running.
fn reap(pid: u32, options: i32) -> Result<Option<(i32, RawRusage)>, String> {
    let mut status = 0i32;
    let mut usage = RawRusage::default();
    // SAFETY: `status` and `usage` are valid, writable, correctly laid-out
    // out-parameters for the duration of the call, and `pid` is a child
    // this process spawned and has not reaped yet.
    let got = unsafe { wait4(pid as i32, &mut status, options, &mut usage) };
    match got {
        0 => Ok(None),
        n if n == pid as i32 => Ok(Some((status, usage))),
        _ => Err(format!(
            "wait4({pid}) failed: {}",
            std::io::Error::last_os_error()
        )),
    }
}

fn usage_of(status: i32, raw: &RawRusage, wall: Duration) -> Usage {
    let secs = |t: Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    Usage {
        wall_s: wall.as_secs_f64(),
        user_s: secs(raw.utime),
        sys_s: secs(raw.stime),
        peak_rss_mb: raw.maxrss_kb as f64 / 1024.0,
        // WIFEXITED && WEXITSTATUS == 0: the low 7 bits hold the
        // terminating signal, the next byte the exit code.
        success: status & 0x7f == 0 && (status >> 8) & 0xff == 0,
    }
}

/// Runs one `gmark` command line to completion. The child's stdout and
/// stderr land in `log` (overwritten), which the caller quotes when the
/// run fails. `Err` means the harness itself could not run the child.
pub fn run_cli(gmark: &Path, args: &[String], log: &Path) -> Result<Usage, String> {
    let out = File::create(log).map_err(|e| format!("creating {}: {e}", log.display()))?;
    let err = out
        .try_clone()
        .map_err(|e| format!("cloning log handle: {e}"))?;
    let started = Instant::now();
    let child = Command::new(gmark)
        .args(args)
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(err)
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", gmark.display()))?;
    let (status, raw) = reap(child.id(), 0)?.expect("blocking wait4 returns a status");
    Ok(usage_of(status, &raw, started.elapsed()))
}

/// The tail of a child's log, for failure messages.
pub fn log_tail(log: &Path) -> String {
    let text = std::fs::read_to_string(log).unwrap_or_default();
    let tail: Vec<&str> = text.lines().rev().take(5).collect();
    tail.into_iter().rev().collect::<Vec<_>>().join(" | ")
}

/// A running `gmark serve` child. Dropping it — on the normal path, on an
/// early return and on a panic alike — sends SIGTERM and reaps the process,
/// so no run leaves a daemon behind.
pub struct Daemon {
    child: Child,
    addr: SocketAddr,
    started: Instant,
    reaped: bool,
}

impl Daemon {
    /// Starts `gmark serve --addr 127.0.0.1:0 <flags>` on the daemon's
    /// CPUs and waits for the line announcing the port it bound.
    pub fn start(
        gmark: &Path,
        flags: &[String],
        log: &Path,
        cpus: &CpuSplit,
    ) -> Result<Daemon, String> {
        let err = File::create(log).map_err(|e| format!("creating {}: {e}", log.display()))?;
        let started = Instant::now();
        // The child inherits the spawning thread's affinity.
        cpus.daemon.pin_current_thread();
        let spawned = Command::new(gmark)
            .arg("serve")
            .args(["--addr", "127.0.0.1:0"])
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(err)
            .spawn();
        cpus.all.pin_current_thread();
        let mut child = spawned.map_err(|e| format!("spawning {} serve: {e}", gmark.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        // From here on the guard owns the child: a failure below still
        // terminates and reaps it.
        let mut daemon = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            started,
            reaped: false,
        };
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("reading the daemon's banner: {e}"))?;
        // "gmark serve: listening on http://127.0.0.1:PORT (POST /v1/run; …)"
        daemon.addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|hostport| hostport.parse().ok())
            .ok_or_else(|| {
                format!(
                    "the daemon did not announce an address (stdout {line:?}, log: {})",
                    log_tail(log)
                )
            })?;
        Ok(daemon)
    }

    /// The address the daemon listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// SIGTERM, wait for the drain, reap; returns what the daemon cost
    /// over its lifetime.
    pub fn stop(mut self) -> Result<Usage, String> {
        self.terminate()
            .ok_or_else(|| "the daemon was already reaped".to_owned())?
    }

    fn terminate(&mut self) -> Option<Result<Usage, String>> {
        if self.reaped {
            return None;
        }
        self.reaped = true;
        let pid = self.child.id();
        // SAFETY: `pid` is this guard's own unreaped child, so the id
        // cannot have been recycled for another process.
        unsafe { kill(pid as i32, SIGTERM) };
        // A drain takes a few hundred milliseconds; a daemon that ignores
        // SIGTERM for ten seconds is killed so the benchmark still ends.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match reap(pid, WNOHANG) {
                Ok(Some((status, raw))) => {
                    return Some(Ok(usage_of(status, &raw, self.started.elapsed())))
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Ok(None) => {
                    // SAFETY: as above; the child is still unreaped.
                    unsafe { kill(pid as i32, SIGKILL) };
                    let _ = reap(pid, 0);
                    return Some(Err(format!("daemon {pid} ignored SIGTERM and was killed")));
                }
                Err(e) => return Some(Err(e)),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.terminate();
    }
}

/// A scratch directory under the benchmark's own `out/`, removed on drop.
/// Nothing written here is ever fsynced: the workloads time the program
/// against the page cache, not the device.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    /// Creates `<parent>/scratch-<pid>`, replacing any leftover.
    pub fn create(parent: &Path) -> Result<Scratch, String> {
        let dir = parent.join(format!("scratch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Scratch { dir })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// A fresh, empty subdirectory `name` (any previous content removed).
    pub fn fresh(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.dir.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_sets_round_trip_and_the_split_never_overlaps_on_two_or_more_cpus() {
        let set = CpuSet::of(&[0, 3, 64, 1023]);
        assert_eq!(set.cpus(), vec![0, 3, 64, 1023]);
        let split = CpuSplit::detect().expect("affinity is readable");
        let (daemon, clients, all) = (split.daemon.cpus(), split.clients.cpus(), split.all.cpus());
        assert!(!daemon.is_empty() && !clients.is_empty());
        assert!(daemon.iter().chain(&clients).all(|cpu| all.contains(cpu)));
        if all.len() >= 2 {
            assert!(daemon.iter().all(|cpu| !clients.contains(cpu)));
            assert_eq!(daemon.len() + clients.len(), all.len());
        }
    }

    #[test]
    fn a_failing_child_is_reported_not_hidden() {
        let parent = std::env::temp_dir().join("gmark-benchmark-child-test");
        let dir = Scratch::create(&parent).unwrap();
        let log = dir.path().join("log");
        let ok = run_cli(Path::new("/bin/sh"), &["-c".into(), "exit 0".into()], &log).unwrap();
        let bad = run_cli(
            Path::new("/bin/sh"),
            &["-c".into(), "echo boom >&2; exit 3".into()],
            &log,
        )
        .unwrap();
        assert!(ok.success && !bad.success);
        assert!(log_tail(&log).contains("boom"));
        assert!(ok.peak_rss_mb > 0.0 && ok.wall_s > 0.0);
        assert!(run_cli(Path::new("/no/such/binary"), &[], &log).is_err());
        drop(dir);
        let _ = std::fs::remove_dir(&parent);
    }
}
