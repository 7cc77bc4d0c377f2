//! Per-thread accounting from outside the servers.
//!
//! Server threads are read from `/proc/self/task/<tid>/{comm,schedstat,
//! status,io}` around each timed window and grouped by thread name. Driver
//! threads sample themselves with `getrusage(RUSAGE_THREAD)` before they
//! exit, because `/proc` forgets a thread once it has been joined.

use std::fs;

/// Cumulative counters of one thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Usage {
    pub cpu_ns: u64,
    /// Voluntary context switches: the thread blocked (a wakeup follows).
    pub vcsw: u64,
    /// Involuntary context switches: the thread was preempted.
    pub ivcsw: u64,
    /// Write-class syscalls (`write`, `writev`, `sendmsg`...). io_uring
    /// submissions bypass this count.
    pub syscw: u64,
    /// Bytes passed to those syscalls.
    pub wchar: u64,
}

impl Usage {
    pub fn add(&mut self, o: &Usage) {
        self.cpu_ns += o.cpu_ns;
        self.vcsw += o.vcsw;
        self.ivcsw += o.ivcsw;
        self.syscw += o.syscw;
        self.wchar += o.wchar;
    }

    pub fn since(&self, before: &Usage) -> Usage {
        Usage {
            cpu_ns: self.cpu_ns.saturating_sub(before.cpu_ns),
            vcsw: self.vcsw.saturating_sub(before.vcsw),
            ivcsw: self.ivcsw.saturating_sub(before.ivcsw),
            syscw: self.syscw.saturating_sub(before.syscw),
            wchar: self.wchar.saturating_sub(before.wchar),
        }
    }
}

/// The thread roles the servers name their threads by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// `nio-worker-*` and `pool-*`: the threads that serve requests.
    Worker,
    /// `nio-acceptor`: handoff-mode accept thread.
    Acceptor,
}

fn role_of(name: &str) -> Option<Role> {
    if name.starts_with("nio-worker-") || name.starts_with("pool-") {
        Some(Role::Worker)
    } else if name == "nio-acceptor" {
        Some(Role::Acceptor)
    } else {
        None
    }
}

/// One thread's counters at one instant.
#[derive(Debug, Clone)]
pub struct TaskSnap {
    tid: u32,
    role: Role,
    usage: Usage,
}

fn field(text: &str, key: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

fn read_task(tid: u32) -> Option<TaskSnap> {
    let dir = format!("/proc/self/task/{tid}");
    let comm = fs::read_to_string(format!("{dir}/comm")).ok()?;
    let role = role_of(comm.trim())?;
    // schedstat's first field is nanoseconds on CPU; stat's utime/stime
    // are in clock ticks, too coarse for a sub-second window.
    let cpu_ns = fs::read_to_string(format!("{dir}/schedstat"))
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0);
    let status = fs::read_to_string(format!("{dir}/status")).unwrap_or_default();
    let io = fs::read_to_string(format!("{dir}/io")).unwrap_or_default();
    Some(TaskSnap {
        tid,
        role,
        usage: Usage {
            cpu_ns,
            vcsw: field(&status, "voluntary_ctxt_switches:"),
            ivcsw: field(&status, "nonvoluntary_ctxt_switches:"),
            syscw: field(&io, "syscw:"),
            wchar: field(&io, "wchar:"),
        },
    })
}

/// Counters of every server thread of this process.
pub fn snapshot() -> Vec<TaskSnap> {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
        .filter_map(read_task)
        .collect()
}

/// What each role's threads did between two snapshots. A thread born in
/// between counts from zero.
pub fn delta(before: &[TaskSnap], after: &[TaskSnap], role: Role) -> Usage {
    let mut total = Usage::default();
    for a in after.iter().filter(|a| a.role == role) {
        let base = before
            .iter()
            .find(|b| b.tid == a.tid)
            .map(|b| b.usage)
            .unwrap_or_default();
        total.add(&a.usage.since(&base));
    }
    total
}

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    ru_ixrss: i64,
    ru_idrss: i64,
    ru_isrss: i64,
    ru_minflt: i64,
    ru_majflt: i64,
    ru_nswap: i64,
    ru_inblock: i64,
    ru_oublock: i64,
    ru_msgsnd: i64,
    ru_msgrcv: i64,
    ru_nsignals: i64,
    ru_nvcsw: i64,
    ru_nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_THREAD: i32 = 1;

/// The calling thread's CPU time and context switches.
pub fn thread_usage() -> Usage {
    let mut ru = std::mem::MaybeUninit::<Rusage>::zeroed();
    // SAFETY: `ru` is a writable, properly aligned `struct rusage` for
    // 64-bit Linux; getrusage writes only into it.
    let rc = unsafe { getrusage(RUSAGE_THREAD, ru.as_mut_ptr()) };
    if rc != 0 {
        return Usage::default();
    }
    // SAFETY: zero-initialised above and filled by a successful call; every
    // field is a plain integer, so any bit pattern is valid.
    let ru = unsafe { ru.assume_init() };
    let us = |t: &Timeval| (t.tv_sec * 1_000_000 + t.tv_usec) as u64;
    Usage {
        cpu_ns: (us(&ru.ru_utime) + us(&ru.ru_stime)) * 1000,
        vcsw: ru.ru_nvcsw as u64,
        ivcsw: ru.ru_nivcsw as u64,
        syscw: 0,
        wchar: 0,
    }
}

/// Peak resident set of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    field(&status, "VmHWM:") as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roles_follow_server_thread_names() {
        assert_eq!(role_of("nio-worker-0"), Some(Role::Worker));
        assert_eq!(role_of("pool-12"), Some(Role::Worker));
        assert_eq!(role_of("nio-acceptor"), Some(Role::Acceptor));
        assert_eq!(role_of("drv-0"), None);
    }

    #[test]
    fn thread_usage_counts_own_cpu() {
        let a = thread_usage();
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let b = thread_usage();
        assert!(b.since(&a).cpu_ns >= 10_000_000, "{:?}", b.since(&a));
    }

    #[test]
    fn status_fields_parse() {
        let s = "Name:\tx\nvoluntary_ctxt_switches:\t12\nnonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(field(s, "voluntary_ctxt_switches:"), 12);
        assert_eq!(field(s, "nonvoluntary_ctxt_switches:"), 3);
        assert_eq!(field(s, "missing:"), 0);
        assert_eq!(field("VmHWM:\t  2048 kB\n", "VmHWM:"), 2048);
    }
}
