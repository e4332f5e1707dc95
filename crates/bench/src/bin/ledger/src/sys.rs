//! What the ledger reads from the machine it runs on: its own peak
//! resident set, and the facts recorded in every result file so that two
//! files can be told apart (commit, compiler, hardware threads, the
//! filesystem under the scratch directory).

use std::path::Path;
use std::process::Command;

/// `VmHWM` of this process in MB (10⁶ bytes), from `/proc/self/status`.
/// `None` off Linux, where the ledger reports no memory metric.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// Restart the peak-RSS high-water mark at the current resident set
/// (`5` into `/proc/self/clear_refs`), so that `VmHWM` covers the timed
/// region and not the warm-up before it. Where the kernel refuses, the
/// mark simply keeps counting from process start.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Hardware threads this process may run on.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPUs the calling thread may run on, from `Cpus_allowed_list` in
/// `/proc/thread-self/status` (`0-1`, `0,2-3`, …). Empty off Linux.
pub fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/thread-self/status").unwrap_or_default();
    let Some(list) = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
    else {
        return Vec::new();
    };
    parse_cpu_list(list.trim()).unwrap_or_default()
}

fn parse_cpu_list(list: &str) -> Option<Vec<usize>> {
    let mut cpus = Vec::new();
    for part in list.split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        let (lo, hi): (usize, usize) = (lo.parse().ok()?, hi.parse().ok()?);
        if lo > hi || hi > 1 << 16 {
            return None;
        }
        cpus.extend(lo..=hi);
    }
    Some(cpus)
}

/// Restrict the calling thread, and every thread it starts afterwards,
/// to `cpus`.
#[cfg(target_os = "linux")]
fn set_affinity(cpus: &[usize]) -> Result<(), String> {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // 1024 bits, the size of glibc's `cpu_set_t`.
    let mut mask = [0u64; 16];
    for &cpu in cpus {
        let word = mask
            .get_mut(cpu / 64)
            .ok_or_else(|| format!("CPU {cpu} is beyond the affinity mask"))?;
        *word |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live, initialised array and the size passed is
    // its size in bytes; the kernel only reads it. Pid 0 is the caller.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ))
    }
}

#[cfg(not(target_os = "linux"))]
fn set_affinity(_cpus: &[usize]) -> Result<(), String> {
    Err("pinning a run to its CPUs needs Linux".to_owned())
}

/// Give this process exactly `n` CPUs: the last `n` it is allowed. Call
/// it before any thread exists, or to narrow the set further.
///
/// The frontier engine spawns and joins a scoped thread for every chunk
/// of every level, even at `jobs 1`. With a second CPU to wake, each
/// join waits for an idle (halted) virtual CPU to be scheduled by the
/// host, which on a shared VM takes anything from 20 to 150 µs —
/// `fuzz_sweep`, with its 150,000 spawns, has been measured at 9 s and at
/// 23 s on the same commit within minutes. On one CPU the worker runs
/// where its parent just blocked and the number repeats. It also decides
/// what the engine does: with one hardware thread in sight it turns its
/// chunk pipeline off. So a run that cannot have its CPUs is an error,
/// never a run of a different kind.
///
/// # Errors
///
/// Fewer than `n` CPUs allowed, or the kernel refused the mask.
pub fn pin_to_last(n: usize) -> Result<Vec<usize>, String> {
    let allowed = allowed_cpus();
    if allowed.len() < n {
        return Err(format!(
            "needs {n} hardware threads, this process may use {}",
            allowed.len()
        ));
    }
    let mine = allowed[allowed.len() - n..].to_vec();
    set_affinity(&mine)?;
    if allowed_cpus() != mine {
        return Err(format!(
            "asked for CPUs {mine:?}, have {:?}",
            allowed_cpus()
        ));
    }
    Ok(mine)
}

/// Processors the kernel lists (`nproc --all`), which can exceed what a
/// cgroup or affinity mask lets the process use.
pub fn nproc() -> usize {
    std::fs::read_to_string("/proc/cpuinfo").map_or(0, |s| {
        s.lines().filter(|l| l.starts_with("processor")).count()
    })
}

fn first_line_of(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    Some(text.lines().next()?.trim().to_owned())
}

/// The commit of the working tree the ledger runs in (`unknown` outside
/// a git checkout, such as the benchmark driver's copy).
pub fn git_commit() -> String {
    first_line_of("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_owned())
}

/// The compiler on `PATH`, which built the ledger when it was started
/// through `cargo run`.
pub fn rustc_version() -> String {
    first_line_of("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_owned())
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/mounts`): spill and checkpoint cost depends on it.
pub fn fs_type(path: &Path) -> String {
    let Ok(abs) = path.canonicalize() else {
        return "unknown".to_owned();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, ty) = (f.next()?, f.next()?, f.next()?);
            abs.starts_with(mount).then_some((mount.len(), ty))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_owned(), |(_, ty)| ty.to_owned())
}

/// Bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process_and_this_machine() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb().unwrap() > 0.5);
            assert!(nproc() >= 1);
            assert_ne!(fs_type(Path::new(".")), "unknown");
        }
        assert!(available_parallelism() >= 1);
    }

    #[test]
    fn peak_rss_restarts_from_the_current_resident_set() {
        if !cfg!(target_os = "linux") {
            return;
        }
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        drop(big);
        let before = peak_rss_mb().unwrap();
        reset_peak_rss();
        let after = peak_rss_mb().unwrap();
        // Other tests allocate concurrently; 64 MB dwarfs them.
        assert!(
            before > 64.0 && after < before - 32.0,
            "{before} -> {after}"
        );
    }

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-1"), Some(vec![0, 1]));
        assert_eq!(parse_cpu_list("0,2-4,7"), Some(vec![0, 2, 3, 4, 7]));
        assert_eq!(parse_cpu_list("3"), Some(vec![3]));
        assert_eq!(parse_cpu_list(""), None);
        assert_eq!(parse_cpu_list("4-2"), None);
        assert_eq!(parse_cpu_list("a-b"), None);
        if cfg!(target_os = "linux") {
            assert_eq!(allowed_cpus().len(), available_parallelism());
        }
    }

    #[test]
    fn pinning_narrows_this_thread_and_the_threads_it_starts() {
        if !cfg!(target_os = "linux") {
            return;
        }
        // On a thread of its own: the mask is per thread, and the other
        // tests keep theirs.
        std::thread::spawn(|| {
            let all = allowed_cpus();
            let mine = pin_to_last(1).unwrap();
            assert_eq!(mine, [*all.last().unwrap()]);
            assert_eq!(available_parallelism(), 1);
            let inherited = std::thread::spawn(allowed_cpus).join().unwrap();
            assert_eq!(inherited, mine);
            assert!(pin_to_last(2).is_err(), "one CPU cannot seat two workers");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn dir_bytes_sums_nested_files() {
        let d = std::env::temp_dir().join(format!("ledger-sys-{}", std::process::id()));
        std::fs::create_dir_all(d.join("a/b")).unwrap();
        std::fs::write(d.join("x"), [0u8; 10]).unwrap();
        std::fs::write(d.join("a/b/y"), [0u8; 32]).unwrap();
        assert_eq!(dir_bytes(&d), 42);
        std::fs::remove_dir_all(&d).unwrap();
        assert_eq!(dir_bytes(&d), 0);
    }
}
