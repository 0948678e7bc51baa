//! Host facts for the run header, process memory, and store-directory
//! hygiene. Linux `/proc` is read directly; anything missing reads as
//! "unknown" rather than failing the run.

use std::fs;
use std::path::{Path, PathBuf};

/// Prefix of every daemon store directory: `store-<daemon pid>`.
pub const STORE_PREFIX: &str = "store-";

/// One line describing the machine, so results from different hosts are
/// told apart: CPU model, cores, the crypto tier `dps_crypto` dispatches
/// to, kernel release, and the filesystem holding the store directory.
pub fn fingerprint(store_root: &Path) -> String {
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let isa = match dps_crypto::isa::try_tier() {
        Ok(tier) => tier.name().to_string(),
        Err(e) => format!("error({e})"),
    };
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let store_fs = fs_type(store_root).unwrap_or_else(|| "unknown".into());
    format!("cpu=\"{cpu}\" cores={cores} isa={isa} kernel={kernel} store_fs={store_fs}")
}

/// The filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mountinfo`).
fn fs_type(path: &Path) -> Option<String> {
    let path = path.canonicalize().ok()?;
    let info = fs::read_to_string("/proc/self/mountinfo").ok()?;
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        // "<id> <parent> <dev> <root> <mount point> <opts> ... - <fstype> ..."
        let fields: Vec<&str> = line.split(' ').collect();
        let (Some(mount), Some(dash)) = (fields.get(4), fields.iter().position(|f| *f == "-"))
        else {
            continue;
        };
        let Some(fstype) = fields.get(dash + 1) else { continue };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), (*fstype).to_string()));
        }
    }
    best.map(|(_, t)| t)
}

/// Peak resident set (`VmHWM`) of process `pid` ("self" for this one), in
/// KiB.
pub fn peak_rss_kib(pid: &str) -> Option<u64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// Total length of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(fs::Metadata::is_file)
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Removes store directories under `root` whose daemon is gone — left by
/// runs that were killed before their daemon could clean up. Returns how
/// many it removed.
pub fn sweep_stale_stores(root: &Path) -> usize {
    let Ok(entries) = fs::read_dir(root) else { return 0 };
    let mut removed = 0;
    for entry in entries.filter_map(Result::ok) {
        let name = entry.file_name();
        let Some(pid) = name.to_str().and_then(|n| n.strip_prefix(STORE_PREFIX)) else {
            continue;
        };
        if pid.parse::<u32>().is_ok()
            && !Path::new("/proc").join(pid).exists()
            && fs::remove_dir_all(entry.path()).is_ok()
        {
            removed += 1;
        }
    }
    removed
}

/// A daemon's store directory, removed when dropped — on every exit path
/// that unwinds.
#[derive(Debug)]
pub struct StoreDir(PathBuf);

impl StoreDir {
    /// Creates `root/store-<this pid>`.
    pub fn create(root: &Path) -> std::io::Result<Self> {
        let dir = root.join(format!("{STORE_PREFIX}{}", std::process::id()));
        fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// CPU affinity through the C library that `std` already links on Linux.
mod affinity {
    use std::io;

    /// Mask words: room for 1024 CPUs, the C library's `cpu_set_t`.
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// The CPUs the calling thread may run on.
    pub fn allowed() -> io::Result<Vec<usize>> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a live, writable buffer of exactly the size
        // passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok((0..WORDS * 64)
            .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
            .collect())
    }

    /// Restricts the calling thread, and every thread and child process
    /// it creates afterwards, to `cpu`.
    pub fn pin(cpu: usize) -> io::Result<()> {
        if cpu >= WORDS * 64 {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "cpu index beyond the mask"));
        }
        let mut mask = [0u64; WORDS];
        mask[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: `mask` is a live, initialised buffer of exactly the size
        // passed; pid 0 names the calling thread.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }
}

pub use affinity::{allowed as allowed_cpus, pin as pin_to_cpu};
