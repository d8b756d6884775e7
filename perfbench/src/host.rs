//! Facts about the host printed beside every result, and a fixed probe
//! of its compute and memory speed. They let a reader tell a noisy host
//! from a slow program; no metric is derived from them.

use std::hint::black_box;
use std::path::Path;
use std::process::Command;

use crate::now;

/// What the run was built with and ran on.
#[derive(Clone, Debug)]
pub struct HostFacts {
    /// Processors listed in `/proc/cpuinfo` (0 when unreadable).
    pub cores: usize,
    /// `std::thread::available_parallelism` (0 when unknown).
    pub available_parallelism: usize,
    /// `rustc --version`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or why it is unknown.
    pub commit: String,
}

/// Reads the host facts. Each child process is waited for.
pub fn facts() -> HostFacts {
    let cores = std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0);
    let available_parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    HostFacts {
        cores,
        available_parallelism,
        rustc: first_line(Command::new("rustc").arg("--version")),
        commit: commit(),
    }
}

/// The commit of the checkout in the working directory. Git may not
/// look above it: a benchmark reads only inside its own checkout.
fn commit() -> String {
    let mut git = Command::new("git");
    git.args(["rev-parse", "HEAD"]);
    if let Some(parent) = std::env::current_dir()
        .ok()
        .as_deref()
        .and_then(Path::parent)
    {
        git.env("GIT_CEILING_DIRECTORIES", parent);
    }
    first_line(&mut git)
}

/// The first line a command prints, or why there is none. The child is
/// waited for.
fn first_line(cmd: &mut Command) -> String {
    let program = cmd.get_program().to_string_lossy().into_owned();
    match cmd.output() {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .unwrap_or("")
            .to_string(),
        Ok(_) => format!("unknown ({program} failed; the source may not be a checkout)"),
        Err(e) => format!("unknown ({program}: {e})"),
    }
}

/// The process's peak resident set (`VmHWM`) in MiB, if readable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Timings of the fixed host probe.
#[derive(Clone, Copy, Debug)]
pub struct Probe {
    /// An integer loop of [`COMPUTE_STEPS`] steps, in seconds.
    pub compute_s: f64,
    /// [`RANDOM_READS`] dependent reads over a [`TABLE_MIB`] MiB table,
    /// in seconds.
    pub random_access_s: f64,
}

/// Steps of the probe's compute loop.
pub const COMPUTE_STEPS: u64 = 1 << 25;
/// Size of the probe's random-access table, in MiB.
pub const TABLE_MIB: usize = 128;
/// Dependent reads of the probe's random-access loop.
pub const RANDOM_READS: u64 = 1 << 21;

/// Runs the probe. It allocates [`TABLE_MIB`] MiB, so call it after
/// reading [`peak_rss_mib`].
pub fn probe() -> Probe {
    let t0 = now();
    // Four independent chains and stores into a 16 KiB table keep the
    // core's ports busy, so the loop slows with the host's slow phases,
    // which barely touch one dependent chain.
    let mut table = [0u64; 2048];
    let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
    for i in 0..COMPUTE_STEPS {
        a ^= a << 13;
        a ^= a >> 7;
        b = b.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(i);
        c = c.rotate_left(5) ^ b;
        d = d.wrapping_add(c ^ a);
        table[(a as usize) & 2047] ^= d;
    }
    black_box((a, b, c, d, table));
    let compute_s = t0.elapsed().as_secs_f64();

    let len = TABLE_MIB * 1024 * 1024 / 8;
    let mask = len - 1;
    let table: Vec<u64> = (0..len as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let t1 = now();
    let mut at = 0usize;
    let mut acc = 0u64;
    for i in 0..RANDOM_READS {
        // Each read's address depends on the previous value: the loop
        // waits on memory, not on the core.
        let v = table[at];
        acc = acc.wrapping_add(v);
        at = ((v ^ acc).wrapping_add(i) as usize) & mask;
    }
    black_box(acc);
    let random_access_s = t1.elapsed().as_secs_f64();
    Probe {
        compute_s,
        random_access_s,
    }
}
