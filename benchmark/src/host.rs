//! What the benchmark reads about the machine it runs on: core count, load,
//! toolchain and commit for the result file, and the process's own CPU time
//! and peak memory from `/proc`.

use std::process::Command;

use crate::json::Json;

/// Kernel clock ticks per second in `/proc/self/stat`. `USER_HZ` has been
/// 100 on every Linux architecture this repository builds on; reading it
/// properly needs `sysconf`, which needs `libc`, which the offline build
/// does not have.
const CLOCK_TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU time of this process so far, in milliseconds,
/// including threads that have already exited (every simulated processor
/// and reactor is a thread that ends with its run). `0.0` where `/proc` is
/// unavailable. Granularity is one tick (10 ms): difference it over many
/// passes, not one.
pub fn cpu_time_ms() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return 0.0 };
    // Field 2 (the command name) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14 and 15.
    let Some((_, rest)) = stat.rsplit_once(')') else { return 0.0 };
    let ticks: f64 =
        rest.split_whitespace().skip(11).take(2).filter_map(|f| f.parse::<f64>().ok()).sum();
    ticks * 1000.0 / CLOCK_TICKS_PER_SEC
}

/// Peak resident set size (`VmHWM`) of this process in megabytes, `0.0`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hardware threads available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

/// The 1-, 5- and 15-minute load averages, `None` where `/proc` is
/// unavailable.
pub fn loadavg() -> Option<[f64; 3]> {
    let text = std::fs::read_to_string("/proc/loadavg").ok()?;
    let mut fields = text.split_whitespace().map(|f| f.parse::<f64>().ok());
    Some([fields.next()??, fields.next()??, fields.next()??])
}

fn loadavg_json(load: Option<[f64; 3]>) -> Json {
    load.map_or(Json::Null, |l| Json::from(&l[..]))
}

/// First line of a command's standard output, or `"unknown"` when it cannot
/// be run (the driver's checkout is not a git repository, for one).
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .filter(|line| !line.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The machine description captured when a run starts.
#[derive(Debug, Clone, PartialEq)]
pub struct Environment {
    /// Hardware threads available.
    pub cores: usize,
    /// Load averages when the run started.
    pub load_start: Option<[f64; 3]>,
    /// `rustc --version`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub commit: String,
}

impl Environment {
    /// Reads the environment now.
    pub fn capture() -> Environment {
        Environment {
            cores: cores(),
            load_start: loadavg(),
            rustc: first_line_of("rustc", &["--version"]),
            commit: first_line_of("git", &["rev-parse", "HEAD"]),
        }
    }

    /// A warning when the machine was already busy: a 1-minute load above
    /// the core count means something else is competing for the cores —
    /// another job, or the tail of this benchmark's own previous run, whose
    /// 67 threads count towards the load for a minute after they end.
    pub fn load_warning(&self) -> Option<String> {
        let load = self.load_start?[0];
        (load > self.cores as f64).then(|| {
            format!(
                "1-minute load average {load:.2} exceeds the {} core(s): host times may be inflated",
                self.cores
            )
        })
    }

    /// The `env` object of a result record; reads the closing load average
    /// now.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("nproc", self.cores)
            .set("loadavg_start", loadavg_json(self.load_start))
            .set("loadavg_end", loadavg_json(loadavg()))
            .set("rustc", self.rustc.as_str())
            .set("commit", self.commit.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_work_on_linux_and_cpu_time_grows() {
        if !std::path::Path::new("/proc/self/stat").exists() {
            return;
        }
        let before = cpu_time_ms();
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_time_ms() >= before + 20.0, "60 ms of spinning is at least two ticks");
        assert!(peak_rss_mb() > 0.5);
        assert!(cores() >= 1);
        assert!(loadavg().is_some());
    }

    #[test]
    fn load_warning_fires_only_above_the_core_count() {
        let mut env = Environment {
            cores: 2,
            load_start: Some([1.9, 0.0, 0.0]),
            rustc: String::new(),
            commit: String::new(),
        };
        assert_eq!(env.load_warning(), None);
        env.load_start = Some([2.5, 0.0, 0.0]);
        assert!(env.load_warning().unwrap().contains("2.50"));
        env.load_start = None;
        assert_eq!(env.load_warning(), None);
    }

    #[test]
    fn env_json_has_a_fixed_key_order() {
        let env = Environment {
            cores: 2,
            load_start: Some([0.5, 0.25, 0.125]),
            rustc: "rustc 1.0".into(),
            commit: "abc".into(),
        };
        let keys: Vec<_> = env.to_json().fields().unwrap().iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(keys, ["nproc", "loadavg_start", "loadavg_end", "rustc", "commit"]);
    }
}
