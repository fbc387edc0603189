//! Shared infrastructure for regenerating the paper's tables & figures.
//!
//! Each table/figure has two regeneration paths:
//!
//! * a **binary harness** (`src/bin/table*.rs`, `src/bin/fig*.rs`) that
//!   prints the same rows/series the paper reports, using simple
//!   wall-clock timing — run with `cargo run --release --bin table6`;
//! * a **criterion bench** (`benches/*.rs`) for statistically robust
//!   timing — run with `cargo bench`.
//!
//! Absolute numbers cannot match the paper (its substrate was a Linux
//! kernel on 2010s hardware; ours is a simulator), but the *shape* —
//! which configuration wins, by roughly what factor, and where the
//! crossovers fall — is the reproduction target (see EXPERIMENTS.md).

use std::time::{Duration, Instant};

use pf_attacks::ruleset::{full_rule_base, FULL_RULE_COUNT};
use pf_core::OptLevel;
use pf_os::{standard_world, Kernel};
use pf_types::{Gid, Pid, Uid};

/// Which rule base to install.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleSet {
    /// No rules (the BASE configuration).
    None,
    /// The ~1218-rule FULL base (Table 5 + generated T1 rules).
    Full,
}

/// Builds a standard world with the given firewall configuration and a
/// benchmark process (`staff_t`, root).
pub fn world_at(level: OptLevel, rules: RuleSet) -> (Kernel, Pid) {
    let mut k = standard_world();
    if rules == RuleSet::Full {
        let lines = full_rule_base(FULL_RULE_COUNT);
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        k.install_rules(refs).unwrap();
    }
    k.firewall.set_level(level).unwrap();
    let pid = k.spawn("staff_t", "/usr/bin/bench", Uid::ROOT, Gid::ROOT);
    // Give the process a realistic call-stack depth: entrypoint
    // retrieval cost (and hence what CONCACHE saves) scales with it.
    for depth in 0..BENCH_STACK_DEPTH {
        let frame = pf_os::Frame {
            program: k.programs.intern("/usr/bin/bench"),
            pc: 0x4000 + depth as u64 * 0x20,
        };
        k.task_mut(pid).unwrap().push_frame(frame);
    }
    (k, pid)
}

/// Simulated user-stack depth for benchmark processes (typical of a real
/// application mid-request).
pub const BENCH_STACK_DEPTH: usize = 24;

/// Times `iters` runs of `f`, returning the mean per-iteration duration.
pub fn time_per_iter(iters: u64, mut f: impl FnMut()) -> Duration {
    // Warm-up pass so allocation and cache effects settle.
    for _ in 0..iters.min(100) {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed() / iters as u32
}

/// Formats a duration as microseconds with three decimals.
pub fn us(d: Duration) -> String {
    format!("{:.3}", d.as_nanos() as f64 / 1000.0)
}

/// Percentage overhead of `d` relative to `base`.
pub fn overhead_pct(base: Duration, d: Duration) -> f64 {
    if base.is_zero() {
        return 0.0;
    }
    (d.as_nanos() as f64 / base.as_nanos() as f64 - 1.0) * 100.0
}

/// Writes a metrics JSON document to `results/<name>.metrics.json`, next
/// to the table/figure text files the harnesses produce.
///
/// Best-effort: harnesses report results on stdout; a dump failure (e.g.
/// a read-only checkout) is a warning, not an error.
pub fn dump_metrics_json(json: &str, name: &str) {
    let dir = std::path::Path::new("results");
    let path = dir.join(format!("{name}.metrics.json"));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, json)) {
        Ok(()) => eprintln!("metrics: wrote {}", path.display()),
        Err(e) => eprintln!("metrics: could not write {}: {e}", path.display()),
    }
}

/// Appends one run object to a JSON trajectory file of the shape
/// `{"schema":"<schema>","runs":[...]}`, creating the file when absent
/// or unparseable. Trajectory files (e.g. the repo-root
/// `BENCH_table6.json`) accumulate one run object per harness
/// invocation so CI can track headline numbers across commits.
///
/// Best-effort, like [`dump_metrics_json`]: a write failure is a
/// warning, not an error.
pub fn append_trajectory(path: &str, schema: &str, run: &str) {
    let fresh = || format!("{{\"schema\":\"{schema}\",\"runs\":[{run}]}}");
    let body = match std::fs::read_to_string(path) {
        Ok(existing) => match existing.trim_end().strip_suffix("]}") {
            Some(prefix) if !prefix.trim_end().ends_with('[') => {
                format!("{prefix},{run}]}}")
            }
            Some(prefix) => format!("{prefix}{run}]}}"),
            None => fresh(),
        },
        Err(_) => fresh(),
    };
    match std::fs::write(path, body) {
        Ok(()) => println!("appended run to {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// This thread's CPU time (user + system) in nanoseconds, from
/// `/proc/thread-self/stat`. Returns `None` off Linux or on parse
/// failure; callers fall back to wall-clock.
///
/// On a single-core container wall-clock scaling curves are
/// necessarily flat (the threads timeshare one CPU); normalizing by
/// per-thread CPU time instead exposes whether per-hook *CPU cost*
/// inflates as workers are added — the lock-convoy signature.
pub fn thread_cpu_ns() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").ok()?;
    // Fields 14 (utime) and 15 (stime), 1-indexed, are clock ticks at
    // USER_HZ (100 on Linux). The comm field may contain spaces, so
    // split after the closing paren.
    let rest = stat.rsplit_once(')')?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * 10_000_000)
}

/// Joins named metrics documents into one JSON object:
/// `{"name1": <doc1>, "name2": <doc2>, …}`.
pub fn combine_metrics_json(sections: &[(String, String)]) -> String {
    let mut out = String::from("{");
    for (i, (name, json)) in sections.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(name);
        out.push_str("\":");
        out.push_str(json);
    }
    out.push('}');
    out
}

pub mod alloc;
pub mod fleet;
pub mod table7;

/// The Table 6 microbenchmark operations.
pub mod micro {
    use super::*;
    use pf_os::OpenFlags;
    use pf_types::Fd;

    /// Names of the Table 6 rows, in paper order.
    pub const SYSCALLS: [&str; 9] = [
        "null",
        "stat",
        "read",
        "write",
        "fstat",
        "open+close",
        "fork+exit",
        "fork+execve",
        "fork+sh -c",
    ];

    /// Prepares per-row state (open fds) and returns a closure running
    /// one iteration of the row's syscall mix.
    pub fn op_runner(k: &mut Kernel, pid: Pid, name: &str) -> Box<dyn FnMut(&mut Kernel)> {
        match name {
            "null" => Box::new(move |k| {
                k.null_syscall(pid).unwrap();
            }),
            "stat" => Box::new(move |k| {
                k.stat(pid, "/etc/passwd").unwrap();
            }),
            "read" => {
                let fd = k.open(pid, "/etc/passwd", OpenFlags::rdonly()).unwrap();
                Box::new(move |k| {
                    k.read(pid, fd).unwrap();
                })
            }
            "write" => {
                let fd = k
                    .open(pid, "/tmp/bench.out", OpenFlags::creat(0o644))
                    .unwrap();
                Box::new(move |k| {
                    k.write(pid, fd, b"x").unwrap();
                })
            }
            "fstat" => {
                let fd = k.open(pid, "/etc/passwd", OpenFlags::rdonly()).unwrap();
                Box::new(move |k| {
                    k.fstat(pid, fd).unwrap();
                })
            }
            "open+close" => Box::new(move |k| {
                let fd: Fd = k.open(pid, "/etc/passwd", OpenFlags::rdonly()).unwrap();
                k.close(pid, fd).unwrap();
            }),
            "fork+exit" => Box::new(move |k| {
                let child = k.fork(pid).unwrap();
                k.exit(child).unwrap();
            }),
            "fork+execve" => Box::new(move |k| {
                let child = k.fork(pid).unwrap();
                k.execve(child, "/bin/sh").unwrap();
                k.exit(child).unwrap();
            }),
            "fork+sh -c" => Box::new(move |k| {
                // sh -c CMD: fork, exec the shell, which forks and execs
                // the command.
                let shell = k.fork(pid).unwrap();
                k.execve(shell, "/bin/sh").unwrap();
                let cmd = k.fork(shell).unwrap();
                k.execve(cmd, "/bin/ls").unwrap();
                k.exit(cmd).unwrap();
                k.exit(shell).unwrap();
            }),
            other => panic!("unknown microbenchmark `{other}`"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worlds_build_at_every_level() {
        for level in OptLevel::ALL {
            let (k, pid) = world_at(level, RuleSet::Full);
            assert!(k.task(pid).is_ok());
        }
    }

    #[test]
    fn every_micro_op_runs_under_full_rules() {
        let (mut k, pid) = world_at(OptLevel::EptSpc, RuleSet::Full);
        for name in micro::SYSCALLS {
            let mut runner = micro::op_runner(&mut k, pid, name);
            for _ in 0..3 {
                runner(&mut k);
            }
            drop(runner);
        }
    }

    #[test]
    fn overhead_math() {
        let base = Duration::from_nanos(100);
        let d = Duration::from_nanos(150);
        assert!((overhead_pct(base, d) - 50.0).abs() < 1e-9);
        assert_eq!(us(Duration::from_nanos(12_345)), "12.345");
    }
}
