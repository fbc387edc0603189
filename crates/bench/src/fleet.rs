//! The fleet-scale workload harness behind `table7_fleet`.
//!
//! `table7_parallel` tops out at 8 threads, one kernel per thread.
//! This module models production traffic instead: hundreds-to-thousands
//! of *resident simulated tasks* spread across N sharded [`Kernel`]
//! worlds that all share **one** [`ProcessFirewall`], driven by a
//! work-stealing executor whose workers pull jobs from per-worker
//! deques and steal from each other when their own runs dry.
//!
//! The traffic is deliberately mixed, the way a real host's is:
//!
//! * **resident ticks** — every simulated task periodically reads
//!   config files and stats dependencies under its persistent stack;
//! * **web serving** — the Table 7 Apache loop;
//! * **fork storms** — short-lived children stressing session
//!   create/teardown;
//! * **adversary probes** — denied `/etc/shadow` opens, direct and via
//!   planted symlinks;
//! * **RATELIMIT floods** — `/tmp` create bursts against a throttle
//!   rule;
//! * **racing reloads** — an optional reloader thread hot-swaps the
//!   full rule base throughout the run.
//!
//! A `-j LOG` rule on every `FILE_OPEN` keeps the shared log sink under
//! constant fan-in pressure — which is exactly how the harness exposed
//! the bug this module exists to regress: the log sink used to be an
//! **unbounded** `Mutex<Vec<LogEntry>>`, so a fleet run leaked memory
//! until OOM. It is now a bounded overwrite-oldest ring with exact
//! `emitted == drained + dropped` accounting ([`pf_core::LogSink`]).
//!
//! [`FleetConfig::pre_fix`] reproduces the old sink (effectively
//! unbounded, never drained) so the bench can quantify the fix on
//! every run.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex, PoisonError};
use std::time::{Duration, Instant};

use pf_attacks::ruleset::{full_rule_base, FULL_RULE_COUNT};
use pf_attacks::workloads::{adversary_probe, fork_storm, web_serve};
use pf_core::{EventKind, Histogram, OptLevel, ProcessFirewall, SamplingMode};
use pf_os::{Kernel, OpenFlags};
use pf_types::{Gid, PfResult, Pid, Uid};

use crate::{thread_cpu_ns, world_at, RuleSet};

/// Stack depth given to resident fleet tasks (cheaper than the bench
/// process's [`crate::BENCH_STACK_DEPTH`]: a fleet host runs many small
/// services, not one deep application).
pub const FLEET_STACK_DEPTH: usize = 12;

/// Extra rules the harness layers on the full Table 5 base. Installed
/// into every shard kernel (interner alignment) and carried through
/// every reload variant.
///
/// * the LOG rule turns every `FILE_OPEN` into a log record — constant
///   fan-in pressure on the shared sink;
/// * the RATELIMIT rule gives the flood jobs something to saturate;
/// * the DROP rule gives adversary probes a firewall denial on top of
///   DAC.
pub fn fleet_extra_rules() -> Vec<String> {
    vec![
        "pftables -o FILE_OPEN -j LOG --tag fleet".to_owned(),
        "pftables -o FILE_CREATE -d tmp_t \
         -j RATELIMIT --rate 64 --burst 16 --per subject --exceed drop"
            .to_owned(),
        "pftables -o FILE_OPEN -d shadow_t -j DROP".to_owned(),
    ]
}

/// The full rule base the reloader swaps in: Table 5 plus generated
/// rules plus the fleet extras, optionally plus one benign rule so
/// consecutive reloads differ.
pub fn fleet_rule_base(variant: bool) -> Vec<String> {
    let mut lines = full_rule_base(FULL_RULE_COUNT);
    lines.extend(fleet_extra_rules());
    if variant {
        // Benign for all fleet traffic: nothing searches shadow_t dirs.
        lines.push("pftables -o DIR_SEARCH -d shadow_t -j DROP".to_owned());
    }
    lines
}

/// Fleet run parameters.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of sharded kernel worlds.
    pub shards: usize,
    /// Total resident simulated tasks, spread evenly across shards.
    pub tasks: usize,
    /// Worker threads in the work-stealing executor.
    pub workers: usize,
    /// Job rounds: each round queues one tick per resident task plus
    /// one of each scenario job per shard.
    pub rounds: usize,
    /// Log sink capacity for the run.
    pub log_capacity: usize,
    /// Run a reloader thread hot-swapping the rule base throughout.
    pub reload: bool,
    /// Drain the log sink from the background drainer thread.
    pub drain_logs: bool,
    /// Drain the decision-event plane from the drainer thread.
    pub drain_events: bool,
    /// Emulate the pre-fix sink: a huge, never-drained log sink.
    pub pre_fix: bool,
}

impl FleetConfig {
    /// The post-fix configuration at a given scale.
    pub fn fixed(shards: usize, tasks: usize, workers: usize, rounds: usize) -> Self {
        FleetConfig {
            shards,
            tasks,
            workers,
            rounds,
            log_capacity: pf_core::DEFAULT_LOG_CAPACITY,
            reload: true,
            drain_logs: true,
            drain_events: true,
            pre_fix: false,
        }
    }

    /// The pre-fix emulation at the same scale: an effectively
    /// unbounded, never-drained log sink. The event plane predates the
    /// fix and is drained either way, so both configurations pay the
    /// same drainer-thread cost except for the log path under
    /// comparison.
    pub fn pre_fix(shards: usize, tasks: usize, workers: usize, rounds: usize) -> Self {
        FleetConfig {
            log_capacity: usize::MAX / 2,
            drain_logs: false,
            pre_fix: true,
            ..FleetConfig::fixed(shards, tasks, workers, rounds)
        }
    }
}

/// One unit of fleet work, bound to a shard.
#[derive(Debug, Clone, Copy)]
enum JobKind {
    /// One resident task's config-read tick.
    Tick { pid: Pid, salt: u64 },
    /// A Table 7 web-serving burst.
    Web { clients: usize, requests: usize },
    /// A fork storm of short-lived children.
    ForkStorm { forks: usize },
    /// Denied shadow-file probes with cover traffic.
    Probe { probes: usize },
    /// A `/tmp` create burst against the RATELIMIT rule.
    Flood { creates: usize },
}

#[derive(Debug, Clone, Copy)]
struct Job {
    shard: usize,
    kind: JobKind,
}

/// What one worker accumulated.
#[derive(Debug, Default, Clone, Copy)]
struct WorkerStats {
    jobs: u64,
    syscalls: u64,
    denials: u64,
    steals: u64,
    shard_busy: u64,
    cpu_ns: Option<u64>,
}

/// Aggregate result of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// Echo of the configuration.
    pub shards: usize,
    /// Echo of the configuration.
    pub tasks: usize,
    /// Echo of the configuration.
    pub workers: usize,
    /// Echo of the configuration.
    pub rounds: usize,
    /// Whether this run emulated the pre-fix sink.
    pub pre_fix: bool,
    /// Resident tasks actually spawned (≥ `tasks`).
    pub resident_tasks: usize,
    /// Hook invocations during the timed window.
    pub hooks: u64,
    /// Syscalls issued by all jobs.
    pub syscalls: u64,
    /// Firewall denials observed by probe/flood jobs.
    pub denials: u64,
    /// Jobs executed.
    pub jobs: u64,
    /// Jobs taken from another worker's deque.
    pub steals: u64,
    /// try_lock misses on shard kernels (re-queued jobs).
    pub shard_busy: u64,
    /// Wall-clock seconds of the whole run.
    pub wall_s: f64,
    /// Sum of worker CPU seconds, when `/proc` exposes them.
    pub cpu_s: Option<f64>,
    /// hooks / wall seconds.
    pub hooks_per_wall_s: f64,
    /// hooks / CPU seconds — the scaling headline.
    pub hooks_per_cpu_s: Option<f64>,
    /// p50 hook-evaluation latency (ns), from detailed metrics.
    pub eval_p50_ns: u64,
    /// p99.9 hook-evaluation latency (ns), from detailed metrics.
    pub eval_p999_ns: u64,
    /// p99.9 decision latency (ns) from drained decision events —
    /// includes reload-churn windows.
    pub event_p999_ns: u64,
    /// Hot reloads committed during the run.
    pub reloads: u64,
    /// Snapshot-generation delta (must equal `reloads`).
    pub generations_delta: u64,
    /// Log-sink records written.
    pub logs_emitted: u64,
    /// Log-sink records handed to drains.
    pub logs_drained: u64,
    /// Log-sink records overwritten before a drain reached them.
    pub logs_dropped: u64,
    /// Largest buffered backlog a drain observed.
    pub logs_buffered_max: usize,
    /// Backlog left after the final drain (pre-fix: the leak).
    pub logs_buffered_final: usize,
    /// Approximate heap bytes retained by that backlog (pre-fix: what
    /// the unbounded sink leaks per ~run-length of fleet traffic).
    pub logs_retained_bytes: u64,
    /// Decision events written / drained / dropped.
    pub events_emitted: u64,
    /// See `events_emitted`.
    pub events_drained: u64,
    /// See `events_emitted`.
    pub events_dropped: u64,
}

/// Executes one job against its shard kernel. Returns
/// `(syscalls, denials)`.
fn run_job(k: &mut Kernel, job: &Job) -> PfResult<(u64, u64)> {
    match job.kind {
        JobKind::Tick { pid, salt } => {
            let t0 = k.now();
            // Rotate the innermost frame so entrypoint-specific chains
            // see several call sites per task.
            let pc = 0x7000 + (salt % 7) * 0x10;
            k.with_frame(pid, "/usr/bin/fleetd", pc, |k| -> PfResult<()> {
                let fd = k.open(pid, "/etc/passwd", OpenFlags::rdonly())?;
                k.read(pid, fd)?;
                k.close(pid, fd)?;
                k.stat(pid, "/etc/apache2/apache2.conf")?;
                Ok(())
            })?;
            Ok((k.now() - t0, 0))
        }
        JobKind::Web { clients, requests } => Ok((web_serve(k, clients, requests)?, 0)),
        JobKind::ForkStorm { forks } => Ok((fork_storm(k, forks)?, 0)),
        JobKind::Probe { probes } => adversary_probe(k, probes),
        JobKind::Flood { creates } => {
            let p = k.spawn("user_t", "/bin/sh", Uid(1000), Gid(1000));
            let t0 = k.now();
            let mut denials = 0u64;
            for i in 0..creates {
                match k.open(p, &format!("/tmp/fl{i}"), OpenFlags::creat(0o666)) {
                    Ok(fd) => k.close(p, fd)?,
                    Err(e) if e.is_firewall_denial() => denials += 1,
                    Err(e) => return Err(e),
                }
            }
            let count = k.now() - t0;
            k.exit(p)?;
            Ok((count, denials))
        }
    }
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One worker's pull-execute-steal loop.
///
/// Jobs are popped from the worker's own deque front; when it runs
/// dry the worker steals from the back of its neighbors' deques. A
/// job whose shard kernel is busy is re-queued (counted in
/// `shard_busy`) rather than blocking the worker — unless the worker
/// has nothing else to do, in which case it blocks on the shard.
fn worker_loop(
    me: usize,
    queues: &[Mutex<VecDeque<Job>>],
    shards: &[Mutex<Kernel>],
) -> WorkerStats {
    let cpu0 = thread_cpu_ns();
    let mut stats = WorkerStats::default();
    let mut starved = 0u32;
    loop {
        let (job, stolen) = {
            let mut job = lock(&queues[me]).pop_front().map(|j| (j, false));
            if job.is_none() {
                for off in 1..queues.len() {
                    let victim = (me + off) % queues.len();
                    if let Some(j) = lock(&queues[victim]).pop_back() {
                        job = Some((j, true));
                        break;
                    }
                }
            }
            match job {
                Some(j) => j,
                None => break,
            }
        };
        if stolen {
            stats.steals += 1;
        }
        let executed = match shards[job.shard].try_lock() {
            Ok(mut k) => {
                starved = 0;
                let (syscalls, denials) = run_job(&mut k, &job).expect("fleet job");
                stats.syscalls += syscalls;
                stats.denials += denials;
                true
            }
            Err(std::sync::TryLockError::WouldBlock) => {
                stats.shard_busy += 1;
                starved += 1;
                if starved > 64 {
                    // Everything left targets busy shards; stop
                    // spinning and wait our turn.
                    let mut k = lock(&shards[job.shard]);
                    starved = 0;
                    let (syscalls, denials) = run_job(&mut k, &job).expect("fleet job");
                    stats.syscalls += syscalls;
                    stats.denials += denials;
                    true
                } else {
                    lock(&queues[me]).push_back(job);
                    false
                }
            }
            Err(std::sync::TryLockError::Poisoned(p)) => {
                let mut k = p.into_inner();
                let (syscalls, denials) = run_job(&mut k, &job).expect("fleet job");
                stats.syscalls += syscalls;
                stats.denials += denials;
                true
            }
        };
        if executed {
            stats.jobs += 1;
        }
    }
    stats.cpu_ns = match (cpu0, thread_cpu_ns()) {
        (Some(a), Some(b)) => Some(b.saturating_sub(a)),
        _ => None,
    };
    stats
}

/// Builds the shard kernels (identical worlds, deterministic interning,
/// one shared firewall) and spawns the resident task fleet. Returns the
/// shards, the shared firewall, and each shard's resident pids.
fn build_shards(cfg: &FleetConfig) -> (Vec<Mutex<Kernel>>, Arc<ProcessFirewall>, Vec<Vec<Pid>>) {
    let extras = fleet_extra_rules();
    let extra_refs: Vec<&str> = extras.iter().map(String::as_str).collect();
    let mut shards = Vec::with_capacity(cfg.shards);
    let mut shared: Option<Arc<ProcessFirewall>> = None;
    let per_shard = cfg.tasks.div_ceil(cfg.shards);
    let mut resident_pids = Vec::with_capacity(cfg.shards);
    for _ in 0..cfg.shards {
        let (mut k, _pid) = world_at(OptLevel::EptSpc, RuleSet::Full);
        // Install the extras into every shard's own firewall first so
        // interner state stays identical across shards, then re-point
        // all but the first at the shared instance.
        k.install_rules(extra_refs.iter().copied())
            .expect("fleet extras");
        match &shared {
            None => shared = Some(k.firewall.clone()),
            Some(fw) => k.set_firewall(fw.clone()),
        }
        let pids: Vec<Pid> = (0..per_shard)
            .map(|_| {
                k.spawn_with_stack(
                    "staff_t",
                    "/usr/bin/fleetd",
                    Uid::ROOT,
                    Gid::ROOT,
                    FLEET_STACK_DEPTH,
                )
            })
            .collect();
        resident_pids.push(pids);
        shards.push(Mutex::new(k));
    }
    (shards, shared.expect("at least one shard"), resident_pids)
}

/// Seeds every round's jobs across the worker deques, round-robin.
fn seed_jobs(cfg: &FleetConfig, resident_pids: &[Vec<Pid>]) -> Vec<Mutex<VecDeque<Job>>> {
    let mut queues: Vec<VecDeque<Job>> = (0..cfg.workers).map(|_| VecDeque::new()).collect();
    let workers = queues.len();
    let mut next = 0usize;
    let mut push = |job: Job| {
        queues[next % workers].push_back(job);
        next += 1;
    };
    for round in 0..cfg.rounds {
        for (s, pids) in resident_pids.iter().enumerate() {
            for (i, pid) in pids.iter().enumerate() {
                push(Job {
                    shard: s,
                    kind: JobKind::Tick {
                        pid: *pid,
                        salt: (round * 31 + i) as u64,
                    },
                });
            }
            push(Job {
                shard: s,
                kind: JobKind::Web {
                    clients: 4,
                    requests: 3,
                },
            });
            push(Job {
                shard: s,
                kind: JobKind::ForkStorm { forks: 8 },
            });
            push(Job {
                shard: s,
                kind: JobKind::Probe { probes: 6 },
            });
            push(Job {
                shard: s,
                kind: JobKind::Flood { creates: 24 },
            });
        }
    }
    queues.into_iter().map(Mutex::new).collect()
}

/// Runs one fleet configuration end to end and reports the aggregate.
///
/// Post-fix runs (`drain: true`) finish with exact log accounting:
/// `logs_emitted == logs_drained + logs_dropped` after the final
/// quiescent drain, with the buffered backlog bounded by
/// `log_capacity` throughout. Pre-fix runs leave the backlog in
/// `logs_buffered_final` — the leak the fix removes.
pub fn run_fleet(cfg: &FleetConfig) -> FleetResult {
    let (shards, shared, resident_pids) = build_shards(cfg);
    let residents: usize = resident_pids.iter().map(Vec::len).sum();
    shared.metrics().set_detailed(true);
    shared.set_log_capacity(cfg.log_capacity);
    shared.events().set_sampling(SamplingMode::OneIn(8));

    let queues = seed_jobs(cfg, &resident_pids);
    let hooks0 = shared.metrics().invocations();
    let gen0 = shared.generation();
    let stop = AtomicBool::new(false);
    let reloads = AtomicU64::new(0);
    let logs_buffered_max = AtomicU64::new(0);
    let event_hist = Histogram::default();
    let start = Barrier::new(cfg.workers + 1);

    let t0 = Instant::now();
    let worker_stats: Vec<WorkerStats> = std::thread::scope(|s| {
        if cfg.reload {
            let shared = shared.clone();
            let stop = &stop;
            let reloads = &reloads;
            s.spawn(move || {
                // A private world provides aligned interners for the
                // reload parse (same construction as the shards).
                let (mut rk, _) = world_at(OptLevel::EptSpc, RuleSet::Full);
                let variants = [fleet_rule_base(false), fleet_rule_base(true)];
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let lines = &variants[(n % 2) as usize];
                    shared
                        .reload(
                            lines.iter().map(String::as_str),
                            &mut rk.mac,
                            &mut rk.programs,
                        )
                        .expect("fleet hot reload");
                    n += 1;
                    reloads.store(n, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(2));
                }
            });
        }
        if cfg.drain_logs || cfg.drain_events {
            let shared = shared.clone();
            let stop = &stop;
            let logs_buffered_max = &logs_buffered_max;
            let event_hist = &event_hist;
            let (drain_logs, drain_events) = (cfg.drain_logs, cfg.drain_events);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    if drain_logs {
                        logs_buffered_max.fetch_max(shared.log_count() as u64, Ordering::Relaxed);
                        let _ = shared.drain_logs();
                    }
                    if drain_events {
                        for ev in shared.events().drain() {
                            if ev.kind == EventKind::Decision {
                                event_hist.record(ev.latency_ns);
                            }
                        }
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            });
        }

        let handles: Vec<_> = (0..cfg.workers)
            .map(|w| {
                let queues = &queues;
                let shards = &shards;
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    worker_loop(w, queues, shards)
                })
            })
            .collect();
        start.wait();
        let stats: Vec<WorkerStats> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        stop.store(true, Ordering::Relaxed);
        stats
    });
    let wall_s = t0.elapsed().as_secs_f64();

    // Final quiescent drains: exact accounting must hold from here on.
    logs_buffered_max.fetch_max(shared.log_count() as u64, Ordering::Relaxed);
    if cfg.drain_logs {
        let _ = shared.drain_logs();
    }
    if cfg.drain_events {
        for ev in shared.events().drain() {
            if ev.kind == EventKind::Decision {
                event_hist.record(ev.latency_ns);
            }
        }
    }

    // Snapshot the sink counters before the byte-measurement take
    // below disturbs them.
    let logs_emitted = shared.log_sink().emitted();
    let logs_drained = shared.log_sink().drained();
    let logs_dropped = shared.log_sink().dropped();
    let logs_buffered_final = shared.log_count();
    // Measure what the backlog is holding onto before tearing down
    // (records the pre-fix leak in bytes; a drained sink retains 0).
    let logs_retained_bytes: u64 = shared
        .log_sink()
        .drain()
        .entries
        .iter()
        .map(|e| {
            (std::mem::size_of::<pf_core::LogEntry>()
                + e.subject.len()
                + e.program.len()
                + e.ept_prog.len()
                + e.object.len()
                + e.resource.len()
                + e.tag.len()
                + e.verdict.len()) as u64
        })
        .sum();

    let hooks = shared.metrics().invocations() - hooks0;
    let syscalls: u64 = worker_stats.iter().map(|w| w.syscalls).sum();
    let denials: u64 = worker_stats.iter().map(|w| w.denials).sum();
    let jobs: u64 = worker_stats.iter().map(|w| w.jobs).sum();
    let steals: u64 = worker_stats.iter().map(|w| w.steals).sum();
    let shard_busy: u64 = worker_stats.iter().map(|w| w.shard_busy).sum();
    let cpu_ns: Option<u64> = worker_stats
        .iter()
        .map(|w| w.cpu_ns)
        .try_fold(0u64, |acc, c| c.map(|v| acc + v));
    // Tick-granular readings can legitimately be zero on very short
    // runs; clamp to one tick so the ratio stays conservative.
    let cpu_s = cpu_ns.map(|ns| ns.max(10_000_000) as f64 / 1e9);
    let eval = shared.metrics().eval_latency();

    FleetResult {
        shards: cfg.shards,
        tasks: cfg.tasks,
        workers: cfg.workers,
        rounds: cfg.rounds,
        pre_fix: cfg.pre_fix,
        resident_tasks: residents,
        hooks,
        syscalls,
        denials,
        jobs,
        steals,
        shard_busy,
        wall_s,
        cpu_s,
        hooks_per_wall_s: hooks as f64 / wall_s.max(1e-9),
        hooks_per_cpu_s: cpu_s.map(|c| hooks as f64 / c),
        eval_p50_ns: eval.p50(),
        eval_p999_ns: eval.percentile(0.999),
        event_p999_ns: event_hist.percentile(0.999),
        reloads: reloads.load(Ordering::Relaxed),
        generations_delta: shared.generation() - gen0,
        logs_emitted,
        logs_drained,
        logs_dropped,
        logs_buffered_max: logs_buffered_max.load(Ordering::Relaxed) as usize,
        logs_buffered_final,
        logs_retained_bytes,
        events_emitted: shared.events().emitted(),
        events_drained: shared.events().drained(),
        events_dropped: shared.events().dropped(),
    }
}

impl FleetResult {
    /// One JSON object for `results/table7_fleet.json` and the
    /// trajectory file.
    pub fn to_json(&self) -> String {
        let opt = |v: Option<f64>| v.map_or("null".to_owned(), |x| format!("{x:.3}"));
        format!(
            "{{\"shards\":{},\"tasks\":{},\"workers\":{},\"rounds\":{},\
             \"pre_fix\":{},\"resident_tasks\":{},\"hooks\":{},\"syscalls\":{},\
             \"denials\":{},\"jobs\":{},\"steals\":{},\"shard_busy\":{},\
             \"wall_s\":{:.3},\"cpu_s\":{},\"hooks_per_wall_s\":{:.0},\
             \"hooks_per_cpu_s\":{},\"eval_p50_ns\":{},\"eval_p999_ns\":{},\
             \"event_p999_ns\":{},\"reloads\":{},\"generations_delta\":{},\
             \"logs\":{{\"emitted\":{},\"drained\":{},\"dropped\":{},\
             \"buffered_max\":{},\"buffered_final\":{},\"retained_bytes\":{}}},\
             \"events\":{{\"emitted\":{},\"drained\":{},\"dropped\":{}}}}}",
            self.shards,
            self.tasks,
            self.workers,
            self.rounds,
            self.pre_fix,
            self.resident_tasks,
            self.hooks,
            self.syscalls,
            self.denials,
            self.jobs,
            self.steals,
            self.shard_busy,
            self.wall_s,
            opt(self.cpu_s),
            self.hooks_per_wall_s,
            opt(self.hooks_per_cpu_s),
            self.eval_p50_ns,
            self.eval_p999_ns,
            self.event_p999_ns,
            self.reloads,
            self.generations_delta,
            self.logs_emitted,
            self.logs_drained,
            self.logs_dropped,
            self.logs_buffered_max,
            self.logs_buffered_final,
            self.logs_retained_bytes,
            self.events_emitted,
            self.events_drained,
            self.events_dropped,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_fleet_runs_with_exact_accounting() {
        let cfg = FleetConfig::fixed(2, 8, 2, 1);
        let r = run_fleet(&cfg);
        assert!(r.hooks > 0);
        assert!(r.syscalls > 0);
        assert!(r.denials > 0, "probe/flood jobs see firewall denials");
        assert_eq!(r.jobs, (8 + 2 * 4) as u64, "every seeded job executed");
        assert_eq!(
            r.logs_emitted,
            r.logs_drained + r.logs_dropped,
            "exact log accounting at quiescence"
        );
        assert_eq!(r.logs_buffered_final, 0, "final drain empties the sink");
        assert_eq!(r.events_emitted, r.events_drained + r.events_dropped);
        assert_eq!(r.generations_delta, r.reloads);
    }

    #[test]
    fn pre_fix_emulation_leaves_backlog() {
        let mut cfg = FleetConfig::pre_fix(2, 8, 2, 1);
        cfg.reload = false;
        let r = run_fleet(&cfg);
        assert!(r.pre_fix);
        assert!(
            r.logs_buffered_final as u64 == r.logs_emitted && r.logs_emitted > 0,
            "undrained unbounded sink retains every record: {} buffered of {} emitted",
            r.logs_buffered_final,
            r.logs_emitted
        );
        assert_eq!(r.logs_dropped, 0);
    }
}
