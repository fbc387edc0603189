//! `table7_fleet`: fleet-scale mixed-traffic scaling, and the
//! shared-sink bug regression it exists to keep fixed.
//!
//! Drives the [`pf_bench::fleet`] harness — hundreds-to-thousands of
//! resident simulated tasks across N sharded kernels sharing one
//! firewall, a work-stealing executor, mixed web/fork/probe/flood
//! traffic, racing hot reloads — in three configurations:
//!
//! 1. **pre-fix emulation** at full worker count: an effectively
//!    unbounded, never-drained log sink (the old `Mutex<Vec<LogEntry>>`
//!    leak);
//! 2. **post-fix** at 1 worker (the scaling baseline);
//! 3. **post-fix** at full worker count.
//!
//! Reported: aggregate hooks/CPU-second (and wall), p50/p99.9
//! hook-evaluation latency, p99.9 decision latency from the event
//! plane under reload churn, work-steal and shard-contention counts,
//! and exact log/event drop accounting.
//! The pre-fix vs post-fix ratio and the 1→N worker scaling ratio go
//! into the results JSON; `--min-scaling <x>` turns the scaling ratio
//! into a hard gate for CI.
//!
//! ```text
//! usage: table7_fleet [--shards N] [--tasks N] [--workers N]
//!                     [--rounds N] [--smoke] [--min-scaling X]
//! ```
//!
//! Results go to stdout, `results/table7_fleet.json`, and a run object
//! appended to `BENCH_table7.json`.

use pf_bench::fleet::{run_fleet, FleetConfig, FleetResult};

struct Args {
    shards: usize,
    tasks: usize,
    workers: usize,
    rounds: usize,
    min_scaling: Option<f64>,
}

fn usage() -> ! {
    eprintln!(
        "usage: table7_fleet [--shards N] [--tasks N] [--workers N] \
         [--rounds N] [--smoke] [--min-scaling X]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        shards: 8,
        tasks: 1024,
        workers: 8,
        rounds: 10,
        min_scaling: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let num = |args: &mut dyn Iterator<Item = String>| -> usize {
            args.next()
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| usage())
        };
        match arg.as_str() {
            "--shards" => a.shards = num(&mut args),
            "--tasks" => a.tasks = num(&mut args),
            "--workers" => a.workers = num(&mut args),
            "--rounds" => a.rounds = num(&mut args),
            "--smoke" => {
                // Small but still ≥ 4 shards × ≥ 512 tasks: the CI lane
                // exercises the same floors the full run does.
                a.shards = 4;
                a.tasks = 512;
                a.workers = 8;
                a.rounds = 3;
            }
            "--min-scaling" => {
                a.min_scaling = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            _ => usage(),
        }
    }
    a
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map_or("n/a".to_owned(), |x| format!("{x:.0}"))
}

fn print_row(label: &str, r: &FleetResult, paired_rate: Option<f64>) {
    println!(
        "{:<18} {:>7} {:>10.3} {:>14.0} {:>14} {:>9} {:>10} {:>10} {:>10}",
        label,
        r.workers,
        r.wall_s,
        r.hooks_per_wall_s,
        fmt_opt(paired_rate),
        r.eval_p999_ns,
        r.logs_dropped,
        r.logs_buffered_final,
        r.reloads,
    );
}

/// Invariants every post-fix run must uphold; panics on violation so
/// the CI lane fails loudly.
fn check_fixed(r: &FleetResult, cap: usize) {
    assert_eq!(
        r.logs_emitted,
        r.logs_drained + r.logs_dropped,
        "exact log accounting at quiescence"
    );
    assert_eq!(r.logs_buffered_final, 0, "final drain empties the sink");
    assert!(
        r.logs_buffered_max <= cap,
        "log memory bounded: {} buffered > capacity {}",
        r.logs_buffered_max,
        cap
    );
    assert_eq!(
        r.events_emitted,
        r.events_drained + r.events_dropped,
        "exact event accounting at quiescence"
    );
    assert_eq!(
        r.generations_delta, r.reloads,
        "each reload publishes exactly one generation"
    );
    assert!(r.denials > 0, "probe/flood traffic saw firewall denials");
}

fn main() {
    let a = parse_args();
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "table7_fleet: {} resident tasks x {} kernel shards, one shared firewall\n\
         (mixed web/fork/probe/flood traffic + racing reloads; {} rounds; host has {nproc} CPU(s))",
        a.tasks, a.shards, a.rounds
    );
    println!("{:-<110}", "");
    println!(
        "{:<18} {:>7} {:>10} {:>14} {:>14} {:>9} {:>10} {:>10} {:>10}",
        "config",
        "workers",
        "wall_s",
        "hooks/s(wall)",
        "hooks/s(cpu)",
        "p999_ns",
        "log_drop",
        "log_left",
        "reloads"
    );
    println!("{:-<110}", "");

    // CPU-time readings are tick-granular (10 ms); a single short run
    // quantizes badly. Run each configuration twice and rate it on the
    // *summed* hooks and CPU seconds, which averages the quantization
    // out; the second (warmed) run supplies the detail fields.
    let paired = |cfg: &FleetConfig| -> (FleetResult, Option<f64>) {
        let first = run_fleet(cfg);
        let second = run_fleet(cfg);
        let hooks = first.hooks + second.hooks;
        let cpu = match (first.cpu_s, second.cpu_s) {
            (Some(x), Some(y)) => Some(x + y),
            _ => None,
        };
        let rate = cpu.map(|c| hooks as f64 / c.max(1e-9));
        (second, rate)
    };

    // 1. The bug, reproduced: an unbounded undrained log sink at full
    //    worker count.
    let (pre, pre_rate) = paired(&FleetConfig::pre_fix(
        a.shards, a.tasks, a.workers, a.rounds,
    ));
    print_row("pre-fix(emulated)", &pre, pre_rate);
    assert!(
        pre.logs_buffered_final as u64 == pre.logs_emitted && pre.logs_emitted > 0,
        "pre-fix sink retains every record (the leak): {} of {}",
        pre.logs_buffered_final,
        pre.logs_emitted
    );

    // 2. Post-fix baseline at one worker.
    let base_cfg = FleetConfig::fixed(a.shards, a.tasks, 1, a.rounds);
    let (base, base_rate) = paired(&base_cfg);
    print_row("fixed", &base, base_rate);
    check_fixed(&base, base_cfg.log_capacity);

    // 3. Post-fix at full worker count.
    let full_cfg = FleetConfig::fixed(a.shards, a.tasks, a.workers, a.rounds);
    let (full, full_rate) = paired(&full_cfg);
    print_row("fixed", &full, full_rate);
    check_fixed(&full, full_cfg.log_capacity);
    println!("{:-<110}", "");

    let improvement = match (full_rate, pre_rate) {
        (Some(f), Some(p)) if p > 0.0 => Some(f / p),
        _ => None,
    };
    let scaling = match (full_rate, base_rate) {
        (Some(f), Some(b)) if b > 0.0 => Some(f / b),
        _ => None,
    };
    match improvement {
        Some(x) => println!(
            "hooks/CPU-second at {} workers: fixed = {:.2}x the pre-fix sink \
             (bounded drained log ring)",
            a.workers, x
        ),
        None => println!("pre-fix comparison: n/a (no CPU-time readings)"),
    }
    println!(
        "pre-fix sink retained {} records / {} KiB after {:.2}s of traffic \
         (unbounded growth); fixed sink retained {}",
        pre.logs_buffered_final,
        pre.logs_retained_bytes / 1024,
        pre.wall_s,
        full.logs_buffered_final,
    );
    match scaling {
        Some(x) => println!(
            "CPU-time scaling ratio {} workers vs 1: {:.2} \
             (1.0 = per-hook CPU cost flat as workers are added)",
            a.workers, x
        ),
        None => println!("scaling ratio: n/a (no CPU-time readings)"),
    }
    println!(
        "steals={} shard_busy={} denials={} event_p999={}ns (from {} drained events)",
        full.steals, full.shard_busy, full.denials, full.event_p999_ns, full.events_drained,
    );

    if let (Some(min), Some(s)) = (a.min_scaling, scaling) {
        assert!(
            s >= min,
            "scaling ratio {s:.2} below the --min-scaling gate {min:.2}"
        );
        println!("scaling gate: {s:.2} >= {min:.2} ok");
    }

    let out = format!(
        "{{\"bench\":\"table7_fleet\",\"host_cpus\":{nproc},\
         \"pre_fix\":{},\"fixed_1\":{},\"fixed_n\":{},\
         \"hooks_per_cpu_improvement\":{},\"cpu_scaling_ratio\":{}}}",
        pre.to_json(),
        base.to_json(),
        full.to_json(),
        improvement.map_or("null".to_owned(), |x| format!("{x:.3}")),
        scaling.map_or("null".to_owned(), |x| format!("{x:.3}")),
    );
    let dir = std::path::Path::new("results");
    let path = dir.join("table7_fleet.json");
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, &out)) {
        Ok(()) => eprintln!("results: wrote {}", path.display()),
        Err(e) => eprintln!("results: could not write {}: {e}", path.display()),
    }

    // Compact headline run for the cross-commit trajectory file.
    let run = format!(
        "{{\"bench\":\"table7_fleet\",\"host_cpus\":{nproc},\
         \"shards\":{},\"tasks\":{},\"workers\":{},\
         \"fleet_hooks_per_cpu_s\":{},\"prefix_hooks_per_cpu_s\":{},\
         \"hooks_per_cpu_improvement\":{},\"cpu_scaling_ratio\":{},\
         \"eval_p999_ns\":{},\"event_p999_ns\":{},\
         \"logs_emitted\":{},\"logs_dropped\":{},\"reloads\":{}}}",
        full.shards,
        full.tasks,
        full.workers,
        fmt_json_opt(full_rate),
        fmt_json_opt(pre_rate),
        improvement.map_or("null".to_owned(), |x| format!("{x:.3}")),
        scaling.map_or("null".to_owned(), |x| format!("{x:.3}")),
        full.eval_p999_ns,
        full.event_p999_ns,
        full.logs_emitted,
        full.logs_dropped,
        full.reloads,
    );
    pf_bench::append_trajectory("BENCH_table7.json", "table7-trajectory-v1", &run);
}

fn fmt_json_opt(v: Option<f64>) -> String {
    v.map_or("null".to_owned(), |x| format!("{x:.0}"))
}
