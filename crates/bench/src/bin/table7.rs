//! Regenerates Table 7: macrobenchmarks (Apache build, boot, web
//! serving) without the firewall, with the base firewall, and with the
//! full 1218-rule base.

use std::time::{Duration, Instant};

use pf_attacks::workloads::{apache_build, boot, setup_build_tree, web_serve};
use pf_bench::{combine_metrics_json, dump_metrics_json, overhead_pct, world_at, RuleSet};
use pf_core::OptLevel;
use pf_os::Kernel;

fn run_workload(
    name: &str,
    runs: u32,
    mut setup: impl FnMut(OptLevel, RuleSet) -> Kernel,
    mut work: impl FnMut(&mut Kernel) -> u64,
) {
    let configs = [
        ("Without PF", OptLevel::Disabled, RuleSet::None),
        ("PF Base", OptLevel::Base, RuleSet::None),
        ("PF Full", OptLevel::EptSpc, RuleSet::Full),
    ];
    let mut baseline: Option<Duration> = None;
    print!("{name:<18}");
    for (_, level, rules) in configs {
        // Warm-up: one untimed run so allocator and cache state settle.
        let mut warm = setup(level, rules);
        let _ = work(&mut warm);
        let mut total = Duration::ZERO;
        let mut syscalls = 0u64;
        for _ in 0..runs {
            let mut k = setup(level, rules);
            let t = Instant::now();
            syscalls = work(&mut k);
            total += t.elapsed();
        }
        let mean = total / runs;
        match baseline {
            None => {
                baseline = Some(mean);
                print!(" {:>14.3}ms", mean.as_secs_f64() * 1e3);
            }
            Some(base) => print!(
                " {:>9.3}ms ({:>4.1}%)",
                mean.as_secs_f64() * 1e3,
                overhead_pct(base, mean)
            ),
        }
        std::hint::black_box(syscalls);
    }
    println!();
}

fn main() {
    let runs: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);
    println!("Table 7: macrobenchmarks (mean over {runs} runs; % overhead vs Without PF)");
    println!("{:-<80}", "");
    println!(
        "{:<18} {:>16} {:>18} {:>18}",
        "Benchmark", "Without PF", "PF Base", "PF Full"
    );
    println!("{:-<80}", "");

    run_workload(
        "Apache Build",
        runs,
        |level, rules| {
            let (mut k, _) = world_at(level, rules);
            setup_build_tree(&mut k);
            k
        },
        |k| apache_build(k).unwrap(),
    );
    run_workload(
        "Boot",
        runs,
        |level, rules| world_at(level, rules).0,
        |k| boot(k).unwrap(),
    );
    run_workload(
        "Web1 (1 client)",
        runs,
        |level, rules| world_at(level, rules).0,
        |k| web_serve(k, 1, 200).unwrap(),
    );
    run_workload(
        "Web1000",
        runs,
        |level, rules| world_at(level, rules).0,
        |k| web_serve(k, 1000, 1).unwrap(),
    );
    println!("{:-<80}", "");

    // Instrumented pass, separate from the timed runs: one detailed-
    // metrics run per workload under PF Full, combined into one JSON
    // document keyed by workload name.
    let mut sections: Vec<(String, String)> = Vec::new();
    {
        let (mut k, _) = world_at(OptLevel::EptSpc, RuleSet::Full);
        setup_build_tree(&mut k);
        k.firewall.metrics().set_detailed(true);
        let _ = apache_build(&mut k);
        sections.push(("apache_build".into(), k.firewall.to_json()));
    }
    {
        let (mut k, _) = world_at(OptLevel::EptSpc, RuleSet::Full);
        k.firewall.metrics().set_detailed(true);
        let _ = boot(&mut k);
        sections.push(("boot".into(), k.firewall.to_json()));
    }
    {
        let (mut k, _) = world_at(OptLevel::EptSpc, RuleSet::Full);
        k.firewall.metrics().set_detailed(true);
        let _ = web_serve(&mut k, 1, 200);
        sections.push(("web1".into(), k.firewall.to_json()));
    }
    {
        let (mut k, _) = world_at(OptLevel::EptSpc, RuleSet::Full);
        k.firewall.metrics().set_detailed(true);
        let _ = web_serve(&mut k, 1000, 1);
        sections.push(("web1000".into(), k.firewall.to_json()));
    }
    dump_metrics_json(&combine_metrics_json(&sections), "table7");

    println!(
        "Shape check vs paper: PF Base ≪ PF Full, and the full-rule overhead stays a\n\
         small multiple of the base workload. Percentages are inflated relative to the\n\
         paper (0.0-0.9% base, 2.2-4.0% full) because the simulator's syscalls cost\n\
         ~0.1-0.5µs where real ones cost ~2-12µs — the firewall's absolute per-syscall\n\
         cost is divided by a much smaller denominator here (see EXPERIMENTS.md)."
    );
}
