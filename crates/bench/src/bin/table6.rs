//! Regenerates Table 6: per-syscall microbenchmarks under the
//! optimization ladder (lmbench-style).
//!
//! Columns, left to right, cumulatively enable optimizations exactly as
//! the paper's table does: DISABLED (hook off), BASE (default allow
//! only), FULL (1218 rules, no optimizations), CONCACHE (+ context
//! caching), LAZYCON (+ lazy context), EPTSPC (+ entrypoint chains) —
//! plus two extensions: VCACHE (+ per-task verdict caching; see
//! `table6_vcache` for its dedicated repeated-invocation harness) and
//! RULESETC (+ compiled three-axis dispatch; see `table6_rulesetc`).
//! The Table 5 base holds impure rules, so both extension columns
//! bypass the verdict cache and walk their selection on every hook.

use pf_bench::micro::{op_runner, SYSCALLS};
use pf_bench::{dump_metrics_json, overhead_pct, time_per_iter, us, world_at, RuleSet};
use pf_core::OptLevel;

fn main() {
    let iters: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2_000);
    println!("Table 6: microbenchmarks (mean µs/op over {iters} iterations, % vs DISABLED)");
    println!("{:-<138}", "");
    print!("{:<12}", "syscall");
    for level in OptLevel::ALL {
        print!(" {:>17}", level.name());
    }
    println!();
    println!("{:-<138}", "");

    for name in SYSCALLS {
        let mut cells: Vec<String> = Vec::new();
        let mut baseline = None;
        for level in OptLevel::ALL {
            let rules = if level == OptLevel::Disabled || level == OptLevel::Base {
                RuleSet::None
            } else {
                RuleSet::Full
            };
            let (mut k, pid) = world_at(level, rules);
            let mut runner = op_runner(&mut k, pid, name);
            let per = time_per_iter(iters, || runner(&mut k));
            let cell = match baseline {
                None => {
                    baseline = Some(per);
                    format!("{:>10}", us(per))
                }
                Some(base) => {
                    format!("{:>9} ({:>4.0}%)", us(per), overhead_pct(base, per))
                }
            };
            cells.push(cell);
        }
        print!("{:<12}", name);
        for c in cells {
            print!(" {c:>17}");
        }
        println!();
    }
    println!("{:-<138}", "");
    println!(
        "Shape check vs paper: BASE ~ DISABLED; FULL worst (linear rule scan + eager context);\n\
         each optimization reduces overhead; EPTSPC returns resource syscalls to near-BASE."
    );

    // Instrumented pass, separate from the timed runs above so detailed
    // metric collection cannot skew the table: one EPTSPC world under
    // the full rule base, every row's syscall mix, dumped as JSON.
    let (mut k, pid) = world_at(OptLevel::EptSpc, RuleSet::Full);
    k.firewall.metrics().set_detailed(true);
    for name in SYSCALLS {
        let mut runner = op_runner(&mut k, pid, name);
        for _ in 0..100 {
            runner(&mut k);
        }
    }
    dump_metrics_json(&k.firewall.to_json(), "table6");
}
