//! Fault-injection companion to Table 6: what do the fail-safe context
//! semantics cost, and how does the engine degrade under injected
//! context-fetch failures?
//!
//! Two passes over the Table 6 microbenchmark mix under the FULL rule
//! base at EPTSPC:
//!
//! 1. **fault-free** — the baseline, with a disarmed injector in place
//!    so both passes run the identical wrapper code;
//! 2. **faulted** — a seeded injector fails each context channel at the
//!    configured rate (default 10% unwind, 2% on the resource-side
//!    channels, matching the soak lane).
//!
//! The run reports per-op timings, the degraded-decision counters, the
//! injector tallies, and the overhead ratio, and writes the whole
//! record as JSON to `results/table6_faults.json`. The acceptance bar
//! asserted here: fault handling costs at most 2× the fault-free path.

use std::fmt::Write as _;
use std::time::Duration;

use pf_bench::{time_per_iter, us, world_at, RuleSet};
use pf_core::{CtxField, FaultConfig, FaultInjector, FieldCounter, OptLevel};
use pf_os::{Kernel, OpenFlags};
use pf_types::Pid;

/// The syscall mix: the resource-bound Table 6 rows (the fork rows spawn
/// unbounded pid state and measure hook count, not fault handling).
const OPS: [&str; 4] = ["stat", "read", "open+close", "write"];

/// One iteration of a row, tolerant of firewall denials: under
/// fail-closed defaults a degraded benign access *is* denied, and that
/// is the behaviour being measured, not an error.
fn run_op(k: &mut Kernel, pid: Pid, name: &str) -> bool {
    match name {
        "stat" => k.stat(pid, "/etc/passwd").map(|_| ()),
        "read" => k
            .open(pid, "/etc/passwd", OpenFlags::rdonly())
            .and_then(|fd| k.read(pid, fd).and_then(|_| k.close(pid, fd))),
        "open+close" => k
            .open(pid, "/etc/passwd", OpenFlags::rdonly())
            .and_then(|fd| k.close(pid, fd)),
        "write" => k
            .open(pid, "/tmp/bench.out", OpenFlags::creat(0o644))
            .and_then(|fd| k.write(pid, fd, b"x").and_then(|_| k.close(pid, fd))),
        other => panic!("unknown row `{other}`"),
    }
    .is_ok()
}

struct Pass {
    name: &'static str,
    per_op: Vec<(&'static str, Duration)>,
    denials: u64,
    degraded_drops: u64,
    degraded_allows: u64,
    injected: pf_core::FaultStats,
    field_failures: Vec<(&'static str, u64)>,
}

fn run_pass(name: &'static str, cfg: FaultConfig, iters: u64) -> Pass {
    let (mut k, pid) = world_at(OptLevel::EptSpc, RuleSet::Full);
    k.fault_injection = Some(FaultInjector::new(cfg));
    let mut denials = 0u64;
    let mut per_op = Vec::new();
    for op in OPS {
        let per = time_per_iter(iters, || {
            if !run_op(&mut k, pid, op) {
                denials += 1;
            }
        });
        per_op.push((op, per));
    }
    let m = k.firewall.metrics();
    let fields = [
        ("entrypoint", CtxField::Entrypoint),
        ("object_sid", CtxField::ObjectSid),
        ("resource_id", CtxField::ResourceId),
        ("dac_owner", CtxField::DacOwner),
        ("tgt_dac_owner", CtxField::TgtDacOwner),
    ];
    Pass {
        name,
        per_op,
        denials,
        degraded_drops: m.degraded_drops(),
        degraded_allows: m.degraded_allows(),
        injected: k.fault_injection.as_ref().unwrap().stats(),
        field_failures: fields
            .iter()
            .map(|&(n, f)| (n, m.by_field(FieldCounter::Failures, f)))
            .collect(),
    }
}

fn pass_json(p: &Pass, out: &mut String) {
    let _ = write!(out, "{{\"denials\":{}", p.denials);
    let _ = write!(
        out,
        ",\"degraded_drops\":{},\"degraded_allows\":{}",
        p.degraded_drops, p.degraded_allows
    );
    let _ = write!(
        out,
        ",\"injected\":{{\"unwind\":{},\"object\":{},\"link\":{},\"state\":{}}}",
        p.injected.unwind, p.injected.object, p.injected.link, p.injected.state
    );
    out.push_str(",\"field_failures\":{");
    for (i, (n, v)) in p.field_failures.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{n}\":{v}");
    }
    out.push_str("},\"ns_per_op\":{");
    for (i, (op, d)) in p.per_op.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{op}\":{}", d.as_nanos());
    }
    out.push_str("}}");
}

fn main() {
    let iters: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2_000);
    let seed: u64 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xf417);

    let faulted_cfg = FaultConfig {
        seed,
        unwind_fail: 0.10,
        object_fail: 0.02,
        link_fail: 0.02,
        state_fail: 0.02,
        clock_fail: 0.02,
        origin_fail: 0.02,
    };

    println!("Table 6 (faults): microbenchmarks under injected context-fetch failures");
    println!("seed {seed:#x}, {iters} iterations/op, full rule base at EPTSPC");
    println!("{:-<72}", "");
    println!(
        "{:<12} {:>14} {:>14} {:>10}",
        "syscall", "fault-free", "faulted", "ratio"
    );
    println!("{:-<72}", "");

    let base = run_pass("fault_free", FaultConfig::off(seed), iters);
    let faulted = run_pass("faulted", faulted_cfg, iters);

    let mut worst = 0.0f64;
    for ((op, b), (_, f)) in base.per_op.iter().zip(faulted.per_op.iter()) {
        let ratio = f.as_nanos() as f64 / b.as_nanos().max(1) as f64;
        worst = worst.max(ratio);
        println!("{op:<12} {:>14} {:>14} {ratio:>9.2}x", us(*b), us(*f));
    }
    println!("{:-<72}", "");
    println!(
        "faulted pass: {} denials, {} degraded drops, {} degraded allows, {} injected faults",
        faulted.denials,
        faulted.degraded_drops,
        faulted.degraded_allows,
        faulted.injected.unwind
            + faulted.injected.object
            + faulted.injected.link
            + faulted.injected.state,
    );

    let mut json = String::from("{");
    let _ = write!(
        json,
        "\"seed\":{seed},\"iters\":{iters},\"rates\":{{\"unwind\":{},\"object\":{},\"link\":{},\"state\":{}}},",
        faulted_cfg.unwind_fail, faulted_cfg.object_fail, faulted_cfg.link_fail,
        faulted_cfg.state_fail
    );
    let _ = write!(json, "\"worst_overhead_ratio\":{worst:.4},");
    for (i, p) in [&base, &faulted].into_iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(json, "\"{}\":", p.name);
        pass_json(p, &mut json);
    }
    json.push('}');
    let path = std::path::Path::new("results").join("table6_faults.json");
    match std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, &json)) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }

    // The acceptance bar: degraded evaluation stays within 2x of the
    // fault-free path.
    assert!(
        worst <= 2.0,
        "fault handling exceeded the 2x overhead budget: {worst:.2}x"
    );
    println!("overhead budget: worst ratio {worst:.2}x <= 2.00x — OK");
}
