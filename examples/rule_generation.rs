//! Rule generation: from runtime logs to installed rules (Section 6.3).
//!
//! OS distributors, not users, produce Process Firewall rules. This
//! example runs the whole pipeline: collect LOG records from a live
//! system, classify entrypoints by the integrity of what they access,
//! pick a safe invocation threshold, suggest rules, and install them —
//! then verifies the suggested rules actually block an attack the trace
//! never saw.
//!
//! Run with: `cargo run --example rule_generation`

use process_firewall::os::interp::{include_file, PYTHON};
use process_firewall::prelude::*;
use process_firewall::rulegen::classify::accumulate;
use process_firewall::rulegen::{
    rules_from_trace, rules_from_vulnerability, sweep_thresholds, trace_from_logs, VulnRecord,
};

fn main() {
    // 1. Run a system with a catch-all LOG rule, exercising a Python
    //    service that (correctly) only loads system modules.
    let mut kernel = standard_world();
    kernel
        .install_rules(["pftables -o FILE_OPEN -j LOG --tag trace"])
        .unwrap();
    let service = kernel.spawn("staff_t", "/usr/bin/python2.7", Uid::ROOT, Gid::ROOT);
    for _ in 0..25 {
        include_file(
            &mut kernel,
            service,
            PYTHON,
            "/usr/bin/service",
            10,
            "/usr/share/pyshared/dstat_helpers.py",
        )
        .unwrap();
    }
    let logs = kernel.firewall.drain_logs().entries;
    println!("collected {} LOG records from the deployment", logs.len());

    // 2. Classify entrypoints and sweep thresholds (the Table 8 method).
    let trace = trace_from_logs(&logs);
    let stats = accumulate(&trace);
    for row in sweep_thresholds(&stats, &[0, 10, 20]) {
        println!(
            "threshold {:>3}: {} high-only, {} low-only, {} both -> {} rules, {} would be FPs",
            row.threshold,
            row.high_only,
            row.low_only,
            row.both,
            row.rules_produced,
            row.false_positives
        );
    }

    // 3. Suggest rules at a threshold the trace supports.
    let suggested = rules_from_trace(&stats, 20);
    println!("\nsuggested rules:");
    for r in &suggested {
        println!("  {r}");
    }

    // 4. Install them and run an attack the trace never saw: a trojan
    //    module planted in /tmp, imported via the same entrypoint.
    let refs: Vec<&str> = suggested.iter().map(String::as_str).collect();
    kernel.install_rules(refs).unwrap();
    let adversary = kernel.spawn("user_t", "/bin/sh", Uid(1000), Gid(1000));
    let fd = kernel
        .open(adversary, "/tmp/dstat_helpers.py", OpenFlags::creat(0o644))
        .unwrap();
    kernel.write(adversary, fd, b"evil").unwrap();
    kernel.close(adversary, fd).unwrap();
    let err = include_file(
        &mut kernel,
        service,
        PYTHON,
        "/usr/bin/service",
        10,
        "/tmp/dstat_helpers.py",
    )
    .unwrap_err();
    println!("\nattack through the profiled entrypoint: {err}");
    assert!(err.is_firewall_denial());

    // 5. The benign workload the rules were generated from still runs.
    include_file(
        &mut kernel,
        service,
        PYTHON,
        "/usr/bin/service",
        10,
        "/usr/share/pyshared/dstat_helpers.py",
    )
    .unwrap();
    println!("benign system-module import unaffected");

    // 6. Rules can also be generated straight from vulnerability
    //    reports (no trace needed, no false positives possible).
    let vuln_rule = rules_from_vulnerability(&VulnRecord {
        program: "/usr/bin/java".into(),
        ept_pc: 0x5d7e,
        op: "FILE_OPEN".into(),
        unsafe_is_low_integrity: true,
    });
    println!("\nrule generated from a vulnerability report:\n  {vuln_rule}");
}
