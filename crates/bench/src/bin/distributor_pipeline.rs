//! The OS-distributor workflow end-to-end, through real files
//! (Section 6.3.2: "OS distributors will generate Process Firewall
//! rules and ship them to users in application packages").
//!
//! 1. run an instrumented deployment; write LOG records to
//!    `target/distributor/trace.jsonl` (one JSON object per line);
//! 2. read the trace back, classify entrypoints, pick a threshold;
//! 3. write the suggested rules to `target/distributor/rules.pf`;
//! 4. on a fresh "customer" machine, load `rules.pf` and verify the
//!    shipped rules block an attack the trace never saw while the
//!    profiled workload still runs.

use std::fs;
use std::path::Path;

use pf_core::LogEntry;
use pf_os::interp::{include_file, PYTHON};
use pf_os::{standard_world, Kernel, OpenFlags};
use pf_rulegen::classify::accumulate;
use pf_rulegen::{rules_from_trace, trace_from_logs};
use pf_types::{Gid, Pid, Uid};

fn exercise(k: &mut Kernel, n: usize) -> Pid {
    let service = k.spawn("staff_t", "/usr/bin/python2.7", Uid::ROOT, Gid::ROOT);
    for _ in 0..n {
        include_file(
            k,
            service,
            PYTHON,
            "/usr/bin/service",
            10,
            "/usr/share/pyshared/dstat_helpers.py",
        )
        .unwrap();
    }
    service
}

fn main() {
    let dir = Path::new("target/distributor");
    fs::create_dir_all(dir).unwrap();

    // Phase 1: instrumented deployment → trace.jsonl.
    let mut k = standard_world();
    k.install_rules(["pftables -o FILE_OPEN -j LOG --tag trace"])
        .unwrap();
    exercise(&mut k, 30);
    let logs = k.firewall.drain_logs().entries;
    let trace_path = dir.join("trace.jsonl");
    let jsonl: String = logs
        .iter()
        .map(|l| l.to_json())
        .collect::<Vec<_>>()
        .join("\n");
    fs::write(&trace_path, &jsonl).unwrap();
    println!(
        "wrote {} LOG records to {}",
        logs.len(),
        trace_path.display()
    );

    // Phase 2: read back, classify, suggest.
    let parsed: Vec<LogEntry> = fs::read_to_string(&trace_path)
        .unwrap()
        .lines()
        .map(|l| LogEntry::parse_json(l).expect("trace line"))
        .collect();
    assert_eq!(parsed.len(), logs.len(), "lossless file round trip");
    let stats = accumulate(&trace_from_logs(&parsed));
    let rules = rules_from_trace(&stats, 10);
    let rules_path = dir.join("rules.pf");
    let mut file_body = String::from("# Generated by distributor_pipeline — do not edit.\n");
    file_body.push_str(&rules.join("\n"));
    file_body.push('\n');
    fs::write(&rules_path, &file_body).unwrap();
    println!("wrote {} rules to {}", rules.len(), rules_path.display());

    // Phase 3: the customer machine loads the shipped rules file.
    let mut customer = standard_world();
    let shipped = fs::read_to_string(&rules_path).unwrap();
    let installed = customer
        .install_rules(shipped.lines())
        .expect("shipped rules install cleanly");
    println!("customer machine installed {installed} rules from the package");

    // Phase 4: verification. An attack the trace never saw...
    let adversary = customer.spawn("user_t", "/bin/sh", Uid(1000), Gid(1000));
    let fd = customer
        .open(adversary, "/tmp/dstat_helpers.py", OpenFlags::creat(0o644))
        .unwrap();
    customer.write(adversary, fd, b"evil").unwrap();
    customer.close(adversary, fd).unwrap();
    let service = customer.spawn("staff_t", "/usr/bin/python2.7", Uid::ROOT, Gid::ROOT);
    let err = include_file(
        &mut customer,
        service,
        PYTHON,
        "/usr/bin/service",
        10,
        "/tmp/dstat_helpers.py",
    )
    .unwrap_err();
    assert!(err.is_firewall_denial());
    println!("unseen attack through the profiled entrypoint: BLOCKED ({err})");

    // ...and the profiled workload is unaffected.
    include_file(
        &mut customer,
        service,
        PYTHON,
        "/usr/bin/service",
        10,
        "/usr/share/pyshared/dstat_helpers.py",
    )
    .unwrap();
    println!("profiled workload on the customer machine: unaffected");
    println!("\npipeline artifacts kept under {}", dir.display());
}
