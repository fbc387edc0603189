//! The distributor pipeline end-to-end: live system → LOG records →
//! JSON → parsed back → classified → suggested rules → reinstalled →
//! verified against attacks.

use process_firewall::firewall::LogEntry;
use process_firewall::os::interp::{include_file, PYTHON};
use process_firewall::prelude::*;
use process_firewall::rulegen::classify::accumulate;
use process_firewall::rulegen::{rules_from_trace, trace_from_logs};

fn exercise_service(k: &mut Kernel, iterations: usize) -> Pid {
    let service = k.spawn("staff_t", "/usr/bin/python2.7", Uid::ROOT, Gid::ROOT);
    for _ in 0..iterations {
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

#[test]
fn logs_round_trip_through_json() {
    let mut k = standard_world();
    k.install_rules(["pftables -o FILE_OPEN -j LOG --tag trace"])
        .unwrap();
    exercise_service(&mut k, 5);
    let logs = k.firewall.drain_logs().entries;
    assert!(!logs.is_empty());
    for entry in &logs {
        let json = entry.to_json();
        let parsed = LogEntry::parse_json(&json).unwrap();
        assert_eq!(&parsed, entry, "JSON round trip must be lossless");
    }
}

#[test]
fn suggested_rules_block_unseen_attacks_without_false_positives() {
    // Phase 1: observe a healthy deployment.
    let mut k = standard_world();
    k.install_rules(["pftables -o FILE_OPEN -j LOG --tag trace"])
        .unwrap();
    let service = exercise_service(&mut k, 30);
    let logs = k.firewall.drain_logs().entries;

    // Phase 2: serialize to JSON and back (the distributor's files).
    let jsons: Vec<String> = logs.iter().map(LogEntry::to_json).collect();
    let reparsed: Vec<LogEntry> = jsons
        .iter()
        .map(|j| LogEntry::parse_json(j).unwrap())
        .collect();

    // Phase 3: classify and suggest.
    let stats = accumulate(&trace_from_logs(&reparsed));
    let rules = rules_from_trace(&stats, 10);
    assert!(!rules.is_empty(), "the module-load entrypoint qualifies");

    // Phase 4: install on a "customer" machine and attack it.
    let refs: Vec<&str> = rules.iter().map(String::as_str).collect();
    k.install_rules(refs).unwrap();
    let adversary = k.spawn("user_t", "/bin/sh", Uid(1000), Gid(1000));
    let fd = k
        .open(adversary, "/tmp/dstat_helpers.py", OpenFlags::creat(0o644))
        .unwrap();
    k.close(adversary, fd).unwrap();
    let err = include_file(
        &mut k,
        service,
        PYTHON,
        "/usr/bin/service",
        10,
        "/tmp/dstat_helpers.py",
    )
    .unwrap_err();
    assert!(err.is_firewall_denial(), "unseen attack blocked");

    // Phase 5: the trained-on workload still runs (no false positive).
    include_file(
        &mut k,
        service,
        PYTHON,
        "/usr/bin/service",
        10,
        "/usr/share/pyshared/dstat_helpers.py",
    )
    .unwrap();
}

#[test]
fn both_class_entrypoints_yield_no_rules() {
    // An entrypoint that legitimately touches both integrity classes
    // (e.g. a file browser) must not get a rule — the FP-avoidance rule.
    let mut k = standard_world();
    k.install_rules(["pftables -o FILE_OPEN -j LOG --tag trace"])
        .unwrap();
    let browser = k.spawn("staff_t", "/usr/bin/nautilus", Uid(501), Gid(501));
    for i in 0..10 {
        let path = if i % 2 == 0 { "/etc/passwd" } else { "/tmp" };
        let _ = k.with_frame(browser, "/usr/bin/nautilus", 0x777, |k| {
            let fd = k.open(browser, path, OpenFlags::rdonly()).ok()?;
            k.close(browser, fd).ok()
        });
    }
    let stats = accumulate(&trace_from_logs(&k.firewall.drain_logs().entries));
    // At a threshold of 1 the distributor only sees the first (high)
    // access, so a rule IS produced — and the threshold sweep flags it
    // as a would-be false positive, the paper's Table 8 phenomenon.
    let premature: Vec<_> = rules_from_trace(&stats, 1)
        .into_iter()
        .filter(|r| r.contains("nautilus") && r.contains("0x777"))
        .collect();
    assert_eq!(premature.len(), 1, "threshold 1 over-generates");
    let sweep = process_firewall::rulegen::sweep_thresholds(&stats, &[1]);
    assert!(sweep[0].false_positives >= 1);
    // Past the flip point the entrypoint classifies as Both and is
    // correctly skipped.
    let mature: Vec<_> = rules_from_trace(&stats, 10)
        .into_iter()
        .filter(|r| r.contains("nautilus") && r.contains("0x777"))
        .collect();
    assert!(
        mature.is_empty(),
        "both-class entrypoint must be skipped at a safe threshold: {mature:?}"
    );
}
