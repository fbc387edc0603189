//! End-to-end: the complete Table 5 rule base installed at once must
//! block every exploit while leaving every benign workload intact —
//! the paper's system-wide deployment story.

use process_firewall::attacks::ruleset::{full_rule_base, table5_rules, FULL_RULE_COUNT};
use process_firewall::attacks::run_all;
use process_firewall::attacks::webserver::Apache;
use process_firewall::attacks::workloads::{apache_build, boot, setup_build_tree, web_serve};
use process_firewall::firewall::OptLevel;
use process_firewall::os::interp::{include_file, PHP};
use process_firewall::os::loader::{load_library, LinkerConfig};
use process_firewall::prelude::*;

fn fully_armed_world(level: OptLevel) -> Kernel {
    let mut k = standard_world();
    let rules = full_rule_base(FULL_RULE_COUNT);
    let refs: Vec<&str> = rules.iter().map(String::as_str).collect();
    k.install_rules(refs).unwrap();
    k.firewall.set_level(level).unwrap();
    k
}

#[test]
fn all_exploits_match_table4_under_individual_rules() {
    for o in run_all() {
        assert!(o.as_expected(), "{}: {}", o.scenario.id, o.detail);
    }
}

#[test]
fn whole_table5_base_coexists_without_interference() {
    // Install ALL rules, then drive several distinct victims in the
    // same world: each rule must fire for its own attack only.
    let mut k = standard_world();
    k.install_rules(table5_rules()).unwrap();

    // Library hijack blocked, fallback works (R1).
    let adversary = k.spawn("user_t", "/bin/sh", Uid(1000), Gid(1000));
    k.mkdir(adversary, "/tmp/evil", 0o777).unwrap();
    let fd = k
        .open(adversary, "/tmp/evil/libc-2.15.so", OpenFlags::creat(0o755))
        .unwrap();
    k.close(adversary, fd).unwrap();
    let apache = k.spawn("httpd_t", "/usr/bin/apache2", Uid::ROOT, Gid::ROOT);
    let lib = load_library(
        &mut k,
        apache,
        "libc-2.15.so",
        &LinkerConfig {
            rpath: vec!["/tmp/evil".into()],
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(lib.path, "/lib/libc-2.15.so");

    // PHP LFI blocked, component include allowed (R4).
    let php = k.spawn("httpd_t", "/usr/bin/php5", Uid(33), Gid(33));
    assert!(include_file(&mut k, php, PHP, "/x.php", 1, "/etc/passwd").is_err());
    assert!(include_file(
        &mut k,
        php,
        PHP,
        "/x.php",
        1,
        "/var/www/components/gcalendar.php"
    )
    .is_ok());

    // Signal race blocked (R9-R12) while ordinary signals flow.
    let sshd = k.spawn("sshd_t", "/usr/sbin/sshd", Uid::ROOT, Gid::ROOT);
    let trigger = k.spawn("init_t", "/bin/sh", Uid::ROOT, Gid::ROOT);
    k.sigaction(sshd, SignalNum::SIGALRM, true).unwrap();
    assert!(k.kill(trigger, sshd, SignalNum::SIGALRM).unwrap());
    assert!(!k.kill(trigger, sshd, SignalNum::SIGALRM).unwrap());
    k.sigreturn(sshd).unwrap();
    assert!(k.kill(trigger, sshd, SignalNum::SIGALRM).unwrap());

    // Everyday file traffic untouched by the whole base.
    let user = k.spawn("user_t", "/bin/sh", Uid(1000), Gid(1000));
    let fd = k.open(user, "/etc/passwd", OpenFlags::rdonly()).unwrap();
    assert!(k.read(user, fd).is_ok());
    let w = k.open(user, "/tmp/notes", OpenFlags::creat(0o644)).unwrap();
    assert!(k.write(user, w, b"hello").is_ok());
}

#[test]
fn macro_workloads_survive_the_full_1218_rule_base() {
    for level in [OptLevel::Full, OptLevel::EptSpc] {
        let mut k = fully_armed_world(level);
        setup_build_tree(&mut k);
        apache_build(&mut k).unwrap();
        boot(&mut k).unwrap();
        web_serve(&mut k, 10, 3).unwrap();
    }
}

#[test]
fn optimization_levels_agree_on_the_webserver() {
    // Verdict equivalence across the optimization ladder on a real
    // kernel (not just the engine mock): the same request mix must
    // produce byte-identical outcomes at every level.
    let mut outcomes: Vec<Vec<bool>> = Vec::new();
    for level in [
        OptLevel::Full,
        OptLevel::ConCache,
        OptLevel::LazyCon,
        OptLevel::EptSpc,
    ] {
        let mut k = fully_armed_world(level);
        k.install_rules([process_firewall::attacks::webserver::APACHE_DOCROOT_RULE])
            .unwrap();
        let apache = Apache::start(&mut k);
        k.put_symlink("/var/www/exports", "/etc", Uid(1000))
            .unwrap();
        let mut results = Vec::new();
        for uri in ["/index.html", "/exports/passwd", "/index.php", "/missing"] {
            results.push(apache.handle_request(&mut k, uri).is_ok());
        }
        outcomes.push(results);
    }
    for later in &outcomes[1..] {
        assert_eq!(&outcomes[0], later);
    }
}

#[test]
fn firewall_drops_are_attributed_and_logged() {
    let mut k = standard_world();
    k.install_rules(table5_rules()).unwrap();
    let php = k.spawn("httpd_t", "/usr/bin/php5", Uid(33), Gid(33));
    let err = include_file(&mut k, php, PHP, "/x.php", 1, "/etc/passwd").unwrap_err();
    match err {
        PfError::FirewallDenied { chain, .. } => assert_eq!(chain, "input"),
        other => panic!("expected firewall denial, got {other}"),
    }
    let denials: Vec<_> = k
        .firewall
        .drain_logs()
        .entries
        .into_iter()
        .filter(|l| l.verdict == "DENY")
        .collect();
    assert_eq!(denials.len(), 1);
    assert_eq!(denials[0].ept_prog, "/usr/bin/php5");
    assert_eq!(denials[0].ept_pc, 0x27ad2c);
    assert_eq!(denials[0].object, "etc_t");
}
