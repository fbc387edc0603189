//! False-positive soak: run every benign workload under the FULL
//! 1218-rule base and count firewall denials. The paper's deployment
//! claim is that rule bases "can be created … to avoid false positives"
//! (Section 6.3); here the claim is a measured zero.

use pf_attacks::ruleset::{full_rule_base, FULL_RULE_COUNT};
use pf_attacks::webserver::{add_page, Apache};
use pf_attacks::workloads::{apache_build, boot, setup_build_tree, web_serve};
use pf_os::interp::{include_file, PHP, PYTHON};
use pf_os::loader::{load_library, LinkerConfig};
use pf_os::standard_world;
use pf_types::{Gid, SignalNum, Uid};

fn main() {
    let mut k = standard_world();
    let rules = full_rule_base(FULL_RULE_COUNT);
    let refs: Vec<&str> = rules.iter().map(String::as_str).collect();
    k.install_rules(refs).unwrap();
    setup_build_tree(&mut k);

    let mut workloads_run = 0u32;

    // Macro workloads.
    apache_build(&mut k).unwrap();
    workloads_run += 1;
    boot(&mut k).unwrap();
    workloads_run += 1;
    web_serve(&mut k, 50, 4).unwrap();
    workloads_run += 1;

    // Web serving with deep pages.
    let apache = Apache::start(&mut k);
    for n in [1, 3, 5, 9] {
        let uri = add_page(&mut k, n);
        apache.handle_request(&mut k, &uri).unwrap();
    }
    workloads_run += 1;

    // Interpreter traffic: PHP components, Python modules.
    let php = k.spawn("httpd_t", "/usr/bin/php5", Uid(33), Gid(33));
    include_file(
        &mut k,
        php,
        PHP,
        "/var/www/index.php",
        1,
        "/var/www/components/gcalendar.php",
    )
    .unwrap();
    let py = k.spawn("staff_t", "/usr/bin/python2.7", Uid::ROOT, Gid::ROOT);
    include_file(
        &mut k,
        py,
        PYTHON,
        "/usr/bin/dstat",
        3,
        "/usr/share/pyshared/dstat_helpers.py",
    )
    .unwrap();
    workloads_run += 1;

    // Dynamic linking.
    let app = k.spawn("staff_t", "/usr/bin/app", Uid(501), Gid(501));
    load_library(&mut k, app, "libc-2.15.so", &LinkerConfig::default()).unwrap();
    workloads_run += 1;

    // Signals: install, deliver, return, deliver again.
    let sshd = k.spawn("sshd_t", "/usr/sbin/sshd", Uid::ROOT, Gid::ROOT);
    let init = k.spawn("init_t", "/sbin/init", Uid::ROOT, Gid::ROOT);
    k.sigaction(sshd, SignalNum::SIGALRM, true).unwrap();
    assert!(k.kill(init, sshd, SignalNum::SIGALRM).unwrap());
    k.sigreturn(sshd).unwrap();
    assert!(k.kill(init, sshd, SignalNum::SIGALRM).unwrap());
    workloads_run += 1;

    let stats = k.firewall.metrics();
    println!("False-positive soak under the FULL rule base ({FULL_RULE_COUNT} rules)");
    println!("{:-<64}", "");
    println!("benign workload groups run:   {workloads_run}");
    println!("firewall hook invocations:    {}", stats.invocations());
    println!("rules evaluated:              {}", stats.rules_evaluated());
    println!("DENY verdicts (false pos.):   {}", stats.drops());
    println!("{:-<64}", "");
    assert_eq!(
        stats.drops(),
        0,
        "a benign workload was denied — false positive!"
    );
    println!("zero denials: the deployed rule base causes no false positives.");
}
