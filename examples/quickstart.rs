//! Quickstart: build a system, watch an attack succeed, install one
//! firewall rule, watch the same attack get dropped.
//!
//! Run with: `cargo run --example quickstart`

use process_firewall::attacks::ruleset::SAFE_OPEN;
use process_firewall::prelude::*;

fn main() {
    // 1. A standard Ubuntu-flavoured world: filesystem, labels, /tmp.
    let mut kernel = standard_world();

    // 2. The adversary (an unprivileged user) plants a symlink trap:
    //    /tmp/report -> /etc/shadow.
    let adversary = kernel.spawn("user_t", "/bin/sh", Uid(1000), Gid(1000));
    kernel
        .symlink(adversary, "/etc/shadow", "/tmp/report")
        .unwrap();
    println!("[adversary] planted /tmp/report -> /etc/shadow");

    // 3. A root service writes its report without O_EXCL — classic
    //    link-following victim. Unprotected, the write lands in
    //    /etc/shadow.
    let victim = kernel.spawn("init_t", "/sbin/init", Uid::ROOT, Gid::ROOT);
    let fd = kernel
        .open(victim, "/tmp/report", OpenFlags::creat(0o644))
        .expect("unprotected open follows the trap");
    kernel.write(victim, fd, b"owned\n").unwrap();
    kernel.close(victim, fd).unwrap();
    let shadow = kernel.lookup("/etc/shadow").unwrap();
    println!(
        "[victim]    unprotected write went to /etc/shadow: {:?}",
        kernel.vfs.read(shadow).unwrap()
    );

    // 4. Install ONE generic firewall rule: refuse to follow symlinks
    //    that live in adversary-writable directories and point at
    //    somebody else's files. No program change, no user config.
    kernel.install_rules([SAFE_OPEN]).unwrap();
    println!("[firewall]  installed: {SAFE_OPEN}");

    // 5. The same attack is now dropped during pathname resolution.
    let err = kernel
        .open(victim, "/tmp/report", OpenFlags::creat(0o644))
        .unwrap_err();
    assert!(err.is_firewall_denial());
    println!("[victim]    protected open refused: {err}");

    // 6. Benign behaviour is untouched: the victim's own file works,
    //    and the adversary can still follow links to their own files.
    kernel.unlink(adversary, "/tmp/report").unwrap();
    let fd = kernel
        .open(victim, "/tmp/report", OpenFlags::creat(0o644))
        .expect("no trap, no problem");
    kernel.write(victim, fd, b"boot ok\n").unwrap();
    kernel.close(victim, fd).unwrap();
    println!("[victim]    benign write succeeded — zero false positives");

    // 7. Every denial was logged (how the paper found two new CVEs).
    for log in kernel.firewall.drain_logs().entries {
        if log.verdict == "DENY" {
            println!("[log]       {}", log.to_json());
        }
    }
}
