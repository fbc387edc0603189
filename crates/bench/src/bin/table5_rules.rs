//! Regenerates Table 5: the rule base, parsed, installed and verified,
//! plus instantiations of the T1/T2 templates.

use pf_attacks::ruleset::table5_rules;
use pf_os::standard_world;
use pf_rulegen::{instantiate_t1, instantiate_t2};

fn main() {
    println!("Table 5: Process Firewall rules");
    println!("{:-<100}", "");
    let mut k = standard_world();
    let names = [
        "R1 (ld.so trusted libraries)",
        "R2 (python trusted modules)",
        "R3 (libdbus trusted bus socket)",
        "R4 (PHP inclusion labels)",
        "R5 (D-Bus bind: record inode)",
        "R6 (D-Bus chmod: same inode)",
        "R7 (java trusted config)",
        "R8 (SymLinksIfOwnerMatch)",
        "R9 (signal delivery -> chain)",
        "R10 (drop re-entrant signal)",
        "R11 (record in-handler)",
        "R12 (sigreturn clears state)",
        "safe_open (generic link rule)",
    ];
    for (name, rule) in names.iter().zip(table5_rules()) {
        k.install_rules([rule]).unwrap();
        println!("{name}:\n    {rule}\n");
    }
    println!(
        "All {} rules parsed and installed; {} entrypoint-specific chains built.",
        k.firewall.rule_count(),
        k.firewall.base().input_ept_dispatch().bucket_count()
    );

    println!();
    println!("Attack-specific rule templates");
    println!("{:-<100}", "");
    println!(
        "T1 instance (restrict entrypoint to a resource set):\n    {}",
        instantiate_t1("/usr/bin/java", 0x5d7e, "{SYSHIGH}", "FILE_OPEN")
    );
    let [check, use_] = instantiate_t2(
        "/bin/dbus-daemon",
        0x3c750,
        "SOCKET_BIND",
        0x3c786,
        "SOCKET_SETATTR",
        0xbeef,
    );
    println!("T2 instance (TOCTTOU check/use pair):\n    {check}\n    {use_}");
}
