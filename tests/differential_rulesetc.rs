//! Four-way differential fuzzing of the RULESETC compiled-dispatch rung.
//!
//! RULESETC must be *transparent*: for any ruleset and access trace,
//! FULL ≡ EPTSPC ≡ VCACHE ≡ RULESETC on every verdict, on LOG streams
//! (`ts` masked for the caching levels, whose cached DROPs render their
//! record from the live invocation), on final STATE dictionaries, and
//! on the drop/invocation counters. The seeded generator here spans
//! every selector family (`-s`/`-d`/`-p -i`/`-o`/`-r`/`--ctx-missing`/`-m`,
//! and, in the fault-free runs, rules without `-o`)
//! and every target family (ACCEPT, DROP, RETURN, LOG, TRACE, STATE,
//! RATELIMIT, QUOTA, user-chain jumps three levels deep), and each run
//! drives the trace through a mid-trace hot reload (artifact rebuild +
//! throttle carryover) and a fork (cold per-task session at the
//! caching levels).
//!
//! Under fault injection exact parity is impossible — the levels fetch
//! context in different orders, so the same fault stream lands on
//! different fetches — but the fail-safe direction is still total:
//! with fail-closed context policies, a faulty run may only convert
//! allows into denials, never the reverse. The fault tests assert that
//! *zero* accesses are silently allowed relative to the same level's
//! fault-free run.

use proptest::prelude::*;

use process_firewall::firewall::{FaultConfig, FaultInjector, OptLevel};
use process_firewall::prelude::*;
use process_firewall::rulegen::Xorshift64;

fn label_pool() -> [&'static str; 5] {
    ["tmp_t", "etc_t", "lib_t", "usr_t", "user_home_t"]
}

fn label_path(lbl: usize) -> &'static str {
    match label_pool()[lbl] {
        "tmp_t" => "/tmp",
        "etc_t" => "/etc/passwd",
        "lib_t" => "/lib/libc-2.15.so",
        "usr_t" => "/usr/share/pyshared/dstat_helpers.py",
        _ => "/home/user",
    }
}

/// Generates one Input-chain rule. `stateful` gates the impure pieces
/// (STATE, throttles, non-fail-closed `--ctx-missing` overrides) that
/// make faulty-vs-fault-free comparison undecidable.
fn input_rule(rng: &mut Xorshift64, stateful: bool) -> String {
    let labels = label_pool();
    let lbl = rng.below(5) as usize;
    let mut line = String::from("pftables -A INPUT");

    if rng.chance(15) {
        // Half match the victim's label, half a label it never runs as.
        let subj = if rng.chance(50) { "user_t" } else { "httpd_t" };
        line.push_str(&format!(" -s {subj}"));
    }
    let positive_label = match rng.below(100) {
        0..=69 => {
            line.push_str(&format!(" -d {}", labels[lbl]));
            true
        }
        70..=77 => {
            line.push_str(&format!(" -d ~{}", labels[lbl]));
            false
        }
        78..=85 => {
            line.push_str(&format!(
                " -d {{{}|{}}}",
                labels[lbl],
                labels[rng.below(5) as usize]
            ));
            true
        }
        _ => false,
    };
    if rng.chance(40) {
        line.push_str(&format!(" -p /bin/victim -i {:#x}", 0x100 + rng.below(3)));
    }
    let op = ["FILE_OPEN", "DIR_SEARCH"][usize::from(rng.chance(25))];
    // Some fault-free rules leave out `-o`, so RULESETC's op-wildcard
    // node sees traffic. Only with a positive pool label: without `-o`,
    // a negated or absent label also matches the harness's fork, which
    // a DROP would deny. The fault runs keep `-o` on every rule: there
    // a fork's failed label read could fail closed on a rule without it.
    if !(stateful && positive_label && rng.chance(15)) {
        line.push_str(&format!(" -o {op}"));
    }
    if rng.chance(10) {
        // Almost never matches a real device/inode fold — exercises
        // resource-based exclusion, not matching.
        line.push_str(&format!(" -r 0x{:x}", 0xbeef_0000u64 + rng.below(64)));
    }
    if stateful {
        if rng.chance(10) {
            let pol = ["skip", "match", "drop"][rng.below(3) as usize];
            line.push_str(&format!(" --ctx-missing {pol}"));
        }
        if rng.chance(12) {
            line.push_str(&format!(
                " -m STATE --key {} --cmp {}",
                40 + rng.below(4),
                rng.below(3)
            ));
        }
    } else if rng.chance(10) {
        line.push_str(" --ctx-missing drop");
    }

    let target = if stateful {
        match rng.below(100) {
            0..=24 => "DROP".to_owned(),
            25..=44 => "ACCEPT".to_owned(),
            45..=54 => "RETURN".to_owned(),
            55..=64 => format!("LOG --tag t{lbl}"),
            65..=69 => "TRACE".to_owned(),
            70..=79 => format!("svc{}", rng.below(3)),
            80..=87 => format!(
                "STATE --set --key {} --value {}",
                40 + rng.below(4),
                rng.below(3)
            ),
            88..=93 => "RATELIMIT --rate 300 --burst 2 --exceed drop".to_owned(),
            _ => "QUOTA --limit 3 --window 512 --exceed drop".to_owned(),
        }
    } else {
        match rng.below(100) {
            0..=29 => "DROP".to_owned(),
            30..=54 => "ACCEPT".to_owned(),
            55..=64 => "RETURN".to_owned(),
            65..=79 => format!("LOG --tag t{lbl}"),
            80..=86 => "TRACE".to_owned(),
            _ => format!("svc{}", rng.below(3)),
        }
    };
    line.push_str(&format!(" -j {target}"));
    line
}

/// A full seeded ruleset: three user chains (svc0 → svc1 → svc2, so
/// jumps nest to the depth the generator can reach) plus 8–20 Input
/// rules spanning every selector and target family over time.
fn gen_ruleset(rng: &mut Xorshift64, stateful: bool) -> Vec<String> {
    let mut lines: Vec<String> = (0..3).map(|c| format!("pftables -N svc{c}")).collect();
    for c in 0..3usize {
        for _ in 0..1 + rng.below(3) {
            let l = label_pool()[rng.below(5) as usize];
            let target = match rng.below(5) {
                0 if c < 2 => format!("svc{}", c + 1),
                1 => "RETURN".to_owned(),
                2 => "DROP".to_owned(),
                _ => "ACCEPT".to_owned(),
            };
            lines.push(format!(
                "pftables -A svc{c} -o FILE_OPEN -d {l} -j {target}"
            ));
        }
    }
    let n = 8 + rng.below(13);
    for _ in 0..n {
        lines.push(input_rule(rng, stateful));
    }
    lines
}

/// One access: which label's path, at which entrypoint pc, and whether
/// the access happens inside a stack frame at all (unframed accesses
/// exercise the Missing-entrypoint wildcard walk).
type Access = (usize, u64, bool);

fn gen_trace(rng: &mut Xorshift64, len: usize) -> Vec<Access> {
    (0..len)
        .map(|_| (rng.below(5) as usize, rng.below(3), rng.chance(80)))
        .collect()
}

/// Everything observable from one run.
struct Observed {
    outcomes: Vec<bool>,
    logs: Vec<LogEntry>,
    state_parent: Vec<(u64, u64)>,
    state_child: Vec<(u64, u64)>,
    invocations: u64,
    drops: u64,
    dispatch: u64,
    fallback: u64,
}

fn one_access(k: &mut Kernel, pid: Pid, access: Access) -> bool {
    let (lbl, pc, framed) = access;
    let open = |k: &mut Kernel| {
        k.open(pid, label_path(lbl), OpenFlags::rdonly())
            .map(|fd| k.close(pid, fd).unwrap())
            .is_ok()
    };
    if framed {
        k.with_frame(pid, "/bin/victim", 0x100 + pc, open)
    } else {
        open(k)
    }
}

/// Runs the seeded ruleset + trace at `level`: first half of the trace
/// on the parent, then a hot reload (two rules swapped, so compiled
/// artifacts rebuild and unchanged throttle rules carry their buckets),
/// then a fork, then the second half twice on the cold child (repeats
/// give the caching levels warm hits).
fn run_trace(level: OptLevel, seed: u64, stateful: bool, faults: Option<FaultConfig>) -> Observed {
    let mut rng = Xorshift64::new(seed);
    let rules = gen_ruleset(&mut rng, stateful);
    let trace = gen_trace(&mut rng, 12);

    let mut k = standard_world();
    k.install_rules(rules.iter().map(String::as_str)).unwrap();
    k.firewall.set_level(level).unwrap();
    k.fault_injection = faults.map(FaultInjector::new);

    let pid = k.spawn("user_t", "/bin/victim", Uid(1000), Gid(1000));
    let mut outcomes = Vec::new();
    for &a in &trace[..6] {
        outcomes.push(one_access(&mut k, pid, a));
    }

    // Hot reload: keep every line but the last Input rule, append two
    // fresh ones. Unchanged rule text is the throttle-carryover key.
    let mut rules2 = rules.clone();
    rules2.pop();
    rules2.push(input_rule(&mut rng, stateful));
    rules2.push(input_rule(&mut rng, stateful));
    let fw = k.firewall.clone();
    fw.reload(
        rules2.iter().map(String::as_str),
        &mut k.mac,
        &mut k.programs,
    )
    .unwrap();

    let child = k.fork(pid).unwrap();
    for &a in trace[6..].iter().chain(trace[6..].iter()) {
        outcomes.push(one_access(&mut k, child, a));
    }

    let collect = |k: &Kernel, p: Pid| {
        let mut s: Vec<(u64, u64)> = k
            .task(p)
            .unwrap()
            .pf_state
            .iter()
            .map(|(&k, &v)| (k, v))
            .collect();
        s.sort_unstable();
        s
    };
    let state_parent = collect(&k, pid);
    let state_child = collect(&k, child);
    let m = k.firewall.metrics();
    Observed {
        outcomes,
        logs: k.firewall.drain_logs().entries,
        state_parent,
        state_child,
        invocations: m.invocations(),
        drops: m.drops(),
        dispatch: m.rulesetc_dispatch(),
        fallback: m.rulesetc_fallback(),
    }
}

/// Timestamp-free view of a log stream, for comparing the caching
/// levels.
fn strip_ts(logs: &[LogEntry]) -> Vec<LogEntry> {
    logs.iter()
        .map(|l| LogEntry { ts: 0, ..l.clone() })
        .collect()
}

fn assert_four_way(seed: u64) {
    let full = run_trace(OptLevel::Full, seed, true, None);
    let ept = run_trace(OptLevel::EptSpc, seed, true, None);
    let vc = run_trace(OptLevel::Vcache, seed, true, None);
    let rc = run_trace(OptLevel::RulesetC, seed, true, None);

    assert_eq!(
        full.outcomes, ept.outcomes,
        "FULL vs EPTSPC, seed {seed:#x}"
    );
    assert_eq!(full.outcomes, vc.outcomes, "FULL vs VCACHE, seed {seed:#x}");
    assert_eq!(
        full.outcomes, rc.outcomes,
        "FULL vs RULESETC, seed {seed:#x}"
    );

    assert_eq!(full.logs, ept.logs, "FULL vs EPTSPC logs, seed {seed:#x}");
    assert_eq!(
        strip_ts(&full.logs),
        strip_ts(&vc.logs),
        "FULL vs VCACHE logs, seed {seed:#x}"
    );
    assert_eq!(
        strip_ts(&full.logs),
        strip_ts(&rc.logs),
        "FULL vs RULESETC logs, seed {seed:#x}"
    );

    for other in [&ept, &vc, &rc] {
        assert_eq!(full.state_parent, other.state_parent, "seed {seed:#x}");
        assert_eq!(full.state_child, other.state_child, "seed {seed:#x}");
        assert_eq!(full.invocations, other.invocations, "seed {seed:#x}");
        assert_eq!(full.drops, other.drops, "seed {seed:#x}");
    }

    // The RULESETC run actually took the compiled path, and fault-free
    // it never fell back.
    assert!(rc.dispatch > 0, "no compiled dispatch ran, seed {seed:#x}");
    assert_eq!(rc.fallback, 0, "fault-free fallback, seed {seed:#x}");
    for baseline in [&full, &ept, &vc] {
        assert_eq!(baseline.dispatch, 0, "dispatch off-level, seed {seed:#x}");
    }
}

/// The two pinned CI seeds — deterministic four-way parity including
/// reload churn, fork cold-start, STATE/throttle side effects, and
/// every target family.
#[test]
fn four_way_differential_fixed_seed_a() {
    assert_four_way(0x5EED_0001_D1FF_0001);
}

#[test]
fn four_way_differential_fixed_seed_b() {
    assert_four_way(0x5EED_0002_D1FF_0002);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Randomized four-way parity over the full generator surface.
    #[test]
    fn four_way_differential_random_seeds(seed in any::<u64>()) {
        assert_four_way(seed);
    }

    // Fail-safe direction under fault injection: for each level, a run
    // with 5% uniform context-fetch faults may only turn allows into
    // denials relative to the same level's fault-free run (fail-closed
    // policies, stateless targets). Zero silent allows.
    #[test]
    fn faults_never_silently_allow(seed in any::<u64>()) {
        for level in [
            OptLevel::Full,
            OptLevel::EptSpc,
            OptLevel::Vcache,
            OptLevel::RulesetC,
        ] {
            let clean = run_trace(level, seed, false, None);
            let faulty = run_trace(
                level,
                seed,
                false,
                Some(FaultConfig::uniform(seed ^ 0xFA17, 0.05)),
            );
            for (i, (&c, &f)) in
                clean.outcomes.iter().zip(&faulty.outcomes).enumerate()
            {
                prop_assert!(
                    c || !f,
                    "silent allow at access {i}, level {level:?}, seed {seed:#x}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Origin-mutating traces, four ways. The victim taints mid-trace,
// forks (the child inherits the origin), and rides a hot reload; a
// stale cached verdict or a mis-bucketed `--origin` rule in the
// compiled dispatch would break the parity.
// ---------------------------------------------------------------------

fn origin_rule(rng: &mut Xorshift64) -> String {
    let labels = label_pool();
    let lbl = labels[rng.below(5) as usize];
    let mut line = String::from("pftables -A INPUT");
    if rng.chance(40) {
        line.push_str(" -s sshd_t");
    }
    if rng.chance(70) {
        line.push_str(&format!(" -d {lbl}"));
    }
    line.push_str(" -o FILE_OPEN");
    if rng.chance(60) {
        let level = ["tainted", "external"][usize::from(rng.chance(40))];
        line.push_str(&format!(" --origin {level}"));
    }
    let target = match rng.below(100) {
        0..=39 => "DROP",
        40..=69 => "ACCEPT",
        70..=84 => "RETURN",
        _ => "LOG --tag og",
    };
    line.push_str(&format!(" -j {target}"));
    line
}

/// Steps: `0..5` open the label's path, `5` taints the victim (reads
/// adversary-written bait), `6` forks, `7` hot-reloads the ruleset.
fn run_origin_trace(level: OptLevel, seed: u64) -> (Vec<bool>, u64, u64, u64) {
    let mut rng = Xorshift64::new(seed);
    let rules: Vec<String> = (0..6 + rng.below(8))
        .map(|_| origin_rule(&mut rng))
        .collect();
    let steps: Vec<u64> = (0..10).map(|_| rng.below(8)).collect();

    let mut k = standard_world();
    // Bait first: the generated rules may well drop tainted tmp_t
    // writes, and the adversary (user_t) is born tainted.
    let adversary = k.spawn("user_t", "/bin/sh", Uid(1000), Gid(1000));
    let fd = k
        .open(adversary, "/tmp/evil", OpenFlags::creat(0o644))
        .unwrap();
    k.write(adversary, fd, b"payload").unwrap();
    k.close(adversary, fd).unwrap();

    k.install_rules(rules.iter().map(String::as_str)).unwrap();
    k.firewall.set_level(level).unwrap();
    let mut victim = k.spawn("sshd_t", "/bin/victim", Uid::ROOT, Gid::ROOT);
    let mut outcomes = Vec::new();
    // Doubled so the second half replays against caches warmed before
    // the second round of transitions.
    for &step in steps.iter().chain(steps.iter()) {
        let ok = match step {
            0..=4 => k
                .open(victim, label_path(step as usize), OpenFlags::rdonly())
                .map(|fd| k.close(victim, fd).unwrap())
                .is_ok(),
            5 => k
                .open(victim, "/tmp/evil", OpenFlags::rdonly())
                .and_then(|fd| {
                    k.read(victim, fd)?;
                    k.close(victim, fd)
                })
                .is_ok(),
            6 => {
                victim = k.fork(victim).unwrap();
                true
            }
            7 => {
                let fw = k.firewall.clone();
                fw.reload(
                    rules.iter().map(String::as_str),
                    &mut k.mac,
                    &mut k.programs,
                )
                .unwrap();
                true
            }
            _ => unreachable!(),
        };
        outcomes.push(ok);
    }
    let m = k.firewall.metrics();
    let (dispatch, fallback) = (m.rulesetc_dispatch(), m.rulesetc_fallback());
    (outcomes, k.task_origin(victim).unwrap(), dispatch, fallback)
}

fn assert_four_way_origin(seed: u64) {
    let (v_full, o_full, _, _) = run_origin_trace(OptLevel::Full, seed);
    let (v_ept, o_ept, _, _) = run_origin_trace(OptLevel::EptSpc, seed);
    let (v_vc, o_vc, _, _) = run_origin_trace(OptLevel::Vcache, seed);
    let (v_rc, o_rc, dispatch, fallback) = run_origin_trace(OptLevel::RulesetC, seed);

    assert_eq!(v_full, v_ept, "FULL vs EPTSPC, seed {seed:#x}");
    assert_eq!(v_full, v_vc, "FULL vs VCACHE, seed {seed:#x}");
    assert_eq!(v_full, v_rc, "FULL vs RULESETC, seed {seed:#x}");
    assert_eq!(o_full, o_ept, "origin FULL vs EPTSPC, seed {seed:#x}");
    assert_eq!(o_full, o_vc, "origin FULL vs VCACHE, seed {seed:#x}");
    assert_eq!(o_full, o_rc, "origin FULL vs RULESETC, seed {seed:#x}");
    assert!(dispatch > 0, "compiled dispatch idle, seed {seed:#x}");
    assert_eq!(
        fallback, 0,
        "origin rules must ride the compiled path fault-free, seed {seed:#x}"
    );
}

#[test]
fn four_way_origin_differential_fixed_seed() {
    assert_four_way_origin(0x5EED_0419_0419_0001);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn four_way_origin_differential_random_seeds(seed in any::<u64>()) {
        assert_four_way_origin(seed);
    }
}

/// Directed: with a high unwind-fault rate at RULESETC, the engine
/// degrades to the full-chain walk (counted as fallbacks), still denies
/// what the ruleset denies fault-free, and flags decisions degraded.
#[test]
fn rulesetc_fault_storm_degrades_but_fails_closed() {
    let seed = 0x0BAD_FA17_0BAD_FA17u64;
    let clean = run_trace(OptLevel::RulesetC, seed, false, None);
    let faulty = run_trace(
        OptLevel::RulesetC,
        seed,
        false,
        Some(FaultConfig {
            unwind_fail: 0.5,
            object_fail: 0.25,
            ..FaultConfig::off(seed)
        }),
    );
    assert!(faulty.fallback > 0, "fault storm never hit the fallback");
    for (i, (&c, &f)) in clean.outcomes.iter().zip(&faulty.outcomes).enumerate() {
        assert!(c || !f, "silent allow at access {i}");
    }
}
