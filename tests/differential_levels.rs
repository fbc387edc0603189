//! Differential equivalence across the Table 6 optimization ladder.
//!
//! The optimization levels are *transparent*: FULL, EPTSPC, VCACHE and
//! RULESETC must produce identical verdict sequences, LOG streams and
//! STATE dictionaries for any ruleset and access trace. The caching
//! levels' LOG streams are compared with `ts` masked: a cached DROP
//! renders its record from the live invocation, so every other field
//! (entrypoint, object, resource, adversary bits) must match.
//!
//! The rulesets interleave ACCEPT / RETURN / LOG / STATE / DROP rules,
//! some bound to entrypoints, which is exactly the shape that used to
//! expose the EPTSPC partition-ordering bug: the generic and
//! entrypoint-bound partitions were walked back-to-back instead of in
//! install order. Rules that read the resource (`-r`, `C_INO`) or the
//! adversary model (`-m ADV_ACCESS`), and two objects per label, make
//! the verdict cache serve hits both from entries keyed per label class
//! and from entries keyed per object.

use proptest::prelude::*;

use process_firewall::firewall::OptLevel;
use process_firewall::prelude::*;

fn label_pool() -> [&'static str; 5] {
    ["tmp_t", "etc_t", "lib_t", "usr_t", "user_home_t"]
}

/// Two objects per label, so objects of one class can share a cached
/// verdict while `-r`/`C_INO` rules tell them apart.
fn label_paths(lbl: usize) -> [&'static str; 2] {
    match label_pool()[lbl] {
        "tmp_t" => ["/tmp", "/tmp/upload"],
        "etc_t" => ["/etc/passwd", "/etc/hosts"],
        "lib_t" => ["/lib/libc-2.15.so", "/lib/ld-2.15.so"],
        "usr_t" => [
            "/usr/share/pyshared/dstat_helpers.py",
            "/usr/share/pyshared/site_helpers.py",
        ],
        _ => ["/home/user", "/home/user/notes"],
    }
}

fn label_path(lbl: usize) -> &'static str {
    label_paths(lbl)[0]
}

/// The standard world plus the second object of every label.
fn world() -> Kernel {
    let mut k = standard_world();
    for lbl in 0..label_pool().len() {
        let path = label_paths(lbl)[1];
        if k.lookup(path).is_err() {
            k.put_file(path, b"second object", 0o644, Uid::ROOT, Gid::ROOT)
                .unwrap();
        }
    }
    k
}

/// The folded resource id (`C_INO`) of `path`.
fn ino(k: &Kernel, path: &str) -> u64 {
    k.lookup(path).unwrap().as_u64()
}

/// Number of rule kinds [`rule_line`] generates; kinds in
/// [`PURE_KINDS`] keep a base cacheable.
const KINDS: usize = 10;
const PURE_KINDS: [usize; 6] = [0, 1, 2, 7, 8, 9];

/// One randomized rule line. `kind` selects the target; every target
/// the engine knows how to order-sensitively interleave is represented,
/// plus pure rules that read the resource or the adversary model.
fn rule_line(k: &Kernel, kind: usize, lbl: usize, bound: bool, pc: u64) -> String {
    let l = label_pool()[lbl];
    let ept = if bound {
        format!("-p /bin/victim -i {:#x} ", 0x100 + pc)
    } else {
        String::new()
    };
    let object = ino(k, label_paths(lbl)[pc as usize % 2]);
    match kind % KINDS {
        0 => format!("pftables {ept}-o FILE_OPEN -d {l} -j DROP"),
        1 => format!("pftables {ept}-o FILE_OPEN -d {l} -j ACCEPT"),
        2 => format!("pftables {ept}-o FILE_OPEN -d {l} -j RETURN"),
        3 => format!("pftables {ept}-o FILE_OPEN -d {l} -j LOG --tag t{kind}{lbl}"),
        4 => format!(
            "pftables {ept}-o FILE_OPEN -d {l} -j STATE --set --key {} --value {}",
            40 + lbl as u64,
            pc
        ),
        // Throttle targets are impure (bucket state advances per walk),
        // so VCACHE must classify them uncacheable and re-walk — the
        // differential below proves the verdict stream still agrees,
        // because each level's kernel replays the identical clock.
        5 => format!(
            "pftables {ept}-o FILE_OPEN -d {l} -j RATELIMIT --rate 300 --burst 2 --exceed drop"
        ),
        6 => format!(
            "pftables {ept}-o FILE_OPEN -d {l} -j QUOTA --limit 3 --window 512 --exceed drop"
        ),
        // Resource readers: the verdict key must carry the resource.
        7 => format!("pftables {ept}-o FILE_OPEN -r {object:#x} -j ACCEPT"),
        8 => format!("pftables {ept}-o FILE_OPEN -m COMPARE --v1 C_INO --v2 {object} -j DROP"),
        // Adversary-model reader: keyed through the label.
        9 => {
            let (dir, tgt) = [("--write", "DROP"), ("--read", "ACCEPT")][lbl % 2];
            format!("pftables {ept}-o FILE_OPEN -m ADV_ACCESS {dir} --accessible -j {tgt}")
        }
        _ => unreachable!(),
    }
}

/// One access: which label, which of its two objects, and at which
/// entrypoint pc.
type Access = (usize, usize, u64);

/// Everything observable from one run.
struct Observed {
    outcomes: Vec<bool>,
    logs: Vec<LogEntry>,
    /// The victim's final STATE dictionary, sorted for comparison.
    state: Vec<(u64, u64)>,
    invocations: u64,
    vcache_hits: u64,
    vcache_misses: u64,
    vcache_uncacheable: u64,
    keys_resource: bool,
}

/// Runs one ruleset + access trace at `level` and returns everything
/// observable.
fn run_trace(level: OptLevel, rules: &[(usize, usize, bool, u64)], trace: &[Access]) -> Observed {
    let mut k = world();
    let lines: Vec<String> = rules
        .iter()
        .map(|&(kind, lbl, bound, pc)| rule_line(&k, kind, lbl, bound, pc))
        .collect();
    k.install_rules(lines.iter().map(String::as_str)).unwrap();
    k.firewall.set_level(level).unwrap();
    let pid = k.spawn("user_t", "/bin/victim", Uid(1000), Gid(1000));
    let mut outcomes = Vec::new();
    for &(lbl, file, pc) in trace {
        let ok = k.with_frame(pid, "/bin/victim", 0x100 + pc, |k| {
            k.open(pid, label_paths(lbl)[file], OpenFlags::rdonly())
                .map(|fd| k.close(pid, fd).unwrap())
                .is_ok()
        });
        outcomes.push(ok);
    }
    let mut state: Vec<(u64, u64)> = k
        .task(pid)
        .unwrap()
        .pf_state
        .iter()
        .map(|(&k, &v)| (k, v))
        .collect();
    state.sort_unstable();
    let m = k.firewall.metrics();
    Observed {
        outcomes,
        logs: k.firewall.drain_logs().entries,
        state,
        invocations: m.invocations(),
        vcache_hits: m.vcache_hits(),
        vcache_misses: m.vcache_misses(),
        vcache_uncacheable: m.vcache_uncacheable(),
        keys_resource: k.firewall.base().keys_resource(),
    }
}

/// Timestamp-free view of a log stream.
fn strip_ts(logs: &[LogEntry]) -> Vec<LogEntry> {
    logs.iter()
        .map(|l| LogEntry { ts: 0, ..l.clone() })
        .collect()
}

/// Runs all four levels and asserts they agree; returns the VCACHE and
/// RULESETC observations for callers that check cache behaviour.
fn assert_levels_agree(
    rules: &[(usize, usize, bool, u64)],
    trace: &[Access],
) -> (Observed, Observed) {
    let full = run_trace(OptLevel::Full, rules, trace);
    let ept = run_trace(OptLevel::EptSpc, rules, trace);
    let vc = run_trace(OptLevel::Vcache, rules, trace);
    let rc = run_trace(OptLevel::RulesetC, rules, trace);
    for (name, other) in [("EPTSPC", &ept), ("VCACHE", &vc), ("RULESETC", &rc)] {
        assert_eq!(full.outcomes, other.outcomes, "FULL vs {name} verdicts");
        assert_eq!(full.state, other.state, "FULL vs {name} state");
    }
    assert_eq!(full.logs, ept.logs, "FULL vs EPTSPC log streams");
    for (name, other) in [("VCACHE", &vc), ("RULESETC", &rc)] {
        assert_eq!(
            strip_ts(&full.logs),
            strip_ts(&other.logs),
            "FULL vs {name} log streams"
        );
    }
    (vc, rc)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The headline differential: FULL ≡ EPTSPC ≡ VCACHE ≡ RULESETC on
    // verdicts, LOG streams and STATE over interleaved-target rulesets,
    // with repeated accesses so the caching levels actually serve hits
    // mid-trace. `pure` draws only cacheable rule kinds, so half the
    // cases run a base the verdict cache serves.
    #[test]
    fn full_eptspc_vcache_verdicts_and_side_effects_agree(
        pure in any::<bool>(),
        rules in prop::collection::vec(
            (0usize..KINDS, 0usize..5, any::<bool>(), 0u64..3),
            1..14
        ),
        trace in prop::collection::vec((0usize..5, 0usize..2, 0u64..3), 1..10),
    ) {
        // Pure cases draw cacheable kinds over two labels (one
        // adversary-writable, one not), so objects of a class meet
        // resource readers often.
        let labels = if pure { 2 } else { label_pool().len() };
        let rules: Vec<_> = rules
            .into_iter()
            .map(|(kind, lbl, bound, pc)| {
                let kind = if pure { PURE_KINDS[kind % PURE_KINDS.len()] } else { kind };
                (kind, lbl % labels, bound, pc)
            })
            .collect();
        // Repeat the trace so the second half runs against a warm
        // verdict cache at VCACHE and RULESETC.
        let doubled: Vec<Access> = trace
            .iter()
            .chain(trace.iter())
            .map(|&(lbl, file, pc)| (lbl % labels, file, pc))
            .collect();
        assert_levels_agree(&rules, &doubled);
    }
}

#[test]
fn pure_bases_serve_hits_keyed_per_class_and_per_object() {
    // Every object of both labels, twice: the second round is warm.
    let trace: Vec<Access> = [(1, 0), (1, 1), (0, 1), (0, 0)]
        .iter()
        .cycle()
        .take(8)
        .map(|&(lbl, file)| (lbl, file, 0))
        .collect();
    // Per class: DROP etc_t, ADV_ACCESS on the rest.
    let per_class = [(0, 1, false, 0), (9, 0, false, 0)];
    // Per object: the same, behind an ACCEPT for /etc/hosts alone.
    let per_object = [(7, 1, false, 1), (0, 1, false, 0), (9, 0, false, 0)];
    for (rules, keyed) in [(&per_class[..], false), (&per_object[..], true)] {
        let (vc, rc) = assert_levels_agree(rules, &trace);
        for run in [&vc, &rc] {
            assert_eq!(run.keys_resource, keyed);
            assert!(run.vcache_hits > 0, "the warm round must hit");
        }
        // The ACCEPT for /etc/hosts only holds if its entry is separate.
        assert_eq!(vc.outcomes[..2], [false, keyed]);
    }
}

#[test]
fn empty_selections_misses_and_hits_agree_across_levels() {
    // Pure rules bound to pc 1 only: every hook from pc 0 selects no
    // rule and builds no verdict key, while pc 1's FILE_OPEN hooks miss
    // once and then hit. DROP etc_t; DROP what adversaries can write.
    let rules = [(0, 1, true, 1), (9, 0, true, 1)];
    let trace: Vec<Access> = (0..2)
        .flat_map(|lbl| (0..2).map(move |pc| (lbl, 0, pc)))
        .collect();
    let doubled: Vec<Access> = trace.iter().chain(&trace).copied().collect();
    let (vc, rc) = assert_levels_agree(&rules, &doubled);
    for run in [&vc, &rc] {
        assert!(run.vcache_hits > 0, "the warm round must hit");
        assert!(
            run.invocations > run.vcache_hits + run.vcache_misses + run.vcache_uncacheable,
            "some hooks must select no rule"
        );
    }
    assert_eq!(vc.outcomes, [true, false, true, false].repeat(2));
}

// ---------------------------------------------------------------------
// Origin-mutating traces: taint mid-trace, fork inheritance, reload
// churn. A stale cached verdict would break the parity below, because
// an origin transition flips what the `--origin` rules match.
// ---------------------------------------------------------------------

/// A rule line that may carry an `--origin` selector: `origin % 3`
/// picks none / `tainted` / `external`.
fn origin_rule_line(kind: usize, lbl: usize, origin: usize) -> String {
    let l = label_pool()[lbl];
    let og = match origin % 3 {
        1 => "--origin tainted ",
        2 => "--origin external ",
        _ => "",
    };
    match kind % 4 {
        0 => format!("pftables -s sshd_t -o FILE_OPEN -d {l} {og}-j DROP"),
        1 => format!("pftables -o FILE_OPEN -d {l} {og}-j ACCEPT"),
        2 => format!("pftables -o FILE_OPEN -d {l} {og}-j LOG --tag og{kind}{lbl}"),
        3 => format!("pftables -o FILE_OPEN -d {l} {og}-j RETURN"),
        _ => unreachable!(),
    }
}

/// Replays an origin-mutating trace at `level`. Steps `0..5` open the
/// corresponding label; `5` taints the victim (it reads a file an
/// adversary wrote); `6` forks (the child, inheriting the origin,
/// continues the trace); `7` hot-reloads the same ruleset.
fn run_origin_trace(
    level: OptLevel,
    rules: &[(usize, usize, usize)],
    trace: &[usize],
) -> (Vec<bool>, u64) {
    let mut k = standard_world();
    let lines: Vec<String> = rules
        .iter()
        .map(|&(kind, lbl, origin)| origin_rule_line(kind, lbl, origin))
        .collect();
    k.install_rules(lines.iter().map(String::as_str)).unwrap();
    k.firewall.set_level(level).unwrap();

    // Adversary bait: content written by a tainted subject.
    let adversary = k.spawn("user_t", "/bin/sh", Uid(1000), Gid(1000));
    let fd = k
        .open(adversary, "/tmp/evil", OpenFlags::creat(0o644))
        .unwrap();
    k.write(adversary, fd, b"payload").unwrap();
    k.close(adversary, fd).unwrap();

    let mut victim = k.spawn("sshd_t", "/bin/victim", Uid::ROOT, Gid::ROOT);
    let mut outcomes = Vec::new();
    for &step in trace {
        let ok = match step {
            0..=4 => k
                .open(victim, label_path(step), OpenFlags::rdonly())
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
                    lines.iter().map(String::as_str),
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
    (outcomes, k.task_origin(victim).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // FULL ≡ EPTSPC ≡ VCACHE while the subject's origin mutates
    // mid-trace (taints, forks, reload churn). The trace is doubled so
    // the second half runs against a cache warmed *before* any
    // second-round transitions — precisely where a stale hit would
    // surface as a verdict divergence.
    #[test]
    fn origin_mutating_traces_agree_across_levels(
        rules in prop::collection::vec(
            (0usize..4, 0usize..5, 0usize..3),
            1..10
        ),
        trace in prop::collection::vec(0usize..8, 1..12),
    ) {
        let doubled: Vec<usize> =
            trace.iter().chain(trace.iter()).copied().collect();
        let (v_full, o_full) = run_origin_trace(OptLevel::Full, &rules, &doubled);
        let (v_ept, o_ept) = run_origin_trace(OptLevel::EptSpc, &rules, &doubled);
        let (v_vc, o_vc) = run_origin_trace(OptLevel::Vcache, &rules, &doubled);

        prop_assert_eq!(&v_full, &v_ept, "FULL vs EPTSPC verdicts");
        prop_assert_eq!(&v_full, &v_vc, "FULL vs VCACHE verdicts");
        prop_assert_eq!(o_full, o_ept, "final origin FULL vs EPTSPC");
        prop_assert_eq!(o_full, o_vc, "final origin FULL vs VCACHE");
    }
}

#[test]
fn origin_transition_invalidates_warm_verdict_cache() {
    // The stale-cache bug this PR fixes: warm the verdict cache while
    // the subject is trusted, taint it, and re-issue the same access.
    // A stale hit would replay the cached Allow; the origin transition
    // must miss (new origin keys the entry) and the generation bump
    // must flush the stale entries — observable in the counter.
    let mut k = standard_world();
    k.install_rules(["pftables -s sshd_t --origin tainted -o FILE_OPEN -d etc_t -j DROP"])
        .unwrap();
    k.firewall.set_level(OptLevel::Vcache).unwrap();

    let adversary = k.spawn("user_t", "/bin/sh", Uid(1000), Gid(1000));
    let fd = k
        .open(adversary, "/tmp/evil", OpenFlags::creat(0o644))
        .unwrap();
    k.write(adversary, fd, b"payload").unwrap();
    k.close(adversary, fd).unwrap();

    let victim = k.spawn("sshd_t", "/bin/victim", Uid::ROOT, Gid::ROOT);
    for _ in 0..3 {
        let fd = k.open(victim, "/etc/passwd", OpenFlags::rdonly()).unwrap();
        k.close(victim, fd).unwrap();
    }
    assert!(k.firewall.metrics().vcache_hits() > 0, "cache is warm");

    // Taint: the victim consumes adversary-written content.
    let fd = k.open(victim, "/tmp/evil", OpenFlags::rdonly()).unwrap();
    k.read(victim, fd).unwrap();
    k.close(victim, fd).unwrap();

    // The very same access must now flip to Deny — no stale replay.
    let e = k
        .open(victim, "/etc/passwd", OpenFlags::rdonly())
        .unwrap_err();
    assert!(e.is_firewall_denial(), "tainted open must be denied");
    let m = k.firewall.metrics();
    assert!(m.origin_transitions() > 0);
    assert!(m.origin_widened() > 0, "sshd_t crossed the threshold");
    assert!(
        m.origin_vcache_invalidations() > 0,
        "the widening flushed the warm cache"
    );
}

// ---------------------------------------------------------------------
// Directed VCACHE behaviour through the whole kernel stack.
// ---------------------------------------------------------------------

#[test]
fn vcache_serves_hits_for_repeated_denials() {
    let mut k = standard_world();
    k.install_rules(["pftables -o FILE_OPEN -d etc_t -j DROP"])
        .unwrap();
    k.firewall.set_level(OptLevel::Vcache).unwrap();
    let pid = k.spawn("user_t", "/bin/victim", Uid(1000), Gid(1000));
    for _ in 0..5 {
        let e = k.open(pid, "/etc/passwd", OpenFlags::rdonly()).unwrap_err();
        assert!(e.is_firewall_denial());
    }
    // Each open fires four hooks: `syscallbegin`, two DIR_SEARCH and
    // the FILE_OPEN. The `syscallbegin` chain is empty, so that hook
    // selects no rule and never consults the cache. The first open
    // populates one entry per other hook, and every later one is a
    // pure cache hit.
    let m = k.firewall.metrics();
    assert_eq!(m.vcache_misses(), 3, "first open populates the cache");
    assert_eq!(m.vcache_hits(), 12, "repeats are served from it");
    assert_eq!(m.vcache_uncacheable(), 0);
    assert_eq!(
        m.invocations() - m.vcache_hits() - m.vcache_misses() - m.vcache_uncacheable(),
        5,
        "empty selections build no key"
    );
    assert_eq!(m.drops(), 5, "hits still count as drops");
    // Every cached denial is still audited.
    assert_eq!(k.firewall.drain_logs().entries.len(), 5);
}

#[test]
fn reload_invalidates_cached_verdicts_mid_task() {
    let mut k = standard_world();
    k.install_rules(["pftables -o FILE_OPEN -d etc_t -j DROP"])
        .unwrap();
    k.firewall.set_level(OptLevel::Vcache).unwrap();
    let pid = k.spawn("user_t", "/bin/victim", Uid(1000), Gid(1000));
    for _ in 0..2 {
        assert!(k
            .open(pid, "/etc/passwd", OpenFlags::rdonly())
            .unwrap_err()
            .is_firewall_denial());
    }
    assert!(k.firewall.metrics().vcache_hits() > 0);

    // Hot-reload to a ruleset that permits the open; the cached Deny
    // must not survive the generation bump.
    let fw = k.firewall.clone();
    fw.reload(
        ["pftables -o FILE_OPEN -d tmp_t -j DROP"],
        &mut k.mac,
        &mut k.programs,
    )
    .unwrap();
    let fd = k.open(pid, "/etc/passwd", OpenFlags::rdonly()).unwrap();
    k.close(pid, fd).unwrap();
}

// ---------------------------------------------------------------------
// What the verdict key carries: the label class, the resource only when
// a rule reads it, and the adversary bits through label + generation.
// ---------------------------------------------------------------------

/// The `LogEntry::resource` spelling of the object at `path`.
fn resource_name(k: &Kernel, path: &str) -> String {
    let obj = k.lookup(path).unwrap();
    process_firewall::types::ResourceId::File {
        dev: obj.dev,
        ino: obj.ino,
    }
    .to_string()
}

/// A VCACHE [`world`] (where `/etc/hosts` is a second `etc_t` object)
/// with `rules` installed and a victim task.
fn etc_world(rules: &[String]) -> (Kernel, Pid) {
    let mut k = world();
    k.install_rules(rules.iter().map(String::as_str)).unwrap();
    k.firewall.set_level(OptLevel::Vcache).unwrap();
    let pid = k.spawn("user_t", "/bin/victim", Uid(1000), Gid(1000));
    (k, pid)
}

fn vcache_len(k: &Kernel, pid: Pid) -> usize {
    k.task(pid).unwrap().pf_session.vcache_len()
}

#[test]
fn objects_of_one_label_class_share_a_cached_denial() {
    let (mut k, pid) = etc_world(&["pftables -o FILE_OPEN -d etc_t -j DROP".to_owned()]);
    let first = k.open(pid, "/etc/passwd", OpenFlags::rdonly()).unwrap_err();
    let (misses, hits, entries) = (
        k.firewall.metrics().vcache_misses(),
        k.firewall.metrics().vcache_hits(),
        vcache_len(&k, pid),
    );

    // Every hook of the second open — the FILE_OPEN on a new inode
    // included — is served from the entries the first open filled.
    let second = k.open(pid, "/etc/hosts", OpenFlags::rdonly()).unwrap_err();
    assert!(second.is_firewall_denial());
    assert_eq!(first, second, "denied by the same rule");
    let m = k.firewall.metrics();
    assert_eq!(m.vcache_misses(), misses, "no miss on the second object");
    assert!(m.vcache_hits() > hits);
    assert_eq!(vcache_len(&k, pid), entries, "one entry per class");

    // The cached denial's record names its own access.
    let logs = k.firewall.drain_logs().entries;
    assert_eq!(logs.len(), 2);
    assert_eq!(logs[0].resource, resource_name(&k, "/etc/passwd"));
    assert_eq!(logs[1].resource, resource_name(&k, "/etc/hosts"));
    assert_eq!(
        (logs[1].tag.as_str(), logs[1].verdict.as_str()),
        ("DROP", "DENY")
    );
}

#[test]
fn resource_readers_key_each_object_separately() {
    let passwd = ino(&world(), "/etc/passwd");
    let readers = [
        format!("pftables -o FILE_OPEN -r {passwd:#x} -j ACCEPT"),
        format!("pftables -o FILE_OPEN -m COMPARE --v1 C_INO --v2 {passwd} -j ACCEPT"),
    ];
    for reader in readers {
        let rules = [reader, "pftables -o FILE_OPEN -d etc_t -j DROP".to_owned()];
        let (mut k, pid) = etc_world(&rules);
        assert!(k.firewall.base().keys_resource(), "{}", rules[0]);
        for _ in 0..2 {
            let fd = k.open(pid, "/etc/passwd", OpenFlags::rdonly()).unwrap();
            k.close(pid, fd).unwrap();
        }
        let entries = vcache_len(&k, pid);
        // A shared class entry would replay the ACCEPT for /etc/hosts.
        let e = k.open(pid, "/etc/hosts", OpenFlags::rdonly()).unwrap_err();
        assert!(e.is_firewall_denial(), "{}", rules[0]);
        assert_eq!(vcache_len(&k, pid), entries + 1, "{}", rules[0]);
    }
}

#[test]
fn adversary_widening_flushes_entries_keyed_by_label() {
    let mut k = standard_world();
    k.put_file("/var/log/syslog", b"boot\n", 0o644, Uid::ROOT, Gid::ROOT)
        .unwrap();
    k.install_rules(["pftables -o FILE_OPEN -m ADV_ACCESS --write --accessible -j DROP"])
        .unwrap();
    k.firewall.set_level(OptLevel::Vcache).unwrap();
    let pid = k.spawn("user_t", "/bin/victim", Uid(1000), Gid(1000));

    // var_log_t is writable by TCB subjects only: warm an allow.
    for _ in 0..2 {
        let fd = k.open(pid, "/var/log/syslog", OpenFlags::rdonly()).unwrap();
        k.close(pid, fd).unwrap();
    }
    assert!(k.firewall.metrics().vcache_hits() > 0, "cache is warm");
    let invalidations = k.firewall.metrics().origin_vcache_invalidations();
    let origin = k.task_origin(pid).unwrap();

    // Taint sshd_t, which may write var_log_t: the label turns
    // adversary-writable, yet no field of the victim's key moves.
    let sshd = k.mac.lookup_label("sshd_t").unwrap();
    assert!(k.mac.taint_subject(sshd));
    assert_eq!(k.task_origin(pid).unwrap(), origin);

    let e = k
        .open(pid, "/var/log/syslog", OpenFlags::rdonly())
        .unwrap_err();
    assert!(e.is_firewall_denial(), "widened label must be denied");
    assert!(
        k.firewall.metrics().origin_vcache_invalidations() > invalidations,
        "the widening flushed the warm cache"
    );
}
