//! Fault-injection hardening of the hook-evaluation path.
//!
//! The fail-safe contract under test: when a context fetch *errors*
//! (as opposed to the context being benignly absent), a DROP rule must
//! fail closed by default, the decision must be reported degraded, and
//! no exploit ever slips through on an Allow that looks ordinary.
//!
//! Three layers of coverage:
//!
//! 1. a per-rule × per-field sweep — every Table 5 exploit rule is
//!    driven by an attack environment that it denies fault-free, then
//!    each fallible context channel is failed individually at 100%:
//!    the access must still be denied **or** the decision must carry
//!    `degraded` (no silent allows);
//! 2. a seeded soak at the paper-relevant 10% unwind-failure rate over
//!    the full Table 5 ruleset, single- and multi-threaded, checking
//!    zero exploit successes and the counter conservation invariant;
//! 3. a kernel-level run with [`Kernel::fault_injection`] armed, so the
//!    hook plumbing (not just the engine) is exercised.

use std::sync::{Arc, Barrier};

use process_firewall::attacks::ruleset::{self, full_rule_base, table5_rules, FULL_RULE_COUNT};
use process_firewall::firewall::{
    state_key, EvalEnv, FaultConfig, FaultInjector, FaultyEnv, ObjectInfo, OptLevel,
    ProcessFirewall, SignalInfo, TaskSession,
};
use process_firewall::mac::{ubuntu_mini, MacPolicy};
use process_firewall::types::{
    DeviceId, Gid, InodeNum, Interner, LsmOperation, Mode, Pid, ProgramId, ResourceId, SecId,
    SignalNum, Uid, Verdict,
};

/// A configurable environment that can impersonate each Table 5
/// victim precisely enough for its rule to fire.
struct AttackEnv {
    mac: MacPolicy,
    programs: Interner,
    subject: SecId,
    program: ProgramId,
    pc: u64,
    object: ObjectInfo,
    link_owner: Option<Uid>,
    state: std::collections::HashMap<u64, u64>,
    signal: Option<SignalInfo>,
    origin: Option<u64>,
}

impl AttackEnv {
    /// `programs` must be (a clone of) the interner the rules were
    /// installed through, so entrypoint `ProgramId`s line up.
    fn new(
        programs: Interner,
        subject: &str,
        program: &str,
        pc: u64,
        object_label: &str,
        ino: u64,
        owner: u32,
    ) -> Self {
        let mac = ubuntu_mini();
        let mut programs = programs;
        let subject = mac.lookup_label(subject).unwrap();
        let program = programs.intern(program);
        let sid = mac.lookup_label(object_label).unwrap();
        AttackEnv {
            mac,
            programs,
            subject,
            program,
            pc,
            object: ObjectInfo {
                sid,
                resource: ResourceId::File {
                    dev: DeviceId(0),
                    ino: InodeNum(ino),
                },
                owner: Uid(owner),
                group: Gid(owner),
                mode: Mode::FILE_DEFAULT,
            },
            link_owner: None,
            state: std::collections::HashMap::new(),
            signal: None,
            origin: None,
        }
    }
}

impl EvalEnv for AttackEnv {
    fn subject_sid(&self) -> SecId {
        self.subject
    }
    fn program(&self) -> ProgramId {
        self.program
    }
    fn pid(&self) -> Pid {
        Pid(1)
    }
    fn unwind_entrypoint(&mut self) -> Option<(ProgramId, u64)> {
        Some((self.program, self.pc))
    }
    fn object(&self) -> Option<ObjectInfo> {
        Some(self.object)
    }
    fn link_target_owner(&mut self) -> Option<Uid> {
        self.link_owner
    }
    fn syscall_arg(&self, _idx: usize) -> u64 {
        0
    }
    fn signal(&self) -> Option<SignalInfo> {
        self.signal
    }
    fn subject_origin(&self) -> Option<u64> {
        self.origin
    }
    fn mac(&self) -> &MacPolicy {
        &self.mac
    }
    fn program_name(&self, id: ProgramId) -> Arc<str> {
        self.programs.resolve_shared(id)
    }
    fn state_get(&self, key: u64) -> Option<u64> {
        self.state.get(&key).copied()
    }
    fn state_set(&mut self, key: u64, value: u64) {
        self.state.insert(key, value);
    }
    fn state_unset(&mut self, key: u64) {
        self.state.remove(&key);
    }
    fn cache_get(&self, _slot: u8) -> Option<u64> {
        None
    }
    fn cache_put(&mut self, _slot: u8, _value: u64) {}
    fn now(&self) -> u64 {
        0
    }
}

/// One Table 5 exploit (DROP) rule plus the attack that triggers it.
struct Attack {
    rule: &'static str,
    text: &'static str,
    op: LsmOperation,
    build: fn(Interner) -> AttackEnv,
}

/// The attacks, one per exploit rule of Table 5 (the STATE-set and
/// chain-routing rules R5/R9/R11/R12 are support rules, exercised
/// through R6 and R10).
fn attacks() -> Vec<Attack> {
    vec![
        Attack {
            rule: "R1",
            text: ruleset::R1,
            op: LsmOperation::FileOpen,
            // ld.so's library-open entrypoint reaching a planted tmp_t
            // trojan (E1/E8).
            build: |p| AttackEnv::new(p, "httpd_t", "/lib/ld-2.15.so", 0x596b, "tmp_t", 11, 1000),
        },
        Attack {
            rule: "R2",
            text: ruleset::R2,
            op: LsmOperation::FileOpen,
            // Python module load redirected into /tmp (E2).
            build: |p| {
                AttackEnv::new(
                    p,
                    "staff_t",
                    "/usr/bin/python2.7",
                    0x34f05,
                    "tmp_t",
                    12,
                    1000,
                )
            },
        },
        Attack {
            rule: "R3",
            text: ruleset::R3,
            op: LsmOperation::UnixStreamSocketConnect,
            // libdbus connecting to a squatted session-bus socket (E3).
            build: |p| {
                AttackEnv::new(
                    p,
                    "system_dbusd_t",
                    "/lib/libdbus-1.so.3",
                    0x39231,
                    "tmp_t",
                    13,
                    1000,
                )
            },
        },
        Attack {
            rule: "R4",
            text: ruleset::R4,
            op: LsmOperation::FileOpen,
            // PHP include of a non-script label (E4 LFI).
            build: |p| AttackEnv::new(p, "httpd_t", "/usr/bin/php5", 0x27ad2c, "etc_t", 14, 0),
        },
        Attack {
            rule: "R6",
            text: ruleset::R6,
            op: LsmOperation::SocketSetattr,
            // D-Bus chmod reaching a different inode than was bound (E6):
            // recorded C_INO (999) ≠ current resource id.
            build: |p| {
                let mut env = AttackEnv::new(
                    p,
                    "system_dbusd_t",
                    "/bin/dbus-daemon",
                    0x3c786,
                    "tmp_t",
                    15,
                    0,
                );
                env.state.insert(0xbeef, 999);
                env
            },
        },
        Attack {
            rule: "R7",
            text: ruleset::R7,
            op: LsmOperation::FileOpen,
            // java reading a low-integrity configuration file (E7).
            build: |p| AttackEnv::new(p, "staff_t", "/usr/bin/java", 0x5d7e, "tmp_t", 16, 1000),
        },
        Attack {
            rule: "R8",
            text: ruleset::R8,
            op: LsmOperation::LinkRead,
            // Apache following a symlink whose owner differs from the
            // target's owner.
            build: |p| {
                let mut env =
                    AttackEnv::new(p, "httpd_t", "/usr/bin/apache2", 0x2d637, "tmp_t", 17, 1000);
                env.link_owner = Some(Uid(0));
                env
            },
        },
        Attack {
            rule: "R10",
            text: ruleset::R10,
            op: LsmOperation::ProcessSignalDelivery,
            // Blockable handled signal delivered while a handler runs
            // (E5): R9 routes to the signal chain, R10 drops.
            build: |p| {
                let mut env = AttackEnv::new(p, "sshd_t", "/usr/sbin/sshd", 0x1, "tmp_t", 18, 0);
                env.signal = Some(SignalInfo {
                    signal: SignalNum::SIGALRM,
                    has_handler: true,
                    unblockable: false,
                    in_handler: true,
                });
                env.state.insert(state_key("'sig'"), 1);
                env
            },
        },
        Attack {
            rule: "SAFE_OPEN",
            text: ruleset::SAFE_OPEN,
            op: LsmOperation::LinkRead,
            // safe_open: adversary-writable symlink pointing at somebody
            // else's file (E9).
            build: |p| {
                let mut env = AttackEnv::new(p, "init_t", "/sbin/init", 0x9, "tmp_t", 19, 1000);
                env.link_owner = Some(Uid(0));
                env
            },
        },
    ]
}

/// Builds a firewall carrying the 13 Table 5 rules and returns the
/// interner the entrypoint programs were registered in.
fn table5_firewall(level: OptLevel) -> (ProcessFirewall, Interner) {
    let mut mac = ubuntu_mini();
    let mut programs = Interner::new();
    let pf = ProcessFirewall::new(level);
    pf.install_all(table5_rules(), &mut mac, &mut programs)
        .unwrap();
    (pf, programs)
}

/// Every fallible context channel, failed individually at 100%.
fn single_field_configs() -> [(&'static str, FaultConfig); 5] {
    let off = FaultConfig::off(1);
    [
        (
            "unwind",
            FaultConfig {
                unwind_fail: 1.0,
                ..off
            },
        ),
        (
            "object",
            FaultConfig {
                object_fail: 1.0,
                ..off
            },
        ),
        (
            "link",
            FaultConfig {
                link_fail: 1.0,
                ..off
            },
        ),
        (
            "state",
            FaultConfig {
                state_fail: 1.0,
                ..off
            },
        ),
        (
            "origin",
            FaultConfig {
                origin_fail: 1.0,
                ..off
            },
        ),
    ]
}

#[test]
fn attack_envs_are_denied_fault_free() {
    // The sweep below is only meaningful if each environment actually
    // triggers its rule when nothing is injected.
    for level in [OptLevel::Full, OptLevel::EptSpc] {
        let (pf, programs) = table5_firewall(level);
        for attack in attacks() {
            let mut env = (attack.build)(programs.clone());
            let d = pf.evaluate(&mut env, attack.op);
            assert_eq!(
                d.verdict,
                Verdict::Deny,
                "{} attack env must be denied fault-free at {level:?}",
                attack.rule
            );
            assert!(
                !d.degraded,
                "{} fault-free deny is not degraded",
                attack.rule
            );
        }
    }
}

#[test]
fn no_exploit_rule_silently_allows_under_any_single_field_fault() {
    // Satellite: exploit rule × individually-failed context field. The
    // access is either still blocked, or the decision says `degraded` —
    // an Allow that looks ordinary never happens.
    for level in [OptLevel::Full, OptLevel::EptSpc] {
        for (field, cfg) in single_field_configs() {
            let (pf, programs) = table5_firewall(level);
            let injector = FaultInjector::new(cfg);
            for attack in attacks() {
                let mut env = (attack.build)(programs.clone());
                let mut faulty = FaultyEnv::new(&mut env, &injector);
                let d = pf.evaluate(&mut faulty, attack.op);
                assert!(
                    d.verdict == Verdict::Deny || d.degraded,
                    "silent allow: rule {} with failed {field} field at {level:?}",
                    attack.rule
                );
            }
        }
    }
}

#[test]
fn unwind_faults_fail_closed_for_every_entrypoint_rule() {
    // Stronger than the no-silent-allow property: the entrypoint-bound
    // exploit rules (R1–R4, R7, R8) are DROP rules, so the engine
    // default must deny outright when the unwinder errors. Each rule is
    // installed alone so no other Table 5 rule can shadow the verdict.
    let entrypoint_rules = ["R1", "R2", "R3", "R4", "R7", "R8"];
    for level in [OptLevel::Full, OptLevel::EptSpc] {
        for attack in attacks()
            .into_iter()
            .filter(|a| entrypoint_rules.contains(&a.rule))
        {
            let mut mac = ubuntu_mini();
            let mut programs = Interner::new();
            let pf = ProcessFirewall::new(level);
            pf.install(attack.text, &mut mac, &mut programs).unwrap();
            let injector = FaultInjector::new(FaultConfig {
                unwind_fail: 1.0,
                ..FaultConfig::off(2)
            });
            let mut env = (attack.build)(programs.clone());
            let mut faulty = FaultyEnv::new(&mut env, &injector);
            let d = pf.evaluate(&mut faulty, attack.op);
            assert_eq!(
                d.verdict,
                Verdict::Deny,
                "{} must fail closed at {level:?}",
                attack.rule
            );
            assert!(d.degraded, "{} fail-closed deny is degraded", attack.rule);
            assert_eq!(pf.metrics().degraded_drops(), 1, "{}", attack.rule);
        }
    }
}

#[test]
fn origin_faults_fail_closed_for_origin_rules() {
    // The post-compromise containment rule: tainted httpd workers may
    // not write. When the origin (taint label) fetch errors, the DROP
    // rule must fail closed — a blinded taint check never turns into a
    // silent allow for a subject that *is* tainted.
    const RULE: &str = "pftables -s httpd_t --origin tainted -o FILE_WRITE -j DROP";
    for level in [OptLevel::Full, OptLevel::EptSpc] {
        let mut mac = ubuntu_mini();
        let mut programs = Interner::new();
        let pf = ProcessFirewall::new(level);
        pf.install(RULE, &mut mac, &mut programs).unwrap();

        let mut env = AttackEnv::new(
            programs.clone(),
            "httpd_t",
            "/usr/bin/apache2",
            0x2d637,
            "var_log_t",
            21,
            0,
        );
        env.origin = Some(2); // tainted
        let d = pf.evaluate(&mut env, LsmOperation::FileWrite);
        assert_eq!(d.verdict, Verdict::Deny, "tainted write denied fault-free");
        assert!(!d.degraded);

        let injector = FaultInjector::new(FaultConfig {
            origin_fail: 1.0,
            ..FaultConfig::off(3)
        });
        let mut faulty = FaultyEnv::new(&mut env, &injector);
        let d = pf.evaluate(&mut faulty, LsmOperation::FileWrite);
        assert_eq!(
            d.verdict,
            Verdict::Deny,
            "origin fault must fail closed at {level:?}"
        );
        assert!(d.degraded, "fail-closed deny is reported degraded");
        assert_eq!(pf.metrics().degraded_drops(), 1);
        assert!(injector.stats().origin > 0, "the origin channel fired");

        // The benign twin: an untainted worker is allowed fault-free,
        // and under an origin fault may only pass *visibly* degraded.
        env.origin = Some(0);
        let d = pf.evaluate(&mut env, LsmOperation::FileWrite);
        assert_eq!(d.verdict, Verdict::Allow, "untainted write is benign");
        assert!(!d.degraded);
        let mut faulty = FaultyEnv::new(&mut env, &injector);
        let d = pf.evaluate(&mut faulty, LsmOperation::FileWrite);
        assert!(
            d.verdict == Verdict::Deny || d.degraded,
            "no silent allow under a blinded taint check at {level:?}"
        );
    }
}

#[test]
fn soak_ten_percent_unwind_faults_never_let_an_exploit_through() {
    // The acceptance soak: a fixed-seed 10% unwind-failure rate over
    // the full Table 5 ruleset. Every attack evaluation, across every
    // round, must come back Deny — fail-closed defaults leave no
    // window. Counter conservation must survive the degraded paths.
    const ROUNDS: usize = 500;
    let (pf, programs) = table5_firewall(OptLevel::EptSpc);
    let injector = FaultInjector::new(FaultConfig {
        unwind_fail: 0.10,
        ..FaultConfig::off(0xf417)
    });
    let attacks = attacks();
    let mut envs: Vec<AttackEnv> = attacks
        .iter()
        .map(|a| (a.build)(programs.clone()))
        .collect();
    for round in 0..ROUNDS {
        for (attack, env) in attacks.iter().zip(envs.iter_mut()) {
            let mut faulty = FaultyEnv::new(env, &injector);
            let d = pf.evaluate(&mut faulty, attack.op);
            assert_eq!(
                d.verdict,
                Verdict::Deny,
                "exploit success: rule {} round {round}",
                attack.rule
            );
        }
    }
    let m = pf.metrics();
    assert!(injector.stats().unwind > 0, "the soak injected faults");
    assert!(m.degraded_drops() > 0, "degraded denials were recorded");
    assert_eq!(
        m.degraded_allows(),
        0,
        "no degraded allows on attack traffic"
    );
    assert_eq!(
        m.drops() + m.accepts() + m.default_allows(),
        m.invocations(),
        "counter conservation broke under faults"
    );
}

#[test]
fn eight_thread_soak_over_full_ruleset_under_faults() {
    // The CI soak lane: eight sessions hammer one shared firewall
    // carrying the full ~1218-rule base while a shared injector fails
    // every channel at 5%. Exploit traffic must never be allowed, and
    // the global counters must still balance.
    const WORKERS: usize = 8;
    const PER_WORKER: usize = 400;

    let mut mac = ubuntu_mini();
    let mut programs = Interner::new();
    let pf = Arc::new(ProcessFirewall::new(OptLevel::EptSpc));
    let lines = full_rule_base(FULL_RULE_COUNT);
    pf.install_all(lines.iter().map(String::as_str), &mut mac, &mut programs)
        .unwrap();
    let injector = Arc::new(FaultInjector::new(FaultConfig::uniform(0x50a6, 0.05)));
    let barrier = Arc::new(Barrier::new(WORKERS));

    let handles: Vec<_> = (0..WORKERS)
        .map(|w| {
            let pf = Arc::clone(&pf);
            let injector = Arc::clone(&injector);
            let barrier = Arc::clone(&barrier);
            let programs = programs.clone();
            std::thread::spawn(move || {
                let attacks = attacks();
                let mut envs: Vec<AttackEnv> = attacks
                    .iter()
                    .map(|a| (a.build)(programs.clone()))
                    .collect();
                let mut session = TaskSession::new();
                barrier.wait();
                for i in 0..PER_WORKER {
                    let idx = (i + w) % attacks.len();
                    let mut faulty = FaultyEnv::new(&mut envs[idx], &injector);
                    let d = session.evaluate(&pf, &mut faulty, attacks[idx].op);
                    assert!(
                        d.verdict == Verdict::Deny || d.degraded,
                        "silent allow on worker {w} iteration {i} (rule {})",
                        attacks[idx].rule
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let m = pf.metrics();
    assert_eq!(
        m.invocations(),
        (WORKERS * PER_WORKER) as u64,
        "every invocation was counted"
    );
    assert_eq!(
        m.drops() + m.accepts() + m.default_allows(),
        m.invocations(),
        "counter conservation broke under concurrent faults"
    );
    assert!(injector.stats().total() > 0);
}

#[test]
fn clock_fault_on_throttle_rule_fails_closed() {
    // A bucket generous enough that a healthy clock grants everything:
    // any denial below is attributable to the injected clock fault, not
    // to budget exhaustion.
    const RULE: &str = "pftables -o FILE_OPEN \
         -j RATELIMIT --rate 1000 --burst 1000 --exceed drop";
    let mut mac = ubuntu_mini();
    let mut programs = Interner::new();
    let pf = ProcessFirewall::new(OptLevel::EptSpc);
    pf.install(RULE, &mut mac, &mut programs).unwrap();

    let mut env = AttackEnv::new(
        programs.clone(),
        "user_t",
        "/bin/sh",
        0x100,
        "etc_t",
        5,
        1000,
    );
    assert_eq!(
        pf.evaluate(&mut env, LsmOperation::FileOpen).verdict,
        Verdict::Allow,
        "fault-free throttle grants within budget"
    );

    // A stopped clock must not turn the rate limit into an
    // unconditional allow: the engine default for throttle targets is
    // fail-closed, and the decision is reported degraded.
    let injector = FaultInjector::new(FaultConfig {
        clock_fail: 1.0,
        ..FaultConfig::off(7)
    });
    let mut faulty = FaultyEnv::new(&mut env, &injector);
    let d = pf.evaluate(&mut faulty, LsmOperation::FileOpen);
    assert_eq!(d.verdict, Verdict::Deny, "clock fault fails closed");
    assert!(d.degraded, "fail-closed throttle deny is degraded");
    assert_eq!(pf.metrics().degraded_drops(), 1);
    assert!(injector.stats().clock > 0, "the clock channel fired");

    // The explicit opt-out: `-P input --ctx-missing skip` lets traffic
    // through a blinded throttle, but never silently — the decision is
    // still marked degraded (and the lapse is logged).
    pf.install(
        "pftables -P input --ctx-missing skip",
        &mut mac,
        &mut programs,
    )
    .unwrap();
    let mut faulty = FaultyEnv::new(&mut env, &injector);
    let d = pf.evaluate(&mut faulty, LsmOperation::FileOpen);
    assert_eq!(d.verdict, Verdict::Allow, "skip policy stands aside");
    assert!(d.degraded, "no silent allow: the skip is reported degraded");
    assert_eq!(pf.metrics().degraded_allows(), 1);
}

#[test]
fn kernel_hook_applies_fault_injection() {
    // The pf-os plumbing: arm `Kernel::fault_injection` and replay the
    // E1 library-open attack through the real hook. With a 10% unwind
    // failure rate the trojan open must be denied on every iteration —
    // by R1 normally, by the fail-closed default when the unwinder
    // errors. FULL level (no per-syscall caching) so the FILE_OPEN
    // hook itself performs the fallible fetch rather than reusing a
    // value a DirSearch hook cached earlier in the same syscall.
    use process_firewall::prelude::*;

    let mut k = standard_world();
    k.install_rules(table5_rules()).unwrap();
    k.firewall.set_level(OptLevel::Full).unwrap();
    // Plant the trojan before arming the injector so setup is clean.
    let adversary = k.spawn("user_t", "/bin/sh", Uid(1000), Gid(1000));
    k.mkdir(adversary, "/tmp/svn", 0o755).unwrap();
    let fd = k
        .open(
            adversary,
            "/tmp/svn/mod_dav_svn.so",
            OpenFlags::creat(0o755),
        )
        .unwrap();
    k.write(adversary, fd, b"TROJAN").unwrap();
    k.close(adversary, fd).unwrap();

    let apache = k.spawn("httpd_t", "/usr/bin/apache2", Uid::ROOT, Gid::ROOT);
    k.fault_injection = Some(FaultInjector::new(FaultConfig {
        unwind_fail: 0.10,
        ..FaultConfig::off(0xe1)
    }));

    for _ in 0..300 {
        let denied = k
            .with_frame(apache, "/lib/ld-2.15.so", 0x596b, |k| {
                k.open(apache, "/tmp/svn/mod_dav_svn.so", OpenFlags::rdonly())
            })
            .err()
            .map(|e| e.is_firewall_denial())
            .unwrap_or(false);
        assert!(denied, "trojan open slipped through the kernel hook");
    }
    let stats = k.fault_injection.as_ref().unwrap().stats();
    assert!(stats.unwind > 0, "the injector actually fired");
    assert!(k.firewall.metrics().degraded_drops() > 0);
}
