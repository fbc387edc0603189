//! Overload soak for the RATELIMIT token-bucket subsystem.
//!
//! Eight worker threads hammer ONE shared bucket (`--per subject`, all
//! workers present the same subject) through one shared
//! [`ProcessFirewall`] while a reloader thread keeps re-submitting the
//! identical ruleset (`pftables-restore`-style no-op reloads). The
//! assertions are exact token accounting — the properties the packed
//! CAS word and the snapshot carryover promise:
//!
//! 1. **No lost or duplicated tokens.** With the virtual clock frozen,
//!    the total number of ALLOW verdicts across all workers is exactly
//!    the configured burst — not one more (a torn read or double-spend
//!    would overshoot), not one fewer (a lost CAS would undershoot).
//! 2. **Reload carryover.** The racing reloads never reset the bucket:
//!    an unchanged rule keeps its in-flight state across every swap.
//! 3. **Refill exactness.** Advancing the clock a full period grants
//!    exactly one more burst (refill accrues but caps at burst).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use process_firewall::firewall::{
    ChainName, EvalEnv, ObjectInfo, OptLevel, ProcessFirewall, SignalInfo, TaskSession,
};
use process_firewall::mac::{ubuntu_mini, MacPolicy};
use process_firewall::types::{
    DeviceId, Gid, InodeNum, Interner, LsmOperation, Mode, Pid, ProgramId, ResourceId, SecId, Uid,
    Verdict,
};

const WORKERS: usize = 8;
const INVOCATIONS_PER_WORKER: usize = 2_000;
const BURST: u64 = 64;
const MIN_RELOADS: u64 = 20;

const RULE: &str = "pftables -o FILE_OPEN -j RATELIMIT --rate 512 --burst 64 \
     --per subject --exceed drop";

/// Minimal environment sharing one atomic virtual clock: every thread's
/// `now()` reads the same counter, so a frozen clock is frozen for all.
struct Env {
    mac: MacPolicy,
    programs: Interner,
    subject: SecId,
    program: ProgramId,
    object: ObjectInfo,
    clock: Arc<AtomicU64>,
}

impl Env {
    fn new(clock: Arc<AtomicU64>) -> Self {
        let mac = ubuntu_mini();
        let mut programs = Interner::new();
        let subject = mac.lookup_label("httpd_t").unwrap();
        let program = programs.intern("/usr/bin/apache2");
        let sid = mac.lookup_label("etc_t").unwrap();
        Env {
            mac,
            programs,
            subject,
            program,
            object: ObjectInfo {
                sid,
                resource: ResourceId::File {
                    dev: DeviceId(0),
                    ino: InodeNum(5),
                },
                owner: Uid(0),
                group: Gid(0),
                mode: Mode::FILE_DEFAULT,
            },
            clock,
        }
    }
}

impl EvalEnv for Env {
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
        Some((self.program, 0x100))
    }
    fn object(&self) -> Option<ObjectInfo> {
        Some(self.object)
    }
    fn link_target_owner(&mut self) -> Option<Uid> {
        None
    }
    fn syscall_arg(&self, _idx: usize) -> u64 {
        0
    }
    fn signal(&self) -> Option<SignalInfo> {
        None
    }
    fn mac(&self) -> &MacPolicy {
        &self.mac
    }
    fn program_name(&self, id: ProgramId) -> Arc<str> {
        self.programs.resolve_shared(id)
    }
    fn state_get(&self, _key: u64) -> Option<u64> {
        None
    }
    fn state_set(&mut self, _key: u64, _value: u64) {}
    fn state_unset(&mut self, _key: u64) {}
    fn cache_get(&self, _slot: u8) -> Option<u64> {
        None
    }
    fn cache_put(&mut self, _slot: u8, _value: u64) {}
    fn now(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }
}

fn install(fw: &ProcessFirewall, clock: &Arc<AtomicU64>, lines: &[&str]) {
    let mut env = Env::new(Arc::clone(clock));
    fw.install_all(lines.iter().copied(), &mut env.mac, &mut env.programs)
        .unwrap();
}

/// Runs one frozen-clock contention round: 8 workers evaluating against
/// the shared bucket while the reloader re-submits the same rule text.
/// Returns the total ALLOW count across all workers.
fn contention_round(fw: &Arc<ProcessFirewall>, clock: &Arc<AtomicU64>) -> u64 {
    let start = Barrier::new(WORKERS + 2);
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let reloader = {
            let fw = Arc::clone(fw);
            let clock = Arc::clone(clock);
            let (done, start) = (&done, &start);
            s.spawn(move || {
                let mut env = Env::new(clock);
                start.wait();
                let mut n = 0u64;
                while !done.load(Ordering::Relaxed) || n < MIN_RELOADS {
                    fw.reload([RULE], &mut env.mac, &mut env.programs)
                        .expect("hot reload");
                    n += 1;
                    std::thread::yield_now();
                }
                n
            })
        };

        let workers: Vec<_> = (0..WORKERS)
            .map(|_| {
                let fw = Arc::clone(fw);
                let clock = Arc::clone(clock);
                let start = &start;
                s.spawn(move || {
                    let mut env = Env::new(clock);
                    let mut session = TaskSession::new();
                    let mut allows = 0u64;
                    start.wait();
                    for _ in 0..INVOCATIONS_PER_WORKER {
                        let d = session.evaluate(&fw, &mut env, LsmOperation::FileOpen);
                        match d.verdict {
                            Verdict::Allow => allows += 1,
                            Verdict::Deny => {}
                        }
                    }
                    allows
                })
            })
            .collect();

        start.wait();
        let allows: u64 = workers.into_iter().map(|h| h.join().unwrap()).sum();
        done.store(true, Ordering::Relaxed);
        assert!(reloader.join().unwrap() >= MIN_RELOADS);
        allows
    })
}

#[test]
fn shared_bucket_under_8_thread_contention_grants_exactly_burst() {
    let clock = Arc::new(AtomicU64::new(0));
    let fw = Arc::new(ProcessFirewall::new(OptLevel::EptSpc));
    install(&fw, &clock, &[RULE]);

    // Phase 1: frozen clock — the fresh bucket grants exactly BURST
    // tokens across all workers, racing reloads notwithstanding.
    let allows = contention_round(&fw, &clock);
    assert_eq!(
        allows, BURST,
        "phase 1: exactly the burst must be granted under contention"
    );

    // Phase 2: advance the clock one full refill period (1024 ticks at
    // rate 512 accrues 512 tokens, capped at burst 64) and soak again —
    // exactly one more burst.
    clock.store(1024, Ordering::Relaxed);
    let allows = contention_round(&fw, &clock);
    assert_eq!(
        allows, BURST,
        "phase 2: refill caps at burst; exactly one more burst granted"
    );

    // The always-on counter saw every denial, and so did the rule's
    // own, which the racing verbatim reloads kept like its bucket.
    let total = (WORKERS * INVOCATIONS_PER_WORKER * 2) as u64;
    assert_eq!(fw.metrics().ratelimit_throttled(), total - 2 * BURST);
    let base = fw.base();
    assert_eq!(
        base.chain(&ChainName::Input)[0].throttled(),
        total - 2 * BURST
    );
}

#[test]
fn noop_reload_preserves_partial_bucket_state() {
    let clock = Arc::new(AtomicU64::new(0));
    let fw = ProcessFirewall::new(OptLevel::EptSpc);
    install(&fw, &clock, &[RULE]);
    let mut env = Env::new(Arc::clone(&clock));
    let mut session = TaskSession::new();

    // Consume part of the burst...
    let consumed = 10u64;
    for _ in 0..consumed {
        let d = session.evaluate(&fw, &mut env, LsmOperation::FileOpen);
        assert_eq!(d.verdict, Verdict::Allow);
    }

    // ...re-submit the identical ruleset (a no-op hot reload)...
    fw.reload([RULE], &mut env.mac, &mut env.programs).unwrap();

    // ...and the remaining budget is exactly what was left, not a
    // fresh burst: the unchanged rule carried its bucket across.
    let mut remaining = 0u64;
    for _ in 0..(BURST * 2) {
        let d = session.evaluate(&fw, &mut env, LsmOperation::FileOpen);
        if d.verdict == Verdict::Allow {
            remaining += 1;
        }
    }
    assert_eq!(
        remaining,
        BURST - consumed,
        "no-op reload must neither reset nor leak bucket state"
    );
}

#[test]
fn changed_rule_at_same_position_starts_a_fresh_bucket() {
    let clock = Arc::new(AtomicU64::new(0));
    let fw = ProcessFirewall::new(OptLevel::EptSpc);
    install(&fw, &clock, &[RULE]);
    let mut env = Env::new(Arc::clone(&clock));
    let mut session = TaskSession::new();

    // Exhaust the original bucket completely.
    let mut allows = 0u64;
    for _ in 0..(BURST * 2) {
        if session
            .evaluate(&fw, &mut env, LsmOperation::FileOpen)
            .verdict
            == Verdict::Allow
        {
            allows += 1;
        }
    }
    assert_eq!(allows, BURST);

    // Replace the rule at the same chain position with different
    // parameters: state must NOT leak from the old rule.
    const CHANGED: &str = "pftables -o FILE_OPEN -j RATELIMIT --rate 512 --burst 32 \
         --per subject --exceed drop";
    fw.reload([CHANGED], &mut env.mac, &mut env.programs)
        .unwrap();

    let mut fresh = 0u64;
    for _ in 0..(BURST * 2) {
        if session
            .evaluate(&fw, &mut env, LsmOperation::FileOpen)
            .verdict
            == Verdict::Allow
        {
            fresh += 1;
        }
    }
    assert_eq!(
        fresh, 32,
        "a changed rule gets a fresh bucket with its own burst"
    );
}
