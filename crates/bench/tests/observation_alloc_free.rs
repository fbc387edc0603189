//! The hook allocates nothing to observe or attribute itself: LOG
//! records and TRACE hops are captured as fixed records (ids, shared
//! names, enum verdicts) and rendered only when a collector drains
//! them, and a denial's attribution shares the rule that fired.
//!
//! The rule base logs twice per hook, arms TRACE, and jumps into a user
//! chain whose rules are traversed. Hooks alternate between an object
//! the user chain lets through and one it DROPs, so every hook captures
//! two LOG records and four or five TRACE hops, one or two of them in a
//! user chain, and every other hook denies and patches its first LOG
//! record to DENY. Both rings are first driven past their capacities,
//! so the counted region also covers the overwrite-oldest path.
//!
//! The counting allocator is process-wide, so this binary holds exactly
//! one test and nothing else runs beside the counted region.
//!
//! ```text
//! cargo test --release -p pf-bench --test observation_alloc_free
//! ```

use std::sync::Arc;

use pf_bench::alloc::{allocations, CountingAlloc};
use pf_core::metrics::TRACE_RING_CAP;
use pf_core::{EvalEnv, ObjectInfo, OptLevel, ProcessFirewall, SignalInfo, TaskSession};
use pf_mac::{ubuntu_mini, MacPolicy};
use pf_types::{
    DeviceId, Gid, InodeNum, Interner, LsmOperation, Mode, Pid, ProgramId, ResourceId, SecId, Uid,
    Verdict,
};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const LOG_CAPACITY: usize = 1024;
const RULES: [&str; 5] = [
    "pftables -A input -o FILE_OPEN -j TRACE",
    "pftables -A input -o FILE_OPEN -j LOG --tag t",
    "pftables -A input -o FILE_OPEN -j side",
    "pftables -A side -o FILE_OPEN -d etc_t -j DROP",
    "pftables -A side -o FILE_OPEN -j LOG --tag s",
];
const LOGS_PER_HOOK: usize = 2;
/// A denied hook stops at the DROP, one hop short of an allowed one.
const MIN_HOPS_PER_HOOK: usize = 4;
const COUNTED_HOOKS: u64 = 1_000;

/// One labelled file object opened from a library entrypoint; program
/// names come from an interner, shared rather than copied. The object's
/// label flips between `allowed` and `denied`.
struct Env {
    mac: MacPolicy,
    programs: Interner,
    subject: SecId,
    program: ProgramId,
    entrypoint: ProgramId,
    object: ObjectInfo,
    allowed: SecId,
    denied: SecId,
}

impl Env {
    fn new() -> Self {
        let mac = ubuntu_mini();
        let mut programs = Interner::new();
        let subject = mac.lookup_label("httpd_t").unwrap();
        let program = programs.intern("/usr/bin/apache2");
        let entrypoint = programs.intern("/lib/libc.so.6");
        let sid = mac.lookup_label("tmp_t").unwrap();
        let denied = mac.lookup_label("etc_t").unwrap();
        Env {
            mac,
            programs,
            subject,
            program,
            entrypoint,
            object: ObjectInfo {
                sid,
                resource: ResourceId::File {
                    dev: DeviceId(3),
                    ino: InodeNum(77),
                },
                owner: Uid(1000),
                group: Gid(1000),
                mode: Mode::FILE_DEFAULT,
            },
            allowed: sid,
            denied,
        }
    }

    /// Labels the object for hook `i`: odd hooks are denied.
    fn label_for(&mut self, i: u64) -> Verdict {
        if i % 2 == 1 {
            self.object.sid = self.denied;
            Verdict::Deny
        } else {
            self.object.sid = self.allowed;
            Verdict::Allow
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
        Pid(9)
    }
    fn unwind_entrypoint(&mut self) -> Option<(ProgramId, u64)> {
        Some((self.entrypoint, 0x2d637))
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
        0
    }
}

/// Allocations made by `hooks` runs of `hook`, alternating allowed and
/// denied objects, each run asserted to reach its verdict.
fn allocs_over(env: &mut Env, hooks: u64, mut hook: impl FnMut(&mut Env) -> Verdict) -> u64 {
    let before = allocations();
    for i in 0..hooks {
        let want = env.label_for(i);
        assert_eq!(hook(env), want, "hook {i}");
    }
    allocations() - before
}

#[test]
fn log_and_trace_capture_allocates_nothing_on_the_hook() {
    let warm = (TRACE_RING_CAP / MIN_HOPS_PER_HOOK).max(LOG_CAPACITY / LOGS_PER_HOOK) as u64 + 200;
    for level in OptLevel::ALL {
        if level == OptLevel::Disabled {
            continue;
        }
        let mut env = Env::new();
        let fw = ProcessFirewall::new(level);
        fw.install_all(RULES, &mut env.mac, &mut env.programs)
            .unwrap();
        fw.set_log_capacity(LOG_CAPACITY);
        let op = LsmOperation::FileOpen;
        let mut session = TaskSession::new();

        // Warm both paths past both ring capacities: from here on every
        // capture overwrites the oldest record.
        for i in 0..warm {
            env.label_for(i);
            session.evaluate(&fw, &mut env, op);
            fw.evaluate(&mut env, op);
        }
        assert!(fw.log_sink().dropped() > 0, "{level:?}: LOG ring wrapped");
        assert!(
            fw.metrics().trace_dropped() > 0,
            "{level:?}: TRACE ring wrapped"
        );

        let drops = fw.metrics().drops();
        let session_allocs = allocs_over(&mut env, COUNTED_HOOKS, |env| {
            session.evaluate(&fw, env, op).verdict
        });
        let one_shot_allocs =
            allocs_over(&mut env, COUNTED_HOOKS, |env| fw.evaluate(env, op).verdict);
        assert_eq!(session_allocs, 0, "{level:?}: TaskSession hook allocated");
        assert_eq!(one_shot_allocs, 0, "{level:?}: one-shot hook allocated");
        assert_eq!(fw.metrics().drops() - drops, COUNTED_HOOKS, "{level:?}");

        // The captured records still render completely at drain, and a
        // denied hook's LOG record carries the patched verdict.
        let drain = fw.drain_logs();
        assert!(drain.gap);
        assert_eq!(drain.entries.len(), LOG_CAPACITY);
        let verdicts = |tag: &str| -> Vec<&str> {
            let mut v: Vec<&str> = drain
                .entries
                .iter()
                .filter(|e| e.tag == tag)
                .map(|e| e.verdict.as_str())
                .collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        assert_eq!(verdicts("t"), ["ALLOW", "DENY"], "{level:?}");
        assert_eq!(verdicts("s"), ["ALLOW"], "{level:?}");
        assert_eq!(verdicts("DROP"), ["DENY"], "{level:?}");
        let last = drain.entries.last().unwrap();
        assert_eq!((last.tag.as_str(), last.verdict.as_str()), ("DROP", "DENY"));
        assert_eq!(last.resource, "dev:3/ino:77");
        assert_eq!(
            (last.program.as_str(), last.ept_prog.as_str()),
            ("/usr/bin/apache2", "/lib/libc.so.6")
        );
        let trace = fw.drain_trace();
        assert_eq!(trace.len(), TRACE_RING_CAP);
        assert!(trace[0].gap);
        assert!(trace.iter().any(|hop| hop.chain == "side"));
    }
}
