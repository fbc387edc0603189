//! Multi-process stress test for the concurrent firewall engine.
//!
//! Eight worker threads hammer one shared [`ProcessFirewall`] through
//! per-task [`TaskSession`]s (10 000 hook invocations each) while a
//! reloader thread keeps hot-swapping the entire rule base between two
//! variants, `pftables-restore`-style. The assertions are the two
//! linearizability properties the snapshot design promises:
//!
//! 1. **No torn reads.** Every verdict carries the generation of the
//!    snapshot that produced it, and the verdict is exactly what that
//!    generation's ruleset prescribes — never a mix of the old and new
//!    rules, never a generation that was not published.
//! 2. **No lost counts.** Globally,
//!    `drops + accepts + default_allows == invocations` even under
//!    maximal contention on the relaxed counters.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use process_firewall::firewall::{
    EvalEnv, ObjectInfo, OptLevel, ProcessFirewall, SignalInfo, TaskSession,
};
use process_firewall::mac::{ubuntu_mini, MacPolicy};
use process_firewall::types::{
    DeviceId, Gid, InodeNum, Interner, LsmOperation, Mode, Pid, ProgramId, ResourceId, SecId, Uid,
    Verdict,
};

const WORKERS: usize = 8;
const INVOCATIONS_PER_WORKER: usize = 10_000;
const MIN_RELOADS: u64 = 20;

/// The two ruleset variants the reloader alternates between. Variant
/// `v` drops opens of `LABELS[v]` and nothing else.
const LABELS: [&str; 2] = ["tmp_t", "etc_t"];

fn variant_lines(v: usize) -> Vec<String> {
    vec![format!("pftables -o FILE_OPEN -d {} -j DROP", LABELS[v])]
}

/// Minimal environment: fixed subject/program, one file object whose
/// label is chosen per invocation. Interning is deterministic, so every
/// thread's `ubuntu_mini()` agrees on all `SecId`s with the interners
/// the rules were installed through.
struct Env {
    mac: MacPolicy,
    programs: Interner,
    subject: SecId,
    program: ProgramId,
    objects: [ObjectInfo; 2],
    current: usize,
}

impl Env {
    fn new() -> Self {
        let mac = ubuntu_mini();
        let mut programs = Interner::new();
        let subject = mac.lookup_label("httpd_t").unwrap();
        let program = programs.intern("/usr/bin/apache2");
        let objects = [0, 1].map(|i| ObjectInfo {
            sid: mac.lookup_label(LABELS[i]).unwrap(),
            resource: ResourceId::File {
                dev: DeviceId(0),
                ino: InodeNum(5 + i as u64),
            },
            owner: Uid(0),
            group: Gid(0),
            mode: Mode::FILE_DEFAULT,
        });
        Env {
            mac,
            programs,
            subject,
            program,
            objects,
            current: 0,
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
        Some(self.objects[self.current])
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

/// One worker observation: which snapshot generation produced which
/// verdict for which object label.
struct Observation {
    generation: u64,
    label: usize,
    denied: bool,
}

#[test]
fn concurrent_stress_with_hot_reloads_has_no_torn_reads() {
    stress_with_hot_reloads(OptLevel::Full);
}

/// The same stress at RULESETC: every reload rebuilds the compiled
/// dispatch artifact, and a verdict must come from exactly one
/// generation's artifact — a torn or stale dispatch table would
/// misroute the walk and break the per-generation verdict mapping.
#[test]
fn rulesetc_stress_rebuilds_dispatch_atomically_per_generation() {
    stress_with_hot_reloads(OptLevel::RulesetC);
}

fn stress_with_hot_reloads(level: OptLevel) {
    let fw = Arc::new(ProcessFirewall::new(level));
    // Generation → variant map. The initial install and every reload
    // record which ruleset each published generation carries.
    let published: Mutex<HashMap<u64, usize>> = Mutex::new(HashMap::new());

    {
        let mut env = Env::new();
        let lines = variant_lines(0);
        fw.install_all(
            lines.iter().map(String::as_str),
            &mut env.mac,
            &mut env.programs,
        )
        .unwrap();
        published.lock().unwrap().insert(fw.generation(), 0);
    }

    // Workers + reloader + the main thread all line up on the barrier.
    let start = Barrier::new(WORKERS + 2);
    let done = AtomicBool::new(false);
    let observations: Vec<Vec<Observation>> = std::thread::scope(|s| {
        // The reloader: flip between the two variants until the workers
        // finish, but always at least MIN_RELOADS times so the workers
        // genuinely race against swaps.
        let reloader = {
            let fw = Arc::clone(&fw);
            let done = &done;
            let published = &published;
            let start = &start;
            s.spawn(move || {
                let mut env = Env::new();
                start.wait();
                let mut n = 0u64;
                while !done.load(Ordering::Relaxed) || n < MIN_RELOADS {
                    let variant = ((n + 1) % 2) as usize; // 1, 0, 1, 0, ...
                    let lines = variant_lines(variant);
                    let (_count, generation) = fw
                        .reload(
                            lines.iter().map(String::as_str),
                            &mut env.mac,
                            &mut env.programs,
                        )
                        .expect("hot reload");
                    published.lock().unwrap().insert(generation, variant);
                    n += 1;
                    std::thread::yield_now();
                }
                n
            })
        };

        let workers: Vec<_> = (0..WORKERS)
            .map(|w| {
                let fw = Arc::clone(&fw);
                let start = &start;
                s.spawn(move || {
                    let mut env = Env::new();
                    let mut session = TaskSession::new();
                    let mut seen = Vec::with_capacity(INVOCATIONS_PER_WORKER);
                    start.wait();
                    for i in 0..INVOCATIONS_PER_WORKER {
                        let label = (w + i) % 2;
                        env.current = label;
                        let d = session.evaluate(&fw, &mut env, LsmOperation::FileOpen);
                        seen.push(Observation {
                            generation: d.generation,
                            label,
                            denied: d.verdict == Verdict::Deny,
                        });
                    }
                    seen
                })
            })
            .collect();

        start.wait();
        let observations: Vec<Vec<Observation>> =
            workers.into_iter().map(|h| h.join().unwrap()).collect();
        done.store(true, Ordering::Relaxed);
        let reloads = reloader.join().unwrap();
        assert!(reloads >= MIN_RELOADS);
        observations
    });

    // Property 1: every verdict is attributable to exactly one
    // published generation and matches that generation's ruleset.
    let published = published.into_inner().unwrap();
    let mut generations_seen = std::collections::HashSet::new();
    for obs in observations.iter().flatten() {
        let variant = published
            .get(&obs.generation)
            .unwrap_or_else(|| panic!("verdict from unpublished generation {}", obs.generation));
        let expect_deny = obs.label == *variant;
        assert_eq!(
            obs.denied,
            expect_deny,
            "torn read: generation {} (variant {}) gave {} for label {}",
            obs.generation,
            variant,
            if obs.denied { "DENY" } else { "ALLOW" },
            LABELS[obs.label]
        );
        generations_seen.insert(obs.generation);
    }
    assert!(
        !generations_seen.is_empty(),
        "workers recorded no generations"
    );

    // Property 2: the global counter invariant. Only the workers
    // evaluate, so invocations is exactly WORKERS * INVOCATIONS_PER_WORKER.
    let m = fw.metrics();
    assert_eq!(m.invocations(), (WORKERS * INVOCATIONS_PER_WORKER) as u64);
    assert_eq!(
        m.drops() + m.accepts() + m.default_allows(),
        m.invocations(),
        "lost counter updates under contention"
    );

    // At RULESETC the workers must actually have gone through the
    // compiled artifact (at minimum on every per-generation cache
    // miss), and never through the degradation fallback.
    if level == OptLevel::RulesetC {
        assert!(m.rulesetc_dispatch() > 0, "no compiled dispatch ran");
        assert_eq!(m.rulesetc_fallback(), 0, "fault-free run fell back");
    } else {
        assert_eq!(m.rulesetc_dispatch(), 0);
    }
}

/// A session pinned before a reload must keep evaluating under its old
/// snapshot even while other sessions see the new one — and both
/// must stay internally consistent for the whole overlap.
#[test]
fn pinned_sessions_and_fresh_sessions_coexist_across_reload() {
    pinned_and_fresh_coexist(OptLevel::Full);
}

/// At RULESETC the pinned session keeps evaluating through the **old**
/// generation's compiled artifact (its snapshot owns the artifact, so
/// the reload's rebuild cannot be observed mid-walk), while fresh
/// sessions dispatch through the new one.
#[test]
fn rulesetc_pinned_sessions_keep_the_old_compiled_artifact() {
    pinned_and_fresh_coexist(OptLevel::RulesetC);
}

fn pinned_and_fresh_coexist(level: OptLevel) {
    let fw = ProcessFirewall::new(level);
    let mut env = Env::new();
    fw.install_all(
        variant_lines(0).iter().map(String::as_str),
        &mut env.mac,
        &mut env.programs,
    )
    .unwrap();

    let mut pinned = TaskSession::new();
    let old_gen = pinned.pin(&fw);

    let (_, new_gen) = fw
        .reload(
            variant_lines(1).iter().map(String::as_str),
            &mut env.mac,
            &mut env.programs,
        )
        .unwrap();
    assert!(new_gen > old_gen);

    let mut fresh = TaskSession::new();
    for _ in 0..100 {
        env.current = 0; // tmp_t: dropped by variant 0, allowed by variant 1
        let d_old = pinned.evaluate_pinned(&fw, &mut env, LsmOperation::FileOpen);
        assert_eq!((d_old.generation, d_old.verdict), (old_gen, Verdict::Deny));
        let d_new = fresh.evaluate(&fw, &mut env, LsmOperation::FileOpen);
        assert_eq!((d_new.generation, d_new.verdict), (new_gen, Verdict::Allow));

        env.current = 1; // etc_t: the mirror image
        let d_old = pinned.evaluate_pinned(&fw, &mut env, LsmOperation::FileOpen);
        assert_eq!((d_old.generation, d_old.verdict), (old_gen, Verdict::Allow));
        let d_new = fresh.evaluate(&fw, &mut env, LsmOperation::FileOpen);
        assert_eq!((d_new.generation, d_new.verdict), (new_gen, Verdict::Deny));
    }
    if level == OptLevel::RulesetC {
        assert!(fw.metrics().rulesetc_dispatch() > 0);
        assert_eq!(fw.metrics().rulesetc_fallback(), 0);
    }
}

/// Hot reload × RULESETC × throttle state: a QUOTA rule whose text is
/// unchanged across a reload must keep its bucket (consumed grants
/// survive), even though the compiled dispatch artifact is rebuilt from
/// scratch — the impure rule evaluates live against carried-over state
/// through the new artifact.
#[test]
fn rulesetc_reload_carries_throttle_state_for_unchanged_rules() {
    let fw = ProcessFirewall::new(OptLevel::RulesetC);
    let mut env = Env::new();
    let quota = "pftables -o FILE_OPEN -d tmp_t -j QUOTA --limit 3 --window 512 --exceed drop";
    fw.install_all([quota], &mut env.mac, &mut env.programs)
        .unwrap();

    let mut session = TaskSession::new();
    env.current = 0; // tmp_t
    for i in 0..2 {
        let d = session.evaluate(&fw, &mut env, LsmOperation::FileOpen);
        assert_eq!(d.verdict, Verdict::Allow, "grant {i} within quota");
    }

    // Reload keeps the quota rule's text identical and adds one
    // unrelated rule, so the artifact rebuilds but the bucket carries.
    let extra = "pftables -o FILE_OPEN -d etc_t -j DROP";
    fw.reload([quota, extra], &mut env.mac, &mut env.programs)
        .unwrap();

    let d3 = session.evaluate(&fw, &mut env, LsmOperation::FileOpen);
    assert_eq!(d3.verdict, Verdict::Allow, "third grant exhausts the quota");
    let d4 = session.evaluate(&fw, &mut env, LsmOperation::FileOpen);
    assert_eq!(
        d4.verdict,
        Verdict::Deny,
        "the carried bucket must remember the pre-reload grants"
    );

    // The new artifact routes the new rule too.
    env.current = 1; // etc_t
    let d = session.evaluate(&fw, &mut env, LsmOperation::FileOpen);
    assert_eq!(d.verdict, Verdict::Deny);

    // A reload that *changes* the rule text resets the bucket.
    let retuned = "pftables -o FILE_OPEN -d tmp_t -j QUOTA --limit 4 --window 512 --exceed drop";
    fw.reload([retuned, extra], &mut env.mac, &mut env.programs)
        .unwrap();
    env.current = 0;
    let d = session.evaluate(&fw, &mut env, LsmOperation::FileOpen);
    assert_eq!(d.verdict, Verdict::Allow, "fresh bucket after text change");

    let m = fw.metrics();
    assert!(m.rulesetc_dispatch() > 0);
    assert_eq!(m.rulesetc_fallback(), 0);
}
