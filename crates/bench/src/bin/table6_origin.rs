//! Origin-tracking companion to Table 6: what does the `--origin`
//! (taint) selector cost processes that never taint?
//!
//! The adversary-model soundness fix makes every decision origin-aware:
//! the verdict-cache key carries the subject's origin, decisions are
//! stamped with the adversary generation, and `--origin` rules gate on
//! a per-subject taint level. All of that must be free-ish for the
//! overwhelmingly common case — an untainted subject on a warm path —
//! or the fix would tax exactly the processes the firewall protects.
//!
//! Three timed passes over the identical engine-level world:
//!
//! 1. **baseline** — a rule base with no `--origin` rule anywhere (the
//!    pre-origin world);
//! 2. **origin-armed, untainted** — the same base plus a tainted-only
//!    DROP rule; the subject stays trusted, so the rule never fires;
//! 3. **origin-armed, tainted** — the subject crosses the threshold;
//!    every invocation now denies (reported, not gated).
//!
//! Acceptance bars asserted here: the untainted armed path stays within
//! 1.1× the baseline (scan and cache-hit flavors), and its steady state
//! performs **zero** heap allocations per invocation. Results go to
//! `results/table6_origin.json` and the `BENCH_table6.json` trajectory.

use std::fmt::Write as _;
use std::sync::Arc;

use pf_bench::alloc::{allocations, CountingAlloc};
use pf_core::{EvalEnv, ObjectInfo, OptLevel, ProcessFirewall, SignalInfo, TaskSession};
use pf_mac::{ubuntu_mini, MacPolicy, ORIGIN_TAINTED, ORIGIN_TRUSTED};
use pf_types::{
    DeviceId, Gid, InodeNum, Interner, LsmOperation, Mode, Pid, ProgramId, ResourceId, SecId, Uid,
    Verdict,
};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

struct Env {
    mac: MacPolicy,
    programs: Interner,
    subject: SecId,
    program: ProgramId,
    origin: u64,
    object: ObjectInfo,
}

impl Env {
    fn new() -> Self {
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
            origin: ORIGIN_TRUSTED,
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
    fn subject_origin(&self) -> Option<u64> {
        Some(self.origin)
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

/// `n` generic cache-pure rules that never match ino 5; `armed` appends
/// the tainted-only DROP rule of the post-compromise scenarios.
fn build_firewall(level: OptLevel, n: usize, armed: bool, env: &mut Env) -> ProcessFirewall {
    let fw = ProcessFirewall::new(level);
    let mut lines: Vec<String> = (0..n)
        .map(|i| format!("pftables -o FILE_OPEN -r {} -j DROP", 10_000 + i))
        .collect();
    if armed {
        lines.push("pftables -o FILE_OPEN -d etc_t --origin tainted -j DROP".to_owned());
    }
    fw.install_all(
        lines.iter().map(String::as_str),
        &mut env.mac,
        &mut env.programs,
    )
    .unwrap();
    fw
}

/// Best-of-3 mean ns/invocation, warmup included, expected verdict
/// asserted so a wrong-verdict path can't masquerade as fast.
fn time_session(
    fw: &ProcessFirewall,
    session: &mut TaskSession,
    env: &mut Env,
    iters: u64,
    expect: Verdict,
) -> f64 {
    for _ in 0..iters.min(200) {
        assert_eq!(
            session.evaluate(fw, env, LsmOperation::FileOpen).verdict,
            expect
        );
    }
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = std::time::Instant::now();
        for _ in 0..iters {
            session.evaluate(fw, env, LsmOperation::FileOpen);
        }
        best = best.min(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    best
}

fn main() {
    let iters: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(200_000);
    let n_rules: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(200);

    println!("Table 6 (origin): taint tracking on the untainted hot path");
    println!("{n_rules} generic pure rules (+1 --origin rule when armed), {iters} iterations/pass");
    println!("{:-<72}", "");

    let mut env = Env::new();
    let mut results: Vec<(&str, f64, f64)> = Vec::new(); // (flavor, baseline, armed)
    let mut alloc_counts = (0u64, 0u64);

    for (flavor, level) in [("scan", OptLevel::EptSpc), ("hit", OptLevel::Vcache)] {
        env.origin = ORIGIN_TRUSTED;
        let fw = build_firewall(level, n_rules, false, &mut env);
        let mut session = TaskSession::new();
        let baseline_ns = time_session(&fw, &mut session, &mut env, iters, Verdict::Allow);

        let fw = build_firewall(level, n_rules, true, &mut env);
        let mut session = TaskSession::new();
        let armed_ns = time_session(&fw, &mut session, &mut env, iters, Verdict::Allow);

        // Steady-state allocation check on the armed untainted path.
        let before = allocations();
        for _ in 0..1_000 {
            session.evaluate(&fw, &mut env, LsmOperation::FileOpen);
        }
        let allocs = allocations() - before;
        if flavor == "scan" {
            alloc_counts.0 = allocs;
        } else {
            alloc_counts.1 = allocs;
        }

        // The tainted side, for the report: the armed rule now fires.
        env.origin = ORIGIN_TAINTED;
        let mut session = TaskSession::new();
        let tainted_ns = time_session(&fw, &mut session, &mut env, iters, Verdict::Deny);
        env.origin = ORIGIN_TRUSTED;

        let ratio = armed_ns / baseline_ns.max(1.0);
        println!(
            "{flavor:<6} baseline {baseline_ns:>9.1} ns | armed untainted {armed_ns:>9.1} ns \
             ({ratio:.3}x) | tainted deny {tainted_ns:>9.1} ns | allocs/1k {allocs}"
        );
        results.push((flavor, baseline_ns, armed_ns));
    }
    println!("{:-<72}", "");

    let (scan_base, scan_armed) = (results[0].1, results[0].2);
    let (hit_base, hit_armed) = (results[1].1, results[1].2);
    let scan_ratio = scan_armed / scan_base.max(1.0);
    let hit_ratio = hit_armed / hit_base.max(1.0);

    let mut json = String::from("{");
    let _ = write!(
        json,
        "\"bench\":\"table6_origin\",\"iters\":{iters},\"rules\":{n_rules},\
         \"scan_baseline_ns\":{scan_base:.2},\"scan_armed_ns\":{scan_armed:.2},\
         \"scan_ratio\":{scan_ratio:.4},\
         \"hit_baseline_ns\":{hit_base:.2},\"hit_armed_ns\":{hit_armed:.2},\
         \"hit_ratio\":{hit_ratio:.4},\
         \"scan_allocs_per_1k\":{},\"hit_allocs_per_1k\":{}",
        alloc_counts.0, alloc_counts.1
    );
    json.push('}');
    let path = std::path::Path::new("results").join("table6_origin.json");
    match std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, &json)) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    pf_bench::append_trajectory("BENCH_table6.json", "table6-trajectory-v1", &json);

    // Acceptance bars: origin tracking must not tax the untainted hot
    // path by more than 10%, and must not allocate on it.
    assert_eq!(
        alloc_counts.0, 0,
        "armed untainted scan path allocated on the steady state"
    );
    assert_eq!(
        alloc_counts.1, 0,
        "armed untainted hit path allocated on the steady state"
    );
    assert!(
        scan_ratio <= 1.1,
        "untainted scan path exceeds 1.1x the pre-origin baseline: {scan_ratio:.3}x"
    );
    assert!(
        hit_ratio <= 1.1,
        "untainted hit path exceeds 1.1x the pre-origin baseline: {hit_ratio:.3}x"
    );
    println!(
        "acceptance: untainted armed path within 1.1x baseline \
         (scan {scan_ratio:.3}x, hit {hit_ratio:.3}x), zero allocations — OK"
    );
}
