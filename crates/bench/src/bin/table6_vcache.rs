//! VCACHE companion to Table 6: what does verdict caching buy on the
//! repeated-invocation path, and does the hot path stay allocation-free?
//!
//! The kernel-level Table 6 rows are dominated by stack unwinds and VFS
//! work, so this harness measures the engine directly: one
//! [`TaskSession`] re-issuing the same `FILE_OPEN` against a rule base
//! of generic, cache-pure compare rules that never match (the worst
//! case for a linear scan, the best case for a verdict cache).
//!
//! Two timed passes over the identical world:
//!
//! 1. **EPTSPC** — every invocation walks the full generic partition;
//! 2. **VCACHE** — the first invocation walks and populates the cache,
//!    every later one is a key-build plus one hash lookup.
//!
//! A counting global allocator additionally asserts that the steady
//! state of both the one-shot [`ProcessFirewall::evaluate`] path (the
//! thread-local scratch) and the VCACHE hit path performs **zero**
//! heap allocations per invocation.
//!
//! Results (ns/invocation, speedup, hit counters) go to
//! `results/table6_vcache.json`. Acceptance bar asserted here: VCACHE
//! is at least 20% faster per invocation than EPTSPC on the hit path.

use std::fmt::Write as _;
use std::sync::Arc;

use pf_bench::alloc::{allocations, CountingAlloc};
use pf_core::{EvalEnv, ObjectInfo, OptLevel, ProcessFirewall, SignalInfo, TaskSession};
use pf_mac::{ubuntu_mini, MacPolicy};
use pf_types::{
    DeviceId, Gid, InodeNum, Interner, LsmOperation, Mode, Pid, ProgramId, ResourceId, SecId, Uid,
    Verdict,
};

// ---------------------------------------------------------------------
// Counting allocator: every heap allocation in the process ticks a
// counter, so a bench region can assert it allocated nothing.
// ---------------------------------------------------------------------

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

// ---------------------------------------------------------------------
// A minimal engine-level environment: one labelled file object, a
// stable entrypoint, no mutable process state.
// ---------------------------------------------------------------------

struct Env {
    mac: MacPolicy,
    programs: Interner,
    subject: SecId,
    program: ProgramId,
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

/// Builds a firewall carrying `n` generic, cache-pure compare rules
/// that never match the bench object (ino 5): the linear-scan worst
/// case a verdict cache collapses to one lookup.
fn build_firewall(level: OptLevel, n: usize, env: &mut Env) -> ProcessFirewall {
    let fw = ProcessFirewall::new(level);
    let lines: Vec<String> = (0..n)
        .map(|i| format!("pftables -o FILE_OPEN -r {} -j DROP", 10_000 + i))
        .collect();
    fw.install_all(
        lines.iter().map(String::as_str),
        &mut env.mac,
        &mut env.programs,
    )
    .unwrap();
    fw
}

/// Mean ns/invocation of `session.evaluate` over `iters` runs.
fn time_session(fw: &ProcessFirewall, session: &mut TaskSession, env: &mut Env, iters: u64) -> f64 {
    for _ in 0..iters.min(200) {
        assert_eq!(
            session.evaluate(fw, env, LsmOperation::FileOpen).verdict,
            Verdict::Allow
        );
    }
    let start = std::time::Instant::now();
    for _ in 0..iters {
        session.evaluate(fw, env, LsmOperation::FileOpen);
    }
    start.elapsed().as_nanos() as f64 / iters as f64
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

    println!("Table 6 (VCACHE): engine-level repeated invocations");
    println!("{n_rules} generic pure rules, {iters} iterations/pass");
    println!("{:-<72}", "");

    let mut env = Env::new();

    // Pass 1: EPTSPC — every invocation scans the generic partition.
    let fw = build_firewall(OptLevel::EptSpc, n_rules, &mut env);
    let mut session = TaskSession::new();
    let eptspc_ns = time_session(&fw, &mut session, &mut env, iters);
    let scanned = fw.metrics().rules_evaluated();
    drop(session);

    // Steady-state one-shot path (thread-local scratch): zero
    // allocations per invocation.
    for _ in 0..10 {
        fw.evaluate(&mut env, LsmOperation::FileOpen);
    }
    let before = allocations();
    for _ in 0..1_000 {
        fw.evaluate(&mut env, LsmOperation::FileOpen);
    }
    let one_shot_allocs = allocations() - before;

    // Pass 2: VCACHE over the same world — first walk populates, the
    // rest hit.
    let fw2 = build_firewall(OptLevel::Vcache, n_rules, &mut env);
    let mut session = TaskSession::new();
    let vcache_ns = time_session(&fw2, &mut session, &mut env, iters);
    let m = fw2.metrics();
    let (hits, misses) = (m.vcache_hits(), m.vcache_misses());

    // Steady-state hit path: zero allocations per invocation.
    let before = allocations();
    for _ in 0..1_000 {
        session.evaluate(&fw2, &mut env, LsmOperation::FileOpen);
    }
    let hit_allocs = allocations() - before;

    let speedup = eptspc_ns / vcache_ns.max(1.0);
    println!("{:<26} {eptspc_ns:>12.1} ns/invocation", "EPTSPC (scan)");
    println!("{:<26} {vcache_ns:>12.1} ns/invocation", "VCACHE (hit)");
    println!("{:<26} {speedup:>12.2}x", "speedup");
    println!("{:-<72}", "");
    println!(
        "vcache: {hits} hits / {misses} misses; rules scanned at EPTSPC: {scanned}; \
         allocations/1000 invocations: one-shot {one_shot_allocs}, hit path {hit_allocs}"
    );

    let mut json = String::from("{");
    let _ = write!(
        json,
        "\"bench\":\"table6_vcache\",\"iters\":{iters},\"rules\":{n_rules},\
         \"eptspc_ns_per_invocation\":{eptspc_ns:.2},\
         \"vcache_ns_per_invocation\":{vcache_ns:.2},\
         \"speedup\":{speedup:.4},\
         \"vcache_hits\":{hits},\"vcache_misses\":{misses},\
         \"one_shot_allocs_per_1k\":{one_shot_allocs},\
         \"hit_path_allocs_per_1k\":{hit_allocs}"
    );
    json.push('}');
    let path = std::path::Path::new("results").join("table6_vcache.json");
    match std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, &json)) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    pf_bench::append_trajectory("BENCH_table6.json", "table6-trajectory-v1", &json);

    // Acceptance bars.
    assert_eq!(
        one_shot_allocs, 0,
        "one-shot evaluate allocated on the steady-state path"
    );
    assert_eq!(hit_allocs, 0, "vcache hit path allocated");
    assert!(
        vcache_ns <= 0.8 * eptspc_ns,
        "VCACHE must be >=20% faster than EPTSPC on the hit path: \
         {vcache_ns:.1} ns vs {eptspc_ns:.1} ns"
    );
    println!("acceptance: VCACHE {vcache_ns:.1} ns <= 0.8 * EPTSPC {eptspc_ns:.1} ns — OK");
}
