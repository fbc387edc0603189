//! Event-plane companion to Table 6: what does decision-event sampling
//! cost, and — the bar that matters — does the hot path pay anything at
//! all when sampling is **off**?
//!
//! One [`TaskSession`] re-issues the same `FILE_OPEN` against a generic
//! rule partition (the `table6_vcache` worst case) while the harness
//! walks the sampling dial:
//!
//! 1. **off (fresh)** — the baseline; the event plane has never been
//!    armed. Asserted zero-allocation by the counting global allocator.
//! 2. **1-in-64** — statistical sampling; one event every 64 decisions.
//! 3. **always** — every decision emits a [`pf_core::DecisionEvent`]
//!    into the per-shard ring. Also asserted zero-allocation: the
//!    writer side of the ring never touches the heap.
//! 4. **off (after)** — sampling disarmed again. The acceptance gate:
//!    `off_after <= 1.05 * off_fresh` (min-of-rounds on both sides), so
//!    an armed-then-disarmed plane leaves **no residual cost** — the
//!    CI observability-overhead lane fails on regression here.
//!
//! Results go to `results/table6_events.json` and a run is appended to
//! the repo-root `BENCH_table6.json` trajectory.
//!
//! ```text
//! usage: table6_events [iters-per-round] [rules]
//! ```

use std::fmt::Write as _;
use std::sync::Arc;

use pf_bench::alloc::{allocations, CountingAlloc};
use pf_core::{
    EvalEnv, ObjectInfo, OptLevel, ProcessFirewall, SamplingMode, SignalInfo, TaskSession,
};
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
/// that never match the bench object (ino 5).
fn build_firewall(n: usize, env: &mut Env) -> ProcessFirewall {
    let fw = ProcessFirewall::new(OptLevel::EptSpc);
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

/// One timed round: mean ns/invocation of `session.evaluate` over
/// `iters` runs (every invocation a default-allow miss of every rule).
fn round_ns(fw: &ProcessFirewall, session: &mut TaskSession, env: &mut Env, iters: u64) -> f64 {
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

/// Minimum of `rounds` timed rounds — the noise-resistant estimator the
/// 1.05x gate compares (mean-of-means is hostage to scheduler jitter).
fn min_ns(
    fw: &ProcessFirewall,
    session: &mut TaskSession,
    env: &mut Env,
    iters: u64,
    rounds: u32,
) -> f64 {
    (0..rounds)
        .map(|_| round_ns(fw, session, env, iters))
        .fold(f64::INFINITY, f64::min)
}

/// Allocations across 1000 steady-state invocations.
fn allocs_per_1k(fw: &ProcessFirewall, session: &mut TaskSession, env: &mut Env) -> u64 {
    for _ in 0..200 {
        session.evaluate(fw, env, LsmOperation::FileOpen);
    }
    let before = allocations();
    for _ in 0..1_000 {
        session.evaluate(fw, env, LsmOperation::FileOpen);
    }
    allocations() - before
}

fn main() {
    let iters: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(200_000);
    let n_rules: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(64);
    const ROUNDS: u32 = 5;

    println!("Table 6 (events): decision-event sampling overhead at EPTSPC");
    println!("{n_rules} generic rules, {iters} iterations/round, min of {ROUNDS} rounds");
    println!("{:-<72}", "");

    let mut env = Env::new();
    let fw = build_firewall(n_rules, &mut env);
    let mut session = TaskSession::new();

    // Pass 1: sampling off, never armed — the baseline, and zero-alloc.
    let off_fresh = min_ns(&fw, &mut session, &mut env, iters, ROUNDS);
    let off_allocs = allocs_per_1k(&fw, &mut session, &mut env);

    // Pass 2: statistical sampling, one decision in 64.
    fw.set_sampling(SamplingMode::OneIn(64));
    let one_in_64 = min_ns(&fw, &mut session, &mut env, iters, ROUNDS);

    // Pass 3: every decision emits. The writer side of the ring is
    // fixed-size slots plus atomics — steady state must not allocate
    // even with the plane fully armed.
    fw.set_sampling(SamplingMode::Always);
    let always = min_ns(&fw, &mut session, &mut env, iters, ROUNDS);
    let always_allocs = allocs_per_1k(&fw, &mut session, &mut env);

    // Pass 4: disarmed again — the residual-cost gate.
    fw.set_sampling(SamplingMode::Off);
    let off_after = min_ns(&fw, &mut session, &mut env, iters, ROUNDS);

    let emitted = fw.events().emitted();
    let residual = off_after / off_fresh.max(1e-9);
    let always_ratio = always / off_fresh.max(1e-9);
    let sampled_ratio = one_in_64 / off_fresh.max(1e-9);

    println!("{:<26} {off_fresh:>12.1} ns/invocation", "off (fresh)");
    println!(
        "{:<26} {one_in_64:>12.1} ns/invocation ({sampled_ratio:.3}x)",
        "1-in-64"
    );
    println!(
        "{:<26} {always:>12.1} ns/invocation ({always_ratio:.3}x)",
        "always"
    );
    println!("{:<26} {off_after:>12.1} ns/invocation", "off (after)");
    println!("{:<26} {residual:>12.3}x", "residual (gate <= 1.05)");
    println!("{:-<72}", "");
    println!(
        "events emitted: {emitted}; allocations/1000 invocations: \
         off {off_allocs}, always {always_allocs}"
    );

    let mut run = String::from("{");
    let _ = write!(
        run,
        "\"bench\":\"table6_events\",\"iters\":{iters},\"rules\":{n_rules},\
         \"off_fresh_ns\":{off_fresh:.2},\
         \"one_in_64_ns\":{one_in_64:.2},\
         \"always_ns\":{always:.2},\
         \"off_after_ns\":{off_after:.2},\
         \"residual_ratio\":{residual:.4},\
         \"always_ratio\":{always_ratio:.4},\
         \"events_emitted\":{emitted},\
         \"off_allocs_per_1k\":{off_allocs},\
         \"always_allocs_per_1k\":{always_allocs}"
    );
    run.push('}');
    let path = std::path::Path::new("results").join("table6_events.json");
    match std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, &run)) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    pf_bench::append_trajectory("BENCH_table6.json", "table6-trajectory-v1", &run);

    // Acceptance bars.
    assert_eq!(off_allocs, 0, "sampling-off evaluate allocated");
    assert_eq!(always_allocs, 0, "always-sampling emit path allocated");
    assert!(
        residual <= 1.05,
        "sampling-off hot path must stay within 1.05x after the plane \
         was armed: {off_after:.1} ns vs {off_fresh:.1} ns ({residual:.3}x)"
    );
    println!("acceptance: residual {residual:.3}x (<= 1.05x), zero allocs off+always — OK");
}
