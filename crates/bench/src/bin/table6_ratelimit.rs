//! RATELIMIT companion to Table 6: what does a throttle verdict cost
//! relative to a plain `DROP`, and does the granted path allocate?
//!
//! The throttle hot path is one CAS loop over a packed 64-bit bucket
//! word driven by the environment's virtual clock — no locks, no heap.
//! This harness measures the engine directly on both sides of that
//! budget:
//!
//! 1. **DROP (deny)** — a matching `-j DROP` rule; the baseline cost of
//!    a denial (match, counter bump, log entry).
//! 2. **RATELIMIT (deny)** — the same match with an exhausted token
//!    bucket (`--rate 1 --burst 1`, frozen clock); everything the DROP
//!    pays plus the bucket probe + CAS.
//! 3. **RATELIMIT (grant)** — an effectively unlimited bucket; the
//!    steady-state pass-through cost, asserted **zero-allocation** by a
//!    counting global allocator.
//!
//! Results go to `results/table6_ratelimit.json` and a run is appended
//! to the repo-root `BENCH_table6.json` trajectory file. Acceptance bar
//! asserted here: the RATELIMIT deny path is within 1.5x of plain DROP
//! and the granted path performs zero heap allocations.

use std::fmt::Write as _;
use std::sync::Arc;

use pf_bench::alloc::{allocations, CountingAlloc};
use pf_core::{EvalEnv, ObjectInfo, OptLevel, ProcessFirewall, SignalInfo};
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
// A minimal engine-level environment with an explicit virtual clock
// the bench loop advances by hand.
// ---------------------------------------------------------------------

struct Env {
    mac: MacPolicy,
    programs: Interner,
    subject: SecId,
    program: ProgramId,
    object: ObjectInfo,
    clock: u64,
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
            clock: 0,
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
        self.clock
    }
}

/// Builds a firewall carrying exactly one rule.
fn build_firewall(rule: &str, env: &mut Env) -> ProcessFirewall {
    let fw = ProcessFirewall::new(OptLevel::EptSpc);
    fw.install_all([rule], &mut env.mac, &mut env.programs)
        .unwrap();
    fw
}

/// Mean ns/invocation of the one-shot evaluate over `iters` runs,
/// requiring every timed invocation to produce `expect`.
fn time_verdict(fw: &ProcessFirewall, env: &mut Env, iters: u64, expect: Verdict) -> f64 {
    for _ in 0..iters.min(200) {
        fw.evaluate(env, LsmOperation::FileOpen);
    }
    let start = std::time::Instant::now();
    for _ in 0..iters {
        let d = fw.evaluate(env, LsmOperation::FileOpen);
        assert_eq!(d.verdict, expect);
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn main() {
    let iters: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(200_000);

    println!("Table 6 (RATELIMIT): throttle verdict vs plain DROP");
    println!("{iters} iterations/pass, frozen virtual clock on deny passes");
    println!("{:-<72}", "");

    let mut env = Env::new();

    // Pass 1: DROP deny baseline (the rule matches ino 5).
    let fw = build_firewall("pftables -o FILE_OPEN -r 0x5 -j DROP", &mut env);
    let drop_ns = time_verdict(&fw, &mut env, iters, Verdict::Deny);
    drop(fw);

    // Pass 2: RATELIMIT deny — bucket exhausted after the first grant
    // (burst 1) and never refilled (rate 1/period, clock frozen).
    let fw = build_firewall(
        "pftables -o FILE_OPEN -r 0x5 -j RATELIMIT --rate 1 --burst 1 --exceed drop",
        &mut env,
    );
    let throttle_ns = time_verdict(&fw, &mut env, iters, Verdict::Deny);
    let throttled = fw.metrics().ratelimit_throttled();
    drop(fw);

    // Pass 3: RATELIMIT grant — an effectively unlimited bucket; the
    // clock advances so refills exercise the full CAS path. Steady
    // state must not touch the heap.
    let fw = build_firewall(
        "pftables -o FILE_OPEN -r 0x5 -j RATELIMIT --rate 1000000 --burst 1000000 --exceed drop",
        &mut env,
    );
    for _ in 0..200 {
        env.clock += 1;
        let d = fw.evaluate(&mut env, LsmOperation::FileOpen);
        assert_eq!(d.verdict, Verdict::Allow);
    }
    let before = allocations();
    let start = std::time::Instant::now();
    for _ in 0..1_000 {
        env.clock += 1;
        fw.evaluate(&mut env, LsmOperation::FileOpen);
    }
    let grant_ns = start.elapsed().as_nanos() as f64 / 1_000.0;
    let grant_allocs = allocations() - before;

    let ratio = throttle_ns / drop_ns.max(1.0);
    println!("{:<26} {drop_ns:>12.1} ns/invocation", "DROP (deny)");
    println!(
        "{:<26} {throttle_ns:>12.1} ns/invocation",
        "RATELIMIT (deny)"
    );
    println!("{:<26} {grant_ns:>12.1} ns/invocation", "RATELIMIT (grant)");
    println!("{:<26} {ratio:>12.2}x", "deny ratio");
    println!("{:-<72}", "");
    println!(
        "throttled verdicts: {throttled}; allocations/1000 granted invocations: {grant_allocs}"
    );

    let mut run = String::from("{");
    let _ = write!(
        run,
        "\"bench\":\"table6_ratelimit\",\"iters\":{iters},\
         \"drop_deny_ns\":{drop_ns:.2},\
         \"ratelimit_deny_ns\":{throttle_ns:.2},\
         \"ratelimit_grant_ns\":{grant_ns:.2},\
         \"deny_ratio\":{ratio:.4},\
         \"grant_allocs_per_1k\":{grant_allocs}"
    );
    run.push('}');
    let path = std::path::Path::new("results").join("table6_ratelimit.json");
    match std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, &run)) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    pf_bench::append_trajectory("BENCH_table6.json", "table6-trajectory-v1", &run);

    // Acceptance bars.
    assert_eq!(grant_allocs, 0, "granted throttle path allocated");
    assert!(
        ratio <= 1.5,
        "RATELIMIT deny must stay within 1.5x of plain DROP: \
         {throttle_ns:.1} ns vs {drop_ns:.1} ns ({ratio:.2}x)"
    );
    println!("acceptance: RATELIMIT deny {ratio:.2}x of DROP (<= 1.5x), zero grant allocs — OK");
}
