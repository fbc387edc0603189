//! RULESETC companion to Table 6: what does compiled indexed dispatch
//! buy on the verdict-cache **miss** path, and does it scale
//! sub-linearly in the rule count?
//!
//! VCACHE already collapses repeated identical invocations; the cost
//! that remains is the first walk of every distinct key — and on a
//! large multi-tenant rule base that walk is a linear scan at EPTSPC.
//! RULESETC jumps through per-(op, label, entrypoint) dispatch tables
//! instead, so the walk touches only the probe's own partition.
//!
//! The rule base here is the pure projection of the synthetic
//! multi-tenant generator ([`pf_rulegen::synth`]): `tenants x ops`
//! partitions of never-matching `-r`-selector DROP rules, using the
//! generator's tenant labels and operation pool, plus one out-of-bucket
//! RATELIMIT rule. The throttle rule makes the snapshot statically
//! uncacheable, so every timed invocation at RULESETC takes the real
//! dispatch path (no verdict-cache hits, no cache-insert allocations)
//! — exactly the miss-path regime this bench isolates.
//!
//! Acceptance bars asserted here:
//!
//! 1. at 10k rules, RULESETC is at least **5x** faster per invocation
//!    than the EPTSPC linear walk;
//! 2. the dispatch lookup performs **zero** heap allocations;
//! 3. growing the rule base 10x (1k -> 10k) grows RULESETC's
//!    per-invocation cost by at most 5x (sub-linear miss cost).
//!
//! Results go to `results/table6_rulesetc.json` and append to the
//! `BENCH_table6.json` trajectory.

use std::fmt::Write as _;

use pf_bench::alloc::{allocations, CountingAlloc};
use pf_core::{EvalEnv, ObjectInfo, OptLevel, ProcessFirewall, SignalInfo, TaskSession};
use pf_mac::{ubuntu_mini, MacPolicy};
use pf_rulegen::synth::{tenant_label, SYNTH_OPS};
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
// Engine-level environment probing tenant 0's partition.
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
    fn program_name(&self, id: ProgramId) -> String {
        self.programs.resolve(id).to_owned()
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

/// Builds a firewall with `n` pure never-matching DROP rules laid out
/// as a multi-tenant partition — `tenants x SYNTH_OPS` buckets of
/// `n / (tenants * ops)` rules each — plus one RATELIMIT rule in a
/// bucket the probe never selects (`SOCKET_BIND`, tenant 1), which
/// makes the snapshot statically uncacheable so the probe re-walks
/// every invocation.
fn build_firewall(level: OptLevel, n: usize, tenants: usize, env: &mut Env) -> ProcessFirewall {
    let fw = ProcessFirewall::new(level);
    let mut lines = Vec::with_capacity(n + 1);
    let mut i = 0usize;
    'fill: loop {
        for t in 0..tenants {
            for op in SYNTH_OPS {
                if i == n {
                    break 'fill;
                }
                lines.push(format!(
                    "pftables -d {} -o {op} -r {} -j DROP",
                    tenant_label(t),
                    10_000 + i
                ));
                i += 1;
            }
        }
    }
    lines.push(format!(
        "pftables -d {} -o SOCKET_BIND -j RATELIMIT --rate 100 --burst 2 --exceed drop",
        tenant_label(1)
    ));
    fw.install_all(
        lines.iter().map(String::as_str),
        &mut env.mac,
        &mut env.programs,
    )
    .unwrap();
    // The probe accesses a tenant-0 object: at RULESETC only the
    // (FILE_OPEN, tenant0) partition is walked; at EPTSPC the whole
    // generic chain is.
    env.object.sid = env.mac.lookup_label(&tenant_label(0)).unwrap();
    fw
}

/// Mean ns/invocation of `session.evaluate` over `iters` runs. Every
/// probe must come back Allow — all rules carry a never-matching `-r`.
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

/// One (level, rule-count) measurement: ns/invocation plus the
/// dispatch/fallback counters accumulated during the timed run.
fn measure(level: OptLevel, n: usize, tenants: usize, iters: u64) -> (f64, u64, u64) {
    let mut env = Env::new();
    let fw = build_firewall(level, n, tenants, &mut env);
    let mut session = TaskSession::new();
    let ns = time_session(&fw, &mut session, &mut env, iters);
    let m = fw.metrics();
    (ns, m.rulesetc_dispatch(), m.rulesetc_fallback())
}

fn main() {
    let iters: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_000);
    const TENANTS: usize = 50;
    const SMALL: usize = 1_000;
    const LARGE: usize = 10_000;

    println!("Table 6 (RULESETC): compiled dispatch on the miss path");
    println!(
        "{TENANTS} tenants x {} ops, {iters} iterations/pass",
        SYNTH_OPS.len()
    );
    println!("{:-<72}", "");

    let (ept_small, _, _) = measure(OptLevel::EptSpc, SMALL, TENANTS, iters);
    let (ept_large, _, _) = measure(OptLevel::EptSpc, LARGE, TENANTS, iters);
    let (rc_small, disp_small, fb_small) = measure(OptLevel::RulesetC, SMALL, TENANTS, iters);
    let (rc_large, disp_large, fb_large) = measure(OptLevel::RulesetC, LARGE, TENANTS, iters);

    // Zero-allocation bar on the dispatch lookup: the snapshot is
    // statically uncacheable, so this is the pure compiled walk. The
    // same build doubles as the compile-budget gate: parsing,
    // installing, and compiling the 10k-rule snapshot (dispatch tables
    // included) must finish within a CI-friendly wall-clock bound.
    let budget_ms: u128 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2_000);
    let mut env = Env::new();
    let build_start = std::time::Instant::now();
    let fw = build_firewall(OptLevel::RulesetC, LARGE, TENANTS, &mut env);
    let build_ms = build_start.elapsed().as_millis();
    let mut session = TaskSession::new();
    for _ in 0..200 {
        session.evaluate(&fw, &mut env, LsmOperation::FileOpen);
    }
    let before = allocations();
    for _ in 0..1_000 {
        session.evaluate(&fw, &mut env, LsmOperation::FileOpen);
    }
    let dispatch_allocs = allocations() - before;

    let speedup_large = ept_large / rc_large.max(1.0);
    let speedup_small = ept_small / rc_small.max(1.0);
    let growth = rc_large / rc_small.max(1.0);

    println!("{:<30} {ept_small:>10.1} ns/invocation", "EPTSPC  1k rules");
    println!(
        "{:<30} {ept_large:>10.1} ns/invocation",
        "EPTSPC  10k rules"
    );
    println!("{:<30} {rc_small:>10.1} ns/invocation", "RULESETC 1k rules");
    println!(
        "{:<30} {rc_large:>10.1} ns/invocation",
        "RULESETC 10k rules"
    );
    println!("{:<30} {speedup_large:>10.2}x", "speedup at 10k");
    println!("{:<30} {growth:>10.2}x", "RULESETC cost growth 1k->10k");
    println!("{:-<72}", "");
    println!(
        "dispatches: {disp_small} @1k, {disp_large} @10k; fallbacks: {fb_small}/{fb_large}; \
         allocations/1000 dispatch lookups: {dispatch_allocs}"
    );
    println!(
        "10k-rule snapshot build (parse+install+compile): {build_ms} ms (budget {budget_ms} ms)"
    );

    let mut json = String::from("{");
    let _ = write!(
        json,
        "\"bench\":\"table6_rulesetc\",\"iters\":{iters},\
         \"tenants\":{TENANTS},\"rules_small\":{SMALL},\"rules_large\":{LARGE},\
         \"eptspc_ns_small\":{ept_small:.2},\"eptspc_ns_large\":{ept_large:.2},\
         \"rulesetc_ns_small\":{rc_small:.2},\"rulesetc_ns_large\":{rc_large:.2},\
         \"speedup_small\":{speedup_small:.4},\"speedup_large\":{speedup_large:.4},\
         \"rulesetc_growth_10x_rules\":{growth:.4},\
         \"dispatch_allocs_per_1k\":{dispatch_allocs},\
         \"build_ms_large\":{build_ms}"
    );
    json.push('}');
    let path = std::path::Path::new("results").join("table6_rulesetc.json");
    match std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, &json)) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    pf_bench::append_trajectory("BENCH_table6.json", "table6-trajectory-v1", &json);

    // Acceptance bars.
    assert_eq!(
        fb_small + fb_large,
        0,
        "dispatch fell back on the bench path"
    );
    assert!(
        disp_large >= iters,
        "the timed RULESETC pass did not take the dispatch path"
    );
    assert_eq!(dispatch_allocs, 0, "dispatch lookup allocated");
    assert!(
        rc_large * 5.0 <= ept_large,
        "RULESETC must be >=5x faster than EPTSPC at 10k rules: \
         {rc_large:.1} ns vs {ept_large:.1} ns"
    );
    assert!(
        growth <= 5.0,
        "10x more rules must cost <5x per invocation: {growth:.2}x"
    );
    assert!(
        build_ms <= budget_ms,
        "10k-rule snapshot build blew the compile budget: {build_ms} ms > {budget_ms} ms"
    );
    println!(
        "acceptance: {speedup_large:.1}x >= 5x at 10k rules, growth {growth:.2}x <= 5x, \
         0 allocations, build {build_ms} ms <= {budget_ms} ms — OK"
    );
}
