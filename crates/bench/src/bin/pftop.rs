//! `pftop`: live aggregation over the decision-event plane.
//!
//! Eight writer threads hammer one shared [`ProcessFirewall`] at
//! `always` sampling while the main thread plays the role of a `top`-style
//! consumer: it drains the per-shard event rings in a loop, folds each
//! batch into top-K tables (operations, subjects, verdicts, dropping
//! rules) and latency sketches (p50/p99/p99.9), and keeps going until it
//! has drained at least the target number of events (default 1M).
//!
//! The harness is the acceptance test for the event plane's non-blocking
//! contract: writers never wait on the reader (a full ring overwrites
//! its oldest slot and the reader accounts the loss), and at quiescence
//! the books balance exactly: `emitted == drained + dropped`.
//!
//! The same drain loop also consumes the bounded **log sink** (a LOG
//! rule fires on every fourth invocation, and the sink runs at a small
//! capacity so writers lap the consumer): a saturated fleet can only
//! cost the collector *records* — counted in `logs_dropped` and marked
//! with a gap on the next drain, the TRACE discipline — never memory or
//! writer progress. Log accounting must balance at quiescence exactly
//! like the event plane's.
//!
//! ```text
//! usage: pftop [target-events] [--jsonl]
//! ```
//!
//! `--jsonl` additionally exports the first [`JSONL_CAP`] drained events
//! as JSON Lines to `results/pftop.jsonl` (one `DecisionEvent::to_json`
//! object per line). A summary goes to `results/pftop.json`.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use pf_core::events::{DecisionEvent, EventKind};
use pf_core::{
    EvalEnv, Histogram, ObjectInfo, OptLevel, ProcessFirewall, SamplingMode, SignalInfo,
    TaskSession,
};
use pf_mac::{ubuntu_mini, MacPolicy};
use pf_types::{
    DeviceId, Gid, InodeNum, Interner, LsmOperation, Mode, Pid, ProgramId, ResourceId, SecId, Uid,
};

const WRITERS: usize = 8;
/// Subjects the writers rotate through (all declared by `ubuntu_mini`).
const SUBJECTS: [&str; 4] = ["httpd_t", "sshd_t", "staff_t", "user_t"];
/// Operations each writer cycles per iteration: a DROP match, an ACCEPT
/// match, a RATELIMIT match, and an unmatched default-allow.
const OPS: [LsmOperation; 4] = [
    LsmOperation::FileOpen,
    LsmOperation::FileRead,
    LsmOperation::FileWrite,
    LsmOperation::FileGetattr,
];
const RULES: [&str; 4] = [
    "pftables -o FILE_OPEN -r 0x5 -j DROP",
    "pftables -o FILE_READ -j ACCEPT",
    "pftables -o FILE_WRITE -j RATELIMIT --rate 1 --burst 4096 --per subject --exceed drop",
    "pftables -o FILE_GETATTR -j LOG --tag pftop",
];
/// Deliberately small log-sink capacity: one writer iteration in four
/// emits a record, so the sink laps between drains and the gap-marking
/// path is exercised, not just the happy path.
const LOG_RING_CAP: usize = 8_192;
/// Cap on the `--jsonl` export so a 1M-event run does not write a
/// multi-hundred-megabyte file; the cap is reported, never silent.
const JSONL_CAP: usize = 50_000;

struct Env {
    mac: MacPolicy,
    programs: Interner,
    subject: SecId,
    program: ProgramId,
    object: ObjectInfo,
    pid: Pid,
    clock: u64,
}

impl Env {
    fn new(subject_label: &str, pid: Pid) -> Self {
        let mac = ubuntu_mini();
        let mut programs = Interner::new();
        let subject = mac.lookup_label(subject_label).unwrap();
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
            pid,
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
        self.pid
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

/// The running top-K tables and latency sketch one drain loop folds
/// event batches into.
#[derive(Default)]
struct Aggregation {
    decisions: u64,
    controls: u64,
    ops: HashMap<&'static str, u64>,
    verdicts: HashMap<&'static str, u64>,
    subjects: HashMap<u32, u64>,
    rules: HashMap<u64, u64>,
    vcache: HashMap<&'static str, u64>,
    throttle: HashMap<&'static str, u64>,
    latency: Histogram,
    errors: u64,
    log_records: u64,
    log_gaps: u64,
}

impl Aggregation {
    fn fold(&mut self, batch: &[DecisionEvent]) {
        for ev in batch {
            if ev.kind != EventKind::Decision {
                self.controls += 1;
                continue;
            }
            self.decisions += 1;
            *self.ops.entry(ev.op.name()).or_default() += 1;
            *self.verdicts.entry(ev.verdict.name()).or_default() += 1;
            *self.subjects.entry(ev.subject).or_default() += 1;
            if ev.rule_key != 0 {
                *self.rules.entry(ev.rule_key).or_default() += 1;
            }
            *self.vcache.entry(ev.vcache.name()).or_default() += 1;
            *self.throttle.entry(ev.throttle.name()).or_default() += 1;
            self.latency.record(ev.latency_ns);
            if ev.is_error() {
                self.errors += 1;
            }
        }
    }
}

/// Resolves every rule of the live base to its position and text, keyed
/// by the `Rule::key` the engine stamps into `DecisionEvent::rule_key`.
fn rule_table(fw: &ProcessFirewall) -> HashMap<u64, String> {
    let snap = fw.base();
    let mut table = HashMap::new();
    for (chain, rules) in snap.iter() {
        let name = chain.as_str();
        for (index, rule) in rules.iter().enumerate() {
            table.insert(rule.key(), format!("{name}[{index}] {}", rule.text));
        }
    }
    table
}

fn top_k<K: Clone>(map: &HashMap<K, u64>, k: usize) -> Vec<(K, u64)> {
    let mut rows: Vec<(K, u64)> = map.iter().map(|(key, n)| (key.clone(), *n)).collect();
    rows.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    rows.truncate(k);
    rows
}

fn main() {
    let mut target: u64 = 1_000_000;
    let mut jsonl = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--jsonl" => jsonl = true,
            other => match other.parse() {
                Ok(n) => target = n,
                Err(_) => {
                    eprintln!("usage: pftop [target-events] [--jsonl]");
                    std::process::exit(2);
                }
            },
        }
    }

    println!("pftop: {WRITERS} writers at `always` sampling, draining >= {target} events");
    println!("{:-<72}", "");

    let fw = Arc::new(ProcessFirewall::new(OptLevel::EptSpc));
    {
        let mut env = Env::new(SUBJECTS[0], Pid(1));
        fw.install_all(RULES, &mut env.mac, &mut env.programs)
            .unwrap();
    }
    fw.set_sampling(SamplingMode::Always);
    fw.set_log_capacity(LOG_RING_CAP);
    let rules_by_key = rule_table(&fw);
    let label_of: HashMap<u32, String> = {
        let mac = ubuntu_mini();
        SUBJECTS
            .iter()
            .map(|s| (mac.lookup_label(s).unwrap().0, (*s).to_owned()))
            .collect()
    };

    let mut agg = Aggregation::default();
    let mut jsonl_lines: Vec<String> = Vec::new();
    let done = AtomicBool::new(false);
    let start = Barrier::new(WRITERS + 1);
    let t0 = std::time::Instant::now();

    let per_writer: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WRITERS)
            .map(|i| {
                let fw = Arc::clone(&fw);
                let (done, start) = (&done, &start);
                s.spawn(move || {
                    let mut env = Env::new(SUBJECTS[i % SUBJECTS.len()], Pid(100 + i as u32));
                    let mut session = TaskSession::new();
                    let mut n = 0u64;
                    start.wait();
                    while !done.load(Ordering::Relaxed) {
                        let op = OPS[(n % OPS.len() as u64) as usize];
                        session.evaluate(&fw, &mut env, op);
                        env.clock += 1;
                        n += 1;
                    }
                    n
                })
            })
            .collect();

        start.wait();
        // The live consumer: drain, fold, repeat. Writers never wait on
        // this loop — a slow consumer only shows up as `dropped` (and,
        // for the log sink, as a gap marker on the next drain).
        while fw.events().drained() < target {
            let logs = fw.drain_logs();
            agg.log_records += logs.entries.len() as u64;
            agg.log_gaps += u64::from(logs.gap);
            let batch = fw.events().drain();
            if batch.is_empty() {
                std::thread::yield_now();
                continue;
            }
            if jsonl {
                for ev in batch
                    .iter()
                    .take(JSONL_CAP.saturating_sub(jsonl_lines.len()))
                {
                    jsonl_lines.push(ev.to_json());
                }
            }
            agg.fold(&batch);
        }
        done.store(true, Ordering::Relaxed);
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = t0.elapsed();

    // Quiescence: writers joined; one final drain settles the books.
    let tail_logs = fw.drain_logs();
    agg.log_records += tail_logs.entries.len() as u64;
    agg.log_gaps += u64::from(tail_logs.gap);
    let tail = fw.events().drain();
    agg.fold(&tail);
    if jsonl {
        for ev in tail
            .iter()
            .take(JSONL_CAP.saturating_sub(jsonl_lines.len()))
        {
            jsonl_lines.push(ev.to_json());
        }
    }

    let (emitted, drained, dropped) = (
        fw.events().emitted(),
        fw.events().drained(),
        fw.events().dropped(),
    );
    let invocations: u64 = per_writer.iter().sum();

    println!(
        "drained {drained} events in {:.2}s ({:.0} events/s); {invocations} invocations, \
         {dropped} overwritten in-ring, {} control events",
        wall.as_secs_f64(),
        drained as f64 / wall.as_secs_f64().max(1e-9),
        agg.controls
    );
    println!("{:-<72}", "");
    println!("top operations:");
    for (op, n) in top_k(&agg.ops, 10) {
        println!("  {op:<28} {n:>12}");
    }
    println!("top verdicts:");
    for (v, n) in top_k(&agg.verdicts, 10) {
        println!("  {v:<28} {n:>12}");
    }
    println!("top subjects:");
    for (sid, n) in top_k(&agg.subjects, 10) {
        let label = label_of
            .get(&sid)
            .cloned()
            .unwrap_or_else(|| format!("sid:{sid}"));
        println!("  {label:<28} {n:>12}");
    }
    println!("top rules (by drop/accept attribution):");
    for (key, n) in top_k(&agg.rules, 10) {
        let text = rules_by_key
            .get(&key)
            .cloned()
            .unwrap_or_else(|| format!("key:{key:#x}"));
        println!("  {n:>12}  {text}");
    }
    println!("vcache outcomes: {:?}", top_k(&agg.vcache, 4));
    println!("throttle outcomes: {:?}", top_k(&agg.throttle, 4));
    let (p50, p99, p999) = (
        agg.latency.p50(),
        agg.latency.p99(),
        agg.latency.percentile(0.999),
    );
    println!("decision latency: p50 {p50} ns, p99 {p99} ns, p99.9 {p999} ns");
    let (logs_emitted, logs_drained, logs_dropped) = (
        fw.log_sink().emitted(),
        fw.log_sink().drained(),
        fw.log_sink().dropped(),
    );
    println!(
        "log sink (cap {LOG_RING_CAP}): {logs_emitted} emitted, {logs_drained} drained, \
         {logs_dropped} overwritten, {} gap-marked drains",
        agg.log_gaps
    );
    println!("{:-<72}", "");

    let mut json = String::from("{");
    let _ = write!(
        json,
        "\"bench\":\"pftop\",\"writers\":{WRITERS},\"target\":{target},\
         \"emitted\":{emitted},\"drained\":{drained},\"dropped\":{dropped},\
         \"invocations\":{invocations},\"decisions\":{},\"controls\":{},\
         \"errors\":{},\"latency_p50_ns\":{p50},\"latency_p99_ns\":{p99},\
         \"latency_p999_ns\":{p999},\"wall_s\":{:.3},\"jsonl_exported\":{},\
         \"logs_emitted\":{logs_emitted},\"logs_drained\":{logs_drained},\
         \"logs_dropped\":{logs_dropped},\"log_gaps\":{}",
        agg.decisions,
        agg.controls,
        agg.errors,
        wall.as_secs_f64(),
        jsonl_lines.len(),
        agg.log_gaps
    );
    json.push('}');
    let path = std::path::Path::new("results").join("pftop.json");
    match std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, &json)) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    if jsonl {
        let path = std::path::Path::new("results").join("pftop.jsonl");
        let mut body = jsonl_lines.join("\n");
        body.push('\n');
        match std::fs::write(&path, body) {
            Ok(()) => println!(
                "wrote {} ({} of {} drained events; cap {JSONL_CAP})",
                path.display(),
                jsonl_lines.len(),
                drained
            ),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }

    // Acceptance bars: the consumer kept up without ever making a
    // writer wait, and the accounting is exact at quiescence.
    assert!(drained >= target, "drained {drained} < target {target}");
    assert_eq!(
        emitted,
        drained + dropped,
        "event accounting must balance at quiescence"
    );
    assert_eq!(agg.decisions + agg.controls, drained);
    assert_eq!(
        logs_emitted,
        logs_drained + logs_dropped,
        "log accounting must balance at quiescence"
    );
    assert_eq!(agg.log_records, logs_drained, "every drained record folded");
    println!(
        "acceptance: drained {drained} >= {target}, emitted {emitted} == \
         drained {drained} + dropped {dropped}, logs {logs_emitted} == \
         {logs_drained} + {logs_dropped} — OK"
    );
}
