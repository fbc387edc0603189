//! Adversarial label content through the firewall-level exporters.
//!
//! User chain names and rule text are free-form `pftables` tokens: the
//! single-quote tokenizer lets them carry double quotes, backslashes,
//! spaces, and even raw newlines. The Prometheus and JSON exporters
//! must escape every such value — one hostile rule name must not be
//! able to forge metric lines or truncate the JSON document.

use std::sync::Arc;

use process_firewall::firewall::{
    EvalEnv, ObjectInfo, OptLevel, ProcessFirewall, SamplingMode, SignalInfo,
};
use process_firewall::mac::{ubuntu_mini, MacPolicy};
use process_firewall::types::{
    DeviceId, Gid, InodeNum, Interner, LsmOperation, Mode, Pid, ProgramId, ResourceId, SecId, Uid,
    Verdict,
};

/// A chain name exercising every character the exporters must escape:
/// a double quote, a backslash, and a raw newline.
const EVIL: &str = "ev\"il\\cha\nin";

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

/// Builds a firewall whose throttle rule lives in the hostile chain and
/// has live bucket occupancy, with detailed metrics and sampling on —
/// everything the exporters label with free-form strings is active.
fn hostile_world(env: &mut Env) -> ProcessFirewall {
    let fw = ProcessFirewall::new(OptLevel::EptSpc);
    let lines = [
        format!("pftables -N '{EVIL}'"),
        format!("pftables -o FILE_OPEN -r 0x5 -j '{EVIL}'"),
        format!(
            "pftables -A '{EVIL}' -o FILE_OPEN -j RATELIMIT --rate 1000 --burst 1000 \
             --per subject --exceed drop"
        ),
    ];
    fw.metrics().set_detailed(true);
    fw.install_all(
        lines.iter().map(String::as_str),
        &mut env.mac,
        &mut env.programs,
    )
    .unwrap();
    fw.set_sampling(SamplingMode::Always);
    // One granted walk through the hostile chain: creates a live bucket
    // slot (occupancy rows) and nonzero rule counters (per-rule rows).
    let d = fw.evaluate(env, LsmOperation::FileOpen);
    assert_eq!(d.verdict, Verdict::Allow);
    fw
}

#[test]
fn prometheus_export_escapes_hostile_chain_names() {
    let mut env = Env::new();
    let fw = hostile_world(&mut env);
    let text = fw.render_prometheus();

    // The hostile name must appear escaped somewhere (occupancy rows).
    assert!(
        text.contains("pf_throttle_occupancy{chain=\"ev\\\"il\\\\cha\\nin\""),
        "occupancy label must escape quote, backslash, and newline"
    );
    // So must the per-rule rows, which the same snapshot walk renders.
    assert!(
        text.lines()
            .any(|l| l == "pf_rule_evaluated_total{chain=\"ev\\\"il\\\\cha\\nin\",rule=\"0\"} 1"),
        "per-rule label must escape quote, backslash, and newline"
    );
    // The raw (unescaped) name must appear nowhere: a raw newline in a
    // label would split a metric line in half.
    assert!(!text.contains(EVIL), "raw hostile chain name leaked");

    // Every line still parses as `name{label="v",…} value`.
    for line in text.lines() {
        let (name_part, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("unparseable metric line `{line}`");
        });
        assert!(
            value == "+Inf" || value.parse::<f64>().is_ok(),
            "bad value in `{line}`"
        );
        let name = match name_part.split_once('{') {
            Some((n, labels)) => {
                let labels = labels.strip_suffix('}').expect("closing brace");
                assert!(!labels.contains('\n'));
                n
            }
            None => name_part,
        };
        assert!(
            name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "bad metric name in `{line}`"
        );
    }
}

#[test]
fn json_export_escapes_hostile_chain_names() {
    let mut env = Env::new();
    let fw = hostile_world(&mut env);
    let json = fw.to_json();

    assert!(json.starts_with('{') && json.ends_with('}'));
    // Single-line invariant: a raw newline anywhere would break JSONL
    // consumers and is the tell-tale of an unescaped label.
    assert!(!json.contains('\n'), "JSON export must stay single-line");
    // The hostile name appears with every character escaped.
    assert!(
        json.contains("ev\\\"il\\\\cha\\nin"),
        "hostile chain name must be JSON-escaped in the export"
    );
    // Occupancy entries carry the rule text (also hostile) escaped.
    assert!(json.contains("\"throttle_occupancy\":[{\"chain\":\"ev\\\"il\\\\cha\\nin\""));

    // Balanced quotes: the document has an even number of unescaped
    // double quotes, so no string literal was left open.
    let mut quotes = 0u64;
    let mut prev_backslashes = 0u32;
    for c in json.chars() {
        if c == '"' && prev_backslashes.is_multiple_of(2) {
            quotes += 1;
        }
        if c == '\\' {
            prev_backslashes += 1;
        } else {
            prev_backslashes = 0;
        }
    }
    assert_eq!(quotes % 2, 0, "unbalanced quotes in JSON export");
}

/// The event plane's own export surface: `DecisionEvent::to_json` emits
/// only numeric, boolean, and fixed-vocabulary string fields, so a
/// hostile ruleset cannot inject content into the JSONL stream at all
/// — rule identity travels as the numeric `rule_key`.
#[test]
fn decision_event_jsonl_contains_no_freeform_strings() {
    let mut env = Env::new();
    let fw = hostile_world(&mut env);
    fw.evaluate(&mut env, LsmOperation::FileOpen);
    let events = fw.events().drain();
    assert!(!events.is_empty());
    for ev in &events {
        let line = ev.to_json();
        assert!(!line.contains('\n'));
        assert!(
            !line.contains("ev\\\"il") && !line.contains(EVIL),
            "rule identity must be numeric in event JSONL: `{line}`"
        );
    }
}
