//! The LOG target's JSON records and the bounded shared log sink.
//!
//! The paper's LOG target "logs a variety of information about the current
//! resource access in JSON format" (Section 5.2); OS distributors feed
//! these records to the rule-generation scripts of Section 6.3. The JSON
//! codec here is hand-rolled (flat objects, string/number/bool values) to
//! keep the dependency set at the sanctioned crates.
//!
//! The hook does not render anything. It captures a [`LogRecord`]: the
//! fixed-size fields, the label and program names as handles shared with
//! the interners that own them, the resource id, the tag and an enum
//! verdict — everything that could change before a collector drains.
//! [`LogSink`], the firewall-wide bounded buffer, renders the public
//! [`LogEntry`] strings when it is drained, after its lock is released,
//! so the string work lands on the collector instead of the hook. The
//! sink is a [`BoundedRing`]: once full, the oldest record is overwritten
//! and counted, and `emitted() == drained() + dropped()` holds exactly
//! once the sink is quiescent and fully drained.

use std::fmt::Write as _;
use std::sync::Arc;

use pf_types::{LsmOperation, PfError, PfResult, ResourceId, Verdict};

use crate::ring::BoundedRing;

/// One resource-access log record.
#[derive(Debug, Clone, PartialEq)]
pub struct LogEntry {
    /// Logical timestamp.
    pub ts: u64,
    /// Calling process.
    pub pid: u32,
    /// Subject MAC label name.
    pub subject: String,
    /// Main program binary path.
    pub program: String,
    /// Entrypoint binary path (may differ from `program`, e.g. a library).
    pub ept_prog: String,
    /// Entrypoint relative program counter.
    pub ept_pc: u64,
    /// The mediated operation.
    pub op: LsmOperation,
    /// Object MAC label name (empty when the operation has no object).
    pub object: String,
    /// Resource identifier rendering (`dev:D/ino:N` or `sig:N`).
    pub resource: String,
    /// Adversary-writable (low integrity)?
    pub adv_write: bool,
    /// Adversary-readable (low secrecy)?
    pub adv_read: bool,
    /// Free-form rule tag.
    pub tag: String,
    /// Verdict rendering at log time (LOG rules run before the verdict,
    /// so this is `"ALLOW"` unless a later DROP is recorded).
    pub verdict: String,
}

pub(crate) fn esc(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

impl LogEntry {
    /// Renders the record as a single-line JSON object.
    ///
    /// # Examples
    ///
    /// ```
    /// use pf_core::LogEntry;
    /// use pf_types::LsmOperation;
    ///
    /// let e = LogEntry {
    ///     ts: 1, pid: 2, subject: "httpd_t".into(),
    ///     program: "/usr/bin/apache2".into(),
    ///     ept_prog: "/usr/bin/apache2".into(), ept_pc: 0x2d637,
    ///     op: LsmOperation::FileOpen, object: "tmp_t".into(),
    ///     resource: "dev:0/ino:9".into(), adv_write: true,
    ///     adv_read: true, tag: "".into(), verdict: "ALLOW".into(),
    /// };
    /// let json = e.to_json();
    /// assert_eq!(LogEntry::parse_json(&json).unwrap(), e);
    /// ```
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256);
        s.push('{');
        let field_str = |s: &mut String, k: &str, v: &str, first: bool| {
            if !first {
                s.push(',');
            }
            let _ = write!(s, "\"{k}\":\"");
            esc(s, v);
            s.push('"');
        };
        field_str(&mut s, "subject", &self.subject, true);
        field_str(&mut s, "program", &self.program, false);
        field_str(&mut s, "ept_prog", &self.ept_prog, false);
        field_str(&mut s, "op", self.op.name(), false);
        field_str(&mut s, "object", &self.object, false);
        field_str(&mut s, "resource", &self.resource, false);
        field_str(&mut s, "tag", &self.tag, false);
        field_str(&mut s, "verdict", &self.verdict, false);
        let _ = write!(
            s,
            ",\"ts\":{},\"pid\":{},\"ept_pc\":{},\"adv_write\":{},\"adv_read\":{}",
            self.ts, self.pid, self.ept_pc, self.adv_write, self.adv_read
        );
        s.push('}');
        s
    }

    /// Parses a record produced by [`LogEntry::to_json`].
    pub fn parse_json(json: &str) -> PfResult<LogEntry> {
        let fields = parse_flat_object(json)?;
        let get_s = |k: &str| -> PfResult<String> {
            match fields.iter().find(|(key, _)| key == k) {
                Some((_, JsonVal::Str(s))) => Ok(s.clone()),
                _ => Err(PfError::RuleError(format!("log field `{k}` missing"))),
            }
        };
        let get_n = |k: &str| -> PfResult<u64> {
            match fields.iter().find(|(key, _)| key == k) {
                Some((_, JsonVal::Num(n))) => Ok(*n),
                _ => Err(PfError::RuleError(format!("log field `{k}` missing"))),
            }
        };
        let get_b = |k: &str| -> PfResult<bool> {
            match fields.iter().find(|(key, _)| key == k) {
                Some((_, JsonVal::Bool(b))) => Ok(*b),
                _ => Err(PfError::RuleError(format!("log field `{k}` missing"))),
            }
        };
        Ok(LogEntry {
            ts: get_n("ts")?,
            pid: get_n("pid")? as u32,
            subject: get_s("subject")?,
            program: get_s("program")?,
            ept_prog: get_s("ept_prog")?,
            ept_pc: get_n("ept_pc")?,
            op: get_s("op")?
                .parse::<LsmOperation>()
                .map_err(PfError::RuleError)?,
            object: get_s("object")?,
            resource: get_s("resource")?,
            adv_write: get_b("adv_write")?,
            adv_read: get_b("adv_read")?,
            tag: get_s("tag")?,
            verdict: get_s("verdict")?,
        })
    }
}

/// A LOG record's tag: an engine keyword (`DROP`, `CTXFAIL`, …) or the
/// `--tag` of the rule that logged, shared with the installed rule.
#[derive(Debug, Clone)]
pub(crate) enum LogTag {
    Static(&'static str),
    Rule(Arc<str>),
}

/// One LOG record as the hook captures it, rendered into the public
/// [`LogEntry`] at drain. Names are the interners' shared copies, which
/// are append-only, so they still name the same label or program when
/// the record is rendered.
#[derive(Debug, Clone)]
pub struct LogRecord {
    pub(crate) ts: u64,
    pub(crate) pid: u32,
    pub(crate) subject: Arc<str>,
    pub(crate) program: Arc<str>,
    /// Entrypoint program and relative pc, when the unwind succeeded.
    pub(crate) ept: Option<(Arc<str>, u64)>,
    pub(crate) op: LsmOperation,
    /// Object label and resource, when the operation has an object.
    pub(crate) object: Option<(Arc<str>, ResourceId)>,
    pub(crate) adv_write: bool,
    pub(crate) adv_read: bool,
    pub(crate) tag: LogTag,
    /// `Allow` unless a DROP in the same invocation patched it.
    pub(crate) verdict: Verdict,
}

impl LogRecord {
    /// Renders the record's strings.
    fn render(self) -> LogEntry {
        let (ept_prog, ept_pc) = self
            .ept
            .map_or((String::new(), 0), |(p, pc)| (p.to_string(), pc));
        let (object, resource) = self
            .object
            .map_or((String::new(), String::new()), |(label, r)| {
                (label.to_string(), r.to_string())
            });
        LogEntry {
            ts: self.ts,
            pid: self.pid,
            subject: self.subject.to_string(),
            program: self.program.to_string(),
            ept_prog,
            ept_pc,
            op: self.op,
            object,
            resource,
            adv_write: self.adv_write,
            adv_read: self.adv_read,
            tag: match self.tag {
                LogTag::Static(tag) => tag.to_owned(),
                LogTag::Rule(tag) => tag.to_string(),
            },
            verdict: self.verdict.to_string(),
        }
    }
}

/// Default [`LogSink`] capacity: roomy enough that every existing
/// workload drains losslessly, small enough that a runaway LOG flood
/// tops out at a few tens of megabytes instead of eating the host.
pub const DEFAULT_LOG_CAPACITY: usize = 65_536;

/// One gap-marked drain of the [`LogSink`].
#[derive(Debug, Default)]
pub struct LogDrain {
    /// The drained records, oldest first.
    pub entries: Vec<LogEntry>,
    /// Overflow gap marker, same discipline as the TRACE ring: `true`
    /// when one or more records were overwritten since the previous
    /// drain, i.e. "records are missing immediately before the first
    /// entry here". Stamped by the reader, never by writers.
    pub gap: bool,
    /// How many records were overwritten since the previous drain.
    pub dropped_since_last: u64,
}

/// The firewall-wide LOG buffer: a bounded overwrite-oldest ring of
/// captured records, rendered into [`LogEntry`]s when drained.
///
/// Writers append whole invocations' worth of records under **one**
/// lock acquisition; when the ring is full the oldest records are
/// overwritten and counted in `dropped`. The counters are updated under
/// the ring lock, so `emitted == drained + dropped + len` is exact at
/// every quiescent point, not merely eventually.
pub type LogSink = BoundedRing<LogRecord>;

impl Default for LogSink {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_LOG_CAPACITY)
    }
}

impl LogSink {
    /// Creates a sink bounded at `capacity` records (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        BoundedRing::new(capacity)
    }

    /// Drains every buffered record and reports whether records were
    /// overwritten since the previous drain. The lock is held only to
    /// swap the buffer out; the records are rendered after it is
    /// released, so the drain, not the hook, pays for the strings.
    pub fn drain(&self) -> LogDrain {
        let (records, dropped_since_last) = self.take_all();
        LogDrain {
            entries: records.into_iter().map(LogRecord::render).collect(),
            gap: dropped_since_last > 0,
            dropped_since_last,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum JsonVal {
    Str(String),
    Num(u64),
    Bool(bool),
}

/// Parses a flat JSON object with string/number/bool values.
fn parse_flat_object(json: &str) -> PfResult<Vec<(String, JsonVal)>> {
    let bytes: Vec<char> = json.trim().chars().collect();
    let e = |m: &str| PfError::RuleError(format!("bad log JSON: {m}"));
    let mut i = 0usize;
    let mut out = Vec::new();
    if bytes.first() != Some(&'{') {
        return Err(e("expected `{`"));
    }
    i += 1;
    loop {
        while i < bytes.len() && bytes[i].is_whitespace() {
            i += 1;
        }
        if i < bytes.len() && bytes[i] == '}' {
            return Ok(out);
        }
        // Key.
        if bytes.get(i) != Some(&'"') {
            return Err(e("expected key"));
        }
        i += 1;
        let mut key = String::new();
        while i < bytes.len() && bytes[i] != '"' {
            key.push(bytes[i]);
            i += 1;
        }
        i += 1; // Closing quote.
        while i < bytes.len() && bytes[i].is_whitespace() {
            i += 1;
        }
        if bytes.get(i) != Some(&':') {
            return Err(e("expected `:`"));
        }
        i += 1;
        while i < bytes.len() && bytes[i].is_whitespace() {
            i += 1;
        }
        // Value.
        let val = match bytes.get(i) {
            Some('"') => {
                i += 1;
                let mut v = String::new();
                while i < bytes.len() && bytes[i] != '"' {
                    if bytes[i] == '\\' {
                        i += 1;
                        match bytes.get(i) {
                            Some('n') => v.push('\n'),
                            Some('u') => {
                                let hex: String = bytes[i + 1..i + 5].iter().collect();
                                let cp = u32::from_str_radix(&hex, 16).map_err(|_| e("bad \\u"))?;
                                v.push(char::from_u32(cp).ok_or_else(|| e("bad codepoint"))?);
                                i += 4;
                            }
                            Some(&c) => v.push(c),
                            None => return Err(e("dangling escape")),
                        }
                    } else {
                        v.push(bytes[i]);
                    }
                    i += 1;
                }
                i += 1;
                JsonVal::Str(v)
            }
            Some('t') => {
                i += 4;
                JsonVal::Bool(true)
            }
            Some('f') => {
                i += 5;
                JsonVal::Bool(false)
            }
            Some(c) if c.is_ascii_digit() => {
                let mut v = 0u64;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    v = v * 10 + bytes[i].to_digit(10).unwrap() as u64;
                    i += 1;
                }
                JsonVal::Num(v)
            }
            _ => return Err(e("unexpected value")),
        };
        out.push((key, val));
        while i < bytes.len() && bytes[i].is_whitespace() {
            i += 1;
        }
        match bytes.get(i) {
            Some(',') => i += 1,
            Some('}') => return Ok(out),
            _ => return Err(e("expected `,` or `}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_types::{DeviceId, InodeNum};

    fn entry() -> LogEntry {
        LogEntry {
            ts: 42,
            pid: 7,
            subject: "user_t".into(),
            program: "/usr/bin/python2.7".into(),
            ept_prog: "/usr/bin/python2.7".into(),
            ept_pc: 0x34f05,
            op: LsmOperation::FileOpen,
            object: "tmp_t".into(),
            resource: "dev:1/ino:99".into(),
            adv_write: true,
            adv_read: false,
            tag: "trace".into(),
            verdict: "ALLOW".into(),
        }
    }

    #[test]
    fn json_round_trip() {
        let e = entry();
        assert_eq!(LogEntry::parse_json(&e.to_json()).unwrap(), e);
    }

    #[test]
    fn escaping_round_trips() {
        let mut e = entry();
        e.tag = "with \"quotes\" and \\slashes\\ and\nnewline".into();
        assert_eq!(LogEntry::parse_json(&e.to_json()).unwrap(), e);
    }

    /// Adversarial payloads in every string field: quotes, backslashes,
    /// control characters, JSON-structure characters, and multi-byte
    /// UTF-8 must all survive a render → parse round trip, and the
    /// rendered record must stay a single line.
    #[test]
    fn adversarial_strings_round_trip() {
        let payloads = [
            "\"},\"verdict\":\"DENY\"", // attempts to inject a field
            "\\\" \\\\ \\u0000",        // pre-escaped sequences
            "\u{0}\u{1}\u{1f}",         // raw control characters
            "line1\nline2\r\ttabbed",   // newline, CR, tab
            "{}[]:,",                   // JSON structure characters
            "ünïcødé ☂ 家",             // multi-byte UTF-8
            "ends with backslash \\",
            "",
        ];
        for p in payloads {
            let mut e = entry();
            e.tag = p.into();
            e.subject = format!("s{p}");
            e.program = format!("p{p}");
            e.object = format!("o{p}");
            e.resource = format!("r{p}");
            let json = e.to_json();
            assert_eq!(
                json.lines().count(),
                1,
                "record must stay one line for {p:?}"
            );
            assert_eq!(LogEntry::parse_json(&json).unwrap(), e, "payload {p:?}");
        }
    }

    #[test]
    fn rejects_truncated_json() {
        assert!(LogEntry::parse_json("{\"ts\":1").is_err());
        assert!(LogEntry::parse_json("not json").is_err());
    }

    #[test]
    fn missing_field_is_an_error() {
        assert!(LogEntry::parse_json("{\"ts\":1}").is_err());
    }

    /// The captured form of [`entry`], stamped `ts`.
    fn stamped(ts: u64) -> LogRecord {
        LogRecord {
            ts,
            pid: 7,
            subject: "user_t".into(),
            program: "/usr/bin/python2.7".into(),
            ept: Some(("/usr/bin/python2.7".into(), 0x34f05)),
            op: LsmOperation::FileOpen,
            object: Some((
                "tmp_t".into(),
                ResourceId::File {
                    dev: DeviceId(1),
                    ino: InodeNum(99),
                },
            )),
            adv_write: true,
            adv_read: false,
            tag: LogTag::Rule("trace".into()),
            verdict: Verdict::Allow,
        }
    }

    #[test]
    fn drain_renders_what_the_hook_captured() {
        let sink = LogSink::with_capacity(4);
        sink.push(stamped(42));
        let mut objectless = stamped(43);
        objectless.ept = None;
        objectless.object = None;
        objectless.tag = LogTag::Static("DROP");
        objectless.verdict = Verdict::Deny;
        sink.push(objectless);
        let entries = sink.drain().entries;
        assert_eq!(entries[0], entry(), "every field renders as before");
        let e = &entries[1];
        assert_eq!((e.ept_prog.as_str(), e.ept_pc), ("", 0));
        assert_eq!((e.object.as_str(), e.resource.as_str()), ("", ""));
        assert_eq!((e.tag.as_str(), e.verdict.as_str()), ("DROP", "DENY"));
    }

    #[test]
    fn sink_overwrites_oldest_and_accounts_exactly() {
        let sink = LogSink::with_capacity(4);
        for ts in 0..10 {
            sink.push(stamped(ts));
        }
        assert_eq!(sink.len(), 4);
        assert_eq!(sink.emitted(), 10);
        assert_eq!(sink.dropped(), 6);
        let drain = sink.drain();
        assert!(drain.gap, "overwrites since last drain mark a gap");
        assert_eq!(drain.dropped_since_last, 6);
        let kept: Vec<u64> = drain.entries.iter().map(|e| e.ts).collect();
        assert_eq!(kept, vec![6, 7, 8, 9], "newest records survive");
        assert_eq!(sink.emitted(), sink.drained() + sink.dropped());
        // A second drain with no traffic in between is gap-free.
        let drain = sink.drain();
        assert!(!drain.gap);
        assert!(drain.entries.is_empty());
    }

    #[test]
    fn sink_batch_append_preserves_order_and_allocation() {
        let sink = LogSink::with_capacity(8);
        let mut batch: Vec<LogRecord> = (0..5).map(stamped).collect();
        let cap_before = batch.capacity();
        sink.append(&mut batch);
        assert!(batch.is_empty(), "batch is drained in place");
        assert_eq!(batch.capacity(), cap_before, "scratch keeps its allocation");
        let got: Vec<u64> = sink.drain().entries.iter().map(|e| e.ts).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert_eq!(sink.emitted(), 5);
        assert_eq!(sink.drained(), 5);
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn sink_shrink_drops_oldest() {
        let sink = LogSink::with_capacity(8);
        for ts in 0..8 {
            sink.push(stamped(ts));
        }
        sink.set_capacity(3);
        assert_eq!(sink.capacity(), 3);
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.dropped(), 5);
        let kept: Vec<u64> = sink.drain().entries.iter().map(|e| e.ts).collect();
        assert_eq!(kept, vec![5, 6, 7]);
        assert_eq!(sink.emitted(), sink.drained() + sink.dropped());
    }

    #[test]
    fn sink_capacity_floor_is_one() {
        let sink = LogSink::with_capacity(0);
        assert_eq!(sink.capacity(), 1);
        sink.set_capacity(0);
        assert_eq!(sink.capacity(), 1);
        sink.push(stamped(1));
        sink.push(stamped(2));
        assert_eq!(sink.len(), 1);
        assert_eq!(sink.dropped(), 1);
    }

    #[test]
    fn sink_accounting_is_exact_under_concurrent_writers() {
        use std::sync::Arc;
        let sink = Arc::new(LogSink::with_capacity(64));
        let mut total_drained = 0u64;
        std::thread::scope(|s| {
            for _ in 0..4 {
                let sink = Arc::clone(&sink);
                s.spawn(move || {
                    let mut batch = Vec::new();
                    for round in 0..200u64 {
                        for ts in 0..5 {
                            batch.push(stamped(round * 5 + ts));
                        }
                        sink.append(&mut batch);
                    }
                });
            }
            // A racing drainer, like pftop's loop.
            for _ in 0..50 {
                total_drained += sink.drain().entries.len() as u64;
                std::thread::yield_now();
            }
        });
        total_drained += sink.drain().entries.len() as u64;
        assert_eq!(sink.emitted(), 4 * 200 * 5);
        assert_eq!(sink.drained(), total_drained);
        assert_eq!(sink.emitted(), sink.drained() + sink.dropped());
    }
}
