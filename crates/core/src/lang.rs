//! The `pftables` rule language parser (Table 3 of the paper).
//!
//! Grammar (whitespace-separated tokens; single quotes group):
//!
//! ```text
//! pftables [-t filter|mangle] [-I|-A|-D chain]
//!          [-s labelset] [-d labelset] [-i 0xPC] [-p /path/to/binary]
//!          [-o LSM_OPERATION] [-r resource_id]
//!          [-m MODULE opts...]* [-j TARGET opts...]
//! ```
//!
//! Label sets are written `lbl_t`, `{a_t|b_t}`, or negated `~{a_t|b_t}`;
//! the keyword `SYSHIGH` expands to the TCB label set from the MAC policy
//! at install time (Section 5.2). Context references (`C_INO`,
//! `C_DAC_OWNER`, `C_TGT_DAC_OWNER`, …) may appear in module options and
//! are resolved at evaluation time.

use pf_types::{Interner, LabelSet, LsmOperation, PfError, PfResult};

use pf_mac::MacPolicy;

use crate::chain::ChainName;
use crate::config::OptLevel;
use crate::events::SamplingMode;
use crate::ratelimit::{self, ExceedPolicy, PerKey};
use crate::rule::{CtxPolicy, DefaultMatches, MatchModule, Rule, Target};
use crate::value::{state_key, ValueExpr};

/// What an installed rule line asks the firewall to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuleOp {
    /// Insert at the head of `chain` (`-I`).
    InsertHead(ChainName),
    /// Append to `chain` (`-A`, or the default when no chain op given).
    Append(ChainName),
    /// Delete the first matching rule from `chain` (`-D`).
    Delete(ChainName),
}

/// A parsed rule line.
#[derive(Debug, PartialEq, Eq)]
pub struct ParsedRule {
    /// Placement/removal directive.
    pub op: RuleOp,
    /// The rule itself.
    pub rule: Rule,
}

/// Splits a rule line into tokens, honouring single-quoted groups.
fn tokenize(line: &str) -> Vec<String> {
    let mut toks = Vec::new();
    let mut cur = String::new();
    let mut quoted = false;
    for ch in line.chars() {
        match ch {
            '\'' => quoted = !quoted,
            c if c.is_whitespace() && !quoted => {
                if !cur.is_empty() {
                    toks.push(std::mem::take(&mut cur));
                }
            }
            c => cur.push(c),
        }
    }
    if !cur.is_empty() {
        toks.push(cur);
    }
    toks
}

fn err(msg: impl Into<String>) -> PfError {
    PfError::RuleError(msg.into())
}

/// Parses a label-set token, expanding `SYSHIGH` from the MAC policy.
fn parse_label_set(tok: &str, mac: &mut MacPolicy) -> PfResult<LabelSet> {
    let (negate, body) = match tok.strip_prefix('~') {
        Some(rest) => (true, rest),
        None => (false, tok),
    };
    let inner = body
        .strip_prefix('{')
        .and_then(|b| b.strip_suffix('}'))
        .unwrap_or(body);
    if inner.is_empty() {
        return Err(err(format!("empty label set `{tok}`")));
    }
    let mut set = LabelSet::empty();
    for name in inner.split('|') {
        if name == "SYSHIGH" {
            set.extend(mac.syshigh_set());
        } else {
            set.extend([mac.intern_label(name)]);
        }
    }
    Ok(if negate { set.negated() } else { set })
}

/// Parses a hex (`0x…`) or decimal number.
fn parse_num(tok: &str) -> PfResult<u64> {
    if let Some(hex) = tok.strip_prefix("0x").or_else(|| tok.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).map_err(|e| err(format!("bad number `{tok}`: {e}")))
    } else {
        tok.parse()
            .map_err(|e| err(format!("bad number `{tok}`: {e}")))
    }
}

/// Walks a rule line's tokens, handing out borrowed slices.
struct Cursor<'t> {
    toks: &'t [String],
    pos: usize,
}

impl<'t> Cursor<'t> {
    fn peek(&self) -> Option<&'t str> {
        self.toks.get(self.pos).map(String::as_str)
    }

    fn next(&mut self) -> Option<&'t str> {
        let t = self.peek()?;
        self.pos += 1;
        Some(t)
    }

    fn need(&mut self, what: &str) -> PfResult<&'t str> {
        self.next().ok_or_else(|| err(format!("expected {what}")))
    }
}

/// A full `pftables` command: a rule operation or chain management.
#[derive(Debug, PartialEq, Eq)]
pub enum Command {
    /// Insert/append/delete a rule (boxed: far larger than its peers).
    Rule(Box<ParsedRule>),
    /// `-N name`: declare a new (user) chain.
    NewChain(ChainName),
    /// `-F [chain]`: flush one chain, or everything when omitted.
    Flush(Option<ChainName>),
    /// `-X name`: delete an empty user chain.
    DeleteChain(ChainName),
    /// `-P chain --ctx-missing skip|match|drop`: set the chain-level
    /// default policy for failed context fetches (see
    /// [`crate::rule::CtxPolicy`]).
    CtxDefault(ChainName, CtxPolicy),
    /// `-O LEVEL`: switch the engine to the named Table 6 optimization
    /// preset (`DISABLED`, `BASE`, …, `EPTSPC`, `VCACHE`).
    SetLevel(OptLevel),
    /// `-E off|always|errors-only|1/N`: set the decision-event sampling
    /// mode (see [`crate::events::SamplingMode`]). Unlike every other
    /// command this is runtime state, not snapshot state — it takes
    /// effect with one atomic store and does not bump the generation.
    SetSampling(SamplingMode),
}

/// Parses one `pftables` line: chain-management commands (`-N`, `-F`,
/// `-X`) or a rule line (see [`parse_rule`]).
pub fn parse_command(
    line: &str,
    mac: &mut MacPolicy,
    programs: &mut Interner,
) -> PfResult<Command> {
    let line = line.trim();
    let toks = tokenize(line);
    if toks.first().map(String::as_str) != Some("pftables") {
        return Err(err("rule must start with `pftables`"));
    }
    // Skip an optional `-t <table>` prefix when looking for the command.
    let mut i = 1;
    if toks.get(i).map(String::as_str) == Some("-t") {
        i += 2;
    }
    match toks.get(i).map(String::as_str) {
        Some("-N") => {
            let name = toks
                .get(i + 1)
                .ok_or_else(|| err("expected chain name after -N"))?;
            let chain = ChainName::parse(name);
            if !matches!(chain, ChainName::User(_)) {
                return Err(err(format!("cannot create built-in chain `{name}`")));
            }
            Ok(Command::NewChain(chain))
        }
        Some("-F") => Ok(Command::Flush(toks.get(i + 1).map(|n| ChainName::parse(n)))),
        Some("-X") => {
            let name = toks
                .get(i + 1)
                .ok_or_else(|| err("expected chain name after -X"))?;
            Ok(Command::DeleteChain(ChainName::parse(name)))
        }
        Some("-P") => {
            let name = toks
                .get(i + 1)
                .ok_or_else(|| err("expected chain name after -P"))?;
            if toks.get(i + 2).map(String::as_str) != Some("--ctx-missing") {
                return Err(err("-P expects --ctx-missing <skip|match|drop>"));
            }
            let pol = toks
                .get(i + 3)
                .and_then(|p| CtxPolicy::parse(p))
                .ok_or_else(|| err("--ctx-missing expects skip, match, or drop"))?;
            Ok(Command::CtxDefault(ChainName::parse(name), pol))
        }
        Some("-O") => {
            let name = toks
                .get(i + 1)
                .ok_or_else(|| err("expected optimization level after -O"))?;
            let level = OptLevel::parse(name)
                .ok_or_else(|| err(format!("unknown optimization level `{name}`")))?;
            Ok(Command::SetLevel(level))
        }
        Some("-E") => {
            let mode = toks
                .get(i + 1)
                .ok_or_else(|| err("expected sampling mode after -E"))?;
            let mode = SamplingMode::parse(mode)
                .ok_or_else(|| err(format!("unknown sampling mode `{mode}`")))?;
            Ok(Command::SetSampling(mode))
        }
        _ => parse_rule_tokens(line, &toks, mac, programs).map(|p| Command::Rule(Box::new(p))),
    }
}

/// Parses one `pftables` line against the given MAC policy (for label
/// interning / SYSHIGH expansion) and program interner.
pub fn parse_rule(
    line: &str,
    mac: &mut MacPolicy,
    programs: &mut Interner,
) -> PfResult<ParsedRule> {
    let line = line.trim();
    parse_rule_tokens(line, &tokenize(line), mac, programs)
}

/// Parses a rule from the tokens of its trimmed `line`, which becomes
/// the rule's text.
fn parse_rule_tokens(
    line: &str,
    toks: &[String],
    mac: &mut MacPolicy,
    programs: &mut Interner,
) -> PfResult<ParsedRule> {
    let mut cur = Cursor { toks, pos: 0 };
    if cur.next() != Some("pftables") {
        return Err(err("rule must start with `pftables`"));
    }

    let mut op: Option<RuleOp> = None;
    let mut def = DefaultMatches::default();
    let mut matches: Vec<MatchModule> = Vec::new();
    let mut target: Option<Target> = None;
    let mut ctx_policy: Option<CtxPolicy> = None;

    while let Some(tok) = cur.next() {
        match tok {
            "-t" => {
                let table = cur.need("table name after -t")?;
                if table != "filter" && table != "mangle" {
                    return Err(err(format!("unknown table `{table}`")));
                }
            }
            "-I" => {
                let chain = cur.need("chain after -I")?;
                op = Some(RuleOp::InsertHead(ChainName::parse(chain)));
            }
            "-A" => {
                let chain = cur.need("chain after -A")?;
                op = Some(RuleOp::Append(ChainName::parse(chain)));
            }
            "-D" => {
                let chain = cur.need("chain after -D")?;
                op = Some(RuleOp::Delete(ChainName::parse(chain)));
            }
            "-s" => {
                let set = cur.need("label set after -s")?;
                def.subject = Some(parse_label_set(set, mac)?);
            }
            "-d" => {
                let set = cur.need("label set after -d")?;
                def.object = Some(parse_label_set(set, mac)?);
            }
            "-i" => {
                let pc = cur.need("entrypoint pc after -i")?;
                def.entrypoint_pc = Some(parse_num(pc)?);
            }
            "-p" => {
                let prog = cur.need("program path after -p")?;
                def.program = Some(programs.intern(prog));
            }
            "-o" => {
                let opname = cur.need("operation after -o")?;
                def.op = Some(opname.parse::<LsmOperation>().map_err(err)?);
            }
            "-r" => {
                let res = cur.need("resource id after -r")?;
                def.resource = Some(parse_num(res)?);
            }
            "--origin" => {
                let level = cur.need("origin level after --origin")?;
                def.origin = Some(pf_mac::parse_origin(level).ok_or_else(|| {
                    err(format!(
                        "unknown origin level `{level}` (trusted|external|tainted|N)"
                    ))
                })?);
            }
            "--ctx-missing" => {
                let pol = cur.need("policy after --ctx-missing")?;
                ctx_policy = Some(
                    CtxPolicy::parse(pol)
                        .ok_or_else(|| err(format!("unknown --ctx-missing policy `{pol}`")))?,
                );
            }
            "-m" => {
                let module = cur.need("module name after -m")?;
                matches.push(parse_match_module(module, &mut cur, programs)?);
            }
            "-j" => {
                let tname = cur.need("target after -j")?;
                target = Some(parse_target(tname, &mut cur)?);
            }
            other => return Err(err(format!("unexpected token `{other}`"))),
        }
    }

    let target = target.ok_or_else(|| err("rule has no target (-j)"))?;
    let mut rule = Rule::new(def, matches, target, line.to_owned());
    rule.ctx_policy = ctx_policy;
    Ok(ParsedRule {
        op: op.unwrap_or(RuleOp::Append(ChainName::Input)),
        rule,
    })
}

fn parse_match_module(
    name: &str,
    cur: &mut Cursor<'_>,
    programs_ref: &mut Interner,
) -> PfResult<MatchModule> {
    match name {
        "STATE" => {
            let mut key = None;
            let mut cmp = None;
            let mut negate = false;
            while let Some(opt) = cur.peek() {
                match opt {
                    "--key" => {
                        cur.next();
                        key = Some(state_key(cur.need("key")?));
                    }
                    "--cmp" => {
                        cur.next();
                        cmp = Some(ValueExpr::parse(cur.need("comparand")?).map_err(err)?);
                    }
                    "--nequal" => {
                        cur.next();
                        negate = true;
                    }
                    "--equal" => {
                        cur.next();
                        negate = false;
                    }
                    _ => break,
                }
            }
            Ok(MatchModule::State {
                key: key.ok_or_else(|| err("STATE match requires --key"))?,
                cmp: cmp.ok_or_else(|| err("STATE match requires --cmp"))?,
                negate,
            })
        }
        "SIGNAL_MATCH" => Ok(MatchModule::SignalMatch),
        "SYSCALL_ARGS" => {
            let mut arg = None;
            let mut cmp = None;
            let mut negate = false;
            while let Some(opt) = cur.peek() {
                match opt {
                    "--arg" => {
                        cur.next();
                        arg = Some(parse_num(cur.need("arg index")?)? as u8);
                    }
                    "--equal" => {
                        cur.next();
                        cmp = Some(ValueExpr::parse(cur.need("comparand")?).map_err(err)?);
                        negate = false;
                    }
                    "--nequal" => {
                        cur.next();
                        cmp = Some(ValueExpr::parse(cur.need("comparand")?).map_err(err)?);
                        negate = true;
                    }
                    _ => break,
                }
            }
            Ok(MatchModule::SyscallArgs {
                arg: arg.ok_or_else(|| err("SYSCALL_ARGS requires --arg"))?,
                cmp: cmp.ok_or_else(|| err("SYSCALL_ARGS requires --equal/--nequal"))?,
                negate,
            })
        }
        "COMPARE" => {
            let mut v1 = None;
            let mut v2 = None;
            let mut negate = false;
            while let Some(opt) = cur.peek() {
                match opt {
                    "--v1" => {
                        cur.next();
                        v1 = Some(ValueExpr::parse(cur.need("v1")?).map_err(err)?);
                    }
                    "--v2" => {
                        cur.next();
                        v2 = Some(ValueExpr::parse(cur.need("v2")?).map_err(err)?);
                    }
                    "--nequal" => {
                        cur.next();
                        negate = true;
                    }
                    "--equal" => {
                        cur.next();
                        negate = false;
                    }
                    _ => break,
                }
            }
            Ok(MatchModule::Compare {
                v1: v1.ok_or_else(|| err("COMPARE requires --v1"))?,
                v2: v2.ok_or_else(|| err("COMPARE requires --v2"))?,
                negate,
            })
        }
        "ADV_ACCESS" => {
            let mut write = true;
            let mut want = true;
            while let Some(opt) = cur.peek() {
                match opt {
                    "--write" => {
                        cur.next();
                        write = true;
                    }
                    "--read" => {
                        cur.next();
                        write = false;
                    }
                    "--accessible" => {
                        cur.next();
                        want = true;
                    }
                    "--inaccessible" => {
                        cur.next();
                        want = false;
                    }
                    _ => break,
                }
            }
            Ok(MatchModule::AdvAccess { write, want })
        }
        "OWNER" => {
            let mut uid = None;
            let mut negate = false;
            while let Some(opt) = cur.peek() {
                match opt {
                    "--uid" => {
                        cur.next();
                        uid = Some(parse_num(cur.need("uid")?)?);
                    }
                    "--nequal" => {
                        cur.next();
                        negate = true;
                    }
                    "--equal" => {
                        cur.next();
                        negate = false;
                    }
                    _ => break,
                }
            }
            Ok(MatchModule::Owner {
                uid: uid.ok_or_else(|| err("OWNER requires --uid"))?,
                negate,
            })
        }
        "INTERP" => {
            let mut script = None;
            let mut line = None;
            while let Some(opt) = cur.peek() {
                match opt {
                    "--script" => {
                        cur.next();
                        script = Some(cur.need("script path")?.to_owned());
                    }
                    "--line" => {
                        cur.next();
                        line = Some(parse_num(cur.need("line number")?)? as u32);
                    }
                    _ => break,
                }
            }
            Ok(MatchModule::Interp {
                script: script.ok_or_else(|| err("INTERP requires --script"))?,
                line,
            })
        }
        "CALLER" => {
            let mut program = None;
            while let Some(opt) = cur.peek() {
                match opt {
                    "--program" => {
                        cur.next();
                        program = Some(cur.need("caller program path")?);
                    }
                    _ => break,
                }
            }
            let program = program.ok_or_else(|| err("CALLER requires --program"))?;
            Ok(MatchModule::Caller {
                program: programs_ref.intern(program),
            })
        }
        other => Err(err(format!("unknown match module `{other}`"))),
    }
}

fn parse_target(name: &str, cur: &mut Cursor<'_>) -> PfResult<Target> {
    match name {
        "DROP" => Ok(Target::Drop),
        "ACCEPT" => Ok(Target::Accept),
        "CONTINUE" => Ok(Target::Continue),
        "RETURN" => Ok(Target::Return),
        "LOG" => {
            let mut tag = "";
            while let Some(opt) = cur.peek() {
                match opt {
                    "--tag" => {
                        cur.next();
                        tag = cur.need("tag")?;
                    }
                    _ => break,
                }
            }
            Ok(Target::Log { tag: tag.into() })
        }
        "STATE" => {
            let mut set = false;
            let mut unset = false;
            let mut key = None;
            let mut value = None;
            while let Some(opt) = cur.peek() {
                match opt {
                    "--set" => {
                        cur.next();
                        set = true;
                    }
                    "--unset" => {
                        cur.next();
                        unset = true;
                    }
                    "--key" => {
                        cur.next();
                        key = Some(state_key(cur.need("key")?));
                    }
                    "--value" => {
                        cur.next();
                        value = Some(ValueExpr::parse(cur.need("value")?).map_err(err)?);
                    }
                    _ => break,
                }
            }
            let key = key.ok_or_else(|| err("STATE target requires --key"))?;
            if unset {
                Ok(Target::StateUnset { key })
            } else if set {
                Ok(Target::StateSet {
                    key,
                    value: value.ok_or_else(|| err("STATE --set requires --value"))?,
                })
            } else {
                Err(err("STATE target requires --set or --unset"))
            }
        }
        "TRACE" => Ok(Target::Trace),
        "RATELIMIT" => {
            let mut rate = None;
            let mut burst = None;
            let (mut per, mut exceed) = (PerKey::default(), ExceedPolicy::default());
            while let Some(opt) = cur.peek() {
                match opt {
                    "--rate" => {
                        cur.next();
                        rate = Some(parse_num(cur.need("rate")?)?);
                    }
                    "--burst" => {
                        cur.next();
                        burst = Some(parse_num(cur.need("burst")?)?);
                    }
                    "--per" => {
                        cur.next();
                        let k = cur.need("per key")?;
                        per = PerKey::parse(k)
                            .ok_or_else(|| err(format!("unknown --per key `{k}`")))?;
                    }
                    "--exceed" => {
                        cur.next();
                        let p = cur.need("exceed policy")?;
                        exceed = ExceedPolicy::parse(p)
                            .ok_or_else(|| err(format!("unknown --exceed policy `{p}`")))?;
                    }
                    _ => break,
                }
            }
            let rate = rate.ok_or_else(|| err("RATELIMIT requires --rate"))?;
            let burst = burst.unwrap_or(rate.min(ratelimit::MAX_BURST));
            check_bound("RATELIMIT --rate", rate, ratelimit::MAX_RATE)?;
            check_bound("RATELIMIT --burst", burst, ratelimit::MAX_BURST)?;
            Ok(Target::RateLimit {
                rate,
                burst,
                per,
                exceed,
            })
        }
        "QUOTA" => {
            let mut limit = None;
            let mut window = ratelimit::DEFAULT_WINDOW;
            let (mut per, mut exceed) = (PerKey::default(), ExceedPolicy::default());
            while let Some(opt) = cur.peek() {
                match opt {
                    "--limit" => {
                        cur.next();
                        limit = Some(parse_num(cur.need("limit")?)?);
                    }
                    "--window" => {
                        cur.next();
                        window = parse_num(cur.need("window")?)?;
                    }
                    "--per" => {
                        cur.next();
                        let k = cur.need("per key")?;
                        per = PerKey::parse(k)
                            .ok_or_else(|| err(format!("unknown --per key `{k}`")))?;
                    }
                    "--exceed" => {
                        cur.next();
                        let p = cur.need("exceed policy")?;
                        exceed = ExceedPolicy::parse(p)
                            .ok_or_else(|| err(format!("unknown --exceed policy `{p}`")))?;
                    }
                    _ => break,
                }
            }
            let limit = limit.ok_or_else(|| err("QUOTA requires --limit"))?;
            check_bound("QUOTA --limit", limit, ratelimit::MAX_LIMIT)?;
            check_bound("QUOTA --window", window, ratelimit::MAX_WINDOW)?;
            Ok(Target::Quota {
                limit,
                window,
                per,
                exceed,
            })
        }
        // Any other name jumps to a user chain (e.g. `-j SIGNAL_CHAIN`),
        // parsed here so the walk never re-parses it.
        other => Ok(Target::Jump(ChainName::parse(other))),
    }
}

/// Rejects degenerate (`0`) and oversized throttle parameters: a
/// zero-rate bucket or zero-grant quota is a DROP rule in disguise and
/// almost certainly a typo, and oversized values would overflow the
/// packed 32-bit state halves.
fn check_bound(what: &str, value: u64, max: u64) -> PfResult<()> {
    if value == 0 {
        return Err(err(format!(
            "{what} must be at least 1 (use -j DROP to deny outright)"
        )));
    }
    if value > max {
        return Err(err(format!("{what} must be at most {max}")));
    }
    Ok(())
}

/// Renders a rule back into canonical `pftables` syntax.
///
/// The output always re-parses to an equal rule ([`parse_rule`] accepts
/// selectors in any order; this emits them in Table 3 order), and a
/// second render of the re-parse reproduces the text exactly — the
/// stability property `pftables -L` relies on. Label sets render in
/// their *expanded* form (`SYSHIGH` becomes the TCB set it expanded to
/// at install time), and string STATE keys render as the hashed hex key.
pub fn render_rule(rule: &Rule, chain: &ChainName, mac: &MacPolicy, programs: &Interner) -> String {
    use std::fmt::Write;

    let mut out = format!("pftables -A {}", chain.as_str());
    if let Some(set) = &rule.def.subject {
        let _ = write!(out, " -s {}", set.display_with(|id| mac.label_name(id)));
    }
    if let Some(set) = &rule.def.object {
        let _ = write!(out, " -d {}", set.display_with(|id| mac.label_name(id)));
    }
    if let Some(prog) = rule.def.program {
        let _ = write!(out, " -p {}", programs.resolve(prog));
    }
    if let Some(pc) = rule.def.entrypoint_pc {
        let _ = write!(out, " -i 0x{pc:x}");
    }
    if let Some(op) = rule.def.op {
        let _ = write!(out, " -o {}", op.name());
    }
    if let Some(res) = rule.def.resource {
        let _ = write!(out, " -r 0x{res:x}");
    }
    if let Some(level) = rule.def.origin {
        match pf_mac::origin_name(level) {
            "custom" => {
                let _ = write!(out, " --origin {level}");
            }
            name => {
                let _ = write!(out, " --origin {name}");
            }
        }
    }
    if let Some(pol) = rule.ctx_policy {
        let _ = write!(out, " --ctx-missing {}", pol.name());
    }
    for m in &rule.matches {
        match m {
            MatchModule::State { key, cmp, negate } => {
                let _ = write!(out, " -m STATE --key 0x{key:x} --cmp {cmp}");
                if *negate {
                    out.push_str(" --nequal");
                }
            }
            MatchModule::SignalMatch => out.push_str(" -m SIGNAL_MATCH"),
            MatchModule::SyscallArgs { arg, cmp, negate } => {
                let eq = if *negate { "--nequal" } else { "--equal" };
                let _ = write!(out, " -m SYSCALL_ARGS --arg {arg} {eq} {cmp}");
            }
            MatchModule::Compare { v1, v2, negate } => {
                let _ = write!(out, " -m COMPARE --v1 {v1} --v2 {v2}");
                if *negate {
                    out.push_str(" --nequal");
                }
            }
            MatchModule::AdvAccess { write, want } => {
                let dir = if *write { "--write" } else { "--read" };
                let acc = if *want {
                    "--accessible"
                } else {
                    "--inaccessible"
                };
                let _ = write!(out, " -m ADV_ACCESS {dir} {acc}");
            }
            MatchModule::Owner { uid, negate } => {
                let _ = write!(out, " -m OWNER --uid {uid}");
                if *negate {
                    out.push_str(" --nequal");
                }
            }
            MatchModule::Interp { script, line } => {
                let _ = write!(out, " -m INTERP --script {script}");
                if let Some(n) = line {
                    let _ = write!(out, " --line {n}");
                }
            }
            MatchModule::Caller { program } => {
                let _ = write!(out, " -m CALLER --program {}", programs.resolve(*program));
            }
        }
    }
    match &rule.target {
        Target::Drop => out.push_str(" -j DROP"),
        Target::Accept => out.push_str(" -j ACCEPT"),
        Target::Continue => out.push_str(" -j CONTINUE"),
        Target::Return => out.push_str(" -j RETURN"),
        Target::Trace => out.push_str(" -j TRACE"),
        Target::Jump(chain) => {
            let _ = write!(out, " -j {}", chain.as_str());
        }
        Target::StateSet { key, value } => {
            let _ = write!(out, " -j STATE --set --key 0x{key:x} --value {value}");
        }
        Target::StateUnset { key } => {
            let _ = write!(out, " -j STATE --unset --key 0x{key:x}");
        }
        Target::Log { tag } => {
            out.push_str(" -j LOG");
            if !tag.is_empty() {
                if tag.chars().any(char::is_whitespace) {
                    let _ = write!(out, " --tag '{tag}'");
                } else {
                    let _ = write!(out, " --tag {tag}");
                }
            }
        }
        Target::RateLimit {
            rate,
            burst,
            per,
            exceed,
        } => {
            let _ = write!(
                out,
                " -j RATELIMIT --rate {rate} --burst {burst} --per {} --exceed {}",
                per.name(),
                exceed.name()
            );
        }
        Target::Quota {
            limit,
            window,
            per,
            exceed,
        } => {
            let _ = write!(
                out,
                " -j QUOTA --limit {limit} --window {window} --per {} --exceed {}",
                per.name(),
                exceed.name()
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_mac::ubuntu_mini;
    use pf_types::SyscallNr;

    fn setup() -> (MacPolicy, Interner) {
        (ubuntu_mini(), Interner::new())
    }

    #[test]
    fn parses_simple_drop_rule() {
        let (mut mac, mut progs) = setup();
        let p = parse_rule(
            "pftables -t filter -o LNK_FILE_READ -d tmp_t -j DROP",
            &mut mac,
            &mut progs,
        )
        .unwrap();
        assert_eq!(p.op, RuleOp::Append(ChainName::Input));
        assert_eq!(p.rule.def.op, Some(LsmOperation::LnkFileRead));
        assert_eq!(p.rule.target, Target::Drop);
        let tmp = mac.lookup_label("tmp_t").unwrap();
        assert!(p.rule.def.object.as_ref().unwrap().contains(tmp));
    }

    #[test]
    fn parses_rule_r1_with_negated_set_and_syshigh() {
        let (mut mac, mut progs) = setup();
        let p = parse_rule(
            "pftables -p /lib/ld-2.15.so -i 0x596b -s SYSHIGH \
             -d ~{lib_t|textrel_shlib_t|httpd_modules_t} -o FILE_OPEN -j DROP",
            &mut mac,
            &mut progs,
        )
        .unwrap();
        let lib = mac.lookup_label("lib_t").unwrap();
        let tmp = mac.lookup_label("tmp_t").unwrap();
        let obj = p.rule.def.object.as_ref().unwrap();
        assert!(!obj.contains(lib), "lib_t is excluded by ~{{...}}");
        assert!(obj.contains(tmp), "tmp_t is matched");
        let sshd = mac.lookup_label("sshd_t").unwrap();
        let user = mac.lookup_label("user_t").unwrap();
        let subj = p.rule.def.subject.as_ref().unwrap();
        assert!(subj.contains(sshd), "SYSHIGH expands to TCB subjects");
        assert!(!subj.contains(user));
        assert_eq!(p.rule.def.entrypoint_pc, Some(0x596b));
        assert_eq!(p.rule.def.program, progs.get("/lib/ld-2.15.so"));
    }

    #[test]
    fn parses_state_target_and_match() {
        let (mut mac, mut progs) = setup();
        let set = parse_rule(
            "pftables -i 0x3c750 -p /bin/dbus-daemon -o SOCKET_BIND \
             -j STATE --set --key 0xbeef --value C_INO",
            &mut mac,
            &mut progs,
        )
        .unwrap();
        assert_eq!(
            set.rule.target,
            Target::StateSet {
                key: 0xbeef,
                value: ValueExpr::Ctx(crate::context::CtxField::ResourceId)
            }
        );
        let cmp = parse_rule(
            "pftables -i 0x3c786 -p /bin/dbus-daemon -o SOCKET_SETATTR \
             -m STATE --key 0xbeef --cmp C_INO --nequal -j DROP",
            &mut mac,
            &mut progs,
        )
        .unwrap();
        assert_eq!(
            cmp.rule.matches[0],
            MatchModule::State {
                key: 0xbeef,
                cmp: ValueExpr::Ctx(crate::context::CtxField::ResourceId),
                negate: true
            }
        );
    }

    #[test]
    fn parses_signal_chain_rules_r9_to_r12() {
        let (mut mac, mut progs) = setup();
        let r9 = parse_rule(
            "pftables -I input -o PROCESS_SIGNAL_DELIVERY -j SIGNAL_CHAIN",
            &mut mac,
            &mut progs,
        )
        .unwrap();
        assert_eq!(r9.op, RuleOp::InsertHead(ChainName::Input));
        assert_eq!(
            r9.rule.target,
            Target::Jump(ChainName::User("signal_chain".into()))
        );
        // The pre-parsed target renders as the lowercased name it had.
        let text = render_rule(&r9.rule, &ChainName::Input, &mac, &progs);
        assert!(text.ends_with(" -j signal_chain"), "{text}");

        let r10 = parse_rule(
            "pftables -I signal_chain -m SIGNAL_MATCH -m STATE --key 'sig' --cmp 1 -j DROP",
            &mut mac,
            &mut progs,
        )
        .unwrap();
        assert_eq!(r10.rule.matches.len(), 2);
        assert_eq!(r10.rule.matches[0], MatchModule::SignalMatch);

        let r12 = parse_rule(
            "pftables -I syscallbegin -m SYSCALL_ARGS --arg 0 --equal NR_sigreturn \
             -j STATE --set --key 'sig' --value 0",
            &mut mac,
            &mut progs,
        )
        .unwrap();
        assert_eq!(
            r12.rule.matches[0],
            MatchModule::SyscallArgs {
                arg: 0,
                cmp: ValueExpr::Lit(SyscallNr::Sigreturn.as_u64()),
                negate: false
            }
        );
        assert_eq!(r12.op, RuleOp::InsertHead(ChainName::SyscallBegin));
    }

    #[test]
    fn parses_compare_rule_r8() {
        let (mut mac, mut progs) = setup();
        let r8 = parse_rule(
            "pftables -i 0x2d637 -p /usr/bin/apache2 -o LINK_READ \
             -m COMPARE --v1 C_DAC_OWNER --v2 C_TGT_DAC_OWNER --nequal -j DROP",
            &mut mac,
            &mut progs,
        )
        .unwrap();
        assert!(matches!(
            r8.rule.matches[0],
            MatchModule::Compare { negate: true, .. }
        ));
    }

    #[test]
    fn rejects_malformed_rules() {
        let (mut mac, mut progs) = setup();
        for bad in [
            "iptables -j DROP",
            "pftables -o FILE_OPEN",
            "pftables -o NOT_AN_OP -j DROP",
            "pftables -t nat -j DROP",
            "pftables -m STATE --cmp 1 -j DROP",
            "pftables -j STATE --key 1",
            "pftables -x -j DROP",
            "pftables -o FILE_OPEN --ctx-missing wat -j DROP",
            "pftables -o FILE_OPEN --ctx-missing -j DROP",
            "pftables -o FILE_OPEN --origin -j DROP",
            "pftables -o FILE_OPEN --origin pristine -j DROP",
            // Throttle targets: degenerate and oversized parameters.
            "pftables -o FILE_OPEN -j RATELIMIT",
            "pftables -o FILE_OPEN -j RATELIMIT --rate 0",
            "pftables -o FILE_OPEN -j RATELIMIT --rate 8 --burst 0",
            "pftables -o FILE_OPEN -j RATELIMIT --rate 8000000",
            "pftables -o FILE_OPEN -j RATELIMIT --rate 8 --burst 8000000",
            "pftables -o FILE_OPEN -j RATELIMIT --rate 8 --per everyone",
            "pftables -o FILE_OPEN -j RATELIMIT --rate 8 --exceed explode",
            "pftables -o FILE_OPEN -j QUOTA",
            "pftables -o FILE_OPEN -j QUOTA --limit 0",
            "pftables -o FILE_OPEN -j QUOTA --limit 5 --window 0",
            "pftables -o FILE_OPEN -j QUOTA --limit 99999999999",
        ] {
            assert!(parse_rule(bad, &mut mac, &mut progs).is_err(), "{bad}");
        }
    }

    #[test]
    fn ratelimit_defaults_and_quota_window_default() {
        let (mut mac, mut progs) = setup();
        let p = parse_rule(
            "pftables -o FILE_OPEN -j RATELIMIT --rate 8",
            &mut mac,
            &mut progs,
        )
        .unwrap();
        assert_eq!(
            p.rule.target,
            Target::RateLimit {
                rate: 8,
                burst: 8,
                per: crate::ratelimit::PerKey::Subject,
                exceed: crate::ratelimit::ExceedPolicy::Drop,
            },
            "burst defaults to rate; per/exceed to subject/drop"
        );
        let p = parse_rule(
            "pftables -o FILE_OPEN -j QUOTA --limit 5 --per resource --exceed degrade",
            &mut mac,
            &mut progs,
        )
        .unwrap();
        assert_eq!(
            p.rule.target,
            Target::Quota {
                limit: 5,
                window: crate::ratelimit::DEFAULT_WINDOW,
                per: crate::ratelimit::PerKey::Resource,
                exceed: crate::ratelimit::ExceedPolicy::Degrade,
            }
        );
    }

    #[test]
    fn delete_directive() {
        let (mut mac, mut progs) = setup();
        let p = parse_rule(
            "pftables -D input -o FILE_OPEN -j DROP",
            &mut mac,
            &mut progs,
        )
        .unwrap();
        assert_eq!(p.op, RuleOp::Delete(ChainName::Input));
    }

    #[test]
    fn quoted_keys_tokenize() {
        assert_eq!(
            tokenize("pftables --key 'sig code' -j DROP"),
            ["pftables", "--key", "sig code", "-j", "DROP"]
        );
    }

    #[test]
    fn parses_trace_target() {
        let (mut mac, mut progs) = setup();
        let p = parse_rule("pftables -o FILE_OPEN -j TRACE", &mut mac, &mut progs).unwrap();
        assert_eq!(p.rule.target, Target::Trace);
        assert!(!p.rule.target.is_terminal());
    }

    /// parse → render → parse must yield an equal rule, and a second
    /// render must reproduce the first render byte-for-byte (the
    /// canonical fixed point).
    #[test]
    fn render_round_trip_is_stable() {
        let (mut mac, mut progs) = setup();
        let lines = [
            "pftables -t filter -o LNK_FILE_READ -d tmp_t -j DROP",
            "pftables -p /lib/ld-2.15.so -i 0x596b -s SYSHIGH \
             -d ~{lib_t|textrel_shlib_t|httpd_modules_t} -o FILE_OPEN -j DROP",
            "pftables -i 0x3c750 -p /bin/dbus-daemon -o SOCKET_BIND \
             -j STATE --set --key 0xbeef --value C_INO",
            "pftables -i 0x3c786 -p /bin/dbus-daemon -o SOCKET_SETATTR \
             -m STATE --key 0xbeef --cmp C_INO --nequal -j DROP",
            "pftables -I signal_chain -m SIGNAL_MATCH -m STATE --key 'sig' --cmp 1 -j DROP",
            "pftables -I syscallbegin -m SYSCALL_ARGS --arg 0 --equal NR_sigreturn \
             -j STATE --set --key 'sig' --value 0",
            "pftables -i 0x2d637 -p /usr/bin/apache2 -o LINK_READ \
             -m COMPARE --v1 C_DAC_OWNER --v2 C_TGT_DAC_OWNER --nequal -j DROP",
            "pftables -o FILE_OPEN -m ADV_ACCESS --write --accessible -j TRACE",
            "pftables -o FILE_OPEN -m OWNER --uid 33 --nequal -j LOG --tag 'two words'",
            "pftables -o FILE_OPEN -m INTERP --script /var/www/app.php --line 42 -j CONTINUE",
            "pftables -p /lib/libssl.so -i 0x100 -m CALLER --program /usr/sbin/nginx -j DROP",
            "pftables -I input -o PROCESS_SIGNAL_DELIVERY -j SIGNAL_CHAIN",
            "pftables -o FILE_OPEN -r 0x2a -j RETURN",
            "pftables -p /bin/sh -i 0x42 -o FILE_OPEN --ctx-missing drop -j DROP",
            "pftables --ctx-missing match -o LINK_READ \
             -m COMPARE --v1 C_DAC_OWNER --v2 C_TGT_DAC_OWNER --nequal -j DROP",
            "pftables -o PROCESS_SIGNAL_DELIVERY -j RATELIMIT --rate 128 --burst 4",
            "pftables -s httpd_t -d etc_t -o FILE_OPEN \
             -j RATELIMIT --rate 32 --burst 2 --per adversary --exceed degrade",
            "pftables -o FILE_CREATE -d tmp_t -j QUOTA --limit 8",
            "pftables -o FILE_CREATE -d tmp_t --ctx-missing skip \
             -j QUOTA --limit 8 --window 4096 --per resource --exceed log",
            "pftables -s httpd_t -d etc_t -o FILE_OPEN --origin tainted -j DROP",
            "pftables -o FILE_CREATE --origin external --ctx-missing drop -j DROP",
            "pftables -o FILE_OPEN --origin 7 -j LOG --tag origin",
        ];
        for line in lines {
            let p1 = parse_rule(line, &mut mac, &mut progs).unwrap();
            let chain = match &p1.op {
                RuleOp::InsertHead(c) | RuleOp::Append(c) | RuleOp::Delete(c) => c.clone(),
            };
            let r1 = render_rule(&p1.rule, &chain, &mac, &progs);
            let p2 = parse_rule(&r1, &mut mac, &mut progs).unwrap();
            assert_eq!(p2.rule.def, p1.rule.def, "def drift for `{line}` → `{r1}`");
            assert_eq!(
                p2.rule.matches, p1.rule.matches,
                "match drift for `{line}` → `{r1}`"
            );
            assert_eq!(
                p2.rule.target, p1.rule.target,
                "target drift for `{line}` → `{r1}`"
            );
            assert_eq!(
                p2.rule.ctx_policy, p1.rule.ctx_policy,
                "ctx-missing drift for `{line}` → `{r1}`"
            );
            let r2 = render_rule(&p2.rule, &chain, &mac, &progs);
            assert_eq!(r1, r2, "render not a fixed point for `{line}`");
        }
    }

    #[test]
    fn parses_origin_levels() {
        let (mut mac, mut progs) = setup();
        for (tok, want) in [("trusted", 0), ("external", 1), ("tainted", 2), ("5", 5)] {
            let p = parse_rule(
                &format!("pftables -o FILE_OPEN --origin {tok} -j DROP"),
                &mut mac,
                &mut progs,
            )
            .unwrap();
            assert_eq!(p.rule.def.origin, Some(want), "--origin {tok}");
            // Origin is key-determined context: the selector must not
            // block verdict caching.
            assert!(p.rule.vc_pure(), "--origin rules stay cacheable");
        }
        let p = parse_rule("pftables -o FILE_OPEN -j DROP", &mut mac, &mut progs).unwrap();
        assert_eq!(p.rule.def.origin, None);
    }

    #[test]
    fn parses_ctx_missing_policies() {
        let (mut mac, mut progs) = setup();
        for (pol, want) in [
            ("skip", CtxPolicy::Skip),
            ("match", CtxPolicy::Match),
            ("drop", CtxPolicy::Drop),
        ] {
            let p = parse_rule(
                &format!("pftables -o FILE_OPEN --ctx-missing {pol} -j DROP"),
                &mut mac,
                &mut progs,
            )
            .unwrap();
            assert_eq!(p.rule.ctx_policy, Some(want), "{pol}");
        }
        let p = parse_rule("pftables -o FILE_OPEN -j DROP", &mut mac, &mut progs).unwrap();
        assert_eq!(p.rule.ctx_policy, None);
    }

    #[test]
    fn parses_chain_ctx_default_command() {
        let (mut mac, mut progs) = setup();
        let cmd =
            parse_command("pftables -P input --ctx-missing drop", &mut mac, &mut progs).unwrap();
        assert_eq!(cmd, Command::CtxDefault(ChainName::Input, CtxPolicy::Drop));
        assert!(parse_command("pftables -P input", &mut mac, &mut progs).is_err());
        assert!(
            parse_command("pftables -P input --ctx-missing wat", &mut mac, &mut progs).is_err()
        );
    }

    #[test]
    fn parses_set_level_command() {
        let (mut mac, mut progs) = setup();
        for (tok, want) in [
            ("DISABLED", OptLevel::Disabled),
            ("eptspc", OptLevel::EptSpc),
            ("VCACHE", OptLevel::Vcache),
            ("rulesetc", OptLevel::RulesetC),
        ] {
            let cmd = parse_command(&format!("pftables -O {tok}"), &mut mac, &mut progs).unwrap();
            assert_eq!(cmd, Command::SetLevel(want), "{tok}");
        }
        assert!(parse_command("pftables -O", &mut mac, &mut progs).is_err());
        assert!(parse_command("pftables -O TURBO", &mut mac, &mut progs).is_err());
        // `-t` prefix composes with `-O` like the other management verbs.
        let cmd = parse_command("pftables -t filter -O FULL", &mut mac, &mut progs).unwrap();
        assert_eq!(cmd, Command::SetLevel(OptLevel::Full));
    }

    #[test]
    fn parses_set_sampling_command() {
        let (mut mac, mut progs) = setup();
        for (tok, want) in [
            ("off", SamplingMode::Off),
            ("always", SamplingMode::Always),
            ("errors-only", SamplingMode::ErrorsOnly),
            ("1/64", SamplingMode::OneIn(64)),
        ] {
            let cmd = parse_command(&format!("pftables -E {tok}"), &mut mac, &mut progs).unwrap();
            assert_eq!(cmd, Command::SetSampling(want), "{tok}");
        }
        assert!(parse_command("pftables -E", &mut mac, &mut progs).is_err());
        assert!(parse_command("pftables -E sometimes", &mut mac, &mut progs).is_err());
        assert!(parse_command("pftables -E 1/0", &mut mac, &mut progs).is_err());
        // `-t` prefix composes with `-E` like the other management verbs.
        let cmd = parse_command("pftables -t filter -E 1/8", &mut mac, &mut progs).unwrap();
        assert_eq!(cmd, Command::SetSampling(SamplingMode::OneIn(8)));
    }
}
