//! The rule-processing engine (Figure 3 of the paper).
//!
//! `evaluate` is the PF hook body: it wraps the caller's [`EvalEnv`] in a
//! lazily-materialized [`Packet`], selects the starting chain for the
//! operation, and walks rules until a terminal target produces a verdict.
//! With no match the default policy is ALLOW — the rule base consists of
//! deny rules only (Section 4.1), which is also what makes the automatic
//! entrypoint-chain partitioning sound (Section 4.3).
//!
//! # Concurrency
//!
//! The firewall is split along the read/write axis (see
//! [`crate::snapshot`] and `docs/CONCURRENCY.md`):
//!
//! * the configuration and compiled rule base live in an immutable
//!   [`RulesetSnapshot`] published through a [`SharedRuleset`] swap
//!   cell, so `evaluate` takes `&self`, performs no locking against
//!   other evaluators, and N tasks can run hooks concurrently;
//! * every rule-management entrypoint (`install`, `install_all`,
//!   [`ProcessFirewall::reload`], `set_level`, …) builds the *next*
//!   snapshot and publishes it atomically — in-flight invocations keep
//!   the snapshot they started with;
//! * per-invocation mutable state (the context packet, LOG scratch)
//!   lives on the stack or in the caller's [`TaskSession`]
//!   (`crate::session`), never in the engine.
//!
//! LOG records buffer in invocation-local scratch and are appended to
//! the shared log sink once, after the verdict is known — so the
//! DROP-patches-same-invocation-LOG rule (`docs/OBSERVABILITY.md`)
//! holds even with interleaved concurrent invocations. The sink itself
//! is a bounded overwrite-oldest ring ([`LogSink`]) with always-on
//! `emitted == drained + dropped` accounting, so a fleet of tasks
//! logging faster than the collector drains degrades to counted record
//! loss instead of unbounded memory growth. LOG records and TRACE hops
//! are captured as fixed records (ids, shared names, enum verdicts) and
//! rendered to strings only when a collector drains them, so observation
//! allocates nothing on the hook path.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

use pf_types::{Interner, LsmOperation, PfResult, Verdict};

use pf_mac::MacPolicy;

use crate::chain::ChainName;
use crate::compile::{CompiledDispatch, MergeDispatch};
use crate::config::{OptLevel, PfConfig};
use crate::context::Packet;
use crate::env::{CtxError, EvalEnv, Fetched};
use crate::events::{
    self, DecisionEvent, EventKind, EventPlane, EventVerdict, Gate, SamplingMode, ThrottleOutcome,
    VcacheOutcome,
};
use crate::lang::{parse_command, Command, RuleOp};
use crate::log::{LogDrain, LogRecord, LogSink, LogTag};
use crate::metrics::{prom_label_esc, Counter, Metrics, OpCounter, TraceEvent, TraceHop};
use crate::ratelimit::{ExceedPolicy, PerKey};
use crate::rule::{CtxPolicy, MatchModule, Rule, Target};
use crate::snapshot::{RulesetDraft, RulesetSnapshot, SharedRuleset};
use crate::value::ValueExpr;
use crate::vcache::{CacheEntry, VerdictCache, VerdictKey, VerdictKind};

/// The rule a denial is attributed to: where it fired and the rule
/// itself. The rule is the `Arc` the snapshot holds, so attributing a
/// deny allocates nothing, and the rule stays nameable after any later
/// reload moves or removes it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DroppedBy {
    /// The chain the rule fired in.
    pub chain: ChainName,
    /// The rule's index in `chain`, within the snapshot named by the
    /// decision's `generation`.
    pub index: usize,
    /// The rule that fired.
    pub rule: Arc<Rule>,
}

/// The outcome of one firewall invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalDecision {
    /// Allow or deny.
    pub verdict: Verdict,
    /// For denies: the rule that fired (see [`DroppedBy`] and
    /// [`ProcessFirewall::attribute`]).
    pub dropped_by: Option<DroppedBy>,
    /// The generation of the ruleset snapshot that produced this
    /// verdict. Each invocation runs against exactly one snapshot, so
    /// under concurrent hot reloads every verdict is attributable to
    /// one published ruleset — never a mix.
    pub generation: u64,
    /// `true` when a context fetch *failed* (not merely came up absent)
    /// somewhere in this invocation and a `--ctx-missing` policy had to
    /// decide the outcome. Degraded decisions are counted separately in
    /// the metrics registry (`degraded_drops` / `degraded_allows`).
    pub degraded: bool,
    /// The adversary-model generation (policy edits + taint widenings,
    /// see `MacPolicy::adversary_generation`) the decision was computed
    /// under. A widening mid-trace changes which rule *would* fire for
    /// the same context, so attribution of a decision held across a
    /// widening goes through [`ProcessFirewall::attribute_at`], which
    /// refuses on an epoch mismatch instead of naming a rule the
    /// current adversary model would not select.
    pub adv_generation: u64,
}

impl EvalDecision {
    fn allow(generation: u64) -> Self {
        EvalDecision {
            verdict: Verdict::Allow,
            dropped_by: None,
            generation,
            degraded: false,
            adv_generation: 0,
        }
    }
}

/// The Process Firewall: shared ruleset snapshot, metrics, and logs.
pub struct ProcessFirewall {
    shared: SharedRuleset,
    metrics: Metrics,
    logs: LogSink,
    events: EventPlane,
}

// The engine is shared across simulated tasks (and real threads in the
// stress harness); keep the compiler honest about it.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ProcessFirewall>();
};

/// Applies one parsed `pftables` command to a ruleset draft.
fn apply_command(draft: &mut RulesetDraft, cmd: Command) -> PfResult<()> {
    match cmd {
        Command::Rule(parsed) => match parsed.op {
            RuleOp::InsertHead(chain) => draft.add(chain, parsed.rule, true),
            RuleOp::Append(chain) => draft.add(chain, parsed.rule, false),
            RuleOp::Delete(chain) => draft.delete(&chain, &parsed.rule.text)?,
        },
        Command::NewChain(chain) => draft.new_chain(chain)?,
        Command::Flush(Some(chain)) => draft.flush(&chain)?,
        Command::Flush(None) => draft.clear(),
        Command::DeleteChain(chain) => draft.delete_chain(&chain)?,
        Command::CtxDefault(chain, policy) => {
            draft.ctx_defaults.insert(chain, policy);
        }
        Command::SetLevel(level) => draft.config = level.config(),
        // Sampling is runtime state on the event plane, not snapshot
        // state; every caller routes it before building a draft. A
        // stray occurrence here is a harmless no-op.
        Command::SetSampling(_) => {}
    }
    Ok(())
}

/// Splits the `-E` sampling directives out of a parsed command batch:
/// they apply to the event plane (runtime state), not the snapshot.
fn split_sampling(cmds: &mut Vec<Command>) -> Vec<SamplingMode> {
    let mut sampling = Vec::new();
    cmds.retain(|cmd| {
        if let Command::SetSampling(mode) = cmd {
            sampling.push(*mode);
            false
        } else {
            true
        }
    });
    sampling
}

impl ProcessFirewall {
    /// Creates a firewall at the given optimization level with no rules.
    pub fn new(level: OptLevel) -> Self {
        ProcessFirewall {
            shared: SharedRuleset::new(level.config()),
            metrics: Metrics::new(),
            logs: LogSink::default(),
            events: EventPlane::new(),
        }
    }

    /// The decision-event tracing plane (see [`crate::events`]).
    pub fn events(&self) -> &EventPlane {
        &self.events
    }

    /// Sets the decision-event sampling mode — one atomic store, no
    /// snapshot swap, no generation bump. Equivalent to installing a
    /// `pftables -E <mode>` line.
    pub fn set_sampling(&self, mode: SamplingMode) {
        self.events.set_sampling(mode);
    }

    /// The current decision-event sampling mode.
    pub fn sampling(&self) -> SamplingMode {
        self.events.sampling()
    }

    /// Captures the pre-edit snapshot and a timer when the event plane
    /// is armed; management verbs thread it into [`Self::note_commit`]
    /// so commit events can report the edit's duration and rule diff.
    fn control_span(&self) -> Option<(Arc<RulesetSnapshot>, Instant)> {
        if self.events.sampling() == SamplingMode::Off {
            return None;
        }
        Some((self.shared.load(), Instant::now()))
    }

    /// Emits the commit event of an edit that published `generation`:
    /// the edit's duration, its rule diff against the pre-edit snapshot
    /// in `span`, and the post-edit rule count and compile time. Emits
    /// nothing without a span, or when the plane is off once the edit
    /// is done — a batch's own `-E off` silences its commit, and an
    /// `-E` that arms the plane lets the batch record it.
    fn note_commit(&self, span: Option<(Arc<RulesetSnapshot>, Instant)>, generation: u64) {
        let Some((before, t0)) = span else { return };
        if self.events.sampling() == SamplingMode::Off {
            return;
        }
        let after = self.shared.load();
        self.events.emit_control(
            EventKind::ReloadCommit,
            generation,
            t0.elapsed().as_nanos() as u64,
            before.rule_diff(&after),
            after.len() as u64,
            after.compile_ns(),
        );
    }

    /// The active configuration.
    pub fn config(&self) -> PfConfig {
        self.shared.load().config()
    }

    /// Switches optimization preset (rules are kept), returning the new
    /// snapshot generation. On error the previous snapshot stays live.
    pub fn set_level(&self, level: OptLevel) -> PfResult<u64> {
        let span = self.control_span();
        let ((), generation) = self.shared.update(|d| {
            d.config = level.config();
            Ok(())
        })?;
        self.note_commit(span, generation);
        Ok(generation)
    }

    /// Parses and applies one `pftables` line (a rule or a
    /// chain-management command), publishing a new snapshot generation.
    pub fn install(
        &self,
        line: &str,
        mac: &mut MacPolicy,
        programs: &mut Interner,
    ) -> PfResult<()> {
        let cmd = parse_command(line, mac, programs)?;
        if let Command::SetSampling(mode) = cmd {
            // Runtime directive: one atomic store on the event plane,
            // no snapshot swap, no generation bump.
            self.events.set_sampling(mode);
            return Ok(());
        }
        let span = self.control_span();
        let ((), generation) = self.shared.update(|d| apply_command(d, cmd))?;
        self.note_commit(span, generation);
        Ok(())
    }

    /// Installs many lines in **one** atomic batch, returning how many
    /// were applied. Either every line takes effect in a single new
    /// snapshot generation, or (on any parse or apply error) none does.
    pub fn install_all<'a>(
        &self,
        lines: impl IntoIterator<Item = &'a str>,
        mac: &mut MacPolicy,
        programs: &mut Interner,
    ) -> PfResult<usize> {
        self.apply_batch(lines, mac, programs, false)
            .map(|(n, _)| n)
    }

    /// `pftables-restore`: atomically **replaces** the whole rule base
    /// with the given lines, returning `(rules_applied, generation)`.
    ///
    /// The reload is linearizable: the new base is built on a private
    /// draft and published with one snapshot swap, so every in-flight
    /// invocation sees either the complete old ruleset or the complete
    /// new one (check [`EvalDecision::generation`]), and a parse or
    /// apply error leaves the published ruleset untouched. A line that
    /// re-submits an installed rule verbatim keeps that rule, with its
    /// hit counter and throttle buckets.
    pub fn reload<'a>(
        &self,
        lines: impl IntoIterator<Item = &'a str>,
        mac: &mut MacPolicy,
        programs: &mut Interner,
    ) -> PfResult<(usize, u64)> {
        self.apply_batch(lines, mac, programs, true)
    }

    /// The one batch edit behind [`Self::install_all`] and
    /// [`Self::reload`]: parses every line, then applies them to one
    /// draft — onto an empty rule base when `replace` is set, onto the
    /// published one otherwise — between a ReloadBegin event and a
    /// ReloadCommit or ReloadAbort. The batch's `-E` directives take
    /// effect after the commit. Returns the lines applied and the
    /// generation now published; an appending batch of `-E` directives
    /// alone publishes nothing.
    fn apply_batch<'a>(
        &self,
        lines: impl IntoIterator<Item = &'a str>,
        mac: &mut MacPolicy,
        programs: &mut Interner,
        replace: bool,
    ) -> PfResult<(usize, u64)> {
        let mut cmds = Vec::new();
        for line in lines {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            cmds.push(parse_command(line, mac, programs)?);
        }
        let sampling = split_sampling(&mut cmds);
        let n = cmds.len() + sampling.len();
        if cmds.is_empty() && !replace {
            for mode in sampling {
                self.events.set_sampling(mode);
            }
            return Ok((n, self.generation()));
        }
        let before = self.shared.load();
        let t0 = Instant::now();
        self.events.emit_control(
            EventKind::ReloadBegin,
            before.generation(),
            0,
            0,
            before.len() as u64,
            0,
        );
        let edit = self.shared.update(|d| {
            if replace {
                d.clear();
                d.ctx_defaults.clear();
            }
            cmds.into_iter().try_for_each(|cmd| apply_command(d, cmd))
        });
        match edit {
            Ok(((), generation)) => {
                for mode in sampling {
                    self.events.set_sampling(mode);
                }
                self.note_commit(Some((before, t0)), generation);
                Ok((n, generation))
            }
            Err(e) => {
                // The published snapshot is untouched: the event carries
                // the surviving generation and rule count.
                self.events.emit_control(
                    EventKind::ReloadAbort,
                    before.generation(),
                    t0.elapsed().as_nanos() as u64,
                    0,
                    before.len() as u64,
                    0,
                );
                Err(e)
            }
        }
    }

    /// Deletes the first rule in `chain` whose original text equals
    /// `text` (a new snapshot generation).
    pub fn delete_rule(&self, chain: &ChainName, text: &str) -> PfResult<()> {
        let span = self.control_span();
        let ((), generation) = self.shared.update(|d| d.delete(chain, text))?;
        self.note_commit(span, generation);
        Ok(())
    }

    /// Removes every installed rule, returning the new snapshot
    /// generation. On error the previous snapshot stays live.
    pub fn clear_rules(&self) -> PfResult<u64> {
        let span = self.control_span();
        let ((), generation) = self.shared.update(|d| {
            d.clear();
            Ok(())
        })?;
        self.note_commit(span, generation);
        Ok(generation)
    }

    /// Total installed rules.
    pub fn rule_count(&self) -> usize {
        self.shared.load().len()
    }

    /// The currently published ruleset snapshot.
    ///
    /// The returned `Arc` stays valid (and immutable) across any later
    /// rule edits; callers inspecting chains should bind it to a local
    /// first.
    pub fn base(&self) -> Arc<RulesetSnapshot> {
        self.shared.load()
    }

    /// The current snapshot generation (lock-free).
    pub fn generation(&self) -> u64 {
        self.shared.generation()
    }

    /// The metrics-and-tracing registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Drains the TRACE event ring, oldest first (see [`Target::Trace`]).
    pub fn drain_trace(&self) -> Vec<TraceEvent> {
        self.metrics.drain_trace()
    }

    /// Renders the firewall-wide Prometheus exposition: everything in
    /// [`Metrics::render_prometheus`] plus the decision-event plane
    /// counters, the bounded LOG sink accounting
    /// (`pf_logs_{emitted,drained,dropped}_total` and the
    /// `pf_logs_buffered`/`pf_logs_capacity` gauges), and one walk of
    /// the live snapshot for the per-rule counters and throttle bucket
    /// occupancy.
    ///
    /// A rule's `pf_rule_evaluated_total`/`pf_rule_hits_total` rows,
    /// labelled `{chain,rule}`, appear once any of its counters is
    /// nonzero; `pf_rule_throttled_total` appears once it is. Occupancy
    /// values are gauges: token balance for RATELIMIT rules, window
    /// grant count for QUOTA rules, keyed by `{chain,rule,kind,key,spill}`.
    /// Label values are escaped per the text exposition format.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = self.metrics.render_prometheus();
        let _ = writeln!(out, "pf_events_emitted_total {}", self.events.emitted());
        let _ = writeln!(out, "pf_events_drained_total {}", self.events.drained());
        let _ = writeln!(out, "pf_events_dropped_total {}", self.events.dropped());
        self.logs.write_prometheus(&mut out, "pf_logs");
        out.push_str("pf_event_sampling_mode{mode=\"");
        prom_label_esc(&mut out, &self.events.sampling().render());
        out.push_str("\"} 1\n");
        for (chain, rules) in self.base().iter() {
            let mut name = String::new();
            prom_label_esc(&mut name, chain.as_str());
            for (i, rule) in rules.iter().enumerate() {
                let (evaluated, hits, throttled) =
                    (rule.evaluated(), rule.hits(), rule.throttled());
                if evaluated | hits | throttled != 0 {
                    let labels = format!("chain=\"{name}\",rule=\"{i}\"");
                    let _ = writeln!(out, "pf_rule_evaluated_total{{{labels}}} {evaluated}");
                    let _ = writeln!(out, "pf_rule_hits_total{{{labels}}} {hits}");
                    if throttled > 0 {
                        let _ = writeln!(out, "pf_rule_throttled_total{{{labels}}} {throttled}");
                    }
                }
                let Some(cell) = rule.throttle_cell() else {
                    continue;
                };
                let kind = rule.target.kind_name();
                for slot in cell.occupancy() {
                    let value = if kind == "RATELIMIT" {
                        slot.tokens()
                    } else {
                        slot.count()
                    };
                    let _ = writeln!(
                        out,
                        "pf_throttle_occupancy{{chain=\"{name}\",rule=\"{i}\",kind=\"{kind}\",\
                         key=\"{}\",spill=\"{}\"}} {value}",
                        slot.key, slot.spill
                    );
                }
            }
        }
        out
    }

    /// Renders the firewall-wide JSON snapshot: everything in
    /// [`Metrics::to_json`] plus, from one walk of the live snapshot, a
    /// `chains` object (per chain, a `{rule,evaluated,hits,throttled}`
    /// entry for each rule with a nonzero counter; chains without one
    /// are left out) and a `throttle_occupancy` array with one entry
    /// per live bucket slot (`value` is the token balance for RATELIMIT
    /// rules, the window grant count for QUOTA rules); then an `events`
    /// object (plane counters and the active sampling mode) and a `logs`
    /// object (bounded-sink accounting:
    /// emitted/drained/dropped/buffered/capacity).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("{");
        self.metrics.write_json_members(&mut s);
        s.push_str(",\"chains\":{");
        let mut occupancy = String::new();
        let mut chain_sep = "";
        for (chain, rules) in self.base().iter() {
            let mut open = false;
            for (i, rule) in rules.iter().enumerate() {
                let (evaluated, hits, throttled) =
                    (rule.evaluated(), rule.hits(), rule.throttled());
                if evaluated | hits | throttled != 0 {
                    if open {
                        s.push(',');
                    } else {
                        s.push_str(chain_sep);
                        s.push('"');
                        crate::log::esc(&mut s, chain.as_str());
                        s.push_str("\":[");
                        (open, chain_sep) = (true, ",");
                    }
                    let _ = write!(
                        s,
                        "{{\"rule\":{i},\"evaluated\":{evaluated},\"hits\":{hits},\"throttled\":{throttled}}}"
                    );
                }
                let Some(cell) = rule.throttle_cell() else {
                    continue;
                };
                let kind = rule.target.kind_name();
                for slot in cell.occupancy() {
                    let value = if kind == "RATELIMIT" {
                        slot.tokens()
                    } else {
                        slot.count()
                    };
                    if !occupancy.is_empty() {
                        occupancy.push(',');
                    }
                    occupancy.push_str("{\"chain\":\"");
                    crate::log::esc(&mut occupancy, chain.as_str());
                    let _ = write!(occupancy, "\",\"rule\":{i},\"kind\":\"{kind}\",\"text\":\"");
                    crate::log::esc(&mut occupancy, &rule.text);
                    let _ = write!(
                        occupancy,
                        "\",\"key\":{},\"tick\":{},\"value\":{value},\"spill\":{}}}",
                        slot.key, slot.tick, slot.spill
                    );
                }
            }
            if open {
                s.push(']');
            }
        }
        s.push_str("},\"events\":{\"emitted\":");
        let _ = write!(s, "{}", self.events.emitted());
        let _ = write!(s, ",\"drained\":{}", self.events.drained());
        let _ = write!(s, ",\"dropped\":{}", self.events.dropped());
        s.push_str(",\"sampling\":\"");
        crate::log::esc(&mut s, &self.events.sampling().render());
        s.push_str("\"},");
        self.logs.write_json(&mut s, "logs");
        s.push_str(",\"throttle_occupancy\":[");
        s.push_str(&occupancy);
        s.push_str("]}");
        s
    }

    /// The bounded LOG sink (counters, capacity, gap-marked drains).
    pub fn log_sink(&self) -> &LogSink {
        &self.logs
    }

    /// Rebounds the LOG sink to `capacity` records (minimum 1).
    /// Shrinking below the current occupancy drops the oldest records,
    /// counted like any other overwrite.
    pub fn set_log_capacity(&self, capacity: usize) {
        self.logs.set_capacity(capacity);
    }

    /// Drains accumulated LOG records with the overflow gap marker (the
    /// TRACE-ring discipline: `gap` is `true` when records were
    /// overwritten since the previous drain).
    pub fn drain_logs(&self) -> LogDrain {
        self.logs.drain()
    }

    /// Number of buffered LOG records. Never exceeds the sink capacity.
    pub fn log_count(&self) -> usize {
        self.logs.len()
    }

    /// The original text of the rule a denial is attributed to. The
    /// decision holds the rule itself, so this resolves across any
    /// number of reloads, including ones that moved or removed it.
    pub fn attribute(&self, decision: &EvalDecision) -> Option<String> {
        (decision.dropped_by.as_ref()).map(|by| by.rule.text.clone())
    }

    /// Like [`attribute`](Self::attribute), but refuses when the
    /// decision predates the current *adversary-model* generation
    /// (`adv_generation` — pass `MacPolicy::adversary_generation()`). A
    /// taint widening between the walk and the resolution means the
    /// rule was selected by the *pre*-widening adversary model; naming
    /// it as if it were current would misattribute the deny.
    pub fn attribute_at(&self, decision: &EvalDecision, adv_generation: u64) -> Option<String> {
        if decision.adv_generation != adv_generation {
            return None;
        }
        self.attribute(decision)
    }

    /// The PF hook: decide whether this operation may proceed.
    ///
    /// Called by the OS substrate *after* DAC and MAC authorize the
    /// operation (Step 2 of Figure 2). The default verdict is ALLOW.
    ///
    /// Loads the current snapshot for this one invocation. Tasks that
    /// evaluate repeatedly should hold a [`crate::session::TaskSession`]
    /// instead, which skips the snapshot load while the generation is
    /// unchanged and reuses its LOG scratch allocation.
    pub fn evaluate(&self, env: &mut dyn EvalEnv, op: LsmOperation) -> EvalDecision {
        // One-shot callers reuse a thread-local LOG buffer, so even the
        // sessionless hook path is allocation-free in the steady state.
        thread_local! {
            static ONE_SHOT_SCRATCH: RefCell<Vec<LogRecord>> = const { RefCell::new(Vec::new()) };
        }
        let snap = self.shared.load();
        ONE_SHOT_SCRATCH.with(|cell| match cell.try_borrow_mut() {
            Ok(mut scratch) => self.evaluate_on(&snap, env, op, &mut scratch),
            // A re-entrant evaluate on the same thread (an `EvalEnv`
            // whose callbacks evaluate): fall back to a fresh buffer.
            Err(_) => self.evaluate_on(&snap, env, op, &mut Vec::new()),
        })
    }

    /// Evaluates one invocation against an explicit snapshot, using
    /// `scratch` as the invocation-local LOG buffer.
    pub(crate) fn evaluate_on(
        &self,
        snap: &RulesetSnapshot,
        env: &mut dyn EvalEnv,
        op: LsmOperation,
        scratch: &mut Vec<LogRecord>,
    ) -> EvalDecision {
        self.evaluate_cached(snap, env, op, scratch, None, events::thread_shard())
    }

    /// The backbone of every evaluate path: one invocation against an
    /// explicit snapshot, optionally consulting a per-task
    /// [`VerdictCache`] (the VCACHE rung; see `vcache.rs` for the
    /// soundness gates).
    ///
    /// The hook runs in stages: *admit* counts the invocation and arms
    /// the event gate; *select* picks, once, the rules this hook can
    /// reach ([`Invocation::select`]); *memo* consults the verdict
    /// cache, but only for a selection that holds a rule; *walk* runs
    /// the selection when the memo did not answer; *finalize* and
    /// *emit* are shared by hits and walks.
    pub(crate) fn evaluate_cached(
        &self,
        snap: &RulesetSnapshot,
        env: &mut dyn EvalEnv,
        op: LsmOperation,
        scratch: &mut Vec<LogRecord>,
        cache: Option<&mut VerdictCache>,
        shard: usize,
    ) -> EvalDecision {
        // Admit.
        let config = snap.config();
        // One atomic load; also stamps every decision this invocation
        // produces so `attribute_at` can detect cross-widening holds.
        let adv_gen = env.adversary_generation();
        if !config.enabled {
            let mut d = EvalDecision::allow(snap.generation());
            d.adv_generation = adv_gen;
            return d;
        }
        self.metrics.bump(Counter::Invocations);
        self.metrics.bump_op(OpCounter::Invocations, op);
        let t0 = self.metrics.timer();
        // Decision-event span: with sampling off this is one relaxed
        // load and no clock read; when the gate selects the invocation
        // it claims a globally ordered id and starts its own timer
        // (`t0` above is detail-layer-gated, so it can't be reused).
        let gate = self.events.decision_gate();
        let (event_id, event_t0) = if gate.armed() {
            (self.events.claim_id(), Some(Instant::now()))
        } else {
            (0, None)
        };
        // LOG rules run before the verdict is known; they buffer in the
        // invocation-local scratch so a later DROP can patch exactly
        // this invocation's records before they reach the shared sink.
        scratch.clear();
        let mut pkt = Packet::new(env, config);
        let mut cache = cache.filter(|_| config.verdict_cache && !snap.is_empty());
        if let Some(vc) = cache.as_deref_mut() {
            // Adversary-model soundness: keys carry the object label,
            // not the `C_ADV_WRITE`/`C_ADV_READ` answers it stands for.
            // A taint widening (or a policy edit) changes those answers
            // without moving any key, so a stale generation discards
            // the whole cache before any lookup can replay a
            // pre-widening verdict.
            if vc.validate_adv_generation(adv_gen) {
                self.metrics.bump(Counter::OriginVcacheInvalidations);
            }
        }
        let mut inv = Invocation {
            snap,
            config,
            metrics: &self.metrics,
            logs: scratch,
            degraded: false,
            cache_track: false,
            cache_blocked: false,
            gate,
            shard,
            event_id,
            event_t0,
            vcache: VcacheOutcome::None,
            hops: 0,
            throttle: ThrottleOutcome::None,
            accepted_by: 0,
        };
        // Select.
        let mut selection = inv.select(&mut pkt, op);
        // Memo.
        let mut hit = None;
        let mut miss = None;
        if let Some(vc) = cache {
            if !snap.statically_cacheable() {
                // The snapshot's compile-time summary is the fast-path
                // filter: if any reachable rule is impure, no walk can
                // ever be cached, so skip the key build entirely — it
                // would fetch object context that LAZYCON would
                // otherwise defer.
                inv.vcache = VcacheOutcome::Uncacheable;
            } else if !selection.is_empty() {
                // An empty selection builds no key: there is no walk for
                // a hit to stand in for. Key fetches reuse what selection
                // read, so a failed unwind or label read fails the build
                // and bypasses the cache.
                match VerdictKey::build(&mut pkt, op, snap.keys_resource(), &self.metrics) {
                    Some(key) => match vc.lookup(&key) {
                        Some(entry) => {
                            inv.vcache = VcacheOutcome::Hit;
                            hit = Some(entry.clone());
                        }
                        None => miss = Some((vc, key)),
                    },
                    None => inv.vcache = VcacheOutcome::Uncacheable,
                }
            }
        }
        // Walk, unless the memo answered.
        let (mut decision, kind) = match hit {
            Some(entry) => {
                // A cacheable walk logs only its DROP line (LOG targets
                // block caching, CTXFAIL implies degraded). Capture it
                // from this invocation: the entry may have been filled
                // by another object of the class.
                if entry.kind == VerdictKind::Drop {
                    inv.emit_log(&mut pkt, op, LogTag::Static("DROP"), Verdict::Deny);
                }
                (entry.decision, entry.kind)
            }
            None => {
                inv.cache_track = miss.is_some();
                match inv.walk(&mut selection, &mut pkt, op) {
                    Some(d) if d.verdict == Verdict::Deny => (d, VerdictKind::Drop),
                    Some(d) => (d, VerdictKind::Accept),
                    None => (
                        EvalDecision::allow(snap.generation()),
                        VerdictKind::DefaultAllow,
                    ),
                }
            }
        };
        // Finalize. A hit bumps the verdict counter its walk did, so
        // `drops + accepts + default_allows == invocations` holds.
        self.metrics.bump(match kind {
            VerdictKind::Drop => Counter::Drops,
            VerdictKind::Accept => Counter::Accepts,
            VerdictKind::DefaultAllow => Counter::DefaultAllows,
        });
        decision.adv_generation = adv_gen;
        decision.degraded |= inv.degraded;
        if decision.degraded {
            match decision.verdict {
                Verdict::Deny => self.metrics.bump(Counter::DegradedDrops),
                Verdict::Allow => self.metrics.bump(Counter::DegradedAllows),
            }
        }
        if decision.verdict == Verdict::Deny {
            for record in inv.logs.iter_mut() {
                record.verdict = Verdict::Deny;
            }
        }
        if let Some((vc, key)) = miss {
            if decision.degraded || inv.cache_blocked {
                inv.vcache = VcacheOutcome::Uncacheable;
            } else {
                inv.vcache = VcacheOutcome::Miss;
                vc.insert(
                    key,
                    CacheEntry {
                        decision: decision.clone(),
                        kind,
                    },
                );
            }
        }
        let vc_counters = match inv.vcache {
            VcacheOutcome::None => None,
            VcacheOutcome::Hit => Some((Counter::VcacheHits, OpCounter::VcacheHits)),
            VcacheOutcome::Miss => Some((Counter::VcacheMisses, OpCounter::VcacheMisses)),
            VcacheOutcome::Uncacheable => {
                Some((Counter::VcacheUncacheable, OpCounter::VcacheUncacheable))
            }
        };
        if let Some((total, split)) = vc_counters {
            self.metrics.bump_split(total, split, op);
        }
        self.logs.append(inv.logs);
        self.metrics.observe_eval(t0);
        // Emit.
        self.emit_decision_event(&inv, &mut pkt, op, &decision, kind);
        decision
    }

    /// Emit: builds and emits one [`DecisionEvent`] for an invocation
    /// and its finalized decision. No-op unless the gate selected the
    /// invocation; under `errors-only` the fully built event is
    /// discarded when the outcome is clean (the id was already claimed,
    /// so `seq` gaps in drained output are expected in that mode).
    fn emit_decision_event(
        &self,
        inv: &Invocation<'_>,
        pkt: &mut Packet<'_>,
        op: LsmOperation,
        decision: &EvalDecision,
        kind: VerdictKind,
    ) {
        if !inv.gate.armed() {
            return;
        }
        let mut ev = DecisionEvent::empty();
        ev.seq = inv.event_id;
        ev.kind = EventKind::Decision;
        ev.generation = decision.generation;
        ev.op = op;
        ev.verdict = EventVerdict::from(kind);
        ev.degraded = decision.degraded;
        ev.vcache = inv.vcache;
        ev.throttle = inv.throttle;
        ev.hops = inv.hops;
        ev.rule_key = (decision.dropped_by.as_ref()).map_or(inv.accepted_by, |by| by.rule.key());
        {
            let env = pkt.env_ref();
            ev.ts = env.now();
            ev.pid = env.pid().0;
            ev.subject = env.subject_sid().0;
            ev.program = env.program().0;
        }
        // Read-only peek: only report the entrypoint if the walk
        // already collected it, so observation never perturbs the
        // lazy-fetch behaviour it is recording.
        if let Some((prog, pc)) = pkt.entrypoint_collected() {
            ev.ept_prog = prog.0;
            ev.ept_pc = pc;
        }
        ev.trace_armed = pkt.trace_clock().is_some();
        if let Some(t0) = inv.event_t0 {
            ev.latency_ns = t0.elapsed().as_nanos() as u64;
        }
        if inv.gate == Gate::ErrorsOnly && !ev.is_error() {
            return;
        }
        self.events.emit(inv.shard, &ev);
    }
}

/// One invocation's traversal state: the pinned snapshot, the engine's
/// shared metrics, and the invocation-local LOG buffer. Everything
/// mutable is owned by this (stack-allocated) value, which is what
/// makes the hook re-entrant.
struct Invocation<'a> {
    snap: &'a RulesetSnapshot,
    config: PfConfig,
    metrics: &'a Metrics,
    logs: &'a mut Vec<LogRecord>,
    /// Set as soon as any context fetch *fails* and a `--ctx-missing`
    /// policy has to decide; stamped onto the decision and every TRACE
    /// event emitted afterwards.
    degraded: bool,
    /// `true` when this walk's outcome is a VCACHE insertion candidate,
    /// so traversal must watch for rules that make it key-undetermined.
    cache_track: bool,
    /// Set when a traversed rule consulted context outside the verdict
    /// key or carried a side-effecting target; blocks the insertion.
    cache_blocked: bool,
    /// The decision-event sampling gate for this invocation.
    gate: Gate,
    /// The event-plane shard this invocation emits into.
    shard: usize,
    /// Decision-event id claimed for this invocation, or 0 when the
    /// sampling gate did not select it. Stamped into TRACE hops so the
    /// per-hop chain path joins back to its decision event.
    event_id: u64,
    /// When a selected invocation's event span started.
    event_t0: Option<Instant>,
    /// Verdict-cache participation, set by the memo and finalize stages.
    vcache: VcacheOutcome,
    /// Rules traversed by this walk (every chain, jumps included).
    hops: u32,
    /// The invocation's throttle outcome: `Granted` once any throttle
    /// rule admits the access, upgraded to `RateLimited`/`QuotaExceeded`
    /// if one rejects it (rejections are terminal for the walk, so the
    /// last write wins correctly).
    throttle: ThrottleOutcome,
    /// [`Rule::key`] of the ACCEPT rule that ended the walk, or 0;
    /// denials are attributed via `dropped_by` instead.
    accepted_by: u64,
}

/// The rules one hook walks, chosen once before the verdict memo is
/// consulted (see [`Invocation::select`]).
enum Selection<'a> {
    /// A whole chain in install order: `syscallbegin`, the input chain
    /// below EPTSPC, and the degraded walk after a failed unwind.
    Chain(ChainName, &'a [Arc<Rule>]),
    /// The leaves a dispatch tree selected from the input chain;
    /// `rulesetc` marks the three-axis table, whose walks the
    /// `rulesetc_dispatch` counter counts.
    Dispatch {
        merge: MergeDispatch<'a>,
        rulesetc: bool,
    },
}

impl<'a> Selection<'a> {
    /// All of `chain`, in install order.
    fn whole(snap: &'a RulesetSnapshot, chain: ChainName) -> Self {
        let rules = snap.chain(&chain);
        Selection::Chain(chain, rules)
    }

    /// Whether the selection holds no rule: the hook's outcome is the
    /// default allow, so there is nothing for the memo to stand in for.
    fn is_empty(&self) -> bool {
        match self {
            Selection::Chain(_, rules) => rules.is_empty(),
            Selection::Dispatch { merge, .. } => merge.is_empty(),
        }
    }
}

/// The tri-state outcome of matching one rule against a packet.
enum RuleEval {
    /// Every selector matched; run the target.
    Match,
    /// Some selector did not match (or came up benignly absent).
    NoMatch,
    /// A context fetch failed and the governing policy is
    /// [`CtxPolicy::Drop`]: deny immediately, attributed to this rule.
    FailDrop,
}

/// Unwraps a [`Fetched`] inside a `Result<bool, CtxError>` function:
/// benign absence means "no match", a failure propagates to the caller
/// so the rule's `--ctx-missing` policy can decide.
macro_rules! fetched {
    ($e:expr) => {
        match $e {
            Fetched::Value(v) => v,
            Fetched::Missing => return Ok(false),
            Fetched::Failed(e) => return Err(e),
        }
    };
}

impl<'a> Invocation<'a> {
    /// Select: the rules this hook can reach, chosen once per hook and
    /// before the memo. `syscallbegin` and every level below EPTSPC
    /// take their whole chain; the input chain goes through the
    /// compiled dispatch of its level.
    fn select(&mut self, pkt: &mut Packet<'_>, op: LsmOperation) -> Selection<'a> {
        let snap = self.snap;
        // The naive design "simply fetches all process and resource
        // contexts and then matches them against each invariant"
        // (Section 4.2) — with no invariants installed there is nothing
        // to match, so even the unoptimized path skips collection.
        if !self.config.lazy_context && !snap.is_empty() {
            pkt.fetch_all(self.metrics);
        }
        if op == LsmOperation::SyscallBegin {
            Selection::whole(snap, ChainName::SyscallBegin)
        } else if self.config.compiled_dispatch && !snap.is_empty() {
            self.select_input(snap.input_dispatch(), true, pkt, op)
        } else if self.config.entrypoint_chains {
            self.select_input(snap.input_ept_dispatch(), false, pkt, op)
        } else {
            Selection::whole(snap, ChainName::Input)
        }
    }

    /// The one indexed selection from the input chain, over either
    /// compiled table: the three-axis one at RULESETC (`rulesetc` set,
    /// which also gates the `rulesetc_*` counters) or the
    /// entrypoint-only one at EPTSPC and VCACHE. The lookup descends the
    /// table's tree (operation, then label, then entrypoint) and selects
    /// the leaves whose indexed selectors could accept this invocation,
    /// to be merged back into install order (see `compile.rs` for the
    /// soundness argument).
    ///
    /// Fetch failures never consult a concrete node. A failed object
    /// fetch (only the three-axis table indexes labels) re-selects on
    /// the entrypoint-only table: the label axis is dropped and the
    /// rules that need the label arbitrate through `--ctx-missing` as
    /// usual. A failed entrypoint unwind degrades to the full-chain
    /// walk, so every bound rule's `--ctx-missing` policy gets its say.
    fn select_input(
        &mut self,
        dispatch: &'a CompiledDispatch,
        rulesetc: bool,
        pkt: &mut Packet<'_>,
        op: LsmOperation,
    ) -> Selection<'a> {
        // Each level's value is resolved *before* traversal:
        // interleaved ACCEPT/RETURN/LOG/STATE rules make relative order
        // verdict-relevant, so the applicable leaves must be known up
        // front to merge them. A value that no node reached so far
        // indexes cannot exclude a rule, so its fetch — and its failure
        // modes — is skipped entirely.
        let ops = dispatch.by_op(op);
        let label = if ops.indexes_labels() {
            match pkt.object_sid_value(self.metrics) {
                Fetched::Value(sid) => Some(sid),
                // No object, no label: only label-wildcard nodes apply
                // (a positive `-d` set cannot match, exactly the
                // selector's own Missing → NoMatch semantics).
                Fetched::Missing => None,
                Fetched::Failed(_) => {
                    // Not `degraded` by itself: the entrypoint-only
                    // table unwinds only if its own leaves need it.
                    self.metrics.bump(Counter::RulesetcFallback);
                    let eptspc = self.snap.input_ept_dispatch();
                    return self.select_input(eptspc, false, pkt, op);
                }
            }
        } else {
            None
        };
        let labels = ops.by_label(label);
        let ept = if labels.indexes_entrypoints() {
            match pkt.entrypoint_value(self.metrics) {
                Fetched::Value(ept) => Some(ept),
                // Benign absence (e.g. a sanitized malformed stack,
                // Section 4.4): only entrypoint-wildcard leaves apply.
                Fetched::Missing => None,
                Fetched::Failed(_) => {
                    // Without a trusted entrypoint no leaf can be
                    // excluded: walk the whole chain in install order.
                    self.degraded = true;
                    if rulesetc {
                        self.metrics.bump(Counter::RulesetcFallback);
                    }
                    return Selection::whole(self.snap, ChainName::Input);
                }
            }
        } else {
            None
        };
        Selection::Dispatch {
            merge: labels.by_entrypoint(ept),
            rulesetc,
        }
    }

    /// Walk: the rules `selection` holds, in install order.
    /// `Some(decision)` on an explicit verdict, `None` when every rule
    /// fell through to the default-ALLOW policy.
    fn walk(
        &mut self,
        selection: &mut Selection<'a>,
        pkt: &mut Packet<'_>,
        op: LsmOperation,
    ) -> Option<EvalDecision> {
        match selection {
            Selection::Chain(chain, rules) => {
                self.run_seq(chain, rules.iter().enumerate(), pkt, op, 0)
            }
            Selection::Dispatch { merge, rulesetc } => {
                if *rulesetc {
                    self.metrics.bump(Counter::RulesetcDispatch);
                }
                let input = self.snap.chain(&ChainName::Input);
                self.run_seq(&ChainName::Input, merge.map(|i| (i, &input[i])), pkt, op, 0)
            }
        }
    }

    /// The decision for a deny attributed to `rule`, `chain[index]`.
    fn deny(
        &self,
        chain: &ChainName,
        index: usize,
        rule: &Arc<Rule>,
        degraded: bool,
    ) -> EvalDecision {
        EvalDecision {
            verdict: Verdict::Deny,
            dropped_by: Some(DroppedBy {
                chain: chain.clone(),
                index,
                rule: Arc::clone(rule),
            }),
            generation: self.snap.generation(),
            degraded,
            adv_generation: 0,
        }
    }

    fn run_seq(
        &mut self,
        chain: &ChainName,
        rules: impl Iterator<Item = (usize, &'a Arc<Rule>)>,
        pkt: &mut Packet<'_>,
        op: LsmOperation,
        depth: u32,
    ) -> Option<EvalDecision> {
        // A jump-depth limit replaces iptables' saved traversal stack;
        // the per-process STATE dictionary carries all cross-invocation
        // state, so traversal itself is re-entrant (Section 5.1).
        const MAX_DEPTH: u32 = 16;
        for (index, rule) in rules {
            self.hops += 1;
            self.metrics.bump(Counter::RulesEvaluated);
            if self.metrics.detailed() {
                rule.bump_evaluated();
            }
            let eval = self.rule_matches(rule, pkt, op, chain);
            let fired = !matches!(eval, RuleEval::NoMatch);
            if fired {
                rule.bump_hits();
                if matches!(rule.target, Target::Trace) && matches!(eval, RuleEval::Match) {
                    pkt.start_trace();
                }
            }
            // Once tracing is armed, every traversed rule (matched or
            // not) emits an event — including the TRACE rule itself.
            if let Some(clock) = pkt.trace_clock() {
                self.metrics.push_trace(TraceHop {
                    chain: chain.clone(),
                    rule_index: index,
                    matched: fired,
                    target: rule.target.kind_name(),
                    elapsed_ns: clock.elapsed().as_nanos() as u64,
                    degraded: self.degraded,
                    invocation: self.event_id,
                });
            }
            match eval {
                RuleEval::NoMatch => continue,
                RuleEval::FailDrop => {
                    // Fail closed: a selector's context fetch failed and
                    // the governing policy is `drop`. The deny is
                    // attributed to this rule and flagged degraded.
                    self.emit_log(pkt, op, LogTag::Static("CTXFAIL"), Verdict::Deny);
                    return Some(self.deny(chain, index, rule, true));
                }
                RuleEval::Match => {}
            }
            // A matched rule with a side-effecting target (STATE, LOG,
            // TRACE) makes this walk unrepeatable: replaying a cached
            // verdict would skip the side effect.
            if self.cache_track && rule.vc_impure_target {
                self.cache_blocked = true;
            }
            match &rule.target {
                Target::Drop => {
                    self.emit_log(pkt, op, LogTag::Static("DROP"), Verdict::Deny);
                    return Some(self.deny(chain, index, rule, self.degraded));
                }
                Target::Accept => {
                    self.accepted_by = rule.key();
                    return Some(EvalDecision::allow(self.snap.generation()));
                }
                Target::Continue => {}
                Target::Return => return None,
                Target::Jump(sub) => {
                    if depth < MAX_DEPTH {
                        let rules = self.snap.chain(sub).iter().enumerate();
                        if let Some(d) = self.run_seq(sub, rules, pkt, op, depth + 1) {
                            return Some(d);
                        }
                    } else {
                        // The target chain never got its say: surface
                        // the truncation instead of silently pretending
                        // the traversal was complete.
                        self.metrics.bump(Counter::JumpDepthExceeded);
                        self.degraded = true;
                        self.emit_log(pkt, op, LogTag::Static("JUMPDEPTH"), Verdict::Allow);
                    }
                }
                Target::StateSet { key, value } => match self.resolve(*value, pkt) {
                    Fetched::Value(v) => pkt.env().state_set(*key, v),
                    Fetched::Missing => {}
                    // The value could not be recorded; later STATE
                    // matches will see a stale/absent key, so flag the
                    // invocation degraded.
                    Fetched::Failed(_) => self.degraded = true,
                },
                Target::StateUnset { key } => pkt.env().state_unset(*key),
                Target::Log { tag } => {
                    self.emit_log(pkt, op, LogTag::Rule(Arc::clone(tag)), Verdict::Allow);
                }
                Target::Trace => {}
                Target::RateLimit { .. } | Target::Quota { .. } => {
                    if let Some(d) = self.run_throttle(rule, chain, index, pkt, op) {
                        return Some(d);
                    }
                }
            }
        }
        None
    }

    /// Executes a RATELIMIT/QUOTA target on a matched rule. `None`
    /// means the access stays within budget (or the exceed policy is
    /// permissive) and traversal continues; `Some` is a deny.
    fn run_throttle(
        &mut self,
        rule: &Arc<Rule>,
        chain: &ChainName,
        index: usize,
        pkt: &mut Packet<'_>,
        op: LsmOperation,
    ) -> Option<EvalDecision> {
        let (per, exceed) = match &rule.target {
            Target::RateLimit { per, exceed, .. } | Target::Quota { per, exceed, .. } => {
                (*per, *exceed)
            }
            _ => return None,
        };
        // Key derivation. A *Missing* key (e.g. `--per resource` on an
        // objectless hook) is benign absence: those accesses share the
        // zero bucket rather than escaping the throttle. A *Failed*
        // fetch — or a failed clock read — is the adversary's window
        // and goes through the `--ctx-missing` machinery below.
        let key = match per {
            PerKey::Subject => Fetched::Value(pkt.env_ref().subject_sid().0 as u64),
            PerKey::Adversary => pkt.dac_owner_value(self.metrics),
            PerKey::Resource => pkt.resource_id_value(self.metrics),
        };
        let now = pkt.env_ref().try_now();
        let (key, now) = match (key, now) {
            (Fetched::Failed(_), _) | (_, Fetched::Failed(_)) => {
                // Fail-safe: the engine default for throttle targets is
                // fail-closed (like DROP rules) — a stopped clock must
                // not turn a rate limit into an unconditional allow.
                return match self.on_ctx_failure(rule, chain) {
                    CtxPolicy::Drop => {
                        self.emit_log(pkt, op, LogTag::Static("CTXFAIL"), Verdict::Deny);
                        Some(self.deny(chain, index, rule, true))
                    }
                    // Explicit opt-out (`--ctx-missing skip`): the rule
                    // stands aside, but never silently — the decision
                    // is already marked degraded and the lapse logged.
                    CtxPolicy::Skip => {
                        self.emit_log(pkt, op, LogTag::Static("CTXFAIL"), Verdict::Allow);
                        None
                    }
                    // `match`: treat the unaccountable access as over
                    // budget and let the exceed policy arbitrate.
                    CtxPolicy::Match => self.throttle_exceeded(rule, chain, index, pkt, op, exceed),
                };
            }
            (key, now) => (key.ok().unwrap_or(0), now.ok().unwrap_or(0)),
        };
        let cell = rule.throttle_cell()?;
        let (granted, total, split) = match &rule.target {
            Target::RateLimit { rate, burst, .. } => (
                cell.rate_consume(key, now, *rate, *burst),
                Counter::RatelimitThrottled,
                OpCounter::RatelimitThrottled,
            ),
            Target::Quota { limit, window, .. } => (
                cell.quota_consume(key, now, *limit, *window),
                Counter::QuotaExceeded,
                OpCounter::QuotaExceeded,
            ),
            _ => return None,
        };
        if granted {
            if self.throttle == ThrottleOutcome::None {
                self.throttle = ThrottleOutcome::Granted;
            }
            return None;
        }
        self.metrics.bump_split(total, split, op);
        cell.bump_rejected();
        self.throttle_exceeded(rule, chain, index, pkt, op, exceed)
    }

    /// Applies a throttle target's `--exceed` policy to an over-budget
    /// (or unaccountable, under `--ctx-missing match`) access.
    fn throttle_exceeded(
        &mut self,
        rule: &Arc<Rule>,
        chain: &ChainName,
        index: usize,
        pkt: &mut Packet<'_>,
        op: LsmOperation,
        exceed: ExceedPolicy,
    ) -> Option<EvalDecision> {
        let tag = LogTag::Static(rule.target.kind_name());
        // Over budget (or unaccountable under `--ctx-missing match`):
        // record which flavour rejected, whatever the exceed policy.
        self.throttle = match &rule.target {
            Target::RateLimit { .. } => ThrottleOutcome::RateLimited,
            _ => ThrottleOutcome::QuotaExceeded,
        };
        match exceed {
            ExceedPolicy::Drop => {
                self.emit_log(pkt, op, tag, Verdict::Deny);
                Some(self.deny(chain, index, rule, self.degraded))
            }
            ExceedPolicy::Log => {
                self.emit_log(pkt, op, tag, Verdict::Allow);
                None
            }
            ExceedPolicy::Degrade => {
                self.degraded = true;
                self.emit_log(pkt, op, tag, Verdict::Allow);
                None
            }
        }
    }

    fn resolve(&mut self, value: ValueExpr, pkt: &mut Packet<'_>) -> Fetched<u64> {
        match value {
            ValueExpr::Lit(v) => Fetched::Value(v),
            ValueExpr::Ctx(field) => pkt.field_value(field, self.metrics),
        }
    }

    /// Resolves the `--ctx-missing` policy that governs a failed context
    /// fetch in `rule`: the rule's own override, else the chain default,
    /// else the engine default — fail-closed for DROP and throttle
    /// rules (a stopped clock must not disarm a rate limit), fail-open
    /// for everything else. Also marks the invocation degraded: by the
    /// time this runs, a fetch has definitely failed.
    fn on_ctx_failure(&mut self, rule: &Rule, chain: &ChainName) -> CtxPolicy {
        self.degraded = true;
        rule.ctx_policy
            .or_else(|| self.snap.ctx_default(chain))
            .unwrap_or(
                if matches!(
                    rule.target,
                    Target::Drop | Target::RateLimit { .. } | Target::Quota { .. }
                ) {
                    CtxPolicy::Drop
                } else {
                    CtxPolicy::Skip
                },
            )
    }

    fn rule_matches(
        &mut self,
        rule: &Rule,
        pkt: &mut Packet<'_>,
        op: LsmOperation,
        chain: &ChainName,
    ) -> RuleEval {
        // Cheapest selectors first so lazy context fetches stay minimal.
        if let Some(rule_op) = rule.def.op {
            if rule_op != op {
                return RuleEval::NoMatch;
            }
        }
        if let Some(subject) = &rule.def.subject {
            if !subject.contains(pkt.env_ref().subject_sid()) {
                return RuleEval::NoMatch;
            }
        }
        // Each fallible selector is arbitrated *individually* by the
        // rule's `--ctx-missing` policy: under `match` only the failed
        // selector counts as satisfied — every other selector (and the
        // match modules) still gets its say.
        match rule.def.entrypoint() {
            Some(want) => match pkt.entrypoint_value(self.metrics) {
                Fetched::Value(got) => {
                    if got != want {
                        return RuleEval::NoMatch;
                    }
                }
                Fetched::Missing => return RuleEval::NoMatch,
                Fetched::Failed(_) => {
                    if let Some(eval) = self.ctx_fail(rule, chain) {
                        return eval;
                    }
                }
            },
            None => {
                // `-p` alone constrains the main program binary.
                if let Some(prog) = rule.def.program {
                    if pkt.env_ref().program() != prog {
                        return RuleEval::NoMatch;
                    }
                }
            }
        }
        if let Some(resource) = rule.def.resource {
            match pkt.resource_id_value(self.metrics) {
                Fetched::Value(got) => {
                    if got != resource {
                        return RuleEval::NoMatch;
                    }
                }
                Fetched::Missing => return RuleEval::NoMatch,
                Fetched::Failed(_) => {
                    if let Some(eval) = self.ctx_fail(rule, chain) {
                        return eval;
                    }
                }
            }
        }
        if let Some(object) = &rule.def.object {
            match pkt.object_sid_value(self.metrics) {
                Fetched::Value(sid) => {
                    if !object.contains(sid) {
                        return RuleEval::NoMatch;
                    }
                }
                Fetched::Missing => return RuleEval::NoMatch,
                Fetched::Failed(_) => {
                    if let Some(eval) = self.ctx_fail(rule, chain) {
                        return eval;
                    }
                }
            }
        }
        if let Some(min) = rule.def.origin {
            match pkt.subject_origin_value(self.metrics) {
                Fetched::Value(level) => {
                    if level < min {
                        return RuleEval::NoMatch;
                    }
                }
                // An environment that doesn't track origin never
                // satisfies an `--origin` rule: the selector exists to
                // *restrict* post-compromise subjects, and absence of
                // tracking must not be read as "tainted".
                Fetched::Missing => return RuleEval::NoMatch,
                Fetched::Failed(_) => {
                    if let Some(eval) = self.ctx_fail(rule, chain) {
                        return eval;
                    }
                }
            }
        }
        // Every selector so far is key-determined; the match modules
        // below may not be. Once an impure module gets consulted the
        // rule's outcome (and thus the verdict) may depend on context
        // outside the verdict key, so the walk must not be cached.
        if self.cache_track && rule.vc_impure_match {
            self.cache_blocked = true;
        }
        for m in &rule.matches {
            match self.module_matches(m, pkt) {
                Ok(true) => {}
                Ok(false) => return RuleEval::NoMatch,
                Err(_) => {
                    if let Some(eval) = self.ctx_fail(rule, chain) {
                        return eval;
                    }
                }
            }
        }
        RuleEval::Match
    }

    /// Arbitrates one failed context fetch against the rule's
    /// `--ctx-missing` policy. `Some` short-circuits the rule; `None`
    /// (the `match` policy) treats the failed selector as satisfied and
    /// lets the remaining selectors keep gating.
    fn ctx_fail(&mut self, rule: &Rule, chain: &ChainName) -> Option<RuleEval> {
        match self.on_ctx_failure(rule, chain) {
            CtxPolicy::Skip => Some(RuleEval::NoMatch),
            CtxPolicy::Drop => Some(RuleEval::FailDrop),
            CtxPolicy::Match => None,
        }
    }

    fn module_matches(&mut self, m: &MatchModule, pkt: &mut Packet<'_>) -> Result<bool, CtxError> {
        Ok(match m {
            MatchModule::State { key, cmp, negate } => {
                let current = match pkt.env_ref().try_state_get(*key) {
                    // A missing key never matches: before the "check"
                    // call records state, the "use"-side rule must not
                    // fire.
                    Fetched::Missing => return Ok(false),
                    Fetched::Value(v) => v,
                    Fetched::Failed(e) => return Err(e),
                };
                let want = fetched!(self.resolve(*cmp, pkt));
                (current == want) != *negate
            }
            MatchModule::SignalMatch => match pkt.env_ref().try_signal() {
                Fetched::Value(sig) => sig.has_handler && !sig.unblockable,
                Fetched::Missing => false,
                Fetched::Failed(e) => return Err(e),
            },
            MatchModule::SyscallArgs { arg, cmp, negate } => {
                let v = pkt.arg_value(*arg, self.metrics);
                let want = fetched!(self.resolve(*cmp, pkt));
                (v == want) != *negate
            }
            MatchModule::Compare { v1, v2, negate } => {
                let a = fetched!(self.resolve(*v1, pkt));
                let b = fetched!(self.resolve(*v2, pkt));
                (a == b) != *negate
            }
            MatchModule::Owner { uid, negate } => {
                let owner = fetched!(pkt.dac_owner_value(self.metrics));
                (owner == *uid) != *negate
            }
            MatchModule::Interp { script, line } => match pkt.env_ref().interp_frame() {
                Some((s, l)) => s == *script && line.map(|want| want == l).unwrap_or(true),
                None => false,
            },
            MatchModule::Caller { program } => pkt.env_ref().program() == *program,
            MatchModule::AdvAccess { write, want } => {
                let v = if *write {
                    pkt.adv_write_value(self.metrics)
                } else {
                    pkt.adv_read_value(self.metrics)
                };
                fetched!(v) == *want
            }
        })
    }

    /// Captures the LOG record for the invocation `pkt` carries into the
    /// invocation-local buffer. A verdict-memo hit's DROP line comes
    /// through here too, so a cached denial's record names its own
    /// access (entrypoint, object, resource).
    ///
    /// Everything that could change before a collector drains is taken
    /// now — the adversary bits in particular depend on the adversary
    /// generation — and names are the interners' shared copies, so the
    /// capture allocates nothing; the sink renders the strings at drain.
    fn emit_log(&mut self, pkt: &mut Packet<'_>, op: LsmOperation, tag: LogTag, verdict: Verdict) {
        let ept = pkt.entrypoint_value(self.metrics).ok();
        let adv_write = pkt.adv_write_value(self.metrics).ok().unwrap_or(false);
        let adv_read = pkt.adv_read_value(self.metrics).ok().unwrap_or(false);
        let env = pkt.env_ref();
        let mac = env.mac();
        self.logs.push(LogRecord {
            ts: env.now(),
            pid: env.pid().0,
            subject: mac.label_shared(env.subject_sid()),
            program: env.program_name(env.program()),
            ept: ept.map(|(p, pc)| (env.program_name(p), pc)),
            op,
            object: env.object().map(|o| (mac.label_shared(o.sid), o.resource)),
            adv_write,
            adv_read,
            tag,
            verdict,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::CtxField;
    use crate::env::{ObjectInfo, SignalInfo};
    use crate::lang::parse_rule;
    use crate::metrics::FieldCounter;
    use crate::session::TaskSession;
    use pf_mac::ubuntu_mini;
    use pf_types::{DeviceId, Gid, InodeNum, Mode, Pid, ProgramId, ResourceId, SecId, Uid};
    use std::collections::HashMap;

    /// A self-contained mock environment for engine unit tests.
    struct MockEnv {
        mac: MacPolicy,
        programs: Interner,
        subject: SecId,
        program: ProgramId,
        stack: Option<(ProgramId, u64)>,
        object: Option<ObjectInfo>,
        link_owner: Option<Uid>,
        args: [u64; 4],
        signal: Option<SignalInfo>,
        state: HashMap<u64, u64>,
        cache: HashMap<u8, u64>,
        unwind_count: u64,
        /// When set, `try_unwind_entrypoint` reports a *failed* fetch
        /// (not a missing one) — the degraded path under test.
        fail_unwind: bool,
        /// Same for `try_object`.
        fail_object: bool,
        /// Same for `try_state_get`.
        fail_state: bool,
        /// The subject's origin (taint) label; `None` models a
        /// substrate that does not track origin.
        origin: Option<u64>,
        /// Same for `try_subject_origin`.
        fail_origin: bool,
    }

    impl MockEnv {
        fn new() -> Self {
            let mac = ubuntu_mini();
            let mut programs = Interner::new();
            let subject = mac.lookup_label("httpd_t").unwrap();
            let program = programs.intern("/usr/bin/apache2");
            MockEnv {
                mac,
                programs,
                subject,
                program,
                stack: Some((program, 0x100)),
                object: None,
                link_owner: None,
                args: [0; 4],
                signal: None,
                state: HashMap::new(),
                cache: HashMap::new(),
                unwind_count: 0,
                fail_unwind: false,
                fail_object: false,
                fail_state: false,
                origin: None,
                fail_origin: false,
            }
        }

        fn with_object(mut self, label: &str, ino: u64, owner: u32) -> Self {
            let sid = self.mac.lookup_label(label).unwrap();
            self.object = Some(ObjectInfo {
                sid,
                resource: ResourceId::File {
                    dev: DeviceId(0),
                    ino: InodeNum(ino),
                },
                owner: Uid(owner),
                group: Gid(owner),
                mode: Mode::FILE_DEFAULT,
            });
            self
        }
    }

    impl EvalEnv for MockEnv {
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
            self.unwind_count += 1;
            self.stack
        }
        fn object(&self) -> Option<ObjectInfo> {
            self.object
        }
        fn link_target_owner(&mut self) -> Option<Uid> {
            self.link_owner
        }
        fn syscall_arg(&self, idx: usize) -> u64 {
            self.args.get(idx).copied().unwrap_or(0)
        }
        fn signal(&self) -> Option<SignalInfo> {
            self.signal
        }
        fn mac(&self) -> &MacPolicy {
            &self.mac
        }
        fn program_name(&self, id: ProgramId) -> Arc<str> {
            self.programs.resolve_shared(id)
        }
        fn state_get(&self, key: u64) -> Option<u64> {
            self.state.get(&key).copied()
        }
        fn state_set(&mut self, key: u64, value: u64) {
            self.state.insert(key, value);
        }
        fn state_unset(&mut self, key: u64) {
            self.state.remove(&key);
        }
        fn cache_get(&self, slot: u8) -> Option<u64> {
            self.cache.get(&slot).copied()
        }
        fn cache_put(&mut self, slot: u8, value: u64) {
            self.cache.insert(slot, value);
        }
        fn now(&self) -> u64 {
            7
        }
        fn try_unwind_entrypoint(&mut self) -> crate::env::Fetched<(ProgramId, u64)> {
            if self.fail_unwind {
                return Fetched::Failed(CtxError::UnwindFault);
            }
            Fetched::from_option(self.unwind_entrypoint())
        }
        fn try_object(&self) -> crate::env::Fetched<ObjectInfo> {
            if self.fail_object {
                return Fetched::Failed(CtxError::ObjectFault);
            }
            Fetched::from_option(self.object())
        }
        fn try_state_get(&self, key: u64) -> crate::env::Fetched<u64> {
            if self.fail_state {
                return Fetched::Failed(CtxError::StateLoss);
            }
            Fetched::from_option(self.state_get(key))
        }
        fn subject_origin(&self) -> Option<u64> {
            self.origin
        }
        fn try_subject_origin(&mut self) -> crate::env::Fetched<u64> {
            if self.fail_origin {
                return Fetched::Failed(CtxError::OriginFault);
            }
            Fetched::from_option(self.subject_origin())
        }
    }

    fn install(pf: &ProcessFirewall, env: &mut MockEnv, line: &str) {
        pf.install(line, &mut env.mac, &mut env.programs).unwrap();
    }

    /// Where a denial fired, as `(chain, index)`.
    fn dropped_at(d: &EvalDecision) -> Option<(&str, usize)> {
        d.dropped_by
            .as_ref()
            .map(|by| (by.chain.as_str(), by.index))
    }

    #[test]
    fn default_policy_is_allow() {
        let pf = ProcessFirewall::new(OptLevel::Full);
        let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
        let d = pf.evaluate(&mut env, LsmOperation::FileOpen);
        assert_eq!(d.verdict, Verdict::Allow);
    }

    #[test]
    fn disabled_firewall_never_blocks() {
        let pf = ProcessFirewall::new(OptLevel::Disabled);
        let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
        install(&pf, &mut env, "pftables -o FILE_OPEN -j DROP");
        let d = pf.evaluate(&mut env, LsmOperation::FileOpen);
        assert_eq!(d.verdict, Verdict::Allow);
        assert_eq!(pf.metrics().invocations(), 0);
    }

    #[test]
    fn label_match_drops_and_reports_rule() {
        let pf = ProcessFirewall::new(OptLevel::Full);
        let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
        install(&pf, &mut env, "pftables -o FILE_OPEN -d tmp_t -j DROP");
        let d = pf.evaluate(&mut env, LsmOperation::FileOpen);
        assert_eq!(d.verdict, Verdict::Deny);
        assert_eq!(dropped_at(&d), Some(("input", 0)));
        // A different label is untouched.
        let mut env2 = MockEnv::new().with_object("etc_t", 6, 0);
        pf.install(
            "pftables -o FILE_OPEN -d tmp_t -j DROP",
            &mut env2.mac,
            &mut env2.programs,
        )
        .unwrap();
        assert_eq!(
            pf.evaluate(&mut env2, LsmOperation::FileOpen).verdict,
            Verdict::Allow
        );
    }

    #[test]
    fn negated_set_drops_everything_outside() {
        let pf = ProcessFirewall::new(OptLevel::Full);
        let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
        install(
            &pf,
            &mut env,
            "pftables -o FILE_OPEN -d ~{lib_t|usr_t} -j DROP",
        );
        assert_eq!(
            pf.evaluate(&mut env, LsmOperation::FileOpen).verdict,
            Verdict::Deny
        );
        let mut env2 = MockEnv::new().with_object("lib_t", 9, 0);
        pf.install(
            "pftables -o FILE_OPEN -d ~{lib_t|usr_t} -j DROP",
            &mut env2.mac,
            &mut env2.programs,
        )
        .unwrap();
        assert_eq!(
            pf.evaluate(&mut env2, LsmOperation::FileOpen).verdict,
            Verdict::Allow
        );
    }

    #[test]
    fn operation_selector_gates_rule() {
        let pf = ProcessFirewall::new(OptLevel::Full);
        let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
        install(&pf, &mut env, "pftables -o FILE_WRITE -j DROP");
        assert_eq!(
            pf.evaluate(&mut env, LsmOperation::FileOpen).verdict,
            Verdict::Allow
        );
        assert_eq!(
            pf.evaluate(&mut env, LsmOperation::FileWrite).verdict,
            Verdict::Deny
        );
    }

    #[test]
    fn entrypoint_match_requires_program_and_pc() {
        let pf = ProcessFirewall::new(OptLevel::Full);
        let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
        install(
            &pf,
            &mut env,
            "pftables -p /usr/bin/apache2 -i 0x100 -o FILE_OPEN -j DROP",
        );
        assert_eq!(
            pf.evaluate(&mut env, LsmOperation::FileOpen).verdict,
            Verdict::Deny
        );
        // Different pc: no match.
        env.stack = Some((env.program, 0x200));
        assert_eq!(
            pf.evaluate(&mut env, LsmOperation::FileOpen).verdict,
            Verdict::Allow
        );
    }

    #[test]
    fn malformed_stack_fails_open_for_that_process() {
        let pf = ProcessFirewall::new(OptLevel::Full);
        let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
        install(
            &pf,
            &mut env,
            "pftables -p /usr/bin/apache2 -i 0x100 -o FILE_OPEN -j DROP",
        );
        env.stack = None; // §4.4: sanitization aborted the unwind.
        assert_eq!(
            pf.evaluate(&mut env, LsmOperation::FileOpen).verdict,
            Verdict::Allow
        );
    }

    #[test]
    fn state_set_then_state_match_tocttou_pair() {
        // R5/R6-style: record inode at bind, drop chmod on a different one.
        let pf = ProcessFirewall::new(OptLevel::Full);
        let mut env = MockEnv::new().with_object("tmp_t", 50, 1000);
        install(
            &pf,
            &mut env,
            "pftables -o SOCKET_BIND -j STATE --set --key 0xbeef --value C_INO",
        );
        install(
            &pf,
            &mut env,
            "pftables -o SOCKET_SETATTR -m STATE --key 0xbeef --cmp C_INO --nequal -j DROP",
        );
        // Bind records inode 50.
        assert_eq!(
            pf.evaluate(&mut env, LsmOperation::SocketBind).verdict,
            Verdict::Allow
        );
        assert!(env.state_get(0xbeef).is_some());
        // Setattr on the same inode: allowed.
        assert_eq!(
            pf.evaluate(&mut env, LsmOperation::SocketSetattr).verdict,
            Verdict::Allow
        );
        // The adversary swaps the resource: setattr now sees inode 51.
        env = MockEnv {
            state: env.state.clone(),
            ..MockEnv::new().with_object("tmp_t", 51, 666)
        };
        pf.install(
            "pftables -o SOCKET_SETATTR -m STATE --key 0xbeef --cmp C_INO --nequal -j DROP",
            &mut env.mac,
            &mut env.programs,
        )
        .unwrap();
        assert_eq!(
            pf.evaluate(&mut env, LsmOperation::SocketSetattr).verdict,
            Verdict::Deny
        );
    }

    #[test]
    fn state_match_with_missing_key_never_fires() {
        let pf = ProcessFirewall::new(OptLevel::Full);
        let mut env = MockEnv::new().with_object("tmp_t", 51, 666);
        install(
            &pf,
            &mut env,
            "pftables -o SOCKET_SETATTR -m STATE --key 0xbeef --cmp C_INO --nequal -j DROP",
        );
        assert_eq!(
            pf.evaluate(&mut env, LsmOperation::SocketSetattr).verdict,
            Verdict::Allow
        );
    }

    #[test]
    fn signal_chain_blocks_nested_handler() {
        let pf = ProcessFirewall::new(OptLevel::Full);
        let mut env = MockEnv::new();
        for r in [
            "pftables -I input -o PROCESS_SIGNAL_DELIVERY -j SIGNAL_CHAIN",
            "pftables -A signal_chain -m SIGNAL_MATCH -m STATE --key 'sig' --cmp 1 -j DROP",
            "pftables -A signal_chain -m SIGNAL_MATCH -j STATE --set --key 'sig' --value 1",
        ] {
            install(&pf, &mut env, r);
        }
        env.signal = Some(SignalInfo {
            signal: pf_types::SignalNum::SIGALRM,
            has_handler: true,
            unblockable: false,
            in_handler: false,
        });
        // First delivery: allowed, records in-handler state.
        let d = pf.evaluate(&mut env, LsmOperation::ProcessSignalDelivery);
        assert_eq!(d.verdict, Verdict::Allow);
        // Second delivery while the handler runs: dropped.
        let d2 = pf.evaluate(&mut env, LsmOperation::ProcessSignalDelivery);
        assert_eq!(d2.verdict, Verdict::Deny);
        assert_eq!(dropped_at(&d2).unwrap().0, "signal_chain");
    }

    #[test]
    fn sigreturn_clears_signal_state() {
        let pf = ProcessFirewall::new(OptLevel::Full);
        let mut env = MockEnv::new();
        install(
            &pf,
            &mut env,
            "pftables -I syscallbegin -m SYSCALL_ARGS --arg 0 --equal NR_sigreturn \
             -j STATE --set --key 'sig' --value 0",
        );
        env.state_set(crate::value::state_key("sig"), 1);
        env.args[0] = pf_types::SyscallNr::Sigreturn.as_u64();
        pf.evaluate(&mut env, LsmOperation::SyscallBegin);
        assert_eq!(env.state_get(crate::value::state_key("sig")), Some(0));
    }

    #[test]
    fn compare_module_owner_mismatch() {
        let pf = ProcessFirewall::new(OptLevel::Full);
        let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
        env.link_owner = Some(Uid(666));
        install(
            &pf,
            &mut env,
            "pftables -o LINK_READ -m COMPARE --v1 C_DAC_OWNER --v2 C_TGT_DAC_OWNER \
             --nequal -j DROP",
        );
        assert_eq!(
            pf.evaluate(&mut env, LsmOperation::LinkRead).verdict,
            Verdict::Deny
        );
        env.link_owner = Some(Uid(1000)); // Owners match: allowed.
        assert_eq!(
            pf.evaluate(&mut env, LsmOperation::LinkRead).verdict,
            Verdict::Allow
        );
    }

    #[test]
    fn adv_access_module() {
        let pf = ProcessFirewall::new(OptLevel::Full);
        let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
        install(
            &pf,
            &mut env,
            "pftables -o FILE_OPEN -m ADV_ACCESS --write --accessible -j DROP",
        );
        assert_eq!(
            pf.evaluate(&mut env, LsmOperation::FileOpen).verdict,
            Verdict::Deny,
            "tmp_t is adversary-writable"
        );
        let mut env2 = MockEnv::new().with_object("lib_t", 6, 0);
        pf.install(
            "pftables -o FILE_OPEN -m ADV_ACCESS --write --accessible -j DROP",
            &mut env2.mac,
            &mut env2.programs,
        )
        .unwrap();
        assert_eq!(
            pf.evaluate(&mut env2, LsmOperation::FileOpen).verdict,
            Verdict::Allow
        );
    }

    #[test]
    fn accept_short_circuits_later_drops() {
        let pf = ProcessFirewall::new(OptLevel::Full);
        let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
        install(&pf, &mut env, "pftables -o FILE_OPEN -j ACCEPT");
        install(&pf, &mut env, "pftables -o FILE_OPEN -j DROP");
        assert_eq!(
            pf.evaluate(&mut env, LsmOperation::FileOpen).verdict,
            Verdict::Allow
        );
        assert_eq!(pf.metrics().accepts(), 1);
    }

    #[test]
    fn log_target_records_context_and_continues() {
        let pf = ProcessFirewall::new(OptLevel::Full);
        let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
        install(&pf, &mut env, "pftables -o FILE_OPEN -j LOG --tag trace");
        assert_eq!(
            pf.evaluate(&mut env, LsmOperation::FileOpen).verdict,
            Verdict::Allow
        );
        let logs = pf.drain_logs().entries;
        assert_eq!(logs.len(), 1);
        assert_eq!(logs[0].object, "tmp_t");
        assert_eq!(logs[0].ept_pc, 0x100);
        assert!(logs[0].adv_write);
        assert_eq!(logs[0].tag, "trace");
        assert_eq!(pf.log_count(), 0, "the drain empties the sink");
    }

    /// A record holds what was true when the hook ran, whatever happens
    /// between the hook and the drain: the adversary bits are captured,
    /// not looked up again when the record is rendered.
    #[test]
    fn log_records_keep_hook_time_values_until_drained() {
        let pf = ProcessFirewall::new(OptLevel::Full);
        let mut env = MockEnv::new().with_object("var_log_t", 42, 0);
        let lib = env.programs.intern("/lib/libc.so.6");
        env.stack = Some((lib, 0x2d637));
        install(&pf, &mut env, "pftables -o FILE_OPEN -j LOG --tag open");
        install(&pf, &mut env, "pftables -o FILE_WRITE -j LOG --tag write");
        install(&pf, &mut env, "pftables -o FILE_WRITE -d var_log_t -j DROP");
        let var_log = env.mac.lookup_label("var_log_t").unwrap();
        assert!(!env.mac.adversary_writable(var_log));
        pf.evaluate(&mut env, LsmOperation::FileOpen);
        // Taint a subject that may write var_log_t: the label turns
        // adversary-writable before the first record is drained.
        let sshd = env.mac.lookup_label("sshd_t").unwrap();
        assert!(env.mac.taint_subject(sshd));
        assert!(env.mac.adversary_writable(var_log));
        pf.evaluate(&mut env, LsmOperation::FileOpen);
        let d = pf.evaluate(&mut env, LsmOperation::FileWrite);
        assert_eq!(d.verdict, Verdict::Deny);

        let logs = pf.drain_logs().entries;
        assert_eq!(
            logs.len(),
            4,
            "two opens, the write, and the DROP's own record"
        );
        let before = &logs[0];
        assert!(!before.adv_write, "captured before the widening");
        assert_eq!(before.subject, "httpd_t");
        assert_eq!(before.object, "var_log_t");
        assert_eq!(before.resource, "dev:0/ino:42");
        assert_eq!(before.program, "/usr/bin/apache2");
        assert_eq!(
            (before.ept_prog.as_str(), before.ept_pc),
            ("/lib/libc.so.6", 0x2d637)
        );
        assert_eq!(
            (before.tag.as_str(), before.verdict.as_str()),
            ("open", "ALLOW")
        );
        assert!(logs[1].adv_write, "captured after the widening");
        assert_eq!(
            (logs[1].tag.as_str(), logs[1].verdict.as_str()),
            ("open", "ALLOW")
        );
        // The later DROP patches the same invocation's LOG record.
        assert_eq!(
            (logs[2].tag.as_str(), logs[2].verdict.as_str()),
            ("write", "DENY")
        );
        assert_eq!(
            (logs[3].tag.as_str(), logs[3].verdict.as_str()),
            ("DROP", "DENY")
        );
    }

    #[test]
    fn drops_are_logged_as_denials() {
        let pf = ProcessFirewall::new(OptLevel::Full);
        let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
        install(&pf, &mut env, "pftables -o FILE_OPEN -d tmp_t -j DROP");
        pf.evaluate(&mut env, LsmOperation::FileOpen);
        let logs = pf.drain_logs().entries;
        assert_eq!(logs.len(), 1);
        assert_eq!(logs[0].verdict, "DENY");
    }

    #[test]
    fn all_optimization_levels_agree_on_verdicts() {
        let rules = [
            "pftables -p /usr/bin/apache2 -i 0x100 -o FILE_OPEN -d tmp_t -j DROP",
            "pftables -o FILE_WRITE -d ~{lib_t|etc_t} -j DROP",
            "pftables -o LINK_READ -m COMPARE --v1 C_DAC_OWNER --v2 C_TGT_DAC_OWNER \
             --nequal -j DROP",
        ];
        let cases: Vec<(&str, u64, u32, LsmOperation)> = vec![
            ("tmp_t", 5, 1000, LsmOperation::FileOpen),
            ("lib_t", 6, 0, LsmOperation::FileOpen),
            ("tmp_t", 5, 1000, LsmOperation::FileWrite),
            ("etc_t", 7, 0, LsmOperation::FileWrite),
            ("tmp_t", 5, 1000, LsmOperation::LinkRead),
        ];
        let mut verdicts: Vec<Vec<Verdict>> = Vec::new();
        for level in [
            OptLevel::Full,
            OptLevel::ConCache,
            OptLevel::LazyCon,
            OptLevel::EptSpc,
            OptLevel::Vcache,
            OptLevel::RulesetC,
        ] {
            let pf = ProcessFirewall::new(level);
            let mut vs = Vec::new();
            for &(label, ino, owner, op) in &cases {
                let mut env = MockEnv::new().with_object(label, ino, owner);
                env.link_owner = Some(Uid(666));
                for r in rules {
                    pf.install(r, &mut env.mac, &mut env.programs).unwrap();
                }
                vs.push(pf.evaluate(&mut env, op).verdict);
                pf.clear_rules().unwrap();
            }
            verdicts.push(vs);
        }
        for later in &verdicts[1..] {
            assert_eq!(
                &verdicts[0], later,
                "optimizations must not change verdicts"
            );
        }
    }

    /// The concurrent extension of
    /// [`all_optimization_levels_agree_on_verdicts`]: the same per-task
    /// workloads, run once sequentially and once with one thread per
    /// task against one shared firewall, must produce identical
    /// per-task verdict sequences at every optimization level. Only
    /// per-task state (STATE dictionary, session, context cache) may
    /// influence a verdict, so thread interleaving cannot change it.
    #[test]
    fn multithreaded_verdict_sequences_match_single_threaded() {
        use std::sync::Arc;

        let rules = [
            "pftables -p /usr/bin/apache2 -i 0x100 -o FILE_OPEN -d tmp_t -j DROP",
            "pftables -o FILE_WRITE -d ~{lib_t|etc_t} -j DROP",
            "pftables -o SOCKET_BIND -j STATE --set --key 0xbeef --value C_INO",
            "pftables -o SOCKET_SETATTR -m STATE --key 0xbeef --cmp C_INO --nequal -j DROP",
        ];
        // Four "tasks", each with its own case sequence (label, ino, op).
        let tasks: [Vec<(&str, u64, LsmOperation)>; 4] = [
            vec![
                ("tmp_t", 5, LsmOperation::FileOpen),
                ("tmp_t", 5, LsmOperation::SocketBind),
                ("tmp_t", 5, LsmOperation::SocketSetattr),
                ("tmp_t", 6, LsmOperation::SocketSetattr),
            ],
            vec![
                ("lib_t", 6, LsmOperation::FileOpen),
                ("lib_t", 6, LsmOperation::FileWrite),
                ("tmp_t", 7, LsmOperation::FileWrite),
            ],
            vec![
                ("etc_t", 7, LsmOperation::FileWrite),
                ("tmp_t", 8, LsmOperation::SocketSetattr),
                ("tmp_t", 8, LsmOperation::SocketBind),
                ("tmp_t", 9, LsmOperation::SocketSetattr),
            ],
            vec![
                ("tmp_t", 10, LsmOperation::FileOpen),
                ("tmp_t", 10, LsmOperation::FileWrite),
            ],
        ];

        // One task's run: fresh env + session, its cases in order.
        fn run_task(pf: &ProcessFirewall, cases: &[(&str, u64, LsmOperation)]) -> Vec<Verdict> {
            let mut session = TaskSession::new();
            let mut verdicts = Vec::new();
            let mut state = HashMap::new();
            for &(label, ino, op) in cases {
                let mut env = MockEnv::new().with_object(label, ino, 1000);
                env.state = std::mem::take(&mut state);
                verdicts.push(session.evaluate(pf, &mut env, op).verdict);
                state = env.state; // STATE persists across the task's calls
            }
            verdicts
        }

        for level in [
            OptLevel::Full,
            OptLevel::ConCache,
            OptLevel::LazyCon,
            OptLevel::EptSpc,
            OptLevel::Vcache,
            OptLevel::RulesetC,
        ] {
            let pf = Arc::new(ProcessFirewall::new(level));
            let mut env0 = MockEnv::new();
            for r in rules {
                pf.install(r, &mut env0.mac, &mut env0.programs).unwrap();
            }

            let sequential: Vec<Vec<Verdict>> =
                tasks.iter().map(|cases| run_task(&pf, cases)).collect();

            let handles: Vec<_> = tasks
                .iter()
                .map(|cases| {
                    let pf = Arc::clone(&pf);
                    let cases = cases.clone();
                    std::thread::spawn(move || run_task(&pf, &cases))
                })
                .collect();
            let threaded: Vec<Vec<Verdict>> =
                handles.into_iter().map(|h| h.join().unwrap()).collect();

            assert_eq!(
                sequential, threaded,
                "per-task verdict sequences diverged at {level:?}"
            );
        }
    }

    #[test]
    fn reload_swaps_ruleset_atomically() {
        let pf = ProcessFirewall::new(OptLevel::Full);
        let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
        install(&pf, &mut env, "pftables -o FILE_OPEN -d tmp_t -j DROP");
        let gen_before = pf.generation();
        assert_eq!(
            pf.evaluate(&mut env, LsmOperation::FileOpen).verdict,
            Verdict::Deny
        );

        // A failing reload (bad line) must leave everything untouched.
        let err = pf.reload(
            ["pftables -o FILE_OPEN -d etc_t -j DROP", "pftables -j"],
            &mut env.mac,
            &mut env.programs,
        );
        assert!(err.is_err());
        assert_eq!(pf.generation(), gen_before, "no partial publication");
        assert_eq!(pf.rule_count(), 1);
        assert_eq!(
            pf.evaluate(&mut env, LsmOperation::FileOpen).verdict,
            Verdict::Deny
        );

        // A good reload replaces the whole base in one generation.
        let (n, generation) = pf
            .reload(
                ["# comment", "pftables -o FILE_WRITE -d tmp_t -j DROP"],
                &mut env.mac,
                &mut env.programs,
            )
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(generation, gen_before + 1);
        assert_eq!(pf.rule_count(), 1);
        let d = pf.evaluate(&mut env, LsmOperation::FileOpen);
        assert_eq!(d.verdict, Verdict::Allow, "old rule is gone");
        assert_eq!(d.generation, generation, "verdict attributes to the swap");
        assert_eq!(
            pf.evaluate(&mut env, LsmOperation::FileWrite).verdict,
            Verdict::Deny
        );
    }

    #[test]
    fn install_all_is_all_or_nothing() {
        let pf = ProcessFirewall::new(OptLevel::Full);
        let mut env = MockEnv::new();
        let err = pf.install_all(
            [
                "pftables -o FILE_OPEN -j DROP",
                "pftables -D input -o FILE_WRITE -j DROP", // no such rule
            ],
            &mut env.mac,
            &mut env.programs,
        );
        assert!(err.is_err());
        assert_eq!(pf.rule_count(), 0, "failed batch applies nothing");
        let gen_before = pf.generation();
        let n = pf
            .install_all(
                [
                    "pftables -o FILE_OPEN -j DROP",
                    "pftables -o FILE_WRITE -j DROP",
                ],
                &mut env.mac,
                &mut env.programs,
            )
            .unwrap();
        assert_eq!(n, 2);
        assert_eq!(pf.generation(), gen_before + 1, "one batch, one generation");
    }

    #[test]
    fn concache_avoids_repeated_unwinds() {
        let pf = ProcessFirewall::new(OptLevel::ConCache);
        let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
        install(
            &pf,
            &mut env,
            "pftables -p /usr/bin/apache2 -i 0x100 -o FILE_OPEN -d tmp_t -j LOG",
        );
        // Three invocations in the same "syscall" (cache not cleared).
        for _ in 0..3 {
            pf.evaluate(&mut env, LsmOperation::FileOpen);
        }
        assert_eq!(env.unwind_count, 1, "entrypoint served from task cache");
        assert!(pf.metrics().cache_hits() >= 2);
    }

    #[test]
    fn eptspc_skips_unrelated_entrypoint_rules() {
        let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
        let mk = |level: OptLevel, env: &mut MockEnv| {
            let pf = ProcessFirewall::new(level);
            // 50 rules for other entrypoints + one generic matcher-free op.
            for i in 0..50 {
                pf.install(
                    &format!("pftables -p /bin/other -i {:#x} -o FILE_OPEN -j DROP", i),
                    &mut env.mac,
                    &mut env.programs,
                )
                .unwrap();
            }
            pf
        };
        let pf_full = mk(OptLevel::Full, &mut env);
        pf_full.evaluate(&mut env, LsmOperation::FileOpen);
        let full_rules = pf_full.metrics().rules_evaluated();
        let pf_ept = mk(OptLevel::EptSpc, &mut env);
        pf_ept.evaluate(&mut env, LsmOperation::FileOpen);
        let ept_rules = pf_ept.metrics().rules_evaluated();
        assert_eq!(full_rules, 50);
        assert_eq!(ept_rules, 0, "no chain for this entrypoint");
    }

    #[test]
    fn return_target_ends_chain_without_verdict() {
        let pf = ProcessFirewall::new(OptLevel::Full);
        let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
        install(&pf, &mut env, "pftables -o FILE_OPEN -j RETURN");
        install(&pf, &mut env, "pftables -o FILE_OPEN -j DROP");
        assert_eq!(
            pf.evaluate(&mut env, LsmOperation::FileOpen).verdict,
            Verdict::Allow,
            "RETURN at top level yields the default policy"
        );
    }

    #[test]
    fn jump_returns_to_caller_on_fallthrough() {
        let pf = ProcessFirewall::new(OptLevel::Full);
        let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
        install(&pf, &mut env, "pftables -I input -o FILE_OPEN -j SIDE");
        install(&pf, &mut env, "pftables -A side -o FILE_WRITE -j DROP");
        install(&pf, &mut env, "pftables -A input -o FILE_OPEN -j DROP");
        // side chain has no FILE_OPEN rule, so control returns and the
        // second input rule fires.
        let d = pf.evaluate(&mut env, LsmOperation::FileOpen);
        assert_eq!(d.verdict, Verdict::Deny);
        assert_eq!(dropped_at(&d), Some(("input", 1)));
    }

    #[test]
    fn rule_delete_via_install() {
        let pf = ProcessFirewall::new(OptLevel::Full);
        let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
        install(&pf, &mut env, "pftables -o FILE_OPEN -d tmp_t -j DROP");
        assert_eq!(pf.rule_count(), 1);
        // `-D` with the same spec removes it (text match ignores the -D).
        let line = "pftables -o FILE_OPEN -d tmp_t -j DROP";
        let parsed = parse_rule(line, &mut env.mac, &mut env.programs).unwrap();
        pf.delete_rule(&ChainName::Input, &parsed.rule.text)
            .unwrap();
        assert_eq!(pf.rule_count(), 0);
    }

    #[test]
    fn jump_to_missing_chain_falls_through() {
        let pf = ProcessFirewall::new(OptLevel::Full);
        let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
        install(&pf, &mut env, "pftables -o FILE_OPEN -j NOWHERE");
        install(&pf, &mut env, "pftables -o FILE_OPEN -d tmp_t -j DROP");
        let d = pf.evaluate(&mut env, LsmOperation::FileOpen);
        assert_eq!(d.verdict, Verdict::Deny, "empty jump target is a no-op");
        assert_eq!(dropped_at(&d), Some(("input", 1)));
    }

    #[test]
    fn self_jump_cycle_terminates_at_depth_limit() {
        let pf = ProcessFirewall::new(OptLevel::Full);
        let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
        install(&pf, &mut env, "pftables -I input -o FILE_OPEN -j LOOPY");
        install(&pf, &mut env, "pftables -A loopy -o FILE_OPEN -j LOOPY");
        // Must return (default allow), not recurse forever.
        let d = pf.evaluate(&mut env, LsmOperation::FileOpen);
        assert_eq!(d.verdict, Verdict::Allow);
    }

    #[test]
    fn resource_id_default_match() {
        let pf = ProcessFirewall::new(OptLevel::Full);
        let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
        let res = pf_types::ResourceId::File {
            dev: DeviceId(0),
            ino: InodeNum(5),
        }
        .as_u64();
        install(
            &pf,
            &mut env,
            &format!("pftables -o FILE_OPEN -r {res} -j DROP"),
        );
        assert_eq!(
            pf.evaluate(&mut env, LsmOperation::FileOpen).verdict,
            Verdict::Deny
        );
        let mut env2 = MockEnv::new().with_object("tmp_t", 6, 1000);
        pf.install(
            &format!("pftables -o FILE_OPEN -r {res} -j DROP"),
            &mut env2.mac,
            &mut env2.programs,
        )
        .unwrap();
        assert_eq!(
            pf.evaluate(&mut env2, LsmOperation::FileOpen).verdict,
            Verdict::Allow,
            "different inode: no match"
        );
    }

    #[test]
    fn caller_module_matches_main_binary() {
        let pf = ProcessFirewall::new(OptLevel::Full);
        let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
        install(
            &pf,
            &mut env,
            "pftables -o FILE_OPEN -m CALLER --program /usr/bin/apache2 -j DROP",
        );
        assert_eq!(
            pf.evaluate(&mut env, LsmOperation::FileOpen).verdict,
            Verdict::Deny,
            "mock task runs apache2"
        );
        env.program = env.programs.intern("/bin/other");
        assert_eq!(
            pf.evaluate(&mut env, LsmOperation::FileOpen).verdict,
            Verdict::Allow
        );
    }

    #[test]
    fn state_unset_target_removes_entries() {
        let pf = ProcessFirewall::new(OptLevel::Full);
        let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
        install(
            &pf,
            &mut env,
            "pftables -o FILE_OPEN -j STATE --unset --key 0x77",
        );
        env.state_set(0x77, 9);
        pf.evaluate(&mut env, LsmOperation::FileOpen);
        assert_eq!(env.state_get(0x77), None);
    }

    #[test]
    fn subject_selector_gates_on_process_label() {
        let pf = ProcessFirewall::new(OptLevel::Full);
        let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
        install(&pf, &mut env, "pftables -s user_t -o FILE_OPEN -j DROP");
        // Mock subject is httpd_t.
        assert_eq!(
            pf.evaluate(&mut env, LsmOperation::FileOpen).verdict,
            Verdict::Allow
        );
        env.subject = env.mac.lookup_label("user_t").unwrap();
        assert_eq!(
            pf.evaluate(&mut env, LsmOperation::FileOpen).verdict,
            Verdict::Deny
        );
    }

    #[test]
    fn trace_follows_exact_rule_path() {
        let pf = ProcessFirewall::new(OptLevel::Full);
        let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
        install(&pf, &mut env, "pftables -A input -o FILE_OPEN -j TRACE");
        install(&pf, &mut env, "pftables -A input -o FILE_WRITE -j DROP");
        install(&pf, &mut env, "pftables -A input -o FILE_OPEN -j SIDE");
        install(
            &pf,
            &mut env,
            "pftables -A side -o FILE_OPEN -j LOG --tag traced",
        );
        install(
            &pf,
            &mut env,
            "pftables -A side -o FILE_OPEN -d tmp_t -j DROP",
        );
        let d = pf.evaluate(&mut env, LsmOperation::FileOpen);
        assert_eq!(d.verdict, Verdict::Deny);
        let events = pf.drain_trace();
        let path: Vec<_> = events
            .iter()
            .map(|e| (e.chain.as_str(), e.rule_index, e.matched, e.target))
            .collect();
        assert_eq!(
            path,
            [
                ("input", 0, true, "TRACE"),
                ("input", 1, false, "DROP"),
                ("input", 2, true, "JUMP"),
                ("side", 0, true, "LOG"),
                ("side", 1, true, "DROP"),
            ]
        );
        assert!(
            events
                .windows(2)
                .all(|w| w[0].elapsed_ns <= w[1].elapsed_ns),
            "event timestamps are monotonic"
        );
        assert!(pf.drain_trace().is_empty(), "drain empties the ring");
        // An invocation that never hits a TRACE rule emits nothing.
        pf.evaluate(&mut env, LsmOperation::FileWrite);
        assert!(pf.drain_trace().is_empty());
    }

    #[test]
    fn drop_patches_same_invocation_log_verdicts() {
        let pf = ProcessFirewall::new(OptLevel::Full);
        let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
        install(&pf, &mut env, "pftables -o FILE_WRITE -j LOG --tag w");
        install(&pf, &mut env, "pftables -o FILE_OPEN -j LOG --tag o");
        install(&pf, &mut env, "pftables -o FILE_OPEN -d tmp_t -j DROP");
        // LOG then default allow: the record keeps its ALLOW verdict.
        pf.evaluate(&mut env, LsmOperation::FileWrite);
        // LOG then DROP in the same invocation: patched to DENY.
        pf.evaluate(&mut env, LsmOperation::FileOpen);
        let logs = pf.drain_logs().entries;
        let w = logs.iter().find(|e| e.tag == "w").unwrap();
        let o = logs.iter().find(|e| e.tag == "o").unwrap();
        assert_eq!(w.verdict, "ALLOW", "earlier invocation is untouched");
        assert_eq!(o.verdict, "DENY", "same-invocation record is patched");
    }

    #[test]
    fn verdict_counters_partition_invocations() {
        let pf = ProcessFirewall::new(OptLevel::Full);
        let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
        install(&pf, &mut env, "pftables -o FILE_OPEN -d tmp_t -j DROP");
        install(&pf, &mut env, "pftables -o FILE_READ -j ACCEPT");
        for _ in 0..3 {
            pf.evaluate(&mut env, LsmOperation::FileOpen);
        }
        for _ in 0..2 {
            pf.evaluate(&mut env, LsmOperation::FileRead);
        }
        for _ in 0..4 {
            pf.evaluate(&mut env, LsmOperation::FileWrite);
        }
        let m = pf.metrics();
        assert_eq!(m.drops(), 3);
        assert_eq!(m.accepts(), 2);
        assert_eq!(m.default_allows(), 4);
        assert_eq!(
            m.drops() + m.accepts() + m.default_allows(),
            m.invocations()
        );
    }

    #[test]
    fn detailed_mode_tracks_per_rule_counters() {
        let pf = ProcessFirewall::new(OptLevel::Full);
        let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
        install(&pf, &mut env, "pftables -o FILE_WRITE -j DROP");
        install(&pf, &mut env, "pftables -o FILE_OPEN -d tmp_t -j DROP");
        pf.evaluate(&mut env, LsmOperation::FileOpen);
        assert_eq!(
            input_counts(&pf, Rule::evaluated),
            [0, 0],
            "evaluated counts stay off by default"
        );
        pf.metrics().set_detailed(true);
        pf.evaluate(&mut env, LsmOperation::FileOpen);
        assert_eq!(
            input_counts(&pf, Rule::evaluated),
            [1, 1],
            "both rules were scanned once"
        );
        assert_eq!(
            input_counts(&pf, Rule::hits),
            [0, 2],
            "only the FILE_OPEN rule fired, and hits count with detail off"
        );
    }

    /// One counter of every input-chain rule, in chain order.
    fn input_counts(pf: &ProcessFirewall, counter: fn(&Rule) -> u64) -> Vec<u64> {
        let snap = pf.base();
        snap.chain(&ChainName::Input)
            .iter()
            .map(|r| counter(r))
            .collect()
    }

    /// Per-rule counters live on the rule, so a reload that moves a
    /// rule moves its counters with it: every per-rule view reports
    /// them at the rule's new index, and the rule now in its old place
    /// starts at zero.
    #[test]
    fn rule_counters_follow_the_rule_across_reloads() {
        let pf = ProcessFirewall::new(OptLevel::Full);
        pf.metrics().set_detailed(true);
        let mut env = MockEnv::new().with_object("etc_t", 5, 0);
        let a = "pftables -o FILE_OPEN -d etc_t -j DROP";
        let b = "pftables -o FILE_OPEN -d tmp_t -j DROP";
        install(&pf, &mut env, a);
        assert_eq!(
            pf.evaluate(&mut env, LsmOperation::FileOpen).verdict,
            Verdict::Deny
        );
        pf.reload([b, a], &mut env.mac, &mut env.programs).unwrap();

        let snap = pf.base();
        let rules = snap.chain(&ChainName::Input);
        assert_eq!(rules[1].text, a);
        assert_eq!((rules[1].evaluated(), rules[1].hits()), (1, 1));
        assert_eq!((rules[0].evaluated(), rules[0].hits()), (0, 0));

        let listing = crate::render::render_rules(&pf);
        let line = listing.lines().find(|l| l.ends_with(a)).unwrap();
        assert!(line.starts_with("  [  1] evals=1 "), "{line}");
        assert!(line.contains(" hits=1 "), "{line}");

        let prom = pf.render_prometheus();
        let row = "pf_rule_hits_total{chain=\"input\",rule=\"1\"} 1";
        assert!(prom.lines().any(|l| l == row), "{prom}");
        assert!(!prom.contains("rule=\"0\"}"), "{prom}");

        let json = pf.to_json();
        let chains =
            "\"chains\":{\"input\":[{\"rule\":1,\"evaluated\":1,\"hits\":1,\"throttled\":0}]}";
        assert!(json.contains(chains), "{json}");
    }

    /// A decision event names its rule by [`Rule::key`], which a kept
    /// rule keeps: resolving the key against the live base finds the
    /// rule wherever a later reload moved it. ACCEPT rules are named
    /// the same way.
    #[test]
    fn decision_events_name_the_rule_across_reloads() {
        let pf = ProcessFirewall::new(OptLevel::Full);
        pf.set_sampling(SamplingMode::Always);
        let mut env = MockEnv::new().with_object("etc_t", 5, 0);
        let a = "pftables -o FILE_OPEN -d etc_t -j DROP";
        let b = "pftables -o FILE_OPEN -d tmp_t -j DROP";
        let accept = "pftables -o FILE_READ -j ACCEPT";
        pf.install_all([a, accept], &mut env.mac, &mut env.programs)
            .unwrap();
        pf.evaluate(&mut env, LsmOperation::FileOpen);
        pf.evaluate(&mut env, LsmOperation::FileRead);
        let decisions: Vec<DecisionEvent> = (pf.events().drain().into_iter())
            .filter(|e| e.kind == EventKind::Decision)
            .collect();
        assert_eq!(decisions.len(), 2);
        pf.reload([b, a, accept], &mut env.mac, &mut env.programs)
            .unwrap();

        let snap = pf.base();
        let named = |key: u64| {
            assert_ne!(key, 0);
            let mut rules = snap.iter().flat_map(|(chain, rules)| {
                rules.iter().enumerate().map(move |(i, r)| (chain, i, r))
            });
            rules
                .find(|(_, _, r)| r.key() == key)
                .map(|(c, i, r)| (c.as_str(), i, &r.text[..]))
        };
        assert_eq!(named(decisions[0].rule_key), Some(("input", 1, a)));
        assert_eq!(named(decisions[1].rule_key), Some(("input", 2, accept)));
    }

    #[test]
    fn install_all_skips_comments_and_blanks() {
        let pf = ProcessFirewall::new(OptLevel::Full);
        let mut env = MockEnv::new();
        let n = pf
            .install_all(
                [
                    "# comment",
                    "",
                    "pftables -o FILE_OPEN -j DROP",
                    "pftables -o FILE_WRITE -j DROP",
                ],
                &mut env.mac,
                &mut env.programs,
            )
            .unwrap();
        assert_eq!(n, 2);
        assert_eq!(pf.rule_count(), 2);
    }

    // --- fail-safe context semantics (`--ctx-missing`) ---

    #[test]
    fn failed_unwind_fails_closed_for_drop_rules() {
        // Entrypoint-bound invariant; the unwind *errors* (not merely a
        // sanitized malformed stack). The engine default for DROP rules
        // is fail-closed, so the access must be denied — on the FULL
        // path and on the EPTSPC degraded path alike.
        for level in [OptLevel::Full, OptLevel::EptSpc] {
            let pf = ProcessFirewall::new(level);
            let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
            install(
                &pf,
                &mut env,
                "pftables -p /usr/bin/apache2 -i 0x100 -o FILE_OPEN -j DROP",
            );
            env.fail_unwind = true;
            let d = pf.evaluate(&mut env, LsmOperation::FileOpen);
            assert_eq!(d.verdict, Verdict::Deny, "{level:?} must fail closed");
            assert!(d.degraded, "{level:?} decision is degraded");
            assert_eq!(dropped_at(&d), Some(("input", 0)));
            assert_eq!(pf.metrics().degraded_drops(), 1);
            assert_eq!(pf.metrics().degraded_allows(), 0);
            assert_eq!(
                pf.metrics()
                    .by_field(FieldCounter::Failures, CtxField::Entrypoint),
                1
            );
        }
    }

    #[test]
    fn missing_context_is_not_degraded() {
        // A benignly absent entrypoint (stack: None — the §4.4 sanitized
        // path) keeps its historical fail-open meaning and is NOT
        // counted degraded.
        let pf = ProcessFirewall::new(OptLevel::Full);
        let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
        install(
            &pf,
            &mut env,
            "pftables -p /usr/bin/apache2 -i 0x100 -o FILE_OPEN -j DROP",
        );
        env.stack = None;
        let d = pf.evaluate(&mut env, LsmOperation::FileOpen);
        assert_eq!(d.verdict, Verdict::Allow);
        assert!(!d.degraded);
        assert_eq!(pf.metrics().degraded_allows(), 0);
        assert_eq!(pf.metrics().degraded_drops(), 0);
    }

    #[test]
    fn ctx_missing_skip_overrides_fail_closed_default() {
        let pf = ProcessFirewall::new(OptLevel::Full);
        let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
        install(
            &pf,
            &mut env,
            "pftables -p /usr/bin/apache2 -i 0x100 -o FILE_OPEN --ctx-missing skip -j DROP",
        );
        env.fail_unwind = true;
        let d = pf.evaluate(&mut env, LsmOperation::FileOpen);
        assert_eq!(d.verdict, Verdict::Allow, "skip fails open");
        assert!(d.degraded, "but the allow is reported degraded");
        assert_eq!(pf.metrics().degraded_allows(), 1);
        assert_eq!(pf.metrics().degraded_drops(), 0);
    }

    #[test]
    fn ctx_missing_match_checks_remaining_selectors() {
        // `match` treats the failed selector as satisfied but the other
        // selectors still decide: tmp_t matches (deny), etc_t does not.
        let rule = "pftables -p /usr/bin/apache2 -i 0x100 -o FILE_OPEN -d tmp_t \
                    --ctx-missing match -j DROP";
        let pf = ProcessFirewall::new(OptLevel::Full);
        let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
        install(&pf, &mut env, rule);
        env.fail_unwind = true;
        let d = pf.evaluate(&mut env, LsmOperation::FileOpen);
        assert_eq!(d.verdict, Verdict::Deny);
        assert!(d.degraded);

        let pf2 = ProcessFirewall::new(OptLevel::Full);
        let mut env2 = MockEnv::new().with_object("etc_t", 6, 0);
        install(&pf2, &mut env2, rule);
        env2.fail_unwind = true;
        let d2 = pf2.evaluate(&mut env2, LsmOperation::FileOpen);
        assert_eq!(d2.verdict, Verdict::Allow, "object selector still gates");
        assert!(d2.degraded);
    }

    #[test]
    fn chain_default_applies_and_rule_override_wins() {
        let pf = ProcessFirewall::new(OptLevel::Full);
        let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
        install(&pf, &mut env, "pftables -P input --ctx-missing skip");
        install(
            &pf,
            &mut env,
            "pftables -p /usr/bin/apache2 -i 0x100 -o FILE_OPEN -j DROP",
        );
        env.fail_unwind = true;
        let d = pf.evaluate(&mut env, LsmOperation::FileOpen);
        assert_eq!(d.verdict, Verdict::Allow, "chain default skip fails open");
        assert!(d.degraded);

        // A per-rule `drop` override beats the chain's `skip` default.
        install(
            &pf,
            &mut env,
            "pftables -p /usr/bin/apache2 -i 0x100 -o FILE_WRITE --ctx-missing drop -j DROP",
        );
        let d2 = pf.evaluate(&mut env, LsmOperation::FileWrite);
        assert_eq!(d2.verdict, Verdict::Deny, "rule override wins");
        assert!(d2.degraded);
    }

    #[test]
    fn failed_object_fetch_fails_closed() {
        let pf = ProcessFirewall::new(OptLevel::Full);
        let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
        install(&pf, &mut env, "pftables -o FILE_OPEN -d tmp_t -j DROP");
        env.fail_object = true;
        let d = pf.evaluate(&mut env, LsmOperation::FileOpen);
        assert_eq!(d.verdict, Verdict::Deny);
        assert!(d.degraded);
        assert!(
            pf.metrics()
                .by_field(FieldCounter::Failures, CtxField::ObjectSid)
                >= 1
        );
    }

    #[test]
    fn rulesetc_dispatch_walks_only_applicable_buckets() {
        let pf = ProcessFirewall::new(OptLevel::RulesetC);
        let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
        install(&pf, &mut env, "pftables -o FILE_WRITE -d etc_t -j DROP");
        install(&pf, &mut env, "pftables -o SOCKET_BIND -j DROP");
        install(&pf, &mut env, "pftables -o FILE_OPEN -d tmp_t -j DROP");
        let d = pf.evaluate(&mut env, LsmOperation::FileOpen);
        assert_eq!(d.verdict, Verdict::Deny);
        assert_eq!(dropped_at(&d), Some(("input", 2)));
        assert_eq!(pf.metrics().rulesetc_dispatch(), 1);
        assert_eq!(pf.metrics().rulesetc_fallback(), 0);
        // Only the (FILE_OPEN, tmp_t) bucket was walked: the other two
        // rules were excluded by the index, not evaluated and skipped.
        assert_eq!(pf.metrics().rules_evaluated(), 1);
    }

    #[test]
    fn rulesetc_failed_unwind_degrades_to_full_walk() {
        // Same contract at EPTSPC and RULESETC: a failed unwind means no
        // bucket can be excluded, so the whole input chain walks and the
        // bound rule's fail-closed default still denies. The `rulesetc_*`
        // counters move at RULESETC only.
        for level in [OptLevel::EptSpc, OptLevel::RulesetC] {
            let pf = ProcessFirewall::new(level);
            let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
            install(
                &pf,
                &mut env,
                "pftables -p /usr/bin/apache2 -i 0x100 -o FILE_OPEN -j DROP",
            );
            env.fail_unwind = true;
            let d = pf.evaluate(&mut env, LsmOperation::FileOpen);
            assert_eq!(d.verdict, Verdict::Deny, "{level:?}: must fail closed");
            assert!(d.degraded);
            let fallbacks = u64::from(level == OptLevel::RulesetC);
            assert_eq!(pf.metrics().rulesetc_fallback(), fallbacks, "{level:?}");
            assert_eq!(pf.metrics().rulesetc_dispatch(), 0);
        }
    }

    #[test]
    fn rulesetc_failed_object_falls_back_to_eptspc_walk() {
        // A failed object fetch disables the label dimension only: the
        // walk re-runs on the entrypoint-only table (EPTSPC's own) and
        // the label-bearing DROP rule still fails closed through
        // `--ctx-missing`.
        for level in [OptLevel::EptSpc, OptLevel::RulesetC] {
            let pf = ProcessFirewall::new(level);
            let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
            install(&pf, &mut env, "pftables -o FILE_OPEN -d tmp_t -j DROP");
            env.fail_object = true;
            let d = pf.evaluate(&mut env, LsmOperation::FileOpen);
            assert_eq!(
                d.verdict,
                Verdict::Deny,
                "{level:?}: DROP rule fails closed"
            );
            assert!(d.degraded);
            let fallbacks = u64::from(level == OptLevel::RulesetC);
            assert_eq!(pf.metrics().rulesetc_fallback(), fallbacks, "{level:?}");
            assert_eq!(pf.metrics().rulesetc_dispatch(), 0);
        }
    }

    /// Rule A needs the label and the entrypoint, rule B only the label.
    /// B is an ACCEPT, so no LOG record unwinds. The stack sits at A's
    /// entrypoint.
    fn fetch_probe_base() -> (ProcessFirewall, MockEnv) {
        let pf = ProcessFirewall::new(OptLevel::RulesetC);
        let mut env = MockEnv::new();
        install(
            &pf,
            &mut env,
            "pftables -p /bin/victim -i 0x10 -o FILE_OPEN -d etc_t -j DROP",
        );
        install(&pf, &mut env, "pftables -o FILE_OPEN -d tmp_t -j ACCEPT");
        env.stack = Some((env.programs.intern("/bin/victim"), 0x10));
        (pf, env)
    }

    #[test]
    fn selection_fetches_only_what_its_buckets_index() {
        // Sessionless hooks, so no verdict key is built. The hooks that
        // do not unwind run first: the mock's CONCACHE slots persist.
        let (pf, env) = fetch_probe_base();
        let m = pf.metrics();
        // No rule names DIR_SEARCH: neither the label nor the unwind.
        let mut env = env.with_object("etc_t", 6, 0);
        let d = pf.evaluate(&mut env, LsmOperation::DirSearch);
        assert_eq!(d.verdict, Verdict::Allow);
        assert_eq!((env.unwind_count, m.ctx_fetches()), (0, 0));
        // FILE_OPEN's node indexes labels; tmp_t's indexes no entrypoint.
        let mut env = env.with_object("tmp_t", 5, 1000);
        let d = pf.evaluate(&mut env, LsmOperation::FileOpen);
        assert_eq!((d.verdict, m.accepts()), (Verdict::Allow, 1), "B accepts");
        assert_eq!((env.unwind_count, m.ctx_fetches()), (0, 1));
        // etc_t's node indexes A's entrypoint: one unwind, and A drops.
        let mut env = env.with_object("etc_t", 6, 0);
        let d = pf.evaluate(&mut env, LsmOperation::FileOpen);
        assert_eq!(d.verdict, Verdict::Deny);
        assert_eq!(dropped_at(&d), Some(("input", 0)));
        assert_eq!(env.unwind_count, 1);
    }

    #[test]
    fn failed_unwind_degrades_only_selections_that_need_the_entrypoint() {
        let (pf, mut env) = fetch_probe_base();
        env.fail_unwind = true;
        let m = pf.metrics();
        // Selects nothing, so it never unwinds: a plain allow.
        let mut env = env.with_object("etc_t", 6, 0);
        let d = pf.evaluate(&mut env, LsmOperation::DirSearch);
        assert_eq!((d.verdict, d.degraded), (Verdict::Allow, false));
        assert_eq!((m.rulesetc_fallback(), m.degraded_allows()), (0, 0));
        // The label already excluded A: B's clean ACCEPT, not a
        // fail-closed DROP by A.
        let mut env = env.with_object("tmp_t", 5, 1000);
        let d = pf.evaluate(&mut env, LsmOperation::FileOpen);
        assert_eq!((d.verdict, d.degraded), (Verdict::Allow, false));
        assert_eq!((m.accepts(), m.rulesetc_fallback()), (1, 0));
        // A's leaf needs the entrypoint: the whole chain walks, and A
        // fails closed.
        let mut env = env.with_object("etc_t", 6, 0);
        let d = pf.evaluate(&mut env, LsmOperation::FileOpen);
        assert_eq!((d.verdict, d.degraded), (Verdict::Deny, true));
        assert_eq!(dropped_at(&d), Some(("input", 0)));
        assert_eq!((m.rulesetc_fallback(), m.degraded_drops()), (1, 1));
        assert_eq!(m.degraded_allows(), 0);
    }

    #[test]
    fn failed_state_read_is_policy_governed() {
        // R4-style use-check rule: STATE match over a lost dictionary.
        let rule = "pftables -o FILE_OPEN -m STATE --key 1 --cmp 42 -j DROP";
        let pf = ProcessFirewall::new(OptLevel::Full);
        let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
        install(&pf, &mut env, rule);
        env.state.insert(1, 42);
        env.fail_state = true;
        let d = pf.evaluate(&mut env, LsmOperation::FileOpen);
        assert_eq!(d.verdict, Verdict::Deny, "DROP rule fails closed");
        assert!(d.degraded);
    }

    #[test]
    fn degraded_flag_reaches_trace_events() {
        let pf = ProcessFirewall::new(OptLevel::Full);
        let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
        install(&pf, &mut env, "pftables -o FILE_OPEN -j TRACE");
        install(
            &pf,
            &mut env,
            "pftables -p /usr/bin/apache2 -i 0x100 -o FILE_OPEN --ctx-missing skip -j DROP",
        );
        env.fail_unwind = true;
        pf.evaluate(&mut env, LsmOperation::FileOpen);
        let events = pf.drain_trace();
        assert!(!events.is_empty());
        assert!(
            events.iter().any(|e| e.degraded),
            "the traversal after the failed fetch is flagged degraded"
        );
    }

    /// The LOG sink and the TRACE ring export the same accounting, and
    /// after both wrap, `emitted == drained + dropped + buffered` reads
    /// back from each stream in both formats.
    #[test]
    fn ring_accounting_reads_back_from_both_exporters() {
        let pf = ProcessFirewall::new(OptLevel::Full);
        let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
        install(&pf, &mut env, "pftables -o FILE_OPEN -j TRACE");
        install(&pf, &mut env, "pftables -o FILE_OPEN -j LOG");
        pf.set_log_capacity(16);
        // Two hops per hook: each half of the run wraps the TRACE ring.
        let hooks = crate::metrics::TRACE_RING_CAP;
        for i in 0..2 * hooks {
            if i == hooks {
                pf.drain_logs();
                pf.drain_trace();
            }
            pf.evaluate(&mut env, LsmOperation::FileOpen);
        }
        let (prom, json) = (pf.render_prometheus(), pf.to_json());
        for (prefix, key) in [("pf_logs", "logs"), ("pf_trace_events", "trace")] {
            let sample = |name: &str| -> u64 {
                let line = format!("{prefix}_{name} ");
                let v = prom.lines().find_map(|l| l.strip_prefix(&line));
                v.expect("sample exported").parse().unwrap()
            };
            let names = [
                "emitted_total",
                "drained_total",
                "dropped_total",
                "buffered",
            ];
            let from_prom = names.map(sample);
            let object = &json[json.find(&format!("\"{key}\":{{")).unwrap()..];
            let object = &object[..object.find('}').unwrap()];
            let member = |name: &str| -> u64 {
                let v = object.split(&format!("\"{name}\":")).nth(1).unwrap();
                let end = v.find(|c: char| !c.is_ascii_digit()).unwrap_or(v.len());
                v[..end].parse().unwrap()
            };
            let from_json = ["emitted", "drained", "dropped", "buffered"].map(member);
            assert_eq!(from_prom, from_json, "{key}: both formats agree");
            let [emitted, drained, dropped, buffered] = from_prom;
            assert!(drained > 0 && dropped > 0, "{key} was drained and wrapped");
            assert_eq!(emitted, drained + dropped + buffered, "{key}");
        }
    }

    // --- poisoned-lock recovery (satellite 1) ---

    #[test]
    fn poisoned_log_lock_recovers() {
        let pf = Arc::new(ProcessFirewall::new(OptLevel::Full));
        let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
        install(&pf, &mut env, "pftables -o FILE_OPEN -j LOG --tag x");
        pf.evaluate(&mut env, LsmOperation::FileOpen);
        assert_eq!(pf.log_count(), 1);
        // One thread panics while holding the log-sink guard…
        let pf2 = Arc::clone(&pf);
        let worker = std::thread::spawn(move || {
            let _guard = pf2.logs.lock_raw();
            panic!("worker dies mid-append");
        });
        assert!(worker.join().is_err(), "worker panicked as intended");
        // …and evaluation, counting, and draining all keep working.
        let d = pf.evaluate(&mut env, LsmOperation::FileOpen);
        assert_eq!(d.verdict, Verdict::Allow);
        assert_eq!(pf.log_count(), 2);
        assert_eq!(pf.drain_logs().entries.len(), 2);
        assert_eq!(pf.log_count(), 0);
    }

    // --- attribution and rule identity across generations ---

    #[test]
    fn attribution_survives_reloads_that_move_or_remove_the_rule() {
        let pf = ProcessFirewall::new(OptLevel::Full);
        let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
        let rule = "pftables -o FILE_OPEN -d tmp_t -j DROP";
        install(&pf, &mut env, rule);
        let d = pf.evaluate(&mut env, LsmOperation::FileOpen);
        assert_eq!(d.verdict, Verdict::Deny);
        assert_eq!(pf.attribute(&d).as_deref(), Some(rule));

        // A reload shifts the rule to index 1, where index 0 now names a
        // different rule: the decision still names its own.
        pf.reload(
            ["pftables -o FILE_WRITE -j DROP", rule],
            &mut env.mac,
            &mut env.programs,
        )
        .unwrap();
        assert_eq!(pf.attribute(&d).as_deref(), Some(rule));
        let d2 = pf.evaluate(&mut env, LsmOperation::FileOpen);
        assert_eq!(dropped_at(&d2), Some(("input", 1)));
        assert_eq!(pf.attribute(&d2).as_deref(), Some(rule));

        // A reload that removes the rule: both decisions still resolve.
        pf.reload(
            ["pftables -o FILE_WRITE -j DROP"],
            &mut env.mac,
            &mut env.programs,
        )
        .unwrap();
        assert_eq!(pf.attribute(&d).as_deref(), Some(rule));
        assert_eq!(pf.attribute(&d2).as_deref(), Some(rule));
    }

    #[test]
    fn unchanged_rules_keep_their_identity_across_install_and_reload() {
        let pf = ProcessFirewall::new(OptLevel::Full);
        let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
        let open = "pftables -o FILE_OPEN -d tmp_t -j DROP";
        let write = "pftables -o FILE_WRITE -j DROP";
        install(&pf, &mut env, open);
        let first = Arc::clone(&pf.base().chain(&ChainName::Input)[0]);
        pf.evaluate(&mut env, LsmOperation::FileOpen);
        assert_eq!(first.hits(), 1);

        install(&pf, &mut env, write);
        assert!(Arc::ptr_eq(&pf.base().chain(&ChainName::Input)[0], &first));

        // A verbatim reload re-parses every line and adopts the
        // published rules, hit counts included.
        pf.reload([open, write], &mut env.mac, &mut env.programs)
            .unwrap();
        let snap = pf.base();
        let rules = snap.chain(&ChainName::Input);
        assert!(Arc::ptr_eq(&rules[0], &first), "unchanged rule is shared");
        assert_eq!(rules[0].hits(), 1, "its hit count survives");
        let write_rule = Arc::clone(&rules[1]);

        // A changed line is a new rule with a fresh count.
        let changed = "pftables -o FILE_OPEN -d etc_t -j DROP";
        pf.reload([changed, write], &mut env.mac, &mut env.programs)
            .unwrap();
        let snap = pf.base();
        let rules = snap.chain(&ChainName::Input);
        assert!(!Arc::ptr_eq(&rules[0], &first));
        assert_eq!(rules[0].hits(), 0);
        assert!(Arc::ptr_eq(&rules[1], &write_rule));
    }

    #[test]
    fn hits_through_a_pinned_session_show_in_the_new_snapshot() {
        let pf = ProcessFirewall::new(OptLevel::Full);
        let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
        install(&pf, &mut env, "pftables -o FILE_OPEN -d tmp_t -j DROP");
        let mut session = TaskSession::new();
        let pinned = session.evaluate(&pf, &mut env, LsmOperation::FileOpen);
        install(&pf, &mut env, "pftables -o FILE_WRITE -j DROP");
        // In flight across the install: the old snapshot decides…
        let d = session.evaluate_pinned(&pf, &mut env, LsmOperation::FileOpen);
        assert_eq!(d.generation, pinned.generation);
        assert_eq!(d.verdict, Verdict::Deny);
        // …and its hit lands on the rule the new snapshot shares.
        assert_eq!(pf.base().chain(&ChainName::Input)[0].hits(), 2);
    }

    #[test]
    fn syshigh_change_between_reloads_is_honoured() {
        let pf = ProcessFirewall::new(OptLevel::Full);
        let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
        let user = env.mac.lookup_label("user_t").unwrap();
        env.subject = user;
        let line = "pftables -s SYSHIGH -o FILE_OPEN -d tmp_t -j DROP";
        pf.reload([line], &mut env.mac, &mut env.programs).unwrap();
        assert_eq!(
            pf.evaluate(&mut env, LsmOperation::FileOpen).verdict,
            Verdict::Allow,
            "user_t is outside SYSHIGH"
        );
        let old = Arc::clone(&pf.base().chain(&ChainName::Input)[0]);

        // The same text now expands to a different set: it must not
        // adopt the rule parsed against the old one.
        env.mac.add_to_syshigh(user);
        pf.reload([line], &mut env.mac, &mut env.programs).unwrap();
        let snap = pf.base();
        let new = &snap.chain(&ChainName::Input)[0];
        assert!(!Arc::ptr_eq(new, &old));
        assert!(new.def.subject.as_ref().unwrap().contains(user));
        assert_eq!(
            pf.evaluate(&mut env, LsmOperation::FileOpen).verdict,
            Verdict::Deny
        );
    }

    // --- config/clear error propagation (satellite 2) ---

    #[test]
    fn config_edits_return_generations() {
        let pf = ProcessFirewall::new(OptLevel::Full);
        let g0 = pf.generation();
        let g1 = pf.set_level(OptLevel::EptSpc).unwrap();
        assert_eq!(g1, g0 + 1);
        let g2 = pf.clear_rules().unwrap();
        assert_eq!(g2, g1 + 1);
        assert_eq!(pf.generation(), g2);
    }

    #[test]
    fn set_level_command_switches_optimization_preset() {
        let pf = ProcessFirewall::new(OptLevel::Full);
        let mut env = MockEnv::new();
        install(&pf, &mut env, "pftables -O VCACHE");
        assert_eq!(pf.config(), OptLevel::Vcache.config());
        install(&pf, &mut env, "pftables -O disabled");
        assert!(!pf.config().enabled);
    }

    // --- order-preserving EPTSPC traversal (the headline bugfix) ---

    #[test]
    fn eptspc_merge_preserves_install_order_across_partitions() {
        // An entrypoint-bound ACCEPT (or RETURN) installed *before* a
        // generic DROP: the old generic-first traversal walked the DROP
        // first and denied what FULL allows.
        for bound_rule in [
            "pftables -p /usr/bin/apache2 -i 0x100 -o FILE_OPEN -j ACCEPT",
            "pftables -p /usr/bin/apache2 -i 0x100 -o FILE_OPEN -j RETURN",
        ] {
            for level in [
                OptLevel::Full,
                OptLevel::EptSpc,
                OptLevel::Vcache,
                OptLevel::RulesetC,
            ] {
                let pf = ProcessFirewall::new(level);
                let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
                install(&pf, &mut env, bound_rule);
                install(&pf, &mut env, "pftables -o FILE_OPEN -d tmp_t -j DROP");
                assert_eq!(
                    pf.evaluate(&mut env, LsmOperation::FileOpen).verdict,
                    Verdict::Allow,
                    "{level:?}: bound rule installed first must fire first"
                );
                // A caller from another entrypoint skips the bound rule
                // and hits the generic DROP at every level.
                let mut env2 = MockEnv::new().with_object("tmp_t", 5, 1000);
                env2.stack = Some((env2.program, 0x200));
                assert_eq!(
                    pf.evaluate(&mut env2, LsmOperation::FileOpen).verdict,
                    Verdict::Deny,
                    "{level:?}: unbound caller falls through to the DROP"
                );
                // Only the RULESETC rung counts its dispatches.
                let dispatched = pf.metrics().rulesetc_dispatch() > 0;
                assert_eq!(dispatched, level == OptLevel::RulesetC, "{level:?}");
            }
        }
    }

    // --- jump-depth exhaustion is surfaced (was a silent skip) ---

    #[test]
    fn jump_depth_exhaustion_is_counted_logged_and_degraded() {
        let pf = ProcessFirewall::new(OptLevel::Full);
        let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
        install(&pf, &mut env, "pftables -I input -o FILE_OPEN -j LOOPY");
        install(&pf, &mut env, "pftables -A loopy -o FILE_OPEN -j LOOPY");
        let d = pf.evaluate(&mut env, LsmOperation::FileOpen);
        assert_eq!(d.verdict, Verdict::Allow);
        assert!(d.degraded, "a truncated traversal is degraded");
        assert_eq!(pf.metrics().jump_depth_exceeded(), 1);
        let logs = pf.drain_logs().entries;
        assert_eq!(logs.len(), 1);
        assert_eq!(logs[0].tag, "JUMPDEPTH");
        assert_eq!(pf.metrics().degraded_allows(), 1);
    }

    // --- the VCACHE verdict cache ---

    #[test]
    fn vcache_hits_preserve_verdicts_counters_and_deny_logs() {
        let pf = ProcessFirewall::new(OptLevel::Vcache);
        pf.metrics().set_detailed(true);
        let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
        install(&pf, &mut env, "pftables -o FILE_OPEN -d tmp_t -j DROP");
        let mut session = TaskSession::new();
        let d1 = session.evaluate(&pf, &mut env, LsmOperation::FileOpen);
        assert_eq!(d1.verdict, Verdict::Deny);
        assert_eq!(pf.metrics().vcache_misses(), 1);
        assert_eq!(session.vcache_len(), 1);
        let rules_after_miss = pf.metrics().rules_evaluated();
        let rule = Arc::clone(&pf.base().chain(&ChainName::Input)[0]);
        assert_eq!((rule.evaluated(), rule.hits()), (1, 1));
        let d2 = session.evaluate(&pf, &mut env, LsmOperation::FileOpen);
        assert_eq!(d2, d1, "cached decision is identical");
        assert_eq!(pf.metrics().vcache_hits(), 1);
        assert_eq!(
            pf.metrics().rules_evaluated(),
            rules_after_miss,
            "a hit walks no rules"
        );
        assert_eq!(
            (rule.evaluated(), rule.hits()),
            (1, 1),
            "per-rule counters count walks, and a hit is not one"
        );
        // The hit renders the deny log from the live invocation: both
        // invocations are audited.
        let logs = pf.drain_logs().entries;
        assert_eq!(logs.len(), 2);
        assert!(logs.iter().all(|e| e.verdict == "DENY" && e.tag == "DROP"));
        // Default-allow outcomes cache too, and the verdict counters
        // keep partitioning invocations.
        let d3 = session.evaluate(&pf, &mut env, LsmOperation::FileWrite);
        let d4 = session.evaluate(&pf, &mut env, LsmOperation::FileWrite);
        assert_eq!(d3.verdict, Verdict::Allow);
        assert_eq!(d4.verdict, Verdict::Allow);
        assert_eq!(pf.metrics().vcache_hits(), 2);
        let m = pf.metrics();
        assert_eq!(m.drops(), 2);
        assert_eq!(m.default_allows(), 2);
        assert_eq!(
            m.drops() + m.accepts() + m.default_allows(),
            m.invocations()
        );
    }

    #[test]
    fn vcache_is_invalidated_by_hot_reload() {
        let pf = ProcessFirewall::new(OptLevel::Vcache);
        let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
        install(&pf, &mut env, "pftables -o FILE_OPEN -d tmp_t -j DROP");
        let mut session = TaskSession::new();
        for _ in 0..2 {
            assert_eq!(
                session
                    .evaluate(&pf, &mut env, LsmOperation::FileOpen)
                    .verdict,
                Verdict::Deny
            );
        }
        assert_eq!(session.vcache_len(), 1);
        pf.reload(
            ["pftables -o FILE_WRITE -d tmp_t -j DROP"],
            &mut env.mac,
            &mut env.programs,
        )
        .unwrap();
        let d = session.evaluate(&pf, &mut env, LsmOperation::FileOpen);
        assert_eq!(d.verdict, Verdict::Allow, "stale deny must not be served");
        assert_eq!(d.generation, pf.generation());
    }

    #[test]
    fn state_dependent_walks_are_never_cached() {
        let pf = ProcessFirewall::new(OptLevel::Vcache);
        let mut env = MockEnv::new().with_object("tmp_t", 50, 1000);
        install(
            &pf,
            &mut env,
            "pftables -o SOCKET_BIND -j STATE --set --key 0xbeef --value C_INO",
        );
        install(
            &pf,
            &mut env,
            "pftables -o SOCKET_SETATTR -m STATE --key 0xbeef --cmp C_INO --nequal -j DROP",
        );
        let mut session = TaskSession::new();
        // Bind records inode 50; setattr on the same inode is allowed.
        session.evaluate(&pf, &mut env, LsmOperation::SocketBind);
        assert_eq!(
            session
                .evaluate(&pf, &mut env, LsmOperation::SocketSetattr)
                .verdict,
            Verdict::Allow
        );
        // Re-bind against inode 51: the recorded STATE changes but the
        // (op, resource) key of a setattr on inode 50 does not — a
        // cached Allow here would mask the TOCTTOU deny.
        let sid = env.mac.lookup_label("tmp_t").unwrap();
        env.object = Some(ObjectInfo {
            sid,
            resource: ResourceId::File {
                dev: DeviceId(0),
                ino: InodeNum(51),
            },
            owner: Uid(1000),
            group: Gid(1000),
            mode: Mode::FILE_DEFAULT,
        });
        session.evaluate(&pf, &mut env, LsmOperation::SocketBind);
        env.object = Some(ObjectInfo {
            sid,
            resource: ResourceId::File {
                dev: DeviceId(0),
                ino: InodeNum(50),
            },
            owner: Uid(1000),
            group: Gid(1000),
            mode: Mode::FILE_DEFAULT,
        });
        let d = session.evaluate(&pf, &mut env, LsmOperation::SocketSetattr);
        assert_eq!(
            d.verdict,
            Verdict::Deny,
            "STATE-dependent verdicts must never be served from cache"
        );
        assert_eq!(pf.metrics().vcache_hits(), 0);
        assert_eq!(session.vcache_len(), 0);
        assert_eq!(pf.metrics().vcache_uncacheable(), 4);
    }

    #[test]
    fn degraded_walks_bypass_the_verdict_cache() {
        let pf = ProcessFirewall::new(OptLevel::Vcache);
        let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
        install(
            &pf,
            &mut env,
            "pftables -p /usr/bin/apache2 -i 0x100 -o FILE_OPEN -j DROP",
        );
        env.fail_unwind = true;
        let mut session = TaskSession::new();
        let d = session.evaluate(&pf, &mut env, LsmOperation::FileOpen);
        assert_eq!(d.verdict, Verdict::Deny, "fail-closed deny");
        assert!(d.degraded);
        assert_eq!(pf.metrics().vcache_hits(), 0);
        assert_eq!(pf.metrics().vcache_misses(), 0);
        assert_eq!(
            pf.metrics().vcache_uncacheable(),
            1,
            "a failed key fetch bypasses the cache"
        );
        assert_eq!(session.vcache_len(), 0, "degraded walks are not inserted");
    }

    /// `(hits, misses, uncacheable)` of the verdict cache.
    fn vcache_counts(pf: &ProcessFirewall) -> (u64, u64, u64) {
        let m = pf.metrics();
        (m.vcache_hits(), m.vcache_misses(), m.vcache_uncacheable())
    }

    #[test]
    fn empty_selection_builds_no_key() {
        for level in [OptLevel::Vcache, OptLevel::RulesetC] {
            let pf = ProcessFirewall::new(level);
            pf.metrics().set_detailed(true);
            let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
            install(
                &pf,
                &mut env,
                "pftables -p /usr/bin/apache2 -i 0x100 -o FILE_OPEN -j DROP",
            );
            assert!(pf.base().statically_cacheable(), "{level:?}");
            let mut session = TaskSession::new();
            // No rule is bound to 0x200: the selection is empty, so the
            // hook is the default allow and builds no verdict key.
            env.stack = Some((env.program, 0x200));
            for _ in 0..2 {
                let d = session.evaluate(&pf, &mut env, LsmOperation::FileOpen);
                assert_eq!(d.verdict, Verdict::Allow, "{level:?}");
            }
            assert_eq!(session.vcache_len(), 0, "{level:?}");
            assert_eq!(vcache_counts(&pf), (0, 0, 0), "{level:?}");
            for field in [CtxField::ObjectSid, CtxField::SubjectOrigin] {
                assert_eq!(
                    pf.metrics().by_field(FieldCounter::Fetches, field),
                    0,
                    "{level:?}: {field:?} is a key-only fetch"
                );
            }
            assert_eq!(pf.metrics().default_allows(), 2, "{level:?}");
            // An empty compiled selection is still a walk of it.
            let dispatched = if level == OptLevel::RulesetC { 2 } else { 0 };
            assert_eq!(pf.metrics().rulesetc_dispatch(), dispatched, "{level:?}");
            // From the bound entrypoint (a new syscall, so a fresh
            // CONCACHE slot) the selection holds the DROP: the first
            // hook misses and the second hits.
            env.stack = Some((env.program, 0x100));
            env.cache.clear();
            let d = session.evaluate(&pf, &mut env, LsmOperation::FileOpen);
            assert_eq!(d.verdict, Verdict::Deny, "{level:?}");
            assert_eq!(vcache_counts(&pf), (0, 1, 0), "{level:?}");
            let d = session.evaluate(&pf, &mut env, LsmOperation::FileOpen);
            assert_eq!(d.verdict, Verdict::Deny, "{level:?}");
            assert_eq!(vcache_counts(&pf), (1, 1, 0), "{level:?}");
            assert_eq!(session.vcache_len(), 1, "{level:?}");
        }
    }

    #[test]
    fn empty_syscallbegin_chain_never_unwinds() {
        let pf = ProcessFirewall::new(OptLevel::Vcache);
        pf.metrics().set_detailed(true);
        let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
        install(&pf, &mut env, "pftables -o FILE_OPEN -d tmp_t -j DROP");
        assert!(pf.base().statically_cacheable());
        let mut session = TaskSession::new();
        let d = session.evaluate(&pf, &mut env, LsmOperation::SyscallBegin);
        assert_eq!(d.verdict, Verdict::Allow);
        assert_eq!(env.unwind_count, 0, "an empty chain needs no entrypoint");
        assert_eq!(
            pf.metrics()
                .by_field(FieldCounter::Fetches, CtxField::Entrypoint),
            0
        );
        assert_eq!(vcache_counts(&pf), (0, 0, 0));
        assert_eq!(session.vcache_len(), 0);
    }

    // --- origin (taint) selectors and adversary-model generations ---

    #[test]
    fn origin_selector_gates_on_taint_threshold() {
        let pf = ProcessFirewall::new(OptLevel::Full);
        let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
        env.origin = Some(pf_mac::ORIGIN_TRUSTED);
        install(
            &pf,
            &mut env,
            "pftables -o FILE_OPEN --origin tainted -j DROP",
        );
        assert_eq!(
            pf.evaluate(&mut env, LsmOperation::FileOpen).verdict,
            Verdict::Allow,
            "an untainted subject passes an --origin tainted rule"
        );
        env.origin = Some(pf_mac::ORIGIN_EXTERNAL);
        assert_eq!(
            pf.evaluate(&mut env, LsmOperation::FileOpen).verdict,
            Verdict::Allow,
            "below-threshold origin still passes"
        );
        env.origin = Some(pf_mac::ORIGIN_TAINTED);
        let d = pf.evaluate(&mut env, LsmOperation::FileOpen);
        assert_eq!(d.verdict, Verdict::Deny, "at-threshold origin is caught");
        assert_eq!(dropped_at(&d), Some(("input", 0)));
    }

    #[test]
    fn origin_missing_means_the_selector_never_matches() {
        let pf = ProcessFirewall::new(OptLevel::Full);
        let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
        assert_eq!(env.origin, None);
        install(
            &pf,
            &mut env,
            "pftables -o FILE_OPEN --origin external -j DROP",
        );
        assert_eq!(
            pf.evaluate(&mut env, LsmOperation::FileOpen).verdict,
            Verdict::Allow,
            "a substrate without origin tracking never matches --origin"
        );
    }

    #[test]
    fn origin_fetch_failure_fails_closed_on_drop_rules() {
        let pf = ProcessFirewall::new(OptLevel::Full);
        let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
        env.origin = Some(pf_mac::ORIGIN_TRUSTED);
        env.fail_origin = true;
        install(
            &pf,
            &mut env,
            "pftables -o FILE_OPEN --origin tainted -j DROP",
        );
        let d = pf.evaluate(&mut env, LsmOperation::FileOpen);
        assert_eq!(
            d.verdict,
            Verdict::Deny,
            "a lost taint label must not silently allow"
        );
        assert!(d.degraded);
        assert_eq!(pf.metrics().degraded_drops(), 1);
    }

    #[test]
    fn taint_widening_invalidates_the_verdict_cache_exactly_once() {
        let pf = ProcessFirewall::new(OptLevel::Vcache);
        let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
        env.origin = Some(pf_mac::ORIGIN_TRUSTED);
        install(
            &pf,
            &mut env,
            "pftables -o FILE_OPEN --origin tainted -j DROP",
        );
        let mut session = TaskSession::new();
        // Warm the cache with a pre-taint allow.
        for _ in 0..2 {
            assert_eq!(
                session
                    .evaluate(&pf, &mut env, LsmOperation::FileOpen)
                    .verdict,
                Verdict::Allow
            );
        }
        assert_eq!(pf.metrics().vcache_hits(), 1);
        assert_eq!(session.vcache_len(), 1);
        assert_eq!(pf.metrics().origin_vcache_invalidations(), 0);
        // The subject gets compromised: the substrate raises its label
        // and records the widening in the MAC policy.
        let subject = env.subject;
        assert!(env.mac.taint_subject(subject));
        env.origin = Some(pf_mac::ORIGIN_TAINTED);
        let d = session.evaluate(&pf, &mut env, LsmOperation::FileOpen);
        assert_eq!(d.verdict, Verdict::Deny, "post-taint pivot is contained");
        assert_eq!(
            pf.metrics().origin_vcache_invalidations(),
            1,
            "the widening dropped the warm cache"
        );
        assert_eq!(pf.metrics().vcache_hits(), 1, "no stale hit was served");
        // Steady state after the widening: the cache re-warms and the
        // invalidation counter stays put (exact accounting — empty or
        // same-generation revalidations are not invalidations).
        session.evaluate(&pf, &mut env, LsmOperation::FileOpen);
        assert_eq!(pf.metrics().vcache_hits(), 2);
        assert_eq!(pf.metrics().origin_vcache_invalidations(), 1);
    }

    #[test]
    fn attribute_at_refuses_across_adversary_epochs() {
        let pf = ProcessFirewall::new(OptLevel::Full);
        let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
        install(&pf, &mut env, "pftables -o FILE_OPEN -d tmp_t -j DROP");
        let d = pf.evaluate(&mut env, LsmOperation::FileOpen);
        assert_eq!(d.verdict, Verdict::Deny);
        let epoch = env.mac.adversary_generation();
        assert_eq!(d.adv_generation, epoch);
        assert_eq!(
            pf.attribute_at(&d, epoch).as_deref(),
            Some("pftables -o FILE_OPEN -d tmp_t -j DROP")
        );
        // A widening between the walk and the resolution: the stored
        // index names a rule the pre-widening model selected, so the
        // epoch-checked resolution refuses rather than misattribute.
        let subject = env.subject;
        assert!(env.mac.taint_subject(subject));
        let now = env.mac.adversary_generation();
        assert_ne!(now, epoch);
        assert_eq!(pf.attribute_at(&d, now), None);
        // The snapshot-only resolution still works — the ruleset itself
        // did not change.
        assert!(pf.attribute(&d).is_some());
    }
}
