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
//! loss instead of unbounded memory growth.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

use pf_types::{Interner, LsmOperation, PfResult, Verdict};

use pf_mac::MacPolicy;

use crate::chain::ChainName;
use crate::compile::CompiledDispatch;
use crate::config::{OptLevel, PfConfig};
use crate::context::Packet;
use crate::env::{CtxError, EvalEnv, Fetched};
use crate::events::{
    self, DecisionEvent, EventKind, EventPlane, EventVerdict, Gate, SamplingMode, ThrottleOutcome,
    VcacheOutcome,
};
use crate::lang::{parse_command, Command, RuleOp};
use crate::log::{LogDrain, LogEntry, LogSink};
use crate::metrics::{prom_label_esc, Metrics, TraceEvent};
use crate::ratelimit::{ExceedPolicy, PerKey, ThrottleSlotState};
use crate::rule::{CtxPolicy, MatchModule, Rule, Target};
use crate::snapshot::{RulesetDraft, RulesetSnapshot, SharedRuleset};
use crate::value::ValueExpr;
use crate::vcache::{CacheEntry, VerdictCache, VerdictKey, VerdictKind};

/// The outcome of one firewall invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalDecision {
    /// Allow or deny.
    pub verdict: Verdict,
    /// For denies: the chain name and rule index that fired. Indices
    /// are only meaningful within the snapshot named by `generation`;
    /// use [`ProcessFirewall::attribute`] for a safe lazy resolution.
    pub dropped_by: Option<(String, usize)>,
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

/// One throttle rule's live bucket occupancy, as reported by
/// [`ProcessFirewall::throttle_occupancy`].
#[derive(Debug, Clone)]
pub struct ThrottleOccupancy {
    /// Chain the rule lives in.
    pub chain: String,
    /// Rule index within the chain.
    pub index: usize,
    /// The rule's target kind (`RATELIMIT` or `QUOTA`).
    pub kind: &'static str,
    /// The rule's original `pftables` text.
    pub text: String,
    /// Live per-key slot states — a racy-by-design snapshot; each slot
    /// is individually consistent (see
    /// [`crate::ratelimit::ThrottleCell::occupancy`]).
    pub slots: Vec<ThrottleSlotState>,
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
            RuleOp::InsertHead(chain) => draft.base.add(chain, parsed.rule, true),
            RuleOp::Append(chain) => draft.base.add(chain, parsed.rule, false),
            RuleOp::Delete(chain) => draft.base.delete(&chain, &parsed.rule.text)?,
        },
        Command::NewChain(chain) => draft.base.new_chain(chain)?,
        Command::Flush(Some(chain)) => draft.base.flush(&chain)?,
        Command::Flush(None) => draft.base.clear(),
        Command::DeleteChain(chain) => draft.base.delete_chain(&chain)?,
        Command::CtxDefault(chain, policy) => draft.base.set_ctx_default(chain, Some(policy)),
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

    /// Emits the commit-only self-observability event single-command
    /// management verbs share: generation, edit duration, rule diff vs
    /// the pre-edit snapshot, and post-edit rule count.
    fn note_commit(&self, span: Option<(Arc<RulesetSnapshot>, Instant)>, generation: u64) {
        if let Some((before, t0)) = span {
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
        if cmds.is_empty() {
            // Only `-E` directives (or nothing): no snapshot to build.
            for mode in sampling {
                self.events.set_sampling(mode);
            }
            return Ok(n);
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
        match self.shared.update(|d| {
            for cmd in cmds {
                apply_command(d, cmd)?;
            }
            Ok(())
        }) {
            Ok(((), generation)) => {
                for mode in sampling {
                    self.events.set_sampling(mode);
                }
                self.note_batch_commit(&before, t0, generation);
                Ok(n)
            }
            Err(e) => {
                self.note_batch_abort(&before, t0);
                Err(e)
            }
        }
    }

    /// Emits the commit event for a successful batch edit. Runs after
    /// any batched `-E` directives took effect, so a batch that *turns
    /// sampling on* records its own commit; the rule diff is computed
    /// only when the plane ends up armed.
    fn note_batch_commit(&self, before: &RulesetSnapshot, t0: Instant, generation: u64) {
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

    /// Emits the abort event for a failed batch edit: the published
    /// snapshot is untouched, so the event carries the *surviving*
    /// generation and rule count.
    fn note_batch_abort(&self, before: &RulesetSnapshot, t0: Instant) {
        self.events.emit_control(
            EventKind::ReloadAbort,
            before.generation(),
            t0.elapsed().as_nanos() as u64,
            0,
            before.len() as u64,
            0,
        );
    }

    /// `pftables-restore`: atomically **replaces** the whole rule base
    /// with the given lines, returning `(rules_applied, generation)`.
    ///
    /// The reload is linearizable: the new base is built on a private
    /// draft and published with one snapshot swap, so every in-flight
    /// invocation sees either the complete old ruleset or the complete
    /// new one (check [`EvalDecision::generation`]), and a parse or
    /// apply error leaves the published ruleset untouched.
    pub fn reload<'a>(
        &self,
        lines: impl IntoIterator<Item = &'a str>,
        mac: &mut MacPolicy,
        programs: &mut Interner,
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
        match self.shared.update(|d| {
            d.reset_base();
            for cmd in cmds {
                apply_command(d, cmd)?;
            }
            Ok(())
        }) {
            Ok(((), generation)) => {
                for mode in sampling {
                    self.events.set_sampling(mode);
                }
                self.note_batch_commit(&before, t0, generation);
                Ok((n, generation))
            }
            Err(e) => {
                self.note_batch_abort(&before, t0);
                Err(e)
            }
        }
    }

    /// Deletes the first rule in `chain` whose original text equals
    /// `text` (a new snapshot generation).
    pub fn delete_rule(&self, chain: &ChainName, text: &str) -> PfResult<()> {
        let span = self.control_span();
        let ((), generation) = self.shared.update(|d| d.base.delete(chain, text))?;
        self.note_commit(span, generation);
        Ok(())
    }

    /// Removes every installed rule, returning the new snapshot
    /// generation. On error the previous snapshot stays live.
    pub fn clear_rules(&self) -> PfResult<u64> {
        let span = self.control_span();
        let ((), generation) = self.shared.update(|d| {
            d.base.clear();
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

    /// Engine counters and histograms (the metrics registry).
    ///
    /// `stats()` is the historical name; [`ProcessFirewall::metrics`] is
    /// the same registry under its current one.
    pub fn stats(&self) -> &Metrics {
        &self.metrics
    }

    /// The metrics-and-tracing registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Drains the TRACE event ring, oldest first (see [`Target::Trace`]).
    pub fn drain_trace(&self) -> Vec<TraceEvent> {
        self.metrics.drain_trace()
    }

    /// Live bucket occupancy of every installed RATELIMIT/QUOTA rule:
    /// which keys hold slots, their token balance or window count, and
    /// whether the shared spill bucket is engaged. Each slot is read
    /// atomically but the walk is racy by design — it observes the
    /// buckets without serializing against consumers.
    pub fn throttle_occupancy(&self) -> Vec<ThrottleOccupancy> {
        let snap = self.base();
        let mut out = Vec::new();
        for (chain, rules) in snap.iter() {
            for (index, rule) in rules.iter().enumerate() {
                if !rule.target.is_throttle() {
                    continue;
                }
                if let Some(cell) = rule.throttle_cell() {
                    out.push(ThrottleOccupancy {
                        chain: chain.name(),
                        index,
                        kind: rule.target.kind_name(),
                        text: rule.text.clone(),
                        slots: cell.occupancy(),
                    });
                }
            }
        }
        out
    }

    /// Renders the firewall-wide Prometheus exposition: everything in
    /// [`Metrics::render_prometheus`] plus the decision-event plane
    /// counters, the bounded LOG sink accounting
    /// (`pf_logs_{emitted,drained,dropped}_total` and the
    /// `pf_logs_buffered`/`pf_logs_capacity` gauges), and live throttle
    /// bucket occupancy.
    ///
    /// Occupancy values are gauges: token balance for RATELIMIT rules,
    /// window grant count for QUOTA rules, keyed by
    /// `{chain,rule,kind,key,spill}`. Label values are escaped per the
    /// text exposition format.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = self.metrics.render_prometheus();
        let _ = writeln!(out, "pf_events_emitted_total {}", self.events.emitted());
        let _ = writeln!(out, "pf_events_drained_total {}", self.events.drained());
        let _ = writeln!(out, "pf_events_dropped_total {}", self.events.dropped());
        let _ = writeln!(out, "pf_logs_emitted_total {}", self.logs.emitted());
        let _ = writeln!(out, "pf_logs_drained_total {}", self.logs.drained());
        let _ = writeln!(out, "pf_logs_dropped_total {}", self.logs.dropped());
        let _ = writeln!(out, "pf_logs_buffered {}", self.logs.len());
        let _ = writeln!(out, "pf_logs_capacity {}", self.logs.capacity());
        out.push_str("pf_event_sampling_mode{mode=\"");
        prom_label_esc(&mut out, &self.events.sampling().render());
        out.push_str("\"} 1\n");
        for occ in self.throttle_occupancy() {
            for slot in &occ.slots {
                let value = if occ.kind == "RATELIMIT" {
                    slot.tokens()
                } else {
                    slot.count()
                };
                out.push_str("pf_throttle_occupancy{chain=\"");
                prom_label_esc(&mut out, &occ.chain);
                let _ = write!(
                    out,
                    "\",rule=\"{}\",kind=\"{}\",key=\"",
                    occ.index, occ.kind
                );
                let _ = write!(out, "{}", slot.key);
                let _ = writeln!(out, "\",spill=\"{}\"}} {value}", slot.spill);
            }
        }
        out
    }

    /// Renders the firewall-wide JSON snapshot: everything in
    /// [`Metrics::to_json`] plus an `events` object (plane counters and
    /// the active sampling mode), a `logs` object (bounded-sink
    /// accounting: emitted/drained/dropped/buffered/capacity), and a
    /// `throttle_occupancy` array with
    /// one entry per live bucket slot (`value` is the token balance for
    /// RATELIMIT rules, the window grant count for QUOTA rules).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = self.metrics.to_json();
        s.pop(); // reopen the metrics object to append firewall-level keys
        s.push_str(",\"events\":{\"emitted\":");
        let _ = write!(s, "{}", self.events.emitted());
        let _ = write!(s, ",\"drained\":{}", self.events.drained());
        let _ = write!(s, ",\"dropped\":{}", self.events.dropped());
        s.push_str(",\"sampling\":\"");
        crate::log::esc(&mut s, &self.events.sampling().render());
        s.push_str("\"},\"logs\":{");
        let _ = write!(
            s,
            "\"emitted\":{},\"drained\":{},\"dropped\":{},\"buffered\":{},\"capacity\":{}",
            self.logs.emitted(),
            self.logs.drained(),
            self.logs.dropped(),
            self.logs.len(),
            self.logs.capacity()
        );
        s.push_str("},\"throttle_occupancy\":[");
        let mut first = true;
        for occ in self.throttle_occupancy() {
            for slot in &occ.slots {
                if !first {
                    s.push(',');
                }
                first = false;
                let value = if occ.kind == "RATELIMIT" {
                    slot.tokens()
                } else {
                    slot.count()
                };
                s.push_str("{\"chain\":\"");
                crate::log::esc(&mut s, &occ.chain);
                s.push_str("\",\"rule\":");
                let _ = write!(s, "{}", occ.index);
                let _ = write!(s, ",\"kind\":\"{}\",\"text\":\"", occ.kind);
                crate::log::esc(&mut s, &occ.text);
                let _ = write!(
                    s,
                    "\",\"key\":{},\"tick\":{},\"value\":{value},\"spill\":{}}}",
                    slot.key, slot.tick, slot.spill
                );
            }
        }
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

    /// Drains accumulated LOG records, oldest first.
    pub fn take_logs(&self) -> Vec<LogEntry> {
        self.logs.take()
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

    /// Resolves a decision's `dropped_by` attribution to the original
    /// rule text — but only while the owning snapshot generation is
    /// still the published one. After a hot reload the stored index may
    /// point at a *different* rule in the newer snapshot, so a stale
    /// decision yields `None` rather than mis-attributing the deny.
    pub fn attribute(&self, decision: &EvalDecision) -> Option<String> {
        let (chain, index) = decision.dropped_by.as_ref()?;
        let snap = self.base();
        if snap.generation() != decision.generation {
            return None;
        }
        snap.rule_text(&ChainName::parse(chain), *index)
            .map(str::to_owned)
    }

    /// Like [`attribute`](Self::attribute), but additionally refuses
    /// when the decision predates the current *adversary-model*
    /// generation (`adv_generation` — pass
    /// `MacPolicy::adversary_generation()`). A taint widening between
    /// the walk and the resolution means the stored index names a rule
    /// the *pre*-widening adversary model selected; resolving it as if
    /// it were current would misattribute the deny.
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
            static ONE_SHOT_SCRATCH: RefCell<Vec<LogEntry>> = const { RefCell::new(Vec::new()) };
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
        scratch: &mut Vec<LogEntry>,
    ) -> EvalDecision {
        self.evaluate_cached(snap, env, op, scratch, None, events::thread_shard())
    }

    /// The backbone of every evaluate path: one invocation against an
    /// explicit snapshot, optionally consulting a per-task
    /// [`VerdictCache`] (the VCACHE rung; see `vcache.rs` for the
    /// soundness gates).
    pub(crate) fn evaluate_cached(
        &self,
        snap: &RulesetSnapshot,
        env: &mut dyn EvalEnv,
        op: LsmOperation,
        scratch: &mut Vec<LogEntry>,
        cache: Option<&mut VerdictCache>,
        shard: usize,
    ) -> EvalDecision {
        let config = snap.config();
        // One atomic load; also stamps every decision this invocation
        // produces so `attribute_at` can detect cross-widening holds.
        let adv_gen = env.adversary_generation();
        if !config.enabled {
            let mut d = EvalDecision::allow(snap.generation());
            d.adv_generation = adv_gen;
            return d;
        }
        self.metrics.bump_invocations();
        self.metrics.op_invoked(op);
        let t0 = self.metrics.timer();
        // Decision-event span: with sampling off this is one relaxed
        // load and no clock read; when the gate selects the invocation
        // it claims a globally ordered id and starts its own timer
        // (`t0` above is detail-layer-gated, so it can't be reused).
        let gate = self.events.decision_gate();
        let (event_id, ev_t0) = if gate.armed() {
            (self.events.claim_id(), Some(Instant::now()))
        } else {
            (0, None)
        };
        let mut vc_outcome = VcacheOutcome::None;
        // LOG rules run before the verdict is known; they buffer in the
        // invocation-local scratch so a later DROP can patch exactly
        // this invocation's records before they reach the shared sink.
        scratch.clear();
        let mut pkt = Packet::new(env, config);
        // VCACHE: consult the verdict cache before walking. Key fetches
        // go through the memoizing packet, so a miss's walk reuses them.
        let mut cache_ctx = None;
        if let Some(vc) = cache {
            if config.verdict_cache && !snap.is_empty() {
                // Adversary-model soundness: keys carry the object label,
                // not the `C_ADV_WRITE`/`C_ADV_READ` answers it stands
                // for. A taint widening (or a policy edit) changes those
                // answers without moving any key, so a stale generation
                // discards the whole cache before any lookup can replay
                // a pre-widening verdict.
                if vc.validate_adv_generation(adv_gen) {
                    self.metrics.bump_origin_vcache_invalidation();
                }
                // The snapshot's compile-time summary is the fast-path
                // filter: if any reachable rule is impure, no walk can
                // ever be cached, so skip the key build entirely — it
                // would eagerly unwind the entrypoint and fetch object
                // context that LAZYCON would otherwise defer.
                if !snap.statically_cacheable() {
                    self.metrics.bump_vcache_uncacheable(op);
                    vc_outcome = VcacheOutcome::Uncacheable;
                } else {
                    match VerdictKey::build(&mut pkt, op, snap.keys_resource(), &self.metrics) {
                        Some(key) => {
                            if let Some(entry) = vc.lookup(&key) {
                                self.metrics.bump_vcache_hit(op);
                                vc_outcome = VcacheOutcome::Hit;
                                // Hits bump the verdict counter the original
                                // walk would have, so the partition
                                // `drops + accepts + default_allows ==
                                // invocations` keeps holding.
                                match entry.kind {
                                    VerdictKind::Drop => self.metrics.bump_drops(),
                                    VerdictKind::Accept => self.metrics.bump_accepts(),
                                    VerdictKind::DefaultAllow => self.metrics.bump_default_allows(),
                                }
                                let decision = entry.decision.clone();
                                // A cacheable walk logs only its DROP line
                                // (LOG targets block caching, CTXFAIL
                                // implies degraded). Render it from this
                                // invocation: the entry may have been
                                // filled by another object of the class.
                                if entry.kind == VerdictKind::Drop {
                                    self.logs.push(log_entry(
                                        &mut pkt,
                                        op,
                                        "DROP",
                                        "DENY",
                                        &self.metrics,
                                    ));
                                }
                                self.metrics.observe_eval(t0);
                                let rk = event_rule_key(event_id, &decision, 0);
                                self.emit_decision_event(
                                    gate,
                                    shard,
                                    event_id,
                                    ev_t0,
                                    &mut pkt,
                                    op,
                                    &decision,
                                    entry.kind.into(),
                                    vc_outcome,
                                    ThrottleOutcome::None,
                                    0,
                                    rk,
                                );
                                return decision;
                            }
                            cache_ctx = Some((vc, key));
                        }
                        // A key field *failed* to fetch: the outcome is not
                        // attributable to key context — bypass the cache.
                        None => {
                            self.metrics.bump_vcache_uncacheable(op);
                            vc_outcome = VcacheOutcome::Uncacheable;
                        }
                    }
                }
            }
        }
        let mut inv = Invocation {
            snap,
            config,
            metrics: &self.metrics,
            logs: scratch,
            degraded: false,
            cache_track: cache_ctx.is_some(),
            cache_blocked: false,
            event_id,
            hops: 0,
            throttle: ThrottleOutcome::None,
            fired_rule: 0,
        };
        let run = inv.run(&mut pkt, op);
        let degraded = inv.degraded;
        let cache_blocked = inv.cache_blocked;
        let hops = inv.hops;
        let throttle = inv.throttle;
        let fired_rule = inv.fired_rule;
        let (mut decision, kind) = match run {
            Some(d) => {
                let kind = match d.verdict {
                    Verdict::Deny => VerdictKind::Drop,
                    Verdict::Allow => VerdictKind::Accept,
                };
                (d, kind)
            }
            None => {
                self.metrics.bump_default_allows();
                (
                    EvalDecision::allow(snap.generation()),
                    VerdictKind::DefaultAllow,
                )
            }
        };
        decision.adv_generation = adv_gen;
        decision.degraded |= degraded;
        if decision.degraded {
            match decision.verdict {
                Verdict::Deny => self.metrics.bump_degraded_drops(),
                Verdict::Allow => self.metrics.bump_degraded_allows(),
            }
        }
        if decision.verdict == Verdict::Deny {
            for entry in scratch.iter_mut() {
                if entry.verdict != "DENY" {
                    entry.verdict = "DENY".to_owned();
                }
            }
        }
        if let Some((vc, key)) = cache_ctx {
            if decision.degraded || cache_blocked {
                self.metrics.bump_vcache_uncacheable(op);
                vc_outcome = VcacheOutcome::Uncacheable;
            } else {
                self.metrics.bump_vcache_miss(op);
                vc_outcome = VcacheOutcome::Miss;
                vc.insert(
                    key,
                    CacheEntry {
                        decision: decision.clone(),
                        kind,
                    },
                );
            }
        }
        self.logs.append(scratch);
        self.metrics.observe_eval(t0);
        let rk = event_rule_key(event_id, &decision, fired_rule);
        let verdict = EventVerdict::from(kind);
        self.emit_decision_event(
            gate, shard, event_id, ev_t0, &mut pkt, op, &decision, verdict, vc_outcome, throttle,
            hops, rk,
        );
        decision
    }

    /// Builds and emits one [`DecisionEvent`] for a completed
    /// invocation. No-op unless the gate selected the invocation;
    /// under `errors-only` the fully built event is discarded when the
    /// outcome is clean (the id was already claimed, so `seq` gaps in
    /// drained output are expected in that mode).
    #[allow(clippy::too_many_arguments)]
    fn emit_decision_event(
        &self,
        gate: Gate,
        shard: usize,
        seq: u64,
        t0: Option<Instant>,
        pkt: &mut Packet<'_>,
        op: LsmOperation,
        decision: &EvalDecision,
        verdict: EventVerdict,
        vcache: VcacheOutcome,
        throttle: ThrottleOutcome,
        hops: u32,
        rule_key: u64,
    ) {
        if !gate.armed() {
            return;
        }
        let mut ev = DecisionEvent::empty();
        ev.seq = seq;
        ev.kind = EventKind::Decision;
        ev.generation = decision.generation;
        ev.op = op;
        ev.verdict = verdict;
        ev.degraded = decision.degraded;
        ev.vcache = vcache;
        ev.throttle = throttle;
        ev.hops = hops;
        ev.rule_key = rule_key;
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
        if let Some(t0) = t0 {
            ev.latency_ns = t0.elapsed().as_nanos() as u64;
        }
        if gate == Gate::ErrorsOnly && !ev.is_error() {
            return;
        }
        self.events.emit(shard, &ev);
    }
}

/// The [`events::rule_key`] a sampled decision event reports: the
/// denying rule, else `fired` (the ACCEPT rule that ended the walk, or
/// 0). Unsampled invocations (`event_id == 0`) skip the hash.
fn event_rule_key(event_id: u64, decision: &EvalDecision, fired: u64) -> u64 {
    if event_id == 0 {
        return 0;
    }
    decision
        .dropped_by
        .as_ref()
        .map_or(fired, |(c, i)| events::rule_key(c, *i))
}

/// One invocation's traversal state: the pinned snapshot, the engine's
/// shared metrics, and the invocation-local LOG buffer. Everything
/// mutable is owned by this (stack-allocated) value, which is what
/// makes the hook re-entrant.
struct Invocation<'a> {
    snap: &'a RulesetSnapshot,
    config: PfConfig,
    metrics: &'a Metrics,
    logs: &'a mut Vec<LogEntry>,
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
    /// Decision-event id claimed for this invocation, or 0 when the
    /// sampling gate did not select it. Stamped into TRACE hops so the
    /// per-hop chain path joins back to its decision event.
    event_id: u64,
    /// Rules traversed by this walk (every chain, jumps included).
    hops: u32,
    /// The invocation's throttle outcome: `Granted` once any throttle
    /// rule admits the access, upgraded to `RateLimited`/`QuotaExceeded`
    /// if one rejects it (rejections are terminal for the walk, so the
    /// last write wins correctly).
    throttle: ThrottleOutcome,
    /// [`events::rule_key`] of the ACCEPT rule that ended the walk, if
    /// any; denials are attributed via `dropped_by` instead. Only
    /// computed when `event_id != 0`.
    fired_rule: u64,
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
    /// The chain walk: `Some(decision)` on an explicit verdict, `None`
    /// when every rule fell through to the default-ALLOW policy.
    fn run(&mut self, pkt: &mut Packet<'_>, op: LsmOperation) -> Option<EvalDecision> {
        let snap = self.snap;
        // The naive design "simply fetches all process and resource
        // contexts and then matches them against each invariant"
        // (Section 4.2) — with no invariants installed there is nothing
        // to match, so even the unoptimized path skips collection.
        if !self.config.lazy_context && !snap.is_empty() {
            pkt.fetch_all(self.metrics);
        }
        let start = if op == LsmOperation::SyscallBegin {
            ChainName::SyscallBegin
        } else {
            ChainName::Input
        };
        if start == ChainName::Input && self.config.compiled_dispatch && !snap.is_empty() {
            self.run_input_dispatch(snap.input_dispatch(), true, pkt, op)
        } else if self.config.entrypoint_chains && start == ChainName::Input {
            self.run_input_dispatch(snap.input_ept_dispatch(), false, pkt, op)
        } else {
            self.run_chain(&start, pkt, op, 0)
        }
    }

    /// The one indexed walk of the input chain, over either compiled
    /// table: the three-axis one at RULESETC (`rulesetc` set, which
    /// also gates the `rulesetc_*` counters) or the entrypoint-only one
    /// at EPTSPC. Only the buckets whose indexed selectors could accept
    /// this invocation are consulted, merged back into install order
    /// (see `compile.rs` for the soundness argument).
    ///
    /// Fetch failures never consult a concrete bucket. A failed
    /// entrypoint unwind degrades to the full-chain walk, so every
    /// bound rule's `--ctx-missing` policy gets its say. A failed
    /// object fetch (only the three-axis table has label buckets)
    /// re-runs on the entrypoint-only table: the label axis is dropped
    /// and the rules that need the label arbitrate through
    /// `--ctx-missing` as usual.
    fn run_input_dispatch(
        &mut self,
        dispatch: &'a CompiledDispatch,
        rulesetc: bool,
        pkt: &mut Packet<'_>,
        op: LsmOperation,
    ) -> Option<EvalDecision> {
        let input = self.snap.chain(&ChainName::Input);
        // Each constrained axis is resolved *before* traversal:
        // interleaved ACCEPT/RETURN/LOG/STATE rules make relative order
        // verdict-relevant, so the applicable buckets must be known up
        // front to merge them. Unconstrained axes skip the fetch — and
        // its failure modes — entirely.
        let ept = if dispatch.has_ept_buckets() {
            match pkt.entrypoint_value(self.metrics) {
                Fetched::Value(ept) => Some(ept),
                // Benign absence (e.g. a sanitized malformed stack,
                // Section 4.4): only entrypoint-wildcard buckets apply.
                Fetched::Missing => None,
                Fetched::Failed(_) => {
                    // Without a trusted entrypoint no bucket can be
                    // excluded: walk the whole chain in install order.
                    self.degraded = true;
                    if rulesetc {
                        self.metrics.bump_rulesetc_fallback();
                    }
                    return self.run_seq(&ChainName::Input, input.iter().enumerate(), pkt, op, 0);
                }
            }
        } else {
            None
        };
        let label = if dispatch.has_label_buckets() {
            match pkt.object_sid_value(self.metrics) {
                Fetched::Value(sid) => Some(sid),
                // No object, no label: only label-wildcard buckets
                // apply (a positive `-d` set cannot match, exactly the
                // selector's own Missing → NoMatch semantics).
                Fetched::Missing => None,
                Fetched::Failed(_) => {
                    // The entrypoint-only table re-reads the memoized
                    // unwind. Not `degraded` by itself.
                    self.metrics.bump_rulesetc_fallback();
                    let eptspc = self.snap.input_ept_dispatch();
                    return self.run_input_dispatch(eptspc, false, pkt, op);
                }
            }
        } else {
            None
        };
        if rulesetc {
            self.metrics.bump_rulesetc_dispatch();
        }
        let merged = dispatch.select(op, label, ept).map(|i| (i, &input[i]));
        self.run_seq(&ChainName::Input, merged, pkt, op, 0)
    }

    /// The decision for a deny attributed to `chain[index]`.
    fn deny(&self, chain: &ChainName, index: usize, degraded: bool) -> EvalDecision {
        EvalDecision {
            verdict: Verdict::Deny,
            dropped_by: Some((chain.name(), index)),
            generation: self.snap.generation(),
            degraded,
            adv_generation: 0,
        }
    }

    fn run_chain(
        &mut self,
        chain: &ChainName,
        pkt: &mut Packet<'_>,
        op: LsmOperation,
        depth: u32,
    ) -> Option<EvalDecision> {
        let rules = self.snap.chain(chain);
        self.run_seq(chain, rules.iter().enumerate(), pkt, op, depth)
    }

    fn run_seq(
        &mut self,
        chain: &ChainName,
        rules: impl Iterator<Item = (usize, &'a Rule)>,
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
            self.metrics.bump_rules();
            self.metrics.rule_evaluated(chain, index);
            let eval = self.rule_matches(rule, pkt, op, chain);
            let fired = !matches!(eval, RuleEval::NoMatch);
            if fired {
                rule.bump_hits();
                self.metrics.rule_hit(chain, index);
                if matches!(rule.target, Target::Trace) && matches!(eval, RuleEval::Match) {
                    pkt.start_trace();
                }
            }
            // Once tracing is armed, every traversed rule (matched or
            // not) emits an event — including the TRACE rule itself.
            if let Some(clock) = pkt.trace_clock() {
                self.metrics.push_trace(TraceEvent {
                    chain: chain.name(),
                    rule_index: index,
                    matched: fired,
                    target: rule.target.kind_name(),
                    elapsed_ns: clock.elapsed().as_nanos() as u64,
                    degraded: self.degraded,
                    invocation: self.event_id,
                    gap: false,
                });
            }
            match eval {
                RuleEval::NoMatch => continue,
                RuleEval::FailDrop => {
                    // Fail closed: a selector's context fetch failed and
                    // the governing policy is `drop`. The deny is
                    // attributed to this rule and flagged degraded.
                    self.metrics.bump_drops();
                    self.emit_log(pkt, op, "CTXFAIL", "DENY");
                    return Some(self.deny(chain, index, true));
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
                    self.metrics.bump_drops();
                    self.emit_log(pkt, op, "DROP", "DENY");
                    return Some(self.deny(chain, index, self.degraded));
                }
                Target::Accept => {
                    self.metrics.bump_accepts();
                    if self.event_id != 0 {
                        // `as_str` avoids the `name()` allocation; only
                        // sampled invocations pay even the hash.
                        self.fired_rule = events::rule_key(chain.as_str(), index);
                    }
                    return Some(EvalDecision::allow(self.snap.generation()));
                }
                Target::Continue => {}
                Target::Return => return None,
                Target::Jump(name) => {
                    if depth < MAX_DEPTH {
                        let sub = ChainName::parse(name);
                        if let Some(d) = self.run_chain(&sub, pkt, op, depth + 1) {
                            return Some(d);
                        }
                    } else {
                        // The target chain never got its say: surface
                        // the truncation instead of silently pretending
                        // the traversal was complete.
                        self.metrics.bump_jump_depth_exceeded();
                        self.degraded = true;
                        self.emit_log(pkt, op, "JUMPDEPTH", "ALLOW");
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
                Target::Log { tag } => self.emit_log(pkt, op, tag, "ALLOW"),
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
        rule: &Rule,
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
                        self.metrics.bump_drops();
                        self.emit_log(pkt, op, "CTXFAIL", "DENY");
                        Some(self.deny(chain, index, true))
                    }
                    // Explicit opt-out (`--ctx-missing skip`): the rule
                    // stands aside, but never silently — the decision
                    // is already marked degraded and the lapse logged.
                    CtxPolicy::Skip => {
                        self.emit_log(pkt, op, "CTXFAIL", "ALLOW");
                        None
                    }
                    // `match`: treat the unaccountable access as over
                    // budget and let the exceed policy arbitrate.
                    CtxPolicy::Match => self.throttle_exceeded(rule, chain, index, pkt, op, exceed),
                };
            }
            (key, now) => (key.ok().unwrap_or(0), now.ok().unwrap_or(0)),
        };
        let granted = match (&rule.target, rule.throttle_cell()) {
            (Target::RateLimit { rate, burst, .. }, Some(cell)) => {
                cell.rate_consume(key, now, *rate, *burst)
            }
            (Target::Quota { limit, window, .. }, Some(cell)) => {
                cell.quota_consume(key, now, *limit, *window)
            }
            _ => return None,
        };
        if granted {
            if self.throttle == ThrottleOutcome::None {
                self.throttle = ThrottleOutcome::Granted;
            }
            return None;
        }
        match &rule.target {
            Target::RateLimit { .. } => self.metrics.bump_ratelimit_throttled(op, chain, index),
            Target::Quota { .. } => self.metrics.bump_quota_exceeded(op, chain, index),
            _ => {}
        }
        self.throttle_exceeded(rule, chain, index, pkt, op, exceed)
    }

    /// Applies a throttle target's `--exceed` policy to an over-budget
    /// (or unaccountable, under `--ctx-missing match`) access.
    fn throttle_exceeded(
        &mut self,
        rule: &Rule,
        chain: &ChainName,
        index: usize,
        pkt: &mut Packet<'_>,
        op: LsmOperation,
        exceed: ExceedPolicy,
    ) -> Option<EvalDecision> {
        let tag = rule.target.kind_name();
        // Over budget (or unaccountable under `--ctx-missing match`):
        // record which flavour rejected, whatever the exceed policy.
        self.throttle = match &rule.target {
            Target::RateLimit { .. } => ThrottleOutcome::RateLimited,
            _ => ThrottleOutcome::QuotaExceeded,
        };
        match exceed {
            ExceedPolicy::Drop => {
                self.metrics.bump_drops();
                self.emit_log(pkt, op, tag, "DENY");
                Some(self.deny(chain, index, self.degraded))
            }
            ExceedPolicy::Log => {
                self.emit_log(pkt, op, tag, "ALLOW");
                None
            }
            ExceedPolicy::Degrade => {
                self.degraded = true;
                self.emit_log(pkt, op, tag, "ALLOW");
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

    fn emit_log(&mut self, pkt: &mut Packet<'_>, op: LsmOperation, tag: &str, verdict: &str) {
        let entry = log_entry(pkt, op, tag, verdict, self.metrics);
        self.logs.push(entry);
    }
}

/// Renders the LOG record for the invocation `pkt` carries. Shared by
/// the walk's LOG/DROP targets and the VCACHE hit path, so a cached
/// denial's record names its own access (entrypoint, object, resource).
fn log_entry(
    pkt: &mut Packet<'_>,
    op: LsmOperation,
    tag: &str,
    verdict: &str,
    metrics: &Metrics,
) -> LogEntry {
    let ept = pkt.entrypoint_value(metrics).ok();
    let adv_write = pkt.adv_write_value(metrics).ok().unwrap_or(false);
    let adv_read = pkt.adv_read_value(metrics).ok().unwrap_or(false);
    let env = pkt.env_ref();
    let mac = env.mac();
    let object = env.object();
    LogEntry {
        ts: env.now(),
        pid: env.pid().0,
        subject: mac.label_name(env.subject_sid()).to_owned(),
        program: env.program_name(env.program()),
        ept_prog: ept.map(|(p, _)| env.program_name(p)).unwrap_or_default(),
        ept_pc: ept.map(|(_, pc)| pc).unwrap_or(0),
        op,
        object: object
            .map(|o| mac.label_name(o.sid).to_owned())
            .unwrap_or_default(),
        resource: object.map(|o| o.resource.to_string()).unwrap_or_default(),
        adv_write,
        adv_read,
        tag: tag.to_owned(),
        verdict: verdict.to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{ObjectInfo, SignalInfo};
    use crate::lang::parse_rule;
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
        fn program_name(&self, id: ProgramId) -> String {
            self.programs.resolve(id).to_owned()
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
        assert_eq!(pf.stats().invocations(), 0);
    }

    #[test]
    fn label_match_drops_and_reports_rule() {
        let pf = ProcessFirewall::new(OptLevel::Full);
        let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
        install(&pf, &mut env, "pftables -o FILE_OPEN -d tmp_t -j DROP");
        let d = pf.evaluate(&mut env, LsmOperation::FileOpen);
        assert_eq!(d.verdict, Verdict::Deny);
        assert_eq!(d.dropped_by, Some(("input".into(), 0)));
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
        assert_eq!(d2.dropped_by.unwrap().0, "signal_chain");
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
        assert_eq!(pf.stats().accepts(), 1);
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
        let logs = pf.take_logs();
        assert_eq!(logs.len(), 1);
        assert_eq!(logs[0].object, "tmp_t");
        assert_eq!(logs[0].ept_pc, 0x100);
        assert!(logs[0].adv_write);
        assert_eq!(logs[0].tag, "trace");
        assert_eq!(pf.log_count(), 0, "take_logs drains");
    }

    #[test]
    fn drops_are_logged_as_denials() {
        let pf = ProcessFirewall::new(OptLevel::Full);
        let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
        install(&pf, &mut env, "pftables -o FILE_OPEN -d tmp_t -j DROP");
        pf.evaluate(&mut env, LsmOperation::FileOpen);
        let logs = pf.take_logs();
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
        assert!(pf.stats().cache_hits() >= 2);
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
        let full_rules = pf_full.stats().rules_evaluated();
        let pf_ept = mk(OptLevel::EptSpc, &mut env);
        pf_ept.evaluate(&mut env, LsmOperation::FileOpen);
        let ept_rules = pf_ept.stats().rules_evaluated();
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
        assert_eq!(d.dropped_by, Some(("input".into(), 1)));
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
        assert_eq!(d.dropped_by, Some(("input".into(), 1)));
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
        let logs = pf.take_logs();
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
        assert!(
            pf.metrics().chain_snapshot(&ChainName::Input).is_none(),
            "per-rule counters stay off by default"
        );
        pf.metrics().set_detailed(true);
        pf.evaluate(&mut env, LsmOperation::FileOpen);
        let snap = pf.metrics().chain_snapshot(&ChainName::Input).unwrap();
        assert_eq!(snap.evaluated, [1, 1], "both rules were scanned once");
        assert_eq!(snap.hits, [0, 1], "only the FILE_OPEN rule fired");
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
            assert_eq!(d.dropped_by, Some(("input".into(), 0)));
            assert_eq!(pf.metrics().degraded_drops(), 1);
            assert_eq!(pf.metrics().degraded_allows(), 0);
            assert_eq!(
                pf.metrics()
                    .field_failures(crate::context::CtxField::Entrypoint),
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
                .field_failures(crate::context::CtxField::ObjectSid)
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
        assert_eq!(d.dropped_by, Some(("input".into(), 2)));
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
        assert_eq!(pf.take_logs().len(), 2);
        assert_eq!(pf.log_count(), 0);
    }

    // --- generation-checked attribution (satellite 3) ---

    #[test]
    fn attribution_is_generation_checked_across_reloads() {
        let pf = ProcessFirewall::new(OptLevel::Full);
        let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
        let rule = "pftables -o FILE_OPEN -d tmp_t -j DROP";
        install(&pf, &mut env, rule);
        let d = pf.evaluate(&mut env, LsmOperation::FileOpen);
        assert_eq!(d.verdict, Verdict::Deny);
        assert_eq!(pf.attribute(&d).as_deref(), Some(rule));

        // A reload shifts the rule to index 1: the stale decision's
        // (generation, index) pair must not resolve against the new
        // snapshot, where index 0 now names a different rule.
        pf.reload(
            ["pftables -o FILE_WRITE -j DROP", rule],
            &mut env.mac,
            &mut env.programs,
        )
        .unwrap();
        assert_eq!(pf.attribute(&d), None, "stale generation never resolves");

        let d2 = pf.evaluate(&mut env, LsmOperation::FileOpen);
        assert_eq!(d2.dropped_by, Some(("input".into(), 1)));
        assert_eq!(pf.attribute(&d2).as_deref(), Some(rule));
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
        let logs = pf.take_logs();
        assert_eq!(logs.len(), 1);
        assert_eq!(logs[0].tag, "JUMPDEPTH");
        assert_eq!(pf.metrics().degraded_allows(), 1);
    }

    // --- the VCACHE verdict cache ---

    #[test]
    fn vcache_hits_preserve_verdicts_counters_and_deny_logs() {
        let pf = ProcessFirewall::new(OptLevel::Vcache);
        let mut env = MockEnv::new().with_object("tmp_t", 5, 1000);
        install(&pf, &mut env, "pftables -o FILE_OPEN -d tmp_t -j DROP");
        let mut session = TaskSession::new();
        let d1 = session.evaluate(&pf, &mut env, LsmOperation::FileOpen);
        assert_eq!(d1.verdict, Verdict::Deny);
        assert_eq!(pf.metrics().vcache_misses(), 1);
        assert_eq!(session.vcache_len(), 1);
        let rules_after_miss = pf.metrics().rules_evaluated();
        let d2 = session.evaluate(&pf, &mut env, LsmOperation::FileOpen);
        assert_eq!(d2, d1, "cached decision is identical");
        assert_eq!(pf.metrics().vcache_hits(), 1);
        assert_eq!(
            pf.metrics().rules_evaluated(),
            rules_after_miss,
            "a hit walks no rules"
        );
        // The hit renders the deny log from the live invocation: both
        // invocations are audited.
        let logs = pf.take_logs();
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
        assert_eq!(d.dropped_by, Some(("input".into(), 0)));
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
