//! The decision-event tracing plane: lock-free per-shard event rings.
//!
//! Counters (`metrics.rs`) say *how often* the engine did something;
//! decision events say *what happened on one specific invocation* —
//! which snapshot generation decided it, what the verdict was, whether
//! the verdict cache or a throttle bucket was involved, and how long
//! the hook took. The rule-generation pipeline (Section 6.3 of the
//! paper) and runtime anomaly detection both consume this stream, so
//! it must be recordable at production rates without ever blocking the
//! hook path.
//!
//! # Design
//!
//! * **Per-shard, fixed-capacity rings.** [`EVENT_SHARDS`] rings of
//!   [`EVENT_RING_CAP`] slots each. Every [`crate::TaskSession`] is
//!   assigned one shard round-robin at construction (the one-shot
//!   `evaluate` path uses a per-thread shard the same way), so
//!   concurrent writers rarely share a cache line.
//! * **Lock-free writers, overwrite-oldest.** A writer claims a slot
//!   with one atomic fetch-add on the shard head and publishes the
//!   record through a per-slot seqlock (claim → write → publish, all
//!   wait-free). When the ring laps, the oldest records are simply
//!   overwritten; the always-on accounting makes the loss visible:
//!   after any quiescent drain, `emitted() == drained() + dropped()`
//!   holds *exactly*.
//! * **No torn events.** Slot payloads are arrays of relaxed
//!   `AtomicU64` words guarded by the slot's sequence number (acquire/
//!   release fences pair writer and reader); a drain that races a
//!   writer rejects the slot and counts it dropped rather than ever
//!   returning a half-written record.
//! * **Sampling is runtime state,** not snapshot state: changing the
//!   mode (`pftables -E always|1/N|errors-only|off`) is one atomic
//!   store — no reload, no generation bump. With sampling off the hook
//!   path pays exactly one relaxed load and a predicted branch.
//!
//! The drain side ([`EventPlane::drain`]) merges all shards into
//! emission-timestamp order: the globally monotonic sequence number is
//! claimed atomically at emit time, so the merged stream is totally
//! ordered and, per task, order-consistent with the virtual-clock `ts`
//! riding in each event (see `docs/CONCURRENCY.md`).

use std::fmt::Write as _;
use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use pf_types::LsmOperation;

/// Number of event rings; writers are spread across them round-robin.
pub const EVENT_SHARDS: usize = 8;

/// Slots per shard ring. With [`EVENT_SHARDS`] shards the plane holds
/// up to `EVENT_SHARDS * EVENT_RING_CAP` undrained events before the
/// overwrite-oldest policy starts dropping.
pub const EVENT_RING_CAP: usize = 1024;

/// Words of payload per slot (the packed [`DecisionEvent`] encoding).
const EVENT_WORDS: usize = 13;

/// Slot-seqlock sentinel: a writer is mid-publish.
const BUSY: u64 = u64::MAX;

/// How densely decision events are sampled.
///
/// Runtime state on the [`EventPlane`] — settable at any moment with
/// one atomic store (`pftables -E <mode>`), without a ruleset reload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplingMode {
    /// No decision events at all: the hook path pays one relaxed load.
    Off,
    /// Every invocation emits an event.
    Always,
    /// One invocation in `N` emits an event (ticket-counter sampling).
    OneIn(u32),
    /// Only denials, degraded decisions, and throttle rejections emit.
    ErrorsOnly,
}

impl SamplingMode {
    /// The `pftables -E` spelling of this mode.
    pub fn render(self) -> String {
        match self {
            SamplingMode::Off => "off".to_owned(),
            SamplingMode::Always => "always".to_owned(),
            SamplingMode::OneIn(n) => format!("1/{n}"),
            SamplingMode::ErrorsOnly => "errors-only".to_owned(),
        }
    }

    /// Parses a `pftables -E` mode argument (`off`, `always`,
    /// `errors-only`, or `1/N` with `N >= 1`).
    pub fn parse(tok: &str) -> Option<SamplingMode> {
        match tok {
            "off" => Some(SamplingMode::Off),
            "always" => Some(SamplingMode::Always),
            "errors-only" => Some(SamplingMode::ErrorsOnly),
            _ => {
                let n: u32 = tok.strip_prefix("1/")?.parse().ok()?;
                if n == 0 {
                    None
                } else if n == 1 {
                    Some(SamplingMode::Always)
                } else {
                    Some(SamplingMode::OneIn(n))
                }
            }
        }
    }

    fn pack(self) -> u64 {
        match self {
            SamplingMode::Off => 0,
            SamplingMode::Always => 1,
            SamplingMode::ErrorsOnly => 2,
            SamplingMode::OneIn(n) => 3 | ((n as u64) << 32),
        }
    }

    fn unpack(word: u64) -> SamplingMode {
        match word & 0xffff_ffff {
            1 => SamplingMode::Always,
            2 => SamplingMode::ErrorsOnly,
            3 => SamplingMode::OneIn((word >> 32) as u32),
            _ => SamplingMode::Off,
        }
    }
}

/// What kind of record an event is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// One hook evaluation's outcome.
    Decision,
    /// A batch control-plane edit (reload / restore) started.
    ReloadBegin,
    /// A control-plane edit published a new snapshot generation.
    ReloadCommit,
    /// A control-plane edit aborted; the previous snapshot stayed live.
    ReloadAbort,
}

impl EventKind {
    /// Stable lowercase name for JSONL export.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Decision => "decision",
            EventKind::ReloadBegin => "reload_begin",
            EventKind::ReloadCommit => "reload_commit",
            EventKind::ReloadAbort => "reload_abort",
        }
    }

    fn from_u8(v: u8) -> EventKind {
        match v {
            1 => EventKind::ReloadBegin,
            2 => EventKind::ReloadCommit,
            3 => EventKind::ReloadAbort,
            _ => EventKind::Decision,
        }
    }
}

/// The verdict an event records (`None` for control-plane events).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventVerdict {
    /// Not a decision event.
    None,
    /// An explicit ACCEPT.
    Allow,
    /// A DROP (including fail-closed and throttle denials).
    Deny,
    /// No terminal rule matched; the default policy allowed.
    DefaultAllow,
}

impl EventVerdict {
    /// Stable lowercase name for JSONL export.
    pub fn name(self) -> &'static str {
        match self {
            EventVerdict::None => "none",
            EventVerdict::Allow => "allow",
            EventVerdict::Deny => "deny",
            EventVerdict::DefaultAllow => "default_allow",
        }
    }

    fn from_u8(v: u8) -> EventVerdict {
        match v {
            1 => EventVerdict::Allow,
            2 => EventVerdict::Deny,
            3 => EventVerdict::DefaultAllow,
            _ => EventVerdict::None,
        }
    }
}

/// How the verdict cache participated in a decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VcacheOutcome {
    /// The cache was not consulted: not at a verdict-cache level, or
    /// the hook selected no rule, so there was no walk to stand in for.
    None,
    /// The verdict was served from the cache without a walk.
    Hit,
    /// A cache-eligible walk ran and populated an entry.
    Miss,
    /// The walk ran but its outcome was not cacheable (degraded, failed
    /// key fetch, or an impure rule on the path).
    Uncacheable,
}

impl VcacheOutcome {
    /// Stable lowercase name for JSONL export.
    pub fn name(self) -> &'static str {
        match self {
            VcacheOutcome::None => "none",
            VcacheOutcome::Hit => "hit",
            VcacheOutcome::Miss => "miss",
            VcacheOutcome::Uncacheable => "uncacheable",
        }
    }

    fn from_u8(v: u8) -> VcacheOutcome {
        match v {
            1 => VcacheOutcome::Hit,
            2 => VcacheOutcome::Miss,
            3 => VcacheOutcome::Uncacheable,
            _ => VcacheOutcome::None,
        }
    }
}

/// How RATELIMIT/QUOTA targets participated in a decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThrottleOutcome {
    /// No throttle rule fired on the walk.
    None,
    /// A throttle rule fired and granted (budget remained).
    Granted,
    /// A RATELIMIT bucket rejected the access.
    RateLimited,
    /// A QUOTA window rejected the access.
    QuotaExceeded,
}

impl ThrottleOutcome {
    /// Stable lowercase name for JSONL export.
    pub fn name(self) -> &'static str {
        match self {
            ThrottleOutcome::None => "none",
            ThrottleOutcome::Granted => "granted",
            ThrottleOutcome::RateLimited => "ratelimited",
            ThrottleOutcome::QuotaExceeded => "quota_exceeded",
        }
    }

    fn from_u8(v: u8) -> ThrottleOutcome {
        match v {
            1 => ThrottleOutcome::Granted,
            2 => ThrottleOutcome::RateLimited,
            3 => ThrottleOutcome::QuotaExceeded,
            _ => ThrottleOutcome::None,
        }
    }
}

/// One structured event: a hook decision or a control-plane action.
///
/// The record is a flat, fixed-size value (no heap fields) so it can
/// live in a lock-free ring slot and be emitted without allocating on
/// the hook path. Identifier fields are the raw numeric ids the engine
/// already holds (`SecId`, `ProgramId`); consumers with access to the
/// MAC policy / program interner resolve them to names offline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecisionEvent {
    /// Globally monotonic event id — the invocation id for decision
    /// events. Claimed atomically at emit, so sorting by `seq` yields
    /// the emission order across all shards.
    pub seq: u64,
    /// What kind of record this is.
    pub kind: EventKind,
    /// Virtual-clock timestamp (`EvalEnv::now()`); 0 for control-plane
    /// events, which have no evaluation environment.
    pub ts: u64,
    /// The snapshot generation that decided (or was published).
    pub generation: u64,
    /// The mediated operation (decision events only).
    pub op: LsmOperation,
    /// The calling process id (decision events only).
    pub pid: u32,
    /// The subject's raw MAC label id.
    pub subject: u32,
    /// The main program binary's intern id.
    pub program: u32,
    /// Entrypoint binary intern id (0 when the entrypoint was not
    /// collected this invocation).
    pub ept_prog: u32,
    /// Entrypoint relative program counter (0 when not collected).
    pub ept_pc: u64,
    /// The verdict.
    pub verdict: EventVerdict,
    /// Whether a context-fetch failure degraded the decision.
    pub degraded: bool,
    /// Verdict-cache participation.
    pub vcache: VcacheOutcome,
    /// Throttle-target participation.
    pub throttle: ThrottleOutcome,
    /// Rules traversed by this invocation's walk (0 on a vcache hit).
    pub hops: u32,
    /// Whether a TRACE rule armed per-hop tracing: the hop-by-hop chain
    /// path is then in the TRACE ring, correlated by `seq` (the
    /// `TraceEvent::invocation` field).
    pub trace_armed: bool,
    /// [`crate::Rule::key`] of the rule a denial is attributed to, or
    /// of the ACCEPT rule that ended the walk; 0 for a default allow,
    /// an ACCEPT served from the verdict cache, and control events.
    /// Resolve it against the live rule base: the key follows the rule
    /// wherever reloads move it.
    pub rule_key: u64,
    /// Whole-hook latency in nanoseconds (control events: the edit's
    /// duration).
    pub latency_ns: u64,
    /// Control-plane payload: the rule diff size of a commit (rules
    /// added + removed vs the previous snapshot).
    pub aux: u64,
    /// Control-plane payload: total rules after a commit.
    pub aux2: u64,
    /// Control-plane payload: nanoseconds the snapshot compile took
    /// (both dispatch tables + cacheability analysis)
    /// inside the commit; 0 when the edit touched no rules.
    pub aux3: u64,
}

impl DecisionEvent {
    /// A zeroed placeholder (ring-slot initial value).
    pub fn empty() -> DecisionEvent {
        DecisionEvent {
            seq: 0,
            kind: EventKind::Decision,
            ts: 0,
            generation: 0,
            op: LsmOperation::FileOpen,
            pid: 0,
            subject: 0,
            program: 0,
            ept_prog: 0,
            ept_pc: 0,
            verdict: EventVerdict::None,
            degraded: false,
            vcache: VcacheOutcome::None,
            throttle: ThrottleOutcome::None,
            hops: 0,
            trace_armed: false,
            rule_key: 0,
            latency_ns: 0,
            aux: 0,
            aux2: 0,
            aux3: 0,
        }
    }

    /// `true` for the outcomes `errors-only` sampling keeps: denials,
    /// degraded decisions, and throttle rejections.
    pub fn is_error(&self) -> bool {
        self.verdict == EventVerdict::Deny
            || self.degraded
            || matches!(
                self.throttle,
                ThrottleOutcome::RateLimited | ThrottleOutcome::QuotaExceeded
            )
    }

    fn encode(&self) -> [u64; EVENT_WORDS] {
        let kind = match self.kind {
            EventKind::Decision => 0u64,
            EventKind::ReloadBegin => 1,
            EventKind::ReloadCommit => 2,
            EventKind::ReloadAbort => 3,
        };
        let verdict = match self.verdict {
            EventVerdict::None => 0u64,
            EventVerdict::Allow => 1,
            EventVerdict::Deny => 2,
            EventVerdict::DefaultAllow => 3,
        };
        let vcache = match self.vcache {
            VcacheOutcome::None => 0u64,
            VcacheOutcome::Hit => 1,
            VcacheOutcome::Miss => 2,
            VcacheOutcome::Uncacheable => 3,
        };
        let throttle = match self.throttle {
            ThrottleOutcome::None => 0u64,
            ThrottleOutcome::Granted => 1,
            ThrottleOutcome::RateLimited => 2,
            ThrottleOutcome::QuotaExceeded => 3,
        };
        let flags = kind
            | (verdict << 4)
            | (vcache << 8)
            | (throttle << 12)
            | ((self.degraded as u64) << 16)
            | ((self.trace_armed as u64) << 17)
            | ((self.op as u64) << 24);
        [
            self.seq,
            self.ts,
            self.generation,
            flags,
            (self.subject as u64) | ((self.program as u64) << 32),
            (self.ept_prog as u64) | ((self.pid as u64) << 32),
            self.ept_pc,
            self.hops as u64,
            self.rule_key,
            self.latency_ns,
            self.aux,
            self.aux2,
            self.aux3,
        ]
    }

    fn decode(w: &[u64; EVENT_WORDS]) -> DecisionEvent {
        let flags = w[3];
        let op_idx = ((flags >> 24) & 0xff) as usize;
        DecisionEvent {
            seq: w[0],
            ts: w[1],
            generation: w[2],
            kind: EventKind::from_u8((flags & 0xf) as u8),
            verdict: EventVerdict::from_u8(((flags >> 4) & 0xf) as u8),
            vcache: VcacheOutcome::from_u8(((flags >> 8) & 0xf) as u8),
            throttle: ThrottleOutcome::from_u8(((flags >> 12) & 0xf) as u8),
            degraded: flags & (1 << 16) != 0,
            trace_armed: flags & (1 << 17) != 0,
            op: LsmOperation::ALL
                .get(op_idx)
                .copied()
                .unwrap_or(LsmOperation::FileOpen),
            subject: (w[4] & 0xffff_ffff) as u32,
            program: (w[4] >> 32) as u32,
            ept_prog: (w[5] & 0xffff_ffff) as u32,
            pid: (w[5] >> 32) as u32,
            ept_pc: w[6],
            hops: w[7] as u32,
            rule_key: w[8],
            latency_ns: w[9],
            aux: w[10],
            aux2: w[11],
            aux3: w[12],
        }
    }

    /// Renders the event as one JSONL line.
    ///
    /// Every value is numeric, boolean, or a static keyword — there is
    /// no user-controlled string in the record, so the line needs no
    /// escaping and always parses strictly (the label/name escaping
    /// audit for exporters lives with the strings, in `log.rs` and the
    /// engine's occupancy exporter).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256);
        let _ = write!(
            s,
            "{{\"kind\":\"{}\",\"seq\":{},\"ts\":{},\"gen\":{}",
            self.kind.name(),
            self.seq,
            self.ts,
            self.generation
        );
        match self.kind {
            EventKind::Decision => {
                let _ = write!(
                    s,
                    ",\"op\":\"{}\",\"pid\":{},\"subject\":{},\"program\":{},\
                     \"ept_prog\":{},\"ept_pc\":{},\"verdict\":\"{}\",\
                     \"degraded\":{},\"vcache\":\"{}\",\"throttle\":\"{}\",\
                     \"hops\":{},\"trace\":{},\"rule_key\":{},\"latency_ns\":{}}}",
                    self.op.name(),
                    self.pid,
                    self.subject,
                    self.program,
                    self.ept_prog,
                    self.ept_pc,
                    self.verdict.name(),
                    self.degraded,
                    self.vcache.name(),
                    self.throttle.name(),
                    self.hops,
                    self.trace_armed,
                    self.rule_key,
                    self.latency_ns
                );
            }
            _ => {
                let _ = write!(
                    s,
                    ",\"duration_ns\":{},\"rule_diff\":{},\"rule_count\":{},\
                     \"compile_ns\":{}}}",
                    self.latency_ns, self.aux, self.aux2, self.aux3
                );
            }
        }
        s
    }
}

/// One ring slot: a seqlock over an array of relaxed atomic words.
///
/// `seq == 0` means never written, `seq == pos + 1` means position
/// `pos`'s record is published, [`BUSY`] means a writer is mid-flight.
struct Slot {
    seq: AtomicU64,
    words: [AtomicU64; EVENT_WORDS],
}

impl Slot {
    fn new() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// One MPSC ring: lock-free writers, a mutex-serialized (cold-path)
/// drain cursor.
struct EventShard {
    /// Total records ever claimed in this shard (monotonic).
    head: AtomicU64,
    /// Next position the drain side will look at.
    tail: Mutex<u64>,
    slots: Box<[Slot]>,
}

impl EventShard {
    fn new() -> EventShard {
        EventShard {
            head: AtomicU64::new(0),
            tail: Mutex::new(0),
            slots: (0..EVENT_RING_CAP).map(|_| Slot::new()).collect(),
        }
    }

    fn lock_tail(&self) -> MutexGuard<'_, u64> {
        self.tail.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Writes one record. Wait-free: one fetch-add claims the slot, a
    /// swap marks it busy, and the payload is plain relaxed stores. A
    /// writer that finds its slot busy (another writer lapped the ring
    /// onto the same slot mid-publish) abandons the record — the drain
    /// side will account it as dropped.
    fn push(&self, ev: &DecisionEvent) {
        let pos = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(pos as usize) % EVENT_RING_CAP];
        if slot.seq.swap(BUSY, Ordering::Relaxed) == BUSY {
            // A lap collision: the prior claimant is still publishing.
            // Leave the slot to it; this record is lost (and will be
            // counted dropped when the drain reaches `pos`).
            return;
        }
        // The release fence orders the BUSY mark before the payload
        // stores for any reader that observes the payload (fence-to-
        // fence pairing with the drain side's acquire fence).
        fence(Ordering::Release);
        let words = ev.encode();
        for (w, v) in slot.words.iter().zip(words) {
            w.store(v, Ordering::Relaxed);
        }
        slot.seq.store(pos + 1, Ordering::Release);
    }

    /// Drains every published record past the cursor into `out`,
    /// returning the number of records lost since the previous drain
    /// (overwritten by the ring lapping, abandoned by a lap-colliding
    /// writer, or still mid-publish when the drain passed).
    fn drain_into(&self, out: &mut Vec<DecisionEvent>) -> u64 {
        let mut tail = self.lock_tail();
        let head = self.head.load(Ordering::Acquire);
        let lo = head.saturating_sub(EVENT_RING_CAP as u64).max(*tail);
        let mut dropped = lo - *tail;
        for pos in lo..head {
            let slot = &self.slots[(pos as usize) % EVENT_RING_CAP];
            if slot.seq.load(Ordering::Acquire) != pos + 1 {
                dropped += 1;
                continue;
            }
            let mut words = [0u64; EVENT_WORDS];
            for (v, w) in words.iter_mut().zip(slot.words.iter()) {
                *v = w.load(Ordering::Relaxed);
            }
            // Pairs with the writer's release fence: if the payload
            // loads saw any word of a newer write, the re-check below
            // is guaranteed to see its BUSY mark (or newer seq) and
            // reject the slot.
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != pos + 1 {
                dropped += 1;
                continue;
            }
            out.push(DecisionEvent::decode(&words));
        }
        *tail = head;
        dropped
    }
}

/// The hot-path sampling decision for one invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Gate {
    /// Do nothing (sampling off, or this invocation sampled out).
    Skip,
    /// Emit unconditionally.
    Emit,
    /// Time the invocation; emit only if the outcome is an error.
    ErrorsOnly,
}

impl Gate {
    /// Whether the invocation should be timed and assigned an id.
    #[inline]
    pub(crate) fn armed(self) -> bool {
        !matches!(self, Gate::Skip)
    }
}

/// The event plane: sampling state, the shard rings, and the always-on
/// accounting counters. One per [`crate::ProcessFirewall`].
pub struct EventPlane {
    shards: Box<[EventShard]>,
    /// Packed [`SamplingMode`].
    mode: AtomicU64,
    /// Ticket counter driving `1/N` sampling.
    ticket: AtomicU64,
    /// Next event id.
    seq: AtomicU64,
    emitted: AtomicU64,
    dropped: AtomicU64,
    drained: AtomicU64,
}

impl Default for EventPlane {
    fn default() -> Self {
        Self::new()
    }
}

impl EventPlane {
    /// Creates a plane with sampling off.
    pub fn new() -> EventPlane {
        EventPlane {
            shards: (0..EVENT_SHARDS).map(|_| EventShard::new()).collect(),
            mode: AtomicU64::new(SamplingMode::Off.pack()),
            ticket: AtomicU64::new(0),
            seq: AtomicU64::new(1),
            emitted: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            drained: AtomicU64::new(0),
        }
    }

    /// Sets the sampling mode — one atomic store, effective for the
    /// very next invocation on any thread, no reload required.
    pub fn set_sampling(&self, mode: SamplingMode) {
        self.mode.store(mode.pack(), Ordering::Relaxed);
    }

    /// The current sampling mode.
    pub fn sampling(&self) -> SamplingMode {
        SamplingMode::unpack(self.mode.load(Ordering::Relaxed))
    }

    /// The per-invocation sampling decision. With sampling off this is
    /// the entire event-plane cost on the hook path: one relaxed load
    /// and a predicted branch.
    #[inline]
    pub(crate) fn decision_gate(&self) -> Gate {
        let word = self.mode.load(Ordering::Relaxed);
        if word == 0 {
            return Gate::Skip;
        }
        match SamplingMode::unpack(word) {
            SamplingMode::Off => Gate::Skip,
            SamplingMode::Always => Gate::Emit,
            SamplingMode::ErrorsOnly => Gate::ErrorsOnly,
            SamplingMode::OneIn(n) => {
                if self
                    .ticket
                    .fetch_add(1, Ordering::Relaxed)
                    .is_multiple_of(n as u64)
                {
                    Gate::Emit
                } else {
                    Gate::Skip
                }
            }
        }
    }

    /// Claims the next event id (the invocation id stamped into TRACE
    /// records and the event itself).
    #[inline]
    pub(crate) fn claim_id(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Writes one event into `shard`'s ring. Wait-free; never blocks.
    pub(crate) fn emit(&self, shard: usize, ev: &DecisionEvent) {
        self.emitted.fetch_add(1, Ordering::Relaxed);
        self.shards[shard % EVENT_SHARDS].push(ev);
    }

    /// Emits a control-plane self-observability event (reload begin /
    /// commit / abort). Control events bypass the sampling gate except
    /// for `Off` — an admin watching the event stream always sees
    /// configuration churn, but a fully disabled plane stays silent.
    pub(crate) fn emit_control(
        &self,
        kind: EventKind,
        generation: u64,
        duration_ns: u64,
        rule_diff: u64,
        rule_count: u64,
        compile_ns: u64,
    ) {
        if self.mode.load(Ordering::Relaxed) == 0 {
            return;
        }
        let mut ev = DecisionEvent::empty();
        ev.seq = self.claim_id();
        ev.kind = kind;
        ev.generation = generation;
        ev.latency_ns = duration_ns;
        ev.aux = rule_diff;
        ev.aux2 = rule_count;
        ev.aux3 = compile_ns;
        self.emit(thread_shard(), &ev);
    }

    /// Drains every shard and merges the records into emission order
    /// (ascending `seq` — see the module docs for why this is the
    /// stream's timestamp order). Never blocks a writer: writers keep
    /// claiming slots while the drain walks; a record the drain loses
    /// the race for is counted dropped, never returned torn.
    pub fn drain(&self) -> Vec<DecisionEvent> {
        let mut out = Vec::new();
        let mut dropped = 0;
        for shard in self.shards.iter() {
            dropped += shard.drain_into(&mut out);
        }
        if dropped > 0 {
            self.dropped.fetch_add(dropped, Ordering::Relaxed);
        }
        self.drained.fetch_add(out.len() as u64, Ordering::Relaxed);
        out.sort_unstable_by_key(|e| e.seq);
        out
    }

    /// Total events written (sampled in) since construction.
    pub fn emitted(&self) -> u64 {
        self.emitted.load(Ordering::Relaxed)
    }

    /// Total events returned by [`EventPlane::drain`].
    pub fn drained(&self) -> u64 {
        self.drained.load(Ordering::Relaxed)
    }

    /// Total events lost: overwritten before a drain reached them,
    /// abandoned on a lap collision, or mid-publish when a drain
    /// passed. Always-on; after a quiescent final drain,
    /// `emitted() == drained() + dropped()` holds exactly.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// Round-robin shard assignment for task sessions ("one writer slot
/// per task session"): each new session gets the next shard.
pub(crate) fn session_shard() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed) % EVENT_SHARDS
}

/// Per-thread shard for the sessionless one-shot `evaluate` path and
/// control-plane events, assigned round-robin at first use.
pub(crate) fn thread_shard() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed) % EVENT_SHARDS;
    }
    SHARD.with(|s| *s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64) -> DecisionEvent {
        let mut e = DecisionEvent::empty();
        e.seq = seq;
        e.ts = seq * 10;
        e.kind = EventKind::Decision;
        e.op = LsmOperation::SocketBind;
        e.verdict = EventVerdict::Deny;
        e.degraded = seq.is_multiple_of(2);
        e.vcache = VcacheOutcome::Miss;
        e.throttle = ThrottleOutcome::RateLimited;
        e.pid = 7;
        e.subject = 3;
        e.program = 4;
        e.ept_prog = 5;
        e.ept_pc = 0x2d637;
        e.hops = 12;
        e.trace_armed = true;
        e.rule_key = 0x5eed;
        e.latency_ns = 480;
        e
    }

    #[test]
    fn encode_decode_round_trips() {
        for op in LsmOperation::ALL {
            let mut e = ev(42);
            e.op = op;
            assert_eq!(DecisionEvent::decode(&e.encode()), e, "{op:?}");
        }
        let mut c = DecisionEvent::empty();
        c.seq = 9;
        c.kind = EventKind::ReloadCommit;
        c.generation = 17;
        c.latency_ns = 12_000;
        c.aux = 3;
        c.aux2 = 1218;
        c.aux3 = 450_000;
        assert_eq!(DecisionEvent::decode(&c.encode()), c);
    }

    #[test]
    fn sampling_mode_parse_render_round_trips() {
        for m in [
            SamplingMode::Off,
            SamplingMode::Always,
            SamplingMode::ErrorsOnly,
            SamplingMode::OneIn(64),
        ] {
            assert_eq!(SamplingMode::parse(&m.render()), Some(m), "{m:?}");
            assert_eq!(SamplingMode::unpack(m.pack()), m, "{m:?}");
        }
        assert_eq!(SamplingMode::parse("1/1"), Some(SamplingMode::Always));
        assert_eq!(SamplingMode::parse("1/0"), None);
        assert_eq!(SamplingMode::parse("sometimes"), None);
        assert_eq!(SamplingMode::parse("1/"), None);
    }

    #[test]
    fn ring_drains_in_emission_order() {
        let plane = EventPlane::new();
        plane.set_sampling(SamplingMode::Always);
        // Spread across all shards out of order.
        for i in (1..=20u64).rev() {
            let mut e = DecisionEvent::empty();
            e.seq = i;
            plane.emit((i as usize) % EVENT_SHARDS, &e);
        }
        let drained = plane.drain();
        let seqs: Vec<u64> = drained.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (1..=20).collect::<Vec<u64>>());
        assert_eq!(plane.emitted(), 20);
        assert_eq!(plane.drained(), 20);
        assert_eq!(plane.dropped(), 0);
    }

    #[test]
    fn overwrite_oldest_accounts_every_record() {
        let plane = EventPlane::new();
        let extra = 100u64;
        let total = EVENT_RING_CAP as u64 + extra;
        // All into one shard so the ring laps.
        for i in 0..total {
            let mut e = DecisionEvent::empty();
            e.seq = i + 1;
            plane.emit(0, &e);
        }
        let drained = plane.drain();
        assert_eq!(drained.len(), EVENT_RING_CAP);
        // The oldest `extra` records were overwritten.
        assert_eq!(drained[0].seq, extra + 1);
        assert_eq!(plane.dropped(), extra);
        assert_eq!(plane.emitted(), plane.drained() + plane.dropped());
    }

    #[test]
    fn drain_is_incremental() {
        let plane = EventPlane::new();
        let mut e = DecisionEvent::empty();
        e.seq = 1;
        plane.emit(2, &e);
        assert_eq!(plane.drain().len(), 1);
        assert_eq!(plane.drain().len(), 0, "second drain sees nothing new");
        e.seq = 2;
        plane.emit(2, &e);
        assert_eq!(plane.drain().len(), 1);
        assert_eq!(plane.emitted(), plane.drained() + plane.dropped());
    }

    #[test]
    fn concurrent_writers_never_produce_torn_events() {
        use std::sync::Arc;
        let plane = Arc::new(EventPlane::new());
        let writers = 8;
        let per = 5_000u64;
        std::thread::scope(|s| {
            for w in 0..writers {
                let plane = Arc::clone(&plane);
                s.spawn(move || {
                    for i in 0..per {
                        let mut e = ev(plane.claim_id());
                        // A recognizable pattern a torn read would break.
                        e.ept_pc = 0x2d637;
                        e.latency_ns = 480;
                        e.pid = w as u32;
                        plane.emit(w, &e);
                        if i.is_multiple_of(64) {
                            std::thread::yield_now();
                        }
                    }
                });
            }
            let plane2 = Arc::clone(&plane);
            s.spawn(move || {
                for _ in 0..200 {
                    for got in plane2.drain() {
                        assert_eq!(got.ept_pc, 0x2d637, "torn event");
                        assert_eq!(got.latency_ns, 480, "torn event");
                    }
                    std::thread::yield_now();
                }
            });
        });
        let rest = plane.drain();
        for got in &rest {
            assert_eq!(got.ept_pc, 0x2d637);
        }
        assert_eq!(plane.emitted(), writers as u64 * per);
        assert_eq!(
            plane.emitted(),
            plane.drained() + plane.dropped(),
            "exact accounting after quiescence"
        );
    }

    #[test]
    fn decision_gate_follows_mode() {
        let plane = EventPlane::new();
        assert_eq!(plane.decision_gate(), Gate::Skip);
        plane.set_sampling(SamplingMode::Always);
        assert_eq!(plane.decision_gate(), Gate::Emit);
        plane.set_sampling(SamplingMode::ErrorsOnly);
        assert_eq!(plane.decision_gate(), Gate::ErrorsOnly);
        plane.set_sampling(SamplingMode::OneIn(4));
        let hits = (0..100)
            .filter(|_| plane.decision_gate() == Gate::Emit)
            .count();
        assert_eq!(hits, 25, "1-in-4 ticket sampling");
        plane.set_sampling(SamplingMode::Off);
        assert_eq!(plane.decision_gate(), Gate::Skip);
    }

    #[test]
    fn jsonl_lines_are_single_line_and_tagged() {
        let d = ev(5).to_json();
        assert_eq!(d.lines().count(), 1);
        assert!(d.starts_with("{\"kind\":\"decision\",\"seq\":5,"));
        assert!(d.contains("\"op\":\"SOCKET_BIND\""));
        assert!(d.contains("\"verdict\":\"deny\""));
        assert!(d.contains("\"throttle\":\"ratelimited\""));
        assert!(d.ends_with('}'));

        let mut c = DecisionEvent::empty();
        c.kind = EventKind::ReloadAbort;
        c.seq = 8;
        c.generation = 4;
        c.latency_ns = 99;
        let j = c.to_json();
        assert!(j.contains("\"kind\":\"reload_abort\""));
        assert!(j.contains("\"duration_ns\":99"));
        assert!(!j.contains("\"op\""), "control events omit decision fields");
    }

    #[test]
    fn control_events_respect_off() {
        let plane = EventPlane::new();
        plane.emit_control(EventKind::ReloadCommit, 1, 10, 0, 5, 0);
        assert_eq!(plane.emitted(), 0, "off: control events are silent");
        plane.set_sampling(SamplingMode::ErrorsOnly);
        plane.emit_control(EventKind::ReloadCommit, 2, 10, 1, 6, 800);
        assert_eq!(plane.emitted(), 1);
        let drained = plane.drain();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].kind, EventKind::ReloadCommit);
        assert_eq!(drained[0].generation, 2);
        assert_eq!(drained[0].aux2, 6);
        assert_eq!(drained[0].aux3, 800);
        assert!(drained[0].to_json().contains("\"compile_ns\":800"));
    }
}
