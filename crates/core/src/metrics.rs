//! The metrics-and-tracing registry for the firewall engine.
//!
//! [`Metrics`] holds the engine's counters and the detail layer the
//! evaluation experiments need:
//!
//! * the **counter table**: every counter is one row of the
//!   `counter_table!` invocation below — a snake name, a one-line help
//!   string, a label kind (none, per-[`LsmOperation`] or
//!   per-[`CtxField`]) and a layer. The rows expand into the [`Counter`],
//!   [`OpCounter`] and [`FieldCounter`] slot enums, the named accessors,
//!   and the descriptors that `reset`, the Prometheus and JSON exporters
//!   and the `name value` summary all walk, so no exporter names a
//!   counter itself;
//! * log-linear latency histograms (nanosecond buckets, power-of-two
//!   octaves split four ways) for whole-hook evaluation and for context
//!   fetches;
//! * the TRACE target's bounded hop ring.
//!
//! The registry is **thread-safe**: the firewall hook runs re-entrantly
//! from many tasks at once (the paper's LSM hooks run with interrupts
//! enabled), so every counter is a relaxed atomic in a fixed slot and
//! the latency histograms are *sharded* — each recording thread owns one
//! shard of atomic buckets, and [`Metrics::eval_latency`]/
//! [`Metrics::fetch_latency`] merge the shards into one summary
//! histogram on export. The TRACE ring is a [`BoundedRing`] of fixed
//! hops, rendered into [`TraceEvent`]s by [`Metrics::drain_trace`].
//!
//! Per-rule counters are not here: each [`crate::rule::Rule`] carries
//! its own `evaluated`/`hits`/`throttled` tallies, so they follow the
//! rule across reloads, and the firewall-level exporters
//! (`ProcessFirewall::render_prometheus`/`to_json`) render them from the
//! live snapshot.
//!
//! The detail layer is gated by [`Metrics::set_detailed`]: with
//! recording off (the default) every detail hook is a no-op and no
//! clock is read, which is the baseline the `metrics_overhead` bench
//! compares against. The engine reads the same switch to decide whether
//! a scanned rule counts in its `evaluated`. The totals and the per-field failure counts are
//! always on: they define engine semantics that tests assert (the
//! verdict partition `drops + accepts + default_allows == invocations`)
//! or are security signals — a failed fetch, a truncated traversal, a
//! throttled flood, a taint widening — that must not depend on a
//! profiling switch. The per-operation splits and the per-field
//! fetch/hit/miss counts ride in the detail layer.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use pf_types::LsmOperation;

use crate::chain::ChainName;
use crate::context::CtxField;
use crate::log::esc;
use crate::ring::BoundedRing;

/// Capacity of the TRACE ring; older hops are dropped (and counted)
/// once the ring is full.
pub const TRACE_RING_CAP: usize = 4096;

const NUM_OPS: usize = LsmOperation::ALL.len();
const NUM_FIELDS: usize = CtxField::ALL.len();

/// Number of shards in a [`ShardedHistogram`]. Recording threads are
/// assigned shards round-robin, so up to this many threads record
/// without sharing a cache line of buckets.
pub const HISTOGRAM_SHARDS: usize = 8;

/// The shard this thread records latency samples into.
fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed) % HISTOGRAM_SHARDS;
    }
    SHARD.with(|s| *s)
}

/// Escapes a Prometheus label value per the text exposition format:
/// backslash, double quote, and line feed get a backslash escape;
/// everything else passes through. Applied to every label whose value
/// is not a fixed internal string — chain names and rule text are
/// free-form `pftables` tokens and may contain all three.
pub(crate) fn prom_label_esc(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// One structured TRACE event: a rule traversed after a TRACE target
/// fired in the same invocation (mirroring iptables' TRACE semantics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Chain the rule lives in.
    pub chain: String,
    /// Rule index within the chain (or the entrypoint partition).
    pub rule_index: usize,
    /// Whether the rule's matches all passed.
    pub matched: bool,
    /// The rule's target kind (`DROP`, `ACCEPT`, `TRACE`, …).
    pub target: &'static str,
    /// Nanoseconds since the TRACE target fired.
    pub elapsed_ns: u64,
    /// Whether the invocation was already running degraded (a context
    /// fetch had failed) when this rule was traversed.
    pub degraded: bool,
    /// Decision-event id of the invocation this hop belongs to (the
    /// [`crate::events::DecisionEvent::seq`] the span was claimed
    /// under), or 0 when decision-event sampling did not select the
    /// invocation. Joins TRACE hops to their decision event.
    pub invocation: u64,
    /// Overflow gap marker: `true` on the first event drained after the
    /// ring dropped one or more older events, i.e. "hops are missing
    /// immediately before this one". Stamped by
    /// [`Metrics::drain_trace`], never by the writer.
    pub gap: bool,
}

impl TraceEvent {
    /// Renders the event as a single-line JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        s.push_str("{\"chain\":\"");
        esc(&mut s, &self.chain);
        let _ = write!(
            s,
            "\",\"rule\":{},\"matched\":{},\"target\":\"{}\",\"elapsed_ns\":{},\"degraded\":{},\
             \"invocation\":{},\"gap\":{}}}",
            self.rule_index,
            self.matched,
            self.target,
            self.elapsed_ns,
            self.degraded,
            self.invocation,
            self.gap
        );
        s
    }
}

/// One TRACE hop as the walk captures it; rendered into a
/// [`TraceEvent`] by [`Metrics::drain_trace`].
#[derive(Debug)]
pub(crate) struct TraceHop {
    pub(crate) chain: ChainName,
    pub(crate) rule_index: usize,
    pub(crate) matched: bool,
    pub(crate) target: &'static str,
    pub(crate) elapsed_ns: u64,
    pub(crate) degraded: bool,
    pub(crate) invocation: u64,
}

impl TraceHop {
    fn render(self) -> TraceEvent {
        TraceEvent {
            chain: self.chain.name(),
            rule_index: self.rule_index,
            matched: self.matched,
            target: self.target,
            elapsed_ns: self.elapsed_ns,
            degraded: self.degraded,
            invocation: self.invocation,
            gap: false,
        }
    }
}

/// The TRACE ring, bounded at [`TRACE_RING_CAP`].
impl Default for BoundedRing<TraceHop> {
    fn default() -> Self {
        BoundedRing::new(TRACE_RING_CAP)
    }
}

/// The label a counter-table row carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LabelKind {
    /// One total.
    None,
    /// One value per [`LsmOperation`], labelled `op`.
    Op,
    /// One value per [`CtxField`], labelled `field`.
    Field,
}

impl LabelKind {
    /// The Prometheus label name.
    fn key(self) -> &'static str {
        match self {
            LabelKind::None => "",
            LabelKind::Op => "op",
            LabelKind::Field => "field",
        }
    }

    /// The label value of slot `i`: slots are indexed by `op as usize`
    /// and `field.bit()`, which are the positions in each `ALL`.
    fn value(self, i: usize) -> &'static str {
        match self {
            LabelKind::None => "",
            LabelKind::Op => LsmOperation::ALL[i].name(),
            LabelKind::Field => CtxField::ALL[i].cname(),
        }
    }
}

/// One row of the counter table: the single definition of a counter
/// that every exporter renders from.
#[derive(Debug)]
struct Descriptor {
    /// Snake name; Prometheus exports it as `pf_<name>_total`.
    name: &'static str,
    /// JSON key: in `counters` for a total, the top-level object of an
    /// operation split, or the key inside each `fields` entry.
    json: &'static str,
    /// One-line help, also the row's text in `docs/OBSERVABILITY.md`
    /// (checked by the doc-table test).
    #[cfg_attr(not(test), allow(dead_code))]
    help: &'static str,
    labels: LabelKind,
    /// Recorded only while the detail layer is on.
    detail: bool,
}

/// Expands the counter rows into the slot enums, their descriptors and
/// the named accessors of the totals.
macro_rules! counter_table {
    (@detail detail) => { true };
    (@detail always) => { false };
    (
        totals { $($c:ident $name:ident $(pub $writer:ident)?: $help:literal,)* }
        by_op { $($o:ident $oname:ident $ojson:literal: $ohelp:literal,)* }
        by_field { $($f:ident $fname:ident $fjson:literal $layer:ident: $fhelp:literal,)* }
    ) => {
        /// An always-on total: its slot in [`Metrics`]' counter table.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub(crate) enum Counter { $(#[doc = $help] $c,)* }

        /// A per-operation split (detail layer): its row in the table.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub(crate) enum OpCounter { $(#[doc = $ohelp] $o,)* }

        /// A per-context-field counter: its row in the table.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum FieldCounter { $(#[doc = $fhelp] $f,)* }

        const NUM_TOTALS: usize = [$(stringify!($c)),*].len();
        const NUM_OP_ROWS: usize = [$(stringify!($o)),*].len();
        const NUM_FIELD_ROWS: usize = [$(stringify!($f)),*].len();

        #[cfg(test)]
        impl Counter { const ALL: [Counter; NUM_TOTALS] = [$(Counter::$c),*]; }
        #[cfg(test)]
        impl OpCounter { const ALL: [OpCounter; NUM_OP_ROWS] = [$(OpCounter::$o),*]; }
        #[cfg(test)]
        impl FieldCounter { const ALL: [FieldCounter; NUM_FIELD_ROWS] = [$(FieldCounter::$f),*]; }

        const TOTALS: [Descriptor; NUM_TOTALS] = [$(Descriptor {
            name: stringify!($name),
            json: stringify!($name),
            help: $help,
            labels: LabelKind::None,
            detail: false,
        },)*];

        const OP_ROWS: [Descriptor; NUM_OP_ROWS] = [$(Descriptor {
            name: stringify!($oname),
            json: $ojson,
            help: $ohelp,
            labels: LabelKind::Op,
            detail: true,
        },)*];

        const FIELD_ROWS: [Descriptor; NUM_FIELD_ROWS] = [$(Descriptor {
            name: stringify!($fname),
            json: $fjson,
            help: $fhelp,
            labels: LabelKind::Field,
            detail: counter_table!(@detail $layer),
        },)*];

        /// Each total's named accessor, in table order.
        #[cfg(test)]
        const ACCESSORS: [fn(&Metrics) -> u64; NUM_TOTALS] = [$(Metrics::$name),*];

        impl Metrics {
            $(
                #[doc = $help]
                pub fn $name(&self) -> u64 {
                    load(&self.totals[Counter::$c as usize])
                }

                $(
                    #[doc = concat!("Counts one `", stringify!($name), "` event. Public: the OS")]
                    /// substrate observes these and reports them here.
                    #[inline]
                    pub fn $writer(&self) {
                        self.bump(Counter::$c);
                    }
                )?
            )*
        }
    };
}

counter_table! {
    totals {
        Invocations invocations: "Firewall hook invocations.",
        RulesEvaluated rules_evaluated: "Rules whose match evaluation started.",
        CtxFetches ctx_fetches: "Context-module fetches performed.",
        CacheHits cache_hits: "Context fetches served from the per-syscall cache.",
        Drops drops: "DROP verdicts returned.",
        Accepts accepts: "Explicit ACCEPT verdicts returned (default allows not counted).",
        DefaultAllows default_allows: "Invocations that fell through every rule to the default ALLOW.",
        DegradedDrops degraded_drops: "Denies issued after a context fetch failed (a subset of drops).",
        DegradedAllows degraded_allows: "Allows issued after a context fetch failed.",
        VcacheHits vcache_hits: "Verdicts served from a per-task VCACHE cache without a walk.",
        VcacheMisses vcache_misses: "Cache-eligible walks that ran and were inserted.",
        VcacheUncacheable vcache_uncacheable: "Invocations the verdict cache stood aside for.",
        JumpDepthExceeded jump_depth_exceeded: "Jumps skipped at the traversal depth limit.",
        RatelimitThrottled ratelimit_throttled: "Accesses rejected by a RATELIMIT token bucket.",
        QuotaExceeded quota_exceeded: "Accesses rejected by a QUOTA windowed counter.",
        RulesetcDispatch rulesetc_dispatch: "Input-chain walks served through the RULESETC dispatch tables.",
        RulesetcFallback rulesetc_fallback: "RULESETC walks that fell back to a wider walk after a failed fetch.",
        OriginTransitions origin_transitions pub bump_origin_transition: "Monotone origin (taint) raises observed on processes.",
        OriginWidened origin_widened pub bump_origin_widened: "Subject labels whose origin crossed the taint threshold, once per label.",
        OriginVcacheInvalidations origin_vcache_invalidations: "Non-empty verdict caches discarded because the adversary generation moved.",
    }
    by_op {
        Invocations op_invocations "ops": "Hook invocations, by operation.",
        VcacheHits vcache_op_hits "vcache_op_hits": "VCACHE hits, by operation.",
        VcacheMisses vcache_op_misses "vcache_op_misses": "VCACHE misses, by operation.",
        VcacheUncacheable vcache_op_uncacheable "vcache_op_uncacheable": "VCACHE bypasses, by operation.",
        RatelimitThrottled ratelimit_op_throttled "ratelimit_op_throttled": "RATELIMIT rejections, by operation.",
        QuotaExceeded quota_op_exceeded "quota_op_exceeded": "QUOTA rejections, by operation.",
    }
    by_field {
        Fetches ctx_field_fetches "fetches" detail: "Context-module invocations for the field.",
        Hits ctx_field_hits "hits" detail: "Fetches of the field served from the per-syscall cache.",
        Misses ctx_field_misses "misses" detail: "Fetches where the field was absent for the operation.",
        Failures ctx_field_failures "failures" always: "Fetches of the field that errored (the `--ctx-missing` case).",
    }
}

fn load(c: &AtomicU64) -> u64 {
    c.load(Ordering::Relaxed)
}

/// A log-linear latency histogram over nanosecond values.
///
/// Values below 8 ns get exact buckets; above that each power-of-two
/// octave is split into four linear sub-buckets, so relative error is
/// bounded by 25 % across the full `u64` range. All cells are relaxed
/// atomics, so `record` takes `&self` and is safe from any thread.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64; Histogram::NUM_BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: Box::new(std::array::from_fn(|_| AtomicU64::new(0))),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// 8 exact buckets + 4 sub-buckets for each octave 2^3..2^63.
    pub const NUM_BUCKETS: usize = 8 + 61 * 4;

    fn bucket_index(v: u64) -> usize {
        if v < 8 {
            v as usize
        } else {
            let msb = 63 - v.leading_zeros() as usize;
            let sub = ((v >> (msb - 2)) & 0x3) as usize;
            8 + (msb - 3) * 4 + sub
        }
    }

    /// Inclusive upper bound of bucket `idx`.
    fn bucket_upper(idx: usize) -> u64 {
        if idx < 8 {
            idx as u64
        } else {
            let oct = (idx - 8) / 4 + 3;
            let sub = ((idx - 8) % 4) as u64;
            // The last sub-bucket of octave 63 covers up to u64::MAX.
            (1u64 << oct)
                .checked_add((sub + 1) * (1u64 << (oct - 2)))
                .map_or(u64::MAX, |v| v - 1)
        }
    }

    /// Records one value.
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // Saturating sum: a wrapped total would corrupt means silently.
        let mut sum = self.sum.load(Ordering::Relaxed);
        loop {
            let next = sum.saturating_add(v);
            match self
                .sum
                .compare_exchange_weak(sum, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(cur) => sum = cur,
            }
        }
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Adds every bucket and summary cell of `other` into `self`.
    pub fn merge_from(&self, other: &Histogram) {
        for (dst, src) in self.buckets.iter().zip(other.buckets.iter()) {
            let v = src.load(Ordering::Relaxed);
            if v > 0 {
                dst.fetch_add(v, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        let mut sum = self.sum.load(Ordering::Relaxed);
        let add = other.sum.load(Ordering::Relaxed);
        loop {
            let next = sum.saturating_add(add);
            match self
                .sum
                .compare_exchange_weak(sum, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(cur) => sum = cur,
            }
        }
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> u64 {
        match self.count() {
            0 => 0,
            n => self.sum() / n,
        }
    }

    /// Approximate `p`-th percentile (`0.0 ..= 1.0`): the upper bound of
    /// the bucket containing that rank, clamped to the recorded maximum.
    ///
    /// # Panics
    ///
    /// If `p` is outside `0.0 ..= 1.0` — p99.9 is `0.999`, not `99.9`.
    pub fn percentile(&self, p: f64) -> u64 {
        assert!((0.0..=1.0).contains(&p), "percentile {p} outside 0.0..=1.0");
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((p * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (idx, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Self::bucket_upper(idx).min(self.max());
            }
        }
        self.max()
    }

    /// Median shorthand.
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 99th-percentile shorthand.
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// Zeroes the histogram.
    pub fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    /// Non-empty `(upper_bound, cumulative_count)` pairs, ascending —
    /// the Prometheus `_bucket{le=…}` series.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (idx, b) in self.buckets.iter().enumerate() {
            let v = b.load(Ordering::Relaxed);
            if v > 0 {
                cum += v;
                out.push((Self::bucket_upper(idx), cum));
            }
        }
        out
    }
}

/// A latency histogram split into [`HISTOGRAM_SHARDS`] per-thread
/// shards.
///
/// Each recording thread is assigned one shard round-robin and only
/// ever touches that shard's atomics, so concurrent recorders do not
/// contend on bucket cache lines. Readers call [`ShardedHistogram::merged`]
/// to fold every shard into one summary [`Histogram`] — merge semantics
/// are purely additive (bucket counts, count, saturating sum, max), so
/// a merged view taken while recorders are live is a consistent
/// *at-least* snapshot.
#[derive(Debug, Default)]
pub struct ShardedHistogram {
    shards: [Histogram; HISTOGRAM_SHARDS],
}

impl ShardedHistogram {
    /// Records one value into the calling thread's shard.
    #[inline]
    pub fn record(&self, v: u64) {
        self.shards[shard_index()].record(v);
    }

    /// Folds every shard into one summary histogram.
    pub fn merged(&self) -> Histogram {
        let out = Histogram::default();
        for shard in &self.shards {
            out.merge_from(shard);
        }
        out
    }

    /// Total recorded values across all shards.
    pub fn count(&self) -> u64 {
        self.shards.iter().map(Histogram::count).sum()
    }

    /// Zeroes every shard.
    pub fn reset(&self) {
        for shard in &self.shards {
            shard.reset();
        }
    }
}

/// The engine's metrics registry. See the module docs for the layout.
#[derive(Debug, Default)]
pub struct Metrics {
    /// The always-on totals, by [`Counter`].
    totals: [AtomicU64; NUM_TOTALS],
    /// The per-operation splits, by [`OpCounter`] then `op as usize`.
    ops: [[AtomicU64; NUM_OPS]; NUM_OP_ROWS],
    /// The per-field counters, by [`FieldCounter`] then `field.bit()`.
    fields: [[AtomicU64; NUM_FIELDS]; NUM_FIELD_ROWS],
    detailed: AtomicBool,
    eval_ns: ShardedHistogram,
    fetch_ns: ShardedHistogram,
    // --- TRACE ring (driven by rules, not by `detailed`) ---
    trace: BoundedRing<TraceHop>,
}

impl Metrics {
    /// Creates a zeroed registry with detail recording off.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets every counter, histogram, and the trace ring. The detail
    /// recording flag is preserved; per-rule counters live on the rules
    /// and are not touched.
    pub fn reset(&self) {
        let (ops, fields) = (self.ops.as_flattened(), self.fields.as_flattened());
        for c in self.totals.iter().chain(ops).chain(fields) {
            c.store(0, Ordering::Relaxed);
        }
        self.eval_ns.reset();
        self.fetch_ns.reset();
        self.trace.reset();
    }

    /// Turns the detail layer (per-op/per-field counters, per-rule
    /// `evaluated` and latency histograms) on or off. Off is the no-op recorder: the
    /// detail hooks cost one branch and no clock is read.
    pub fn set_detailed(&self, on: bool) {
        self.detailed.store(on, Ordering::Relaxed);
    }

    /// Whether the detail layer is recording.
    pub fn detailed(&self) -> bool {
        self.detailed.load(Ordering::Relaxed)
    }

    // --- counter-table writers: one relaxed add on a fixed slot ---

    #[inline]
    pub(crate) fn bump(&self, c: Counter) {
        self.totals[c as usize].fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn bump_op(&self, c: OpCounter, op: LsmOperation) {
        if self.detailed() {
            self.ops[c as usize][op as usize].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Bumps an always-on total and, in the detail layer, its
    /// per-operation split.
    #[inline]
    pub(crate) fn bump_split(&self, total: Counter, split: OpCounter, op: LsmOperation) {
        self.bump(total);
        self.bump_op(split, op);
    }

    /// Bumps a per-field counter; a detail-layer row records only while
    /// the detail layer is on. `c` is a constant at every call site, so
    /// the row lookup folds away.
    #[inline]
    pub(crate) fn bump_field(&self, c: FieldCounter, field: CtxField) {
        if !FIELD_ROWS[c as usize].detail || self.detailed() {
            self.fields[c as usize][field.bit() as usize].fetch_add(1, Ordering::Relaxed);
        }
    }

    // --- counter-table readers (totals: the generated accessors) ---

    /// One field's value of a per-field counter.
    pub fn by_field(&self, c: FieldCounter, field: CtxField) -> u64 {
        load(&self.fields[c as usize][field.bit() as usize])
    }

    /// `(fetches, cache_hits, misses)` for one context field.
    pub fn field_counts(&self, field: CtxField) -> (u64, u64, u64) {
        (
            self.by_field(FieldCounter::Fetches, field),
            self.by_field(FieldCounter::Hits, field),
            self.by_field(FieldCounter::Misses, field),
        )
    }

    // --- latency histograms ---

    /// Starts a timer when the detail layer records; `None` otherwise.
    #[inline]
    pub(crate) fn timer(&self) -> Option<Instant> {
        if self.detailed() {
            Some(Instant::now())
        } else {
            None
        }
    }

    #[inline]
    pub(crate) fn observe_eval(&self, t0: Option<Instant>) {
        if let Some(t0) = t0 {
            self.eval_ns.record(t0.elapsed().as_nanos() as u64);
        }
    }

    #[inline]
    pub(crate) fn observe_fetch(&self, field: CtxField, t0: Option<Instant>, missed: bool) {
        self.bump_field(FieldCounter::Fetches, field);
        if missed {
            self.bump_field(FieldCounter::Misses, field);
        }
        if let Some(t0) = t0 {
            self.fetch_ns.record(t0.elapsed().as_nanos() as u64);
        }
    }

    /// Whole-hook evaluation latency (detail layer): every per-thread
    /// shard merged into one summary histogram.
    pub fn eval_latency(&self) -> Histogram {
        self.eval_ns.merged()
    }

    /// Context-fetch latency (detail layer), merged across shards.
    pub fn fetch_latency(&self) -> Histogram {
        self.fetch_ns.merged()
    }

    // --- TRACE ring ---

    pub(crate) fn push_trace(&self, hop: TraceHop) {
        self.trace.push(hop);
    }

    /// Drains the TRACE ring, oldest first, rendering each hop after the
    /// ring lock is released.
    ///
    /// If the ring overflowed since the previous drain (see
    /// [`Metrics::trace_dropped`]), the first drained event carries
    /// `gap = true`: hops are missing immediately before it. The marker
    /// is stamped here, on the reader side, so the push path stays one
    /// `pop_front` + counter bump regardless of drain cadence.
    pub fn drain_trace(&self) -> Vec<TraceEvent> {
        let (hops, dropped_since_last) = self.trace.take_all();
        let mut events: Vec<TraceEvent> = hops.into_iter().map(TraceHop::render).collect();
        if let Some(first) = events.first_mut() {
            first.gap = dropped_since_last > 0;
        }
        events
    }

    /// Buffered TRACE events.
    pub fn trace_len(&self) -> usize {
        self.trace.len()
    }

    /// TRACE events discarded because the ring was full.
    pub fn trace_dropped(&self) -> u64 {
        self.trace.dropped()
    }

    // --- exporters: each walks the counter table ---

    /// Every labelled row with its slots: the operation splits, then the
    /// field counters.
    fn labelled(&self) -> impl Iterator<Item = (&'static Descriptor, &[AtomicU64])> {
        let ops = OP_ROWS.iter().zip(self.ops.iter().map(|v| &v[..]));
        ops.chain(FIELD_ROWS.iter().zip(self.fields.iter().map(|v| &v[..])))
    }

    /// Renders the registry in the Prometheus text exposition format.
    ///
    /// Every line is `name value` or `name{label="v",…} value`; no
    /// comment lines are emitted, so the output parses line-by-line.
    /// Totals always appear. A labelled sample appears once it is
    /// nonzero, except that a field's detail counters appear together
    /// once any of them moved, so a fetched field shows its zero hits.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(2048);
        for (d, v) in TOTALS.iter().zip(&self.totals) {
            let _ = writeln!(out, "pf_{}_total {}", d.name, load(v));
        }
        self.trace.write_prometheus(&mut out, "pf_trace_events");
        let field_live: [bool; NUM_FIELDS] = std::array::from_fn(|i| {
            (FIELD_ROWS.iter().zip(&self.fields)).any(|(d, v)| d.detail && load(&v[i]) > 0)
        });
        for (d, slots) in self.labelled() {
            for (i, v) in slots.iter().map(load).enumerate() {
                if v > 0 || (d.detail && d.labels == LabelKind::Field && field_live[i]) {
                    let (key, label) = (d.labels.key(), d.labels.value(i));
                    let _ = writeln!(out, "pf_{}_total{{{key}=\"{label}\"}} {v}", d.name);
                }
            }
        }
        for (metric, hist) in [
            ("pf_eval_latency_ns", self.eval_latency()),
            ("pf_fetch_latency_ns", self.fetch_latency()),
        ] {
            for (le, cum) in hist.cumulative_buckets() {
                let _ = writeln!(out, "{metric}_bucket{{le=\"{le}\"}} {cum}");
            }
            let _ = writeln!(out, "{metric}_bucket{{le=\"+Inf\"}} {}", hist.count());
            let _ = writeln!(out, "{metric}_sum {}", hist.sum());
            let _ = writeln!(out, "{metric}_count {}", hist.count());
        }
        out
    }

    /// Renders a JSON snapshot of every counter and histogram summary.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(2048);
        s.push('{');
        self.write_json_members(&mut s);
        s.push('}');
        s
    }

    /// Writes the members of [`Metrics::to_json`]'s object without its
    /// braces, so the firewall-level export can add its own.
    pub(crate) fn write_json_members(&self, s: &mut String) {
        s.push_str("\"counters\":{");
        for (d, v) in TOTALS.iter().zip(&self.totals) {
            let _ = write!(s, "\"{}\":{},", d.json, load(v));
        }
        let _ = write!(s, "\"trace_dropped\":{}}},", self.trace.dropped());
        self.trace.write_json(s, "trace");
        for (d, slots) in OP_ROWS.iter().zip(&self.ops) {
            let _ = write!(s, ",\"{}\":{{", d.json);
            let mut sep = "";
            for (i, v) in slots.iter().map(load).enumerate() {
                if v > 0 {
                    let _ = write!(s, "{sep}\"{}\":{v}", d.labels.value(i));
                    sep = ",";
                }
            }
            s.push('}');
        }
        // Fields are grouped by field: one object per field that moved,
        // holding every field counter.
        s.push_str(",\"fields\":{");
        let mut sep = "";
        for i in 0..NUM_FIELDS {
            let values: [u64; NUM_FIELD_ROWS] = std::array::from_fn(|r| load(&self.fields[r][i]));
            if values.iter().any(|&v| v > 0) {
                let _ = write!(s, "{sep}\"{}\":{{", LabelKind::Field.value(i));
                for (k, (d, v)) in FIELD_ROWS.iter().zip(values).enumerate() {
                    let comma = if k > 0 { "," } else { "" };
                    let _ = write!(s, "{comma}\"{}\":{v}", d.json);
                }
                s.push('}');
                sep = ",";
            }
        }
        s.push('}');
        for (name, hist) in [
            ("eval_latency_ns", self.eval_latency()),
            ("fetch_latency_ns", self.fetch_latency()),
        ] {
            let _ = write!(
                s,
                ",\"{name}\":{{\"count\":{},\"mean\":{},\"p50\":{},\"p99\":{},\"max\":{}}}",
                hist.count(),
                hist.mean(),
                hist.p50(),
                hist.p99(),
                hist.max(),
            );
        }
    }

    /// Renders the counter table as aligned `name value` lines: every
    /// total, then each nonzero labelled value as `name{label=value}`.
    /// pfstat's summary and pfsh's `stats` print exactly this.
    pub fn render_summary(&self) -> String {
        let mut out = String::with_capacity(1024);
        for (d, v) in TOTALS.iter().zip(&self.totals) {
            let _ = writeln!(out, "{:<40} {}", d.name, load(v));
        }
        for (d, slots) in self.labelled() {
            for (i, v) in slots.iter().map(load).enumerate() {
                if v > 0 {
                    let name = format!("{}{{{}={}}}", d.name, d.labels.key(), d.labels.value(i));
                    let _ = writeln!(out, "{name:<40} {v}");
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    impl Metrics {
        fn by_op(&self, c: OpCounter, op: LsmOperation) -> u64 {
            load(&self.ops[c as usize][op as usize])
        }
    }

    #[test]
    fn legacy_counters_bump_and_reset() {
        let m = Metrics::new();
        m.bump(Counter::Invocations);
        m.bump(Counter::RulesEvaluated);
        m.bump(Counter::RulesEvaluated);
        m.bump(Counter::Drops);
        m.bump_origin_transition();
        m.bump_origin_widened();
        assert_eq!(m.invocations(), 1);
        assert_eq!(m.rules_evaluated(), 2);
        assert_eq!(m.drops(), 1);
        assert_eq!((m.origin_transitions(), m.origin_widened()), (1, 1));
        m.reset();
        assert_eq!(m.rules_evaluated(), 0);
        assert_eq!(m.origin_widened(), 0);
    }

    #[test]
    fn detail_layer_is_noop_until_enabled() {
        let m = Metrics::new();
        m.bump_op(OpCounter::Invocations, LsmOperation::FileOpen);
        m.bump_field(FieldCounter::Fetches, CtxField::ResourceId);
        assert!(m.timer().is_none());
        assert_eq!(m.by_op(OpCounter::Invocations, LsmOperation::FileOpen), 0);
        assert_eq!(m.field_counts(CtxField::ResourceId), (0, 0, 0));

        m.set_detailed(true);
        m.bump_op(OpCounter::Invocations, LsmOperation::FileOpen);
        m.observe_fetch(CtxField::ResourceId, None, true);
        assert!(m.timer().is_some());
        assert_eq!(m.by_op(OpCounter::Invocations, LsmOperation::FileOpen), 1);
        assert_eq!(m.field_counts(CtxField::ResourceId), (1, 0, 1));
    }

    #[test]
    fn histogram_buckets_are_monotonic_and_exhaustive() {
        // Every value maps to a bucket whose bounds contain it.
        for v in [0u64, 1, 7, 8, 9, 10, 100, 1000, 4095, 1 << 20, u64::MAX] {
            let idx = Histogram::bucket_index(v);
            assert!(idx < Histogram::NUM_BUCKETS, "v={v} idx={idx}");
            assert!(v <= Histogram::bucket_upper(idx), "v={v} idx={idx}");
            if idx > 0 {
                assert!(v > Histogram::bucket_upper(idx - 1), "v={v} idx={idx}");
            }
        }
        // Upper bounds strictly increase.
        for idx in 1..Histogram::NUM_BUCKETS {
            assert!(Histogram::bucket_upper(idx) > Histogram::bucket_upper(idx - 1));
        }
    }

    #[test]
    fn histogram_summary_statistics() {
        let h = Histogram::default();
        assert_eq!(h.p50(), 0);
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        assert_eq!(h.mean(), 50);
        assert_eq!(h.max(), 100);
        // Log-linear buckets: p50 lands in the bucket containing 50
        // (bounds 48..=55), p99 in the one containing 99 (96..=111,
        // clamped to the recorded max).
        assert!(h.p50() >= 50 && h.p50() <= 55, "p50={}", h.p50());
        assert!(h.p99() >= 99 && h.p99() <= 100, "p99={}", h.p99());
        let cum = h.cumulative_buckets();
        assert_eq!(cum.last().unwrap().1, 100, "cumulative ends at count");
        h.reset();
        assert_eq!(h.count(), 0);
    }

    /// p99.9 is `percentile(0.999)`. Over `1..=1000` it shares the top
    /// bucket (896..=1023) with the maximum, so a single outlier makes
    /// the difference visible: rank 999 of 1000 is the value 999's
    /// bucket, while the rank a `99.9` argument clamps to is the maximum.
    #[test]
    fn percentile_999_sits_below_an_outlier_maximum() {
        let h = Histogram::default();
        for v in 1..=999u64 {
            h.record(v);
        }
        h.record(1_000_000);
        let p999 = h.percentile(0.999);
        assert!((999..=1023).contains(&p999), "p99.9={p999}");
        assert!(p999 < h.max());
    }

    #[test]
    #[should_panic(expected = "outside 0.0..=1.0")]
    fn percentile_rejects_a_percent_scale() {
        Histogram::default().percentile(99.9);
    }

    #[test]
    fn sharded_histogram_merges_across_threads() {
        let sh = std::sync::Arc::new(ShardedHistogram::default());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let sh = sh.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..250u64 {
                    sh.record(t * 1000 + i);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let merged = sh.merged();
        assert_eq!(merged.count(), 1000);
        assert_eq!(sh.count(), 1000);
        assert_eq!(merged.max(), 3249);
        let expected_sum: u64 = (0..4u64)
            .flat_map(|t| (0..250u64).map(move |i| t * 1000 + i))
            .sum();
        assert_eq!(merged.sum(), expected_sum);
        sh.reset();
        assert_eq!(sh.merged().count(), 0);
    }

    #[test]
    fn concurrent_counter_bumps_do_not_lose_updates() {
        let m = std::sync::Arc::new(Metrics::new());
        m.set_detailed(true);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let m = m.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..5000 {
                    m.bump(Counter::Invocations);
                    m.bump(Counter::DefaultAllows);
                    m.bump_op(OpCounter::Invocations, LsmOperation::FileOpen);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.invocations(), 20_000);
        assert_eq!(m.default_allows(), 20_000);
        assert_eq!(
            m.by_op(OpCounter::Invocations, LsmOperation::FileOpen),
            20_000
        );
    }

    #[test]
    fn trace_ring_is_bounded() {
        let m = Metrics::new();
        let hop = |rule_index, invocation| TraceHop {
            chain: ChainName::Input,
            rule_index,
            matched: true,
            target: "DROP",
            elapsed_ns: 0,
            degraded: false,
            invocation,
        };
        for i in 0..(TRACE_RING_CAP + 10) {
            m.push_trace(hop(i, 0));
        }
        assert_eq!(m.trace_len(), TRACE_RING_CAP);
        assert_eq!(m.trace_dropped(), 10);
        let events = m.drain_trace();
        assert_eq!(events.len(), TRACE_RING_CAP);
        assert_eq!(events[0].rule_index, 10, "oldest events were dropped");
        assert!(events[0].gap, "overflow marks a gap on the first drain");
        assert!(!events[1].gap, "only the first drained event is marked");
        assert_eq!(m.trace_len(), 0);

        // A second overflow-free round drains without a gap marker.
        m.push_trace(hop(0, 7));
        let events = m.drain_trace();
        assert_eq!(events.len(), 1);
        assert!(!events[0].gap, "no drops since last drain, no gap");
        assert_eq!(events[0].invocation, 7);
    }

    #[test]
    fn trace_event_json() {
        let e = TraceEvent {
            chain: "side\"chain".into(),
            rule_index: 3,
            matched: false,
            target: "ACCEPT",
            elapsed_ns: 42,
            degraded: true,
            invocation: 9001,
            gap: true,
        };
        assert_eq!(
            e.to_json(),
            "{\"chain\":\"side\\\"chain\",\"rule\":3,\"matched\":false,\
             \"target\":\"ACCEPT\",\"elapsed_ns\":42,\"degraded\":true,\
             \"invocation\":9001,\"gap\":true}"
        );
    }

    #[test]
    fn prometheus_lines_parse_as_name_labels_value() {
        let m = Metrics::new();
        m.set_detailed(true);
        m.bump(Counter::Invocations);
        m.bump_op(OpCounter::Invocations, LsmOperation::FileOpen);
        m.observe_fetch(CtxField::ResourceId, m.timer(), false);
        m.observe_eval(m.timer());
        let text = m.render_prometheus();
        assert!(text.contains("pf_invocations_total 1"));
        assert!(text.contains("pf_op_invocations_total{op=\"FILE_OPEN\"} 1"));
        for line in text.lines() {
            let (name_part, value) = line.rsplit_once(' ').expect("name value");
            assert!(
                value == "+Inf" || value.parse::<f64>().is_ok(),
                "bad value in `{line}`"
            );
            let name = match name_part.split_once('{') {
                Some((n, labels)) => {
                    let labels = labels.strip_suffix('}').expect("closing brace");
                    for pair in labels.split(',') {
                        let (k, v) = pair.split_once('=').expect("label pair");
                        assert!(!k.is_empty() && v.starts_with('"') && v.ends_with('"'));
                    }
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
    fn vcache_counters_export_and_reset() {
        let m = Metrics::new();
        m.set_detailed(true);
        let (open, bind) = (LsmOperation::FileOpen, LsmOperation::SocketBind);
        m.bump_split(Counter::VcacheHits, OpCounter::VcacheHits, open);
        m.bump_split(Counter::VcacheHits, OpCounter::VcacheHits, open);
        m.bump_split(Counter::VcacheMisses, OpCounter::VcacheMisses, open);
        m.bump_split(
            Counter::VcacheUncacheable,
            OpCounter::VcacheUncacheable,
            bind,
        );
        assert_eq!(m.vcache_hits(), 2);
        assert_eq!(m.vcache_misses(), 1);
        assert_eq!(m.vcache_uncacheable(), 1);
        let split = |op| {
            let c = [
                OpCounter::VcacheHits,
                OpCounter::VcacheMisses,
                OpCounter::VcacheUncacheable,
            ];
            c.map(|c| m.by_op(c, op))
        };
        assert_eq!(split(open), [2, 1, 0]);
        assert_eq!(split(bind), [0, 0, 1]);
        let text = m.render_prometheus();
        assert!(text.contains("pf_vcache_op_hits_total{op=\"FILE_OPEN\"} 2"));
        assert!(text.contains("pf_vcache_op_uncacheable_total{op=\"SOCKET_BIND\"} 1"));
        assert!(!text.contains("pf_vcache_op_uncacheable_total{op=\"FILE_OPEN\"}"));
        m.reset();
        assert_eq!(m.vcache_hits(), 0);
        assert_eq!(split(open), [0, 0, 0]);
        // The always-on totals record even with the detail layer off.
        m.set_detailed(false);
        m.bump_split(Counter::VcacheHits, OpCounter::VcacheHits, open);
        assert_eq!(m.vcache_hits(), 1);
        assert_eq!(split(open), [0, 0, 0]);
    }

    #[test]
    fn throttle_counters_export_and_reset() {
        let m = Metrics::new();
        m.set_detailed(true);
        let signal = LsmOperation::ProcessSignalDelivery;
        let create = LsmOperation::FileCreate;
        let ratelimit = |op| {
            m.bump_split(
                Counter::RatelimitThrottled,
                OpCounter::RatelimitThrottled,
                op,
            )
        };
        let quota = |op| m.bump_split(Counter::QuotaExceeded, OpCounter::QuotaExceeded, op);
        ratelimit(signal);
        ratelimit(signal);
        quota(create);
        assert_eq!(m.ratelimit_throttled(), 2);
        assert_eq!(m.quota_exceeded(), 1);
        let split = |op| {
            let c = [OpCounter::RatelimitThrottled, OpCounter::QuotaExceeded];
            c.map(|c| m.by_op(c, op))
        };
        assert_eq!(split(signal), [2, 0]);
        assert_eq!(split(create), [0, 1]);
        let text = m.render_prometheus();
        assert!(text.contains("pf_ratelimit_op_throttled_total{op=\"PROCESS_SIGNAL_DELIVERY\"} 2"));
        assert!(text.contains("pf_quota_op_exceeded_total{op=\"FILE_CREATE\"} 1"));
        m.reset();
        assert_eq!(m.ratelimit_throttled(), 0);
        assert_eq!(split(signal), [0, 0]);
        // The always-on totals record even with the detail layer off.
        m.set_detailed(false);
        quota(create);
        assert_eq!(m.quota_exceeded(), 1);
        assert_eq!(split(create), [0, 0]);
    }

    /// A field's detail counters export together once any of them moved,
    /// so a fetched field shows its zero hits; the always-on failure
    /// count exports once nonzero and records with the detail layer off.
    #[test]
    fn field_counters_export_and_gate() {
        let m = Metrics::new();
        m.set_detailed(true);
        m.observe_fetch(CtxField::ResourceId, None, false);
        m.bump_field(FieldCounter::Failures, CtxField::Entrypoint);
        let text = m.render_prometheus();
        for line in [
            "pf_ctx_field_fetches_total{field=\"C_INO\"} 1",
            "pf_ctx_field_hits_total{field=\"C_INO\"} 0",
            "pf_ctx_field_misses_total{field=\"C_INO\"} 0",
            "pf_ctx_field_failures_total{field=\"C_ENTRYPOINT\"} 1",
        ] {
            assert!(text.lines().any(|l| l == line), "missing `{line}`");
        }
        assert!(!text.contains("pf_ctx_field_failures_total{field=\"C_INO\"}"));
        assert!(!text.contains("pf_ctx_field_fetches_total{field=\"C_ENTRYPOINT\"}"));
        m.reset();
        m.set_detailed(false);
        m.observe_fetch(CtxField::ResourceId, None, true);
        m.bump_field(FieldCounter::Failures, CtxField::ResourceId);
        assert_eq!(m.field_counts(CtxField::ResourceId), (0, 0, 0));
        let failures = m.by_field(FieldCounter::Failures, CtxField::ResourceId);
        assert_eq!(failures, 1);
    }

    #[test]
    fn json_snapshot_shape() {
        let m = Metrics::new();
        m.set_detailed(true);
        m.bump(Counter::Invocations);
        m.bump(Counter::DefaultAllows);
        m.bump_op(OpCounter::Invocations, LsmOperation::SocketBind);
        let json = m.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"invocations\":1"));
        assert!(json.contains("\"default_allows\":1"));
        assert!(json.contains("\"ops\":{\"SOCKET_BIND\":1}"));
        assert!(json.contains("\"vcache_op_hits\":{}"));
        assert!(json.contains("\"eval_latency_ns\""));
    }

    /// A registry where total `i` was bumped `i + 1` times and slot `j`
    /// of labelled row `k` holds `1 + k * slots + j`, all through the
    /// hook-path writers.
    fn golden() -> Metrics {
        let m = Metrics::new();
        m.set_detailed(true);
        for (i, &c) in Counter::ALL.iter().enumerate() {
            (0..=i).for_each(|_| m.bump(c));
        }
        for (k, &c) in OpCounter::ALL.iter().enumerate() {
            for (j, &op) in LsmOperation::ALL.iter().enumerate() {
                (0..1 + k * NUM_OPS + j).for_each(|_| m.bump_op(c, op));
            }
        }
        for (k, &c) in FieldCounter::ALL.iter().enumerate() {
            for (j, &field) in CtxField::ALL.iter().enumerate() {
                (0..1 + k * NUM_FIELDS + j).for_each(|_| m.bump_field(c, field));
            }
        }
        m
    }

    /// The balanced `{…}` value of the first `"key":{` member of `json`.
    fn json_member<'a>(json: &'a str, key: &str) -> &'a str {
        let open = format!("\"{key}\":{{");
        let start = json.find(&open).expect("member present") + open.len() - 1;
        let mut depth = 0;
        for (i, c) in json[start..].char_indices() {
            match c {
                '{' => depth += 1,
                '}' if depth == 1 => return &json[start..=start + i],
                '}' => depth -= 1,
                _ => {}
            }
        }
        panic!("unbalanced `{key}`");
    }

    /// `testdata/metrics_golden.{prom,json}` is what the hand-written
    /// exporters that preceded the counter table rendered for
    /// `golden()`'s state. Every line and key survives with its name,
    /// labels and value; the only new Prometheus samples are the TRACE
    /// ring's accounting.
    #[test]
    fn exporters_keep_every_hand_written_line_and_key() {
        let m = golden();
        for (i, get) in ACCESSORS.iter().enumerate() {
            assert_eq!(get(&m), i as u64 + 1, "accessor of {}", TOTALS[i].name);
        }
        let prom = m.render_prometheus();
        let histogram =
            |l: &&str| l.starts_with("pf_eval_latency") || l.starts_with("pf_fetch_latency");
        let before: BTreeSet<&str> = include_str!("../testdata/metrics_golden.prom")
            .lines()
            .filter(|l| !histogram(l))
            .collect();
        let after: BTreeSet<&str> = prom.lines().filter(|l| !histogram(l)).collect();
        let lost: Vec<&str> = before.difference(&after).copied().collect();
        assert!(lost.is_empty(), "lines lost: {lost:?}");
        let added: Vec<&str> = after.difference(&before).copied().collect();
        assert_eq!(
            added,
            [
                "pf_trace_events_buffered 0",
                "pf_trace_events_capacity 4096",
                "pf_trace_events_drained_total 0",
                "pf_trace_events_emitted_total 0",
            ]
        );
        let json = m.to_json();
        let golden_json = include_str!("../testdata/metrics_golden.json");
        for key in ["counters", "ops", "fields"] {
            let (now, then) = (json_member(&json, key), json_member(golden_json, key));
            assert_eq!(now, then, "`{key}` changed");
        }
    }

    /// Every row of the counter table reaches the Prometheus output, the
    /// JSON output, the summary and the doc table in
    /// `docs/OBSERVABILITY.md`, and `reset` zeroes every row.
    #[test]
    fn every_row_reaches_every_exporter_and_the_doc_table() {
        let m = golden();
        let (prom, json, summary) = (m.render_prometheus(), m.to_json(), m.render_summary());
        let (counters, fields) = (json_member(&json, "counters"), json_member(&json, "fields"));
        let doc = include_str!("../../../docs/OBSERVABILITY.md");
        let rows: Vec<&Descriptor> = TOTALS.iter().chain(&OP_ROWS).chain(&FIELD_ROWS).collect();
        for d in &rows {
            let (name, key, member) = (d.name, d.labels.key(), format!("\"{}\":", d.json));
            let (sample, in_json, labels, location) = match d.labels {
                LabelKind::None => (
                    format!("pf_{name}_total "),
                    counters.contains(&member),
                    "—".to_owned(),
                    format!("`counters.{}`", d.json),
                ),
                LabelKind::Op => (
                    format!("pf_{name}_total{{op=\""),
                    json.contains(&format!("{member}{{\"")),
                    "`op`".to_owned(),
                    format!("`{}.<OP>`", d.json),
                ),
                LabelKind::Field => (
                    format!("pf_{name}_total{{field=\""),
                    fields.contains(&member),
                    "`field`".to_owned(),
                    format!("`fields.<FIELD>.{}`", d.json),
                ),
            };
            assert!(
                prom.lines().any(|l| l.starts_with(&sample)),
                "Prometheus lacks {name}"
            );
            assert!(in_json, "JSON lacks {name}");
            let summarised = summary.lines().any(|l| match d.labels {
                LabelKind::None => l.split_whitespace().next() == Some(name),
                _ => l.starts_with(&format!("{name}{{{key}=")),
            });
            assert!(summarised, "summary lacks {name}");
            let layer = if d.detail { "detail" } else { "always-on" };
            let row = format!(
                "| `{name}` | {labels} | {location} | {layer} | {} |",
                d.help
            );
            assert!(doc.lines().any(|l| l == row), "doc table lacks `{row}`");
        }
        let header = "| counter | labels | JSON | layer | meaning |";
        let table = doc.split(header).nth(1).expect("doc counter table");
        let doc_rows = table.lines().skip(2).take_while(|l| l.starts_with('|'));
        assert_eq!(doc_rows.count(), rows.len(), "doc table has stale rows");

        m.reset();
        assert!(ACCESSORS.iter().all(|get| get(&m) == 0));
        let prom = m.render_prometheus();
        assert!(!prom.contains("{op=") && !prom.contains("{field="));
        assert_eq!(json_member(&m.to_json(), "ops"), "{}");
    }
}
