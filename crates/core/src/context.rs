//! Context fields, the collected-context bitmask, and the lazy packet.
//!
//! The firewall constructs its "packet" by fetching process and resource
//! information through context modules (Figure 3 of the paper). Collected
//! fields are recorded in a bitmask; with lazy retrieval enabled a field
//! is fetched only when a rule's match first touches it, and with context
//! caching enabled the (syscall-stable) entrypoint is preserved in the
//! task's per-syscall cache across multiple firewall invocations.

use pf_types::{ProgramId, SecId};

use crate::config::PfConfig;
use crate::env::{EvalEnv, Fetched};
use crate::metrics::Metrics;

/// One retrievable context field.
///
/// The `C_*` names are the spellings rules use to reference fields in
/// match/target options (e.g. `--value C_INO` in rule R5 of Table 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CtxField {
    /// The entrypoint: innermost user frame (program, relative pc).
    Entrypoint,
    /// The resource identifier (`C_INO`): dev+ino folded to `u64`.
    ResourceId,
    /// The object's MAC label.
    ObjectSid,
    /// The object's DAC owner uid (`C_DAC_OWNER`).
    DacOwner,
    /// The symlink target's DAC owner uid (`C_TGT_DAC_OWNER`).
    TgtDacOwner,
    /// Whether the object is adversary-writable (low integrity).
    AdvWrite,
    /// Whether the object is adversary-readable (low secrecy).
    AdvRead,
    /// Syscall argument N (`C_ARG0`..`C_ARG3`); arg 0 is the syscall nr
    /// on the `syscallbegin` chain, matching rule R12.
    Arg(u8),
    /// The signal number being delivered (`C_SIGNAL`).
    SignalNum,
    /// The subject's monotone origin (taint) level (`C_ORIGIN`).
    SubjectOrigin,
}

impl CtxField {
    /// Every context field, for exhaustive iteration in metrics export.
    /// Indexed by [`CtxField::bit`].
    pub const ALL: [CtxField; 13] = [
        CtxField::Entrypoint,
        CtxField::ResourceId,
        CtxField::ObjectSid,
        CtxField::DacOwner,
        CtxField::TgtDacOwner,
        CtxField::AdvWrite,
        CtxField::AdvRead,
        CtxField::Arg(0),
        CtxField::Arg(1),
        CtxField::Arg(2),
        CtxField::Arg(3),
        CtxField::SignalNum,
        CtxField::SubjectOrigin,
    ];

    /// Bit index in the collected-context mask.
    pub fn bit(self) -> u32 {
        match self {
            CtxField::Entrypoint => 0,
            CtxField::ResourceId => 1,
            CtxField::ObjectSid => 2,
            CtxField::DacOwner => 3,
            CtxField::TgtDacOwner => 4,
            CtxField::AdvWrite => 5,
            CtxField::AdvRead => 6,
            CtxField::Arg(n) => 7 + n as u32,
            CtxField::SignalNum => 11,
            CtxField::SubjectOrigin => 12,
        }
    }

    /// The `C_*` spelling, for display.
    pub fn cname(self) -> &'static str {
        match self {
            CtxField::Entrypoint => "C_ENTRYPOINT",
            CtxField::ResourceId => "C_INO",
            CtxField::ObjectSid => "C_OBJECT",
            CtxField::DacOwner => "C_DAC_OWNER",
            CtxField::TgtDacOwner => "C_TGT_DAC_OWNER",
            CtxField::AdvWrite => "C_ADV_WRITE",
            CtxField::AdvRead => "C_ADV_READ",
            CtxField::Arg(0) => "C_ARG0",
            CtxField::Arg(1) => "C_ARG1",
            CtxField::Arg(2) => "C_ARG2",
            CtxField::Arg(_) => "C_ARG3",
            CtxField::SignalNum => "C_SIGNAL",
            CtxField::SubjectOrigin => "C_ORIGIN",
        }
    }

    /// Parses a `C_*` context-reference token.
    pub fn parse_cname(tok: &str) -> Option<CtxField> {
        Some(match tok {
            "C_ENTRYPOINT" => CtxField::Entrypoint,
            "C_INO" => CtxField::ResourceId,
            "C_OBJECT" => CtxField::ObjectSid,
            "C_DAC_OWNER" => CtxField::DacOwner,
            "C_TGT_DAC_OWNER" => CtxField::TgtDacOwner,
            "C_ADV_WRITE" => CtxField::AdvWrite,
            "C_ADV_READ" => CtxField::AdvRead,
            "C_ARG0" => CtxField::Arg(0),
            "C_ARG1" => CtxField::Arg(1),
            "C_ARG2" => CtxField::Arg(2),
            "C_ARG3" => CtxField::Arg(3),
            "C_SIGNAL" => CtxField::SignalNum,
            "C_ORIGIN" => CtxField::SubjectOrigin,
            _ => return None,
        })
    }
}

/// Cache slot ids for the per-syscall task cache (CONCACHE).
const CACHE_EPT_PROG: u8 = 0;
const CACHE_EPT_PC: u8 = 1;
const CACHE_EPT_MISSING: u8 = 2;

/// Number of per-syscall cache slots the engine uses (ids
/// `0..CONCACHE_SLOTS`), so a substrate can keep the cache in a fixed
/// array the way the paper's prototype keeps it in `task_struct`.
pub const CONCACHE_SLOTS: usize = 3;

/// The operation "packet": lazily-materialized context for one firewall
/// invocation.
///
/// Fields memoize within the invocation regardless of configuration; the
/// configuration decides whether everything is fetched eagerly up front
/// (FULL) and whether the entrypoint survives across invocations in the
/// task cache (CONCACHE).
///
/// Every accessor reports the tri-state [`Fetched`]: `Missing` is
/// benign absence (no object on this operation), `Failed` means the
/// substrate attempted the fetch and errored. Failed fetches are
/// memoized for the invocation but never written to the CONCACHE
/// per-syscall cache — a later invocation in the same syscall retries
/// rather than pinning the degraded state.
pub struct Packet<'e> {
    env: &'e mut dyn EvalEnv,
    config: PfConfig,
    /// Bitmask of fields already collected this invocation.
    collected: u32,
    /// Set when a TRACE rule fires: the clock trace events are stamped
    /// against for the rest of the invocation.
    trace_started: Option<std::time::Instant>,
    entrypoint: Fetched<(ProgramId, u64)>,
    object_sid: Option<Fetched<SecId>>,
    resource_id: Option<Fetched<u64>>,
    dac_owner: Option<Fetched<u64>>,
    tgt_dac_owner: Option<Fetched<u64>>,
    adv_write: Option<Fetched<bool>>,
    adv_read: Option<Fetched<bool>>,
    signal_num: Option<Fetched<u64>>,
    subject_origin: Option<Fetched<u64>>,
}

/// Records one tri-state fetch in the metrics registry: the detailed
/// fetch/miss counters as before, plus the always-on per-field failure
/// counter when the fetch errored.
fn note<T>(metrics: &Metrics, field: CtxField, t0: Option<std::time::Instant>, v: &Fetched<T>) {
    metrics.observe_fetch(field, t0, v.is_missing());
    if v.is_failed() {
        metrics.field_failure(field);
    }
}

impl<'e> Packet<'e> {
    /// Wraps an evaluation environment for one invocation.
    pub fn new(env: &'e mut dyn EvalEnv, config: PfConfig) -> Self {
        Packet {
            env,
            config,
            collected: 0,
            trace_started: None,
            entrypoint: Fetched::Missing,
            object_sid: None,
            resource_id: None,
            dac_owner: None,
            tgt_dac_owner: None,
            adv_write: None,
            adv_read: None,
            signal_num: None,
            subject_origin: None,
        }
    }

    /// Access to the underlying environment (for targets and logging).
    pub fn env(&mut self) -> &mut dyn EvalEnv {
        self.env
    }

    /// Shared access to the underlying environment.
    pub fn env_ref(&self) -> &dyn EvalEnv {
        self.env
    }

    /// The bitmask of collected context fields.
    pub fn collected_mask(&self) -> u32 {
        self.collected
    }

    /// Arms tracing for the rest of this invocation (TRACE target).
    /// The first call wins; later TRACE rules keep the original clock.
    pub(crate) fn start_trace(&mut self) {
        if self.trace_started.is_none() {
            self.trace_started = Some(std::time::Instant::now());
        }
    }

    /// The trace clock, when a TRACE rule has fired this invocation.
    #[inline]
    pub(crate) fn trace_clock(&self) -> Option<std::time::Instant> {
        self.trace_started
    }

    fn mark(&mut self, field: CtxField) {
        self.collected |= 1 << field.bit();
    }

    /// The entrypoint *iff it was already collected this invocation* —
    /// a read-only peek for event emission that never forces an unwind
    /// (so recording a decision event cannot perturb the lazy-fetch
    /// behaviour it is observing).
    pub(crate) fn entrypoint_collected(&self) -> Option<(ProgramId, u64)> {
        if self.collected & (1 << CtxField::Entrypoint.bit()) == 0 {
            return None;
        }
        self.entrypoint.ok()
    }

    /// Eagerly materializes every context field (the unoptimized FULL
    /// behaviour: "a naive design simply fetches all process and resource
    /// contexts", Section 4.2).
    pub fn fetch_all(&mut self, metrics: &Metrics) {
        self.entrypoint_value(metrics);
        self.object_sid_value(metrics);
        self.resource_id_value(metrics);
        self.dac_owner_value(metrics);
        self.adv_write_value(metrics);
        self.adv_read_value(metrics);
        self.tgt_dac_owner_value(metrics);
        self.signal_value(metrics);
        self.subject_origin_value(metrics);
        for n in 0..4 {
            let _ = self.arg_value(n, metrics);
        }
    }

    /// The entrypoint, unwound from the user stack (and cached in the
    /// task's per-syscall cache under CONCACHE). `Missing` when the stack
    /// is benignly malformed — the §4.4 sanitization path, which only
    /// forfeits the process's own protection. `Failed` when the substrate
    /// reports the unwind itself errored; failed unwinds are never
    /// written to the cache.
    pub fn entrypoint_value(&mut self, metrics: &Metrics) -> Fetched<(ProgramId, u64)> {
        if self.collected & (1 << CtxField::Entrypoint.bit()) != 0 {
            return self.entrypoint;
        }
        self.mark(CtxField::Entrypoint);
        if self.config.context_caching {
            if self.env.cache_get(CACHE_EPT_MISSING).is_some() {
                metrics.bump_cache_hits();
                metrics.field_hit(CtxField::Entrypoint);
                self.entrypoint = Fetched::Missing;
                return self.entrypoint;
            }
            if let (Some(prog), Some(pc)) = (
                self.env.cache_get(CACHE_EPT_PROG),
                self.env.cache_get(CACHE_EPT_PC),
            ) {
                metrics.bump_cache_hits();
                metrics.field_hit(CtxField::Entrypoint);
                self.entrypoint = Fetched::Value((pf_types::InternId(prog as u32), pc));
                return self.entrypoint;
            }
        }
        metrics.bump_ctx_fetches();
        let t0 = metrics.timer();
        let ep = self.env.try_unwind_entrypoint();
        note(metrics, CtxField::Entrypoint, t0, &ep);
        self.entrypoint = ep;
        if self.config.context_caching {
            match ep {
                Fetched::Value((prog, pc)) => {
                    self.env.cache_put(CACHE_EPT_PROG, prog.0 as u64);
                    self.env.cache_put(CACHE_EPT_PC, pc);
                }
                Fetched::Missing => self.env.cache_put(CACHE_EPT_MISSING, 1),
                // A failed unwind is transient: leave the cache empty so
                // the next invocation in this syscall retries.
                Fetched::Failed(_) => {}
            }
        }
        ep
    }

    /// The object's MAC label, if the operation has an object.
    pub fn object_sid_value(&mut self, metrics: &Metrics) -> Fetched<SecId> {
        if self.object_sid.is_none() {
            self.mark(CtxField::ObjectSid);
            metrics.bump_ctx_fetches();
            let t0 = metrics.timer();
            let v = self.env.try_object().map(|o| o.sid);
            note(metrics, CtxField::ObjectSid, t0, &v);
            self.object_sid = Some(v);
        }
        self.object_sid.unwrap()
    }

    /// The resource identifier folded to `u64` (`C_INO`).
    pub fn resource_id_value(&mut self, metrics: &Metrics) -> Fetched<u64> {
        if self.resource_id.is_none() {
            self.mark(CtxField::ResourceId);
            metrics.bump_ctx_fetches();
            let t0 = metrics.timer();
            let v = self.env.try_object().map(|o| o.resource.as_u64());
            note(metrics, CtxField::ResourceId, t0, &v);
            self.resource_id = Some(v);
        }
        self.resource_id.unwrap()
    }

    /// The object's DAC owner uid (`C_DAC_OWNER`).
    pub fn dac_owner_value(&mut self, metrics: &Metrics) -> Fetched<u64> {
        if self.dac_owner.is_none() {
            self.mark(CtxField::DacOwner);
            metrics.bump_ctx_fetches();
            let t0 = metrics.timer();
            let v = self.env.try_object().map(|o| o.owner.0 as u64);
            note(metrics, CtxField::DacOwner, t0, &v);
            self.dac_owner = Some(v);
        }
        self.dac_owner.unwrap()
    }

    /// The symlink target's DAC owner uid (`C_TGT_DAC_OWNER`), available
    /// only on link-traversal operations.
    pub fn tgt_dac_owner_value(&mut self, metrics: &Metrics) -> Fetched<u64> {
        if self.tgt_dac_owner.is_none() {
            self.mark(CtxField::TgtDacOwner);
            metrics.bump_ctx_fetches();
            let t0 = metrics.timer();
            let v = self.env.try_link_target_owner().map(|u| u.0 as u64);
            note(metrics, CtxField::TgtDacOwner, t0, &v);
            self.tgt_dac_owner = Some(v);
        }
        self.tgt_dac_owner.unwrap()
    }

    /// Whether the object is adversary-writable (low integrity). A failed
    /// object fetch propagates: the adversary-access computation cannot
    /// run without the label.
    pub fn adv_write_value(&mut self, metrics: &Metrics) -> Fetched<bool> {
        if self.adv_write.is_none() {
            self.mark(CtxField::AdvWrite);
            metrics.bump_ctx_fetches();
            let sid = self.object_sid_value(metrics);
            let t0 = metrics.timer();
            let v = sid.map(|s| self.env.mac().adversary_writable(s));
            note(metrics, CtxField::AdvWrite, t0, &v);
            self.adv_write = Some(v);
        }
        self.adv_write.unwrap()
    }

    /// Whether the object is adversary-readable (low secrecy). A failed
    /// object fetch propagates, as for [`Packet::adv_write_value`].
    pub fn adv_read_value(&mut self, metrics: &Metrics) -> Fetched<bool> {
        if self.adv_read.is_none() {
            self.mark(CtxField::AdvRead);
            metrics.bump_ctx_fetches();
            let sid = self.object_sid_value(metrics);
            let t0 = metrics.timer();
            let v = sid.map(|s| self.env.mac().adversary_readable(s));
            note(metrics, CtxField::AdvRead, t0, &v);
            self.adv_read = Some(v);
        }
        self.adv_read.unwrap()
    }

    /// Signal number, on signal-delivery operations.
    pub fn signal_value(&mut self, metrics: &Metrics) -> Fetched<u64> {
        if self.signal_num.is_none() {
            self.mark(CtxField::SignalNum);
            metrics.bump_ctx_fetches();
            let t0 = metrics.timer();
            let v = self.env.try_signal().map(|s| s.signal.0 as u64);
            note(metrics, CtxField::SignalNum, t0, &v);
            self.signal_num = Some(v);
        }
        self.signal_num.unwrap()
    }

    /// The subject's monotone origin (taint) level (`C_ORIGIN`).
    /// `Missing` on substrates that do not track origin — an `--origin`
    /// selector then simply never matches; `Failed` when the taint
    /// label itself could not be read (fail-closed arbitration applies,
    /// like every other field).
    pub fn subject_origin_value(&mut self, metrics: &Metrics) -> Fetched<u64> {
        if self.subject_origin.is_none() {
            self.mark(CtxField::SubjectOrigin);
            metrics.bump_ctx_fetches();
            let t0 = metrics.timer();
            let v = self.env.try_subject_origin();
            note(metrics, CtxField::SubjectOrigin, t0, &v);
            self.subject_origin = Some(v);
        }
        self.subject_origin.unwrap()
    }

    /// Syscall argument `n` (arg 0 is the syscall number). Arguments are
    /// register reads, not context-module fetches, so only the per-field
    /// detail counter moves — never `ctx_fetches`.
    pub fn arg_value(&mut self, n: u8, metrics: &Metrics) -> u64 {
        let field = CtxField::Arg(n.min(3));
        if self.collected & (1 << field.bit()) == 0 {
            self.mark(field);
            metrics.field_fetch(field);
        }
        self.env.syscall_arg(n as usize)
    }

    /// Resolves a [`CtxField`] to its `u64` encoding; `Missing` when the
    /// field is unavailable for this operation, `Failed` when the fetch
    /// errored.
    pub fn field_value(&mut self, field: CtxField, metrics: &Metrics) -> Fetched<u64> {
        match field {
            CtxField::Entrypoint => self.entrypoint_value(metrics).map(|(p, pc)| {
                // Fold program and pc for comparisons; rules match the
                // pair structurally elsewhere.
                ((p.0 as u64) << 40) ^ pc
            }),
            CtxField::ResourceId => self.resource_id_value(metrics),
            CtxField::ObjectSid => self.object_sid_value(metrics).map(|s| s.0 as u64),
            CtxField::DacOwner => self.dac_owner_value(metrics),
            CtxField::TgtDacOwner => self.tgt_dac_owner_value(metrics),
            CtxField::AdvWrite => self.adv_write_value(metrics).map(u64::from),
            CtxField::AdvRead => self.adv_read_value(metrics).map(u64::from),
            CtxField::Arg(n) => Fetched::Value(self.arg_value(n, metrics)),
            CtxField::SignalNum => self.signal_value(metrics),
            CtxField::SubjectOrigin => self.subject_origin_value(metrics),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cname_round_trip() {
        for f in [
            CtxField::Entrypoint,
            CtxField::ResourceId,
            CtxField::ObjectSid,
            CtxField::DacOwner,
            CtxField::TgtDacOwner,
            CtxField::AdvWrite,
            CtxField::AdvRead,
            CtxField::Arg(0),
            CtxField::Arg(3),
            CtxField::SignalNum,
            CtxField::SubjectOrigin,
        ] {
            assert_eq!(CtxField::parse_cname(f.cname()), Some(f));
        }
        assert_eq!(CtxField::parse_cname("C_NOPE"), None);
    }

    #[test]
    fn all_is_indexed_by_bit() {
        for (i, f) in CtxField::ALL.iter().enumerate() {
            assert_eq!(f.bit() as usize, i, "{f:?}");
        }
    }

    #[test]
    fn bits_are_unique() {
        let fields = [
            CtxField::Entrypoint,
            CtxField::ResourceId,
            CtxField::ObjectSid,
            CtxField::DacOwner,
            CtxField::TgtDacOwner,
            CtxField::AdvWrite,
            CtxField::AdvRead,
            CtxField::Arg(0),
            CtxField::Arg(1),
            CtxField::Arg(2),
            CtxField::Arg(3),
            CtxField::SignalNum,
            CtxField::SubjectOrigin,
        ];
        let mut mask = 0u32;
        for f in fields {
            let bit = 1 << f.bit();
            assert_eq!(mask & bit, 0, "duplicate bit for {f:?}");
            mask |= bit;
        }
    }
}
