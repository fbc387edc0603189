//! The VCACHE verdict cache: per-task memoization of whole verdicts.
//!
//! The Table 6 ladder caches *context* (CONCACHE) and prunes the rule
//! scan (EPTSPC); the VCACHE rung goes one step further and caches the
//! *outcome* of a traversal, the way precomputed-transition syscall
//! filters turn repeated policy checks into O(1) lookups. A cached
//! entry maps a [`VerdictKey`] — the operation plus the context the
//! installed rules can read — to the [`EvalDecision`] a full walk
//! produced. Such a cache only pays when its key carries just the
//! inputs the policy reads: the key holds the subject, program,
//! entrypoint, object label and origin on every snapshot, and the
//! resource identifier only when a reachable rule reads it, so objects
//! of one label class share an entry.
//!
//! The cache stands in for a walk, so the engine consults it only after
//! dispatch selection has found one: a hook whose selection holds no
//! rule is the default allow and builds no key. A hook that selected a
//! rule builds the key through the same memoizing packet, reusing the
//! entrypoint (and at RULESETC the label) that selection fetched, so a
//! hit costs the remaining key fetches (label and origin) and one probe.
//!
//! Soundness rests on three gates, enforced in `engine.rs`:
//!
//! * **key completeness** — the cache is consulted only when the
//!   static cacheability analysis (`rule.rs`, summarized per snapshot in
//!   `chain.rs`) confirms every reachable rule reads nothing but key
//!   context and has no side-effecting target. The adversary bits
//!   (`C_ADV_WRITE`/`C_ADV_READ`, `-m ADV_ACCESS`) are not in the key:
//!   within one adversary generation they are a function of the object
//!   label alone, and the third gate flushes the cache when the
//!   generation moves. The resource identifier is keyed exactly when
//!   the same analysis finds a reachable reader (`-r`, or `C_INO` in
//!   `-m COMPARE`);
//! * **no degraded entries** — walks that saw a failed context fetch
//!   (or an exhausted jump depth) are never inserted, and a key that
//!   cannot even be built (a key-field fetch *failed*, in selection or
//!   in the key build) bypasses the cache entirely;
//! * **generation isolation** — the cache lives inside a
//!   [`crate::session::TaskSession`] and is cleared whenever the
//!   session re-pins (hot reload, firewall swap), so no verdict
//!   survives a ruleset generation bump; it is also flushed whenever
//!   the adversary-model generation moves (policy edits, taint
//!   widenings).
//!
//! A hit on a cached DROP renders the denial's log record from the live
//! invocation, so it names this access's own resource even when the
//! entry was filled by another object of the same class.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use pf_types::{LsmOperation, ProgramId, SecId};

use crate::context::Packet;
use crate::engine::EvalDecision;
use crate::env::Fetched;
use crate::events::EventVerdict;
use crate::metrics::Metrics;

/// The context a cached verdict is keyed by.
///
/// `None` in an optional field records that the field was benignly
/// *missing* (distinct from any present value); a *failed* fetch never
/// produces a key at all. `resource` is also `None` on snapshots where
/// no reachable rule reads it (see `RuleBase::keys_resource`); a cache
/// never mixes the two kinds of key, because it is cleared whenever its
/// session re-pins to another snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerdictKey {
    /// The LSM operation being mediated.
    pub op: LsmOperation,
    /// The subject (process) MAC label.
    pub subject: SecId,
    /// The main program binary.
    pub program: ProgramId,
    /// The entrypoint (program, relative pc), if the unwind found one.
    pub entrypoint: Option<(ProgramId, u64)>,
    /// The folded resource identifier, if the operation has an object
    /// and a reachable rule reads it.
    pub resource: Option<u64>,
    /// The object's MAC label. Also stands for the object's adversary
    /// accessibility, which within one adversary generation depends on
    /// the label alone.
    pub label: Option<SecId>,
    /// The subject's monotone origin (taint) level. Keying on origin
    /// keeps `--origin` selectors cacheable: a taint transition changes
    /// the key, so pre-taint verdicts can never be replayed for the
    /// post-taint subject.
    pub origin: Option<u64>,
}

impl VerdictKey {
    /// Builds the key by fetching every key field through the packet
    /// (fetches are memoized, so a miss's subsequent walk reuses them).
    /// The resource is fetched only when `keys_resource` is set.
    /// Returns `None` — cache bypass — if any key-field fetch *failed*.
    pub(crate) fn build(
        pkt: &mut Packet<'_>,
        op: LsmOperation,
        keys_resource: bool,
        metrics: &Metrics,
    ) -> Option<VerdictKey> {
        fn field<T>(f: Fetched<T>) -> Result<Option<T>, ()> {
            match f {
                Fetched::Value(v) => Ok(Some(v)),
                Fetched::Missing => Ok(None),
                Fetched::Failed(_) => Err(()),
            }
        }
        let entrypoint = field(pkt.entrypoint_value(metrics)).ok()?;
        let resource = if keys_resource {
            field(pkt.resource_id_value(metrics)).ok()?
        } else {
            None
        };
        let label = field(pkt.object_sid_value(metrics)).ok()?;
        let origin = field(pkt.subject_origin_value(metrics)).ok()?;
        Some(VerdictKey {
            op,
            subject: pkt.env_ref().subject_sid(),
            program: pkt.env_ref().program(),
            entrypoint,
            resource,
            label,
            origin,
        })
    }
}

/// Packs the key into five words and hashes them with one `write`,
/// instead of the derived impl's write per field and per `Option`
/// discriminant. The packing may fold distinct keys together (an origin
/// level past 32 bits); that costs a collision, never a wrong hit, since
/// lookups compare keys with the derived `Eq`. The map keeps std's
/// keyed `RandomState`: the resource can be an inode number an
/// adversary influences.
impl Hash for VerdictKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let (ept_prog, ept_pc) = self
            .entrypoint
            .map_or((0, 0), |(prog, pc)| (u64::from(prog.0), pc));
        let present = u64::from(self.entrypoint.is_some())
            | u64::from(self.resource.is_some()) << 1
            | u64::from(self.label.is_some()) << 2
            | u64::from(self.origin.is_some()) << 3;
        let words = [
            self.op as u64 | present << 16 | u64::from(self.subject.0) << 32,
            u64::from(self.program.0) | u64::from(self.label.map_or(0, |l| l.0)) << 32,
            ept_prog | self.origin.unwrap_or(0) << 32,
            ept_pc,
            self.resource.unwrap_or(0),
        ];
        let mut bytes = [0u8; 40];
        for (chunk, word) in bytes.chunks_exact_mut(8).zip(words) {
            chunk.copy_from_slice(&word.to_ne_bytes());
        }
        state.write(&bytes);
    }
}

/// How a cached walk ended — drives the verdict counters on a hit so
/// `drops + accepts + default_allows == invocations` keeps holding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerdictKind {
    /// A DROP target fired.
    Drop,
    /// An ACCEPT target fired.
    Accept,
    /// No terminal rule matched: the default-allow policy applied.
    DefaultAllow,
}

impl From<VerdictKind> for EventVerdict {
    fn from(kind: VerdictKind) -> Self {
        match kind {
            VerdictKind::Drop => EventVerdict::Deny,
            VerdictKind::Accept => EventVerdict::Allow,
            VerdictKind::DefaultAllow => EventVerdict::DefaultAllow,
        }
    }
}

/// One memoized traversal outcome.
#[derive(Debug, Clone)]
pub(crate) struct CacheEntry {
    pub(crate) decision: EvalDecision,
    pub(crate) kind: VerdictKind,
}

/// Entries beyond this bound trigger a wholesale clear: a task touching
/// this many distinct (op, context) shapes is churning, not looping.
const CACHE_CAP: usize = 4096;

/// The per-task verdict cache. Owned by a
/// [`crate::session::TaskSession`]; never shared across tasks, so
/// lookups and inserts are lock-free by construction.
#[derive(Debug, Default)]
pub struct VerdictCache {
    map: HashMap<VerdictKey, CacheEntry>,
    /// The adversary-model generation (policy edits + taint widenings,
    /// see `MacPolicy::adversary_generation`) the entries were computed
    /// under. Keys carry the label but not the adversary bits it stands
    /// for, so when the generation moves the whole cache must go.
    adv_generation: u64,
}

/// Cloning a session (fork) starts the child with an *empty* cache:
/// entries are cheap to rebuild, and a cold child keeps fork behaviour
/// identical at every level.
impl Clone for VerdictCache {
    fn clone(&self) -> Self {
        VerdictCache::default()
    }
}

impl VerdictCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of memoized verdicts.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drops every entry (generation bump, firewall swap, fork).
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Validates the cache against the current adversary-model
    /// generation. On a stale stamp the whole cache is discarded —
    /// returns `true` iff entries were actually dropped (the exact
    /// invalidation accounting the `origin_vcache_invalidations`
    /// counter wants; an empty cache revalidating is not an
    /// invalidation).
    pub(crate) fn validate_adv_generation(&mut self, generation: u64) -> bool {
        if self.adv_generation == generation {
            return false;
        }
        let dropped = !self.map.is_empty();
        self.map.clear();
        self.adv_generation = generation;
        dropped
    }

    pub(crate) fn lookup(&self, key: &VerdictKey) -> Option<&CacheEntry> {
        self.map.get(key)
    }

    pub(crate) fn insert(&mut self, key: VerdictKey, entry: CacheEntry) {
        if self.map.len() >= CACHE_CAP {
            self.map.clear();
        }
        self.map.insert(key, entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_types::{InternId, Verdict};

    fn entry(kind: VerdictKind) -> CacheEntry {
        CacheEntry {
            decision: EvalDecision {
                verdict: match kind {
                    VerdictKind::Drop => Verdict::Deny,
                    _ => Verdict::Allow,
                },
                dropped_by: None,
                generation: 7,
                degraded: false,
                adv_generation: 0,
            },
            kind,
        }
    }

    fn key(op: LsmOperation, resource: Option<u64>) -> VerdictKey {
        VerdictKey {
            op,
            subject: InternId(1),
            program: InternId(2),
            entrypoint: Some((InternId(2), 0x100)),
            resource,
            label: Some(InternId(3)),
            origin: Some(0),
        }
    }

    #[test]
    fn lookup_distinguishes_every_key_field() {
        let mut vc = VerdictCache::new();
        vc.insert(
            key(LsmOperation::FileOpen, Some(5)),
            entry(VerdictKind::Drop),
        );
        assert_eq!(vc.len(), 1);
        assert!(vc.lookup(&key(LsmOperation::FileOpen, Some(5))).is_some());
        assert!(vc.lookup(&key(LsmOperation::FileWrite, Some(5))).is_none());
        assert!(vc.lookup(&key(LsmOperation::FileOpen, Some(6))).is_none());
        assert!(vc.lookup(&key(LsmOperation::FileOpen, None)).is_none());
        let base = key(LsmOperation::FileOpen, Some(5));
        for other in [
            VerdictKey {
                subject: InternId(9),
                ..base
            },
            VerdictKey {
                program: InternId(9),
                ..base
            },
            VerdictKey {
                entrypoint: None,
                ..base
            },
            VerdictKey {
                entrypoint: Some((InternId(2), 0x101)),
                ..base
            },
            VerdictKey {
                label: None,
                ..base
            },
            VerdictKey {
                label: Some(InternId(0)),
                ..base
            },
            VerdictKey {
                origin: None,
                ..base
            },
        ] {
            assert!(vc.lookup(&other).is_none(), "{other:?}");
        }
    }

    #[test]
    fn packed_hash_separates_absent_from_zero() {
        use std::collections::hash_map::RandomState;
        use std::hash::BuildHasher;

        let state = RandomState::new();
        let k = key(LsmOperation::FileOpen, Some(0));
        assert_eq!(state.hash_one(k), state.hash_one(k));
        let absent = VerdictKey {
            resource: None,
            ..k
        };
        assert_ne!(state.hash_one(k), state.hash_one(absent));
    }

    #[test]
    fn origin_is_part_of_the_key_and_generation_invalidates() {
        let mut vc = VerdictCache::new();
        let mut k = key(LsmOperation::FileOpen, Some(5));
        vc.insert(k, entry(VerdictKind::DefaultAllow));
        k.origin = Some(2);
        assert!(vc.lookup(&k).is_none(), "tainted subject must miss");
        k.origin = Some(0);
        assert!(vc.lookup(&k).is_some());

        // A generation move with live entries is an invalidation…
        assert!(vc.validate_adv_generation(9));
        assert!(vc.is_empty());
        // …revalidating the same generation is not…
        assert!(!vc.validate_adv_generation(9));
        // …and neither is a move observed by an already-empty cache.
        assert!(!vc.validate_adv_generation(10));
    }

    #[test]
    fn overflow_clears_wholesale_and_clone_is_empty() {
        let mut vc = VerdictCache::new();
        for i in 0..(CACHE_CAP as u64 + 1) {
            vc.insert(
                key(LsmOperation::FileOpen, Some(i)),
                entry(VerdictKind::DefaultAllow),
            );
        }
        assert!(vc.len() <= CACHE_CAP, "cap enforced: {}", vc.len());
        assert!(!vc.is_empty());
        assert!(vc.clone().is_empty(), "fork starts cold");
        vc.clear();
        assert!(vc.is_empty());
    }
}
