//! Rule structure: default matches, match modules, targets.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pf_types::{LabelSet, LsmOperation, ProgramId};

use crate::context::CtxField;
use crate::ratelimit::{ExceedPolicy, PerKey, ThrottleCell};
use crate::value::ValueExpr;

/// The default matches of Table 3: `-s`, `-d`, `-i`, `-o`, `-p` and the
/// resource identifier.
///
/// A `None` field matches anything, exactly like an omitted `iptables`
/// selector.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DefaultMatches {
    /// `-s`: subject (process) label set.
    pub subject: Option<LabelSet>,
    /// `-d`: object (resource) label set.
    pub object: Option<LabelSet>,
    /// `-p`: the program/binary containing the entrypoint.
    pub program: Option<ProgramId>,
    /// `-i`: entrypoint program counter, relative to the binary base
    /// (handling ASLR, Section 5.2).
    pub entrypoint_pc: Option<u64>,
    /// `-o`: the LSM operation.
    pub op: Option<LsmOperation>,
    /// Explicit resource identifier (inode/signal folded to `u64`).
    pub resource: Option<u64>,
    /// `--origin`: minimum subject origin (taint) level. The selector
    /// matches when the subject's monotone origin is at or above this
    /// level — the post-compromise predicate of the OAMAC adversary
    /// model. Origin is part of the verdict-cache key, so the selector
    /// stays key-determined (cacheable).
    pub origin: Option<u64>,
}

impl DefaultMatches {
    /// Returns the entrypoint key `(program, pc)` when both halves are
    /// present — the condition for placement in an entrypoint-specific
    /// chain (Section 4.3).
    pub fn entrypoint(&self) -> Option<(ProgramId, u64)> {
        match (self.program, self.entrypoint_pc) {
            (Some(p), Some(pc)) => Some((p, pc)),
            _ => None,
        }
    }
}

/// Extensible match modules (`-m name options`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatchModule {
    /// `-m STATE --key K --cmp V [--nequal]`: compare a per-process
    /// STATE-dictionary entry. A missing key never matches.
    State {
        /// Dictionary key.
        key: u64,
        /// Comparand (literal or context reference).
        cmp: ValueExpr,
        /// `--nequal` inverts the comparison.
        negate: bool,
    },
    /// `-m SIGNAL_MATCH`: the delivered signal has a handler installed
    /// and is not unblockable (rule R10).
    SignalMatch,
    /// `-m SYSCALL_ARGS --arg N --equal V [--nequal]` (rule R12).
    SyscallArgs {
        /// Argument index (0 = syscall number).
        arg: u8,
        /// Comparand.
        cmp: ValueExpr,
        /// `--nequal` inverts the comparison.
        negate: bool,
    },
    /// `-m COMPARE --v1 A --v2 B [--nequal]`: compare two context values
    /// (rule R8's owner-match check).
    Compare {
        /// Left operand.
        v1: ValueExpr,
        /// Right operand.
        v2: ValueExpr,
        /// `--nequal` inverts the comparison.
        negate: bool,
    },
    /// `-m ADV_ACCESS [--write|--read] [--inaccessible]`: match on the
    /// object's adversary accessibility (used by generated safe_open and
    /// untrusted-search-path rules).
    AdvAccess {
        /// `true` = integrity (write) accessibility, `false` = secrecy.
        write: bool,
        /// The accessibility value required for the match.
        want: bool,
    },
    /// `-m OWNER --uid N [--nequal]`: match the object's DAC owner.
    /// Complements label matching where DAC identity is the natural
    /// resource attribute (the paper notes DAC labels were an option for
    /// identifying resources in rules; SELinux labels were chosen for
    /// granularity — both are supported here).
    Owner {
        /// Required owner uid.
        uid: u64,
        /// `--nequal` inverts the comparison.
        negate: bool,
    },
    /// `-m INTERP --script /path [--line N]`: match the innermost
    /// interpreter-level frame — the *script* making the request, as
    /// reported by the in-kernel interpreter backtraces of Section 4.4.
    /// Lets distributors scope a rule to one PHP/Python/Bash script
    /// rather than to every script the interpreter runs.
    Interp {
        /// Required script path.
        script: String,
        /// Optional required line number of the call.
        line: Option<u32>,
    },
    /// `-m CALLER --program /path`: match the *main program binary* of
    /// the calling process, independently of the entrypoint frame.
    ///
    /// This is the paper's future-work answer to library-entrypoint
    /// false positives (Section 6.3.1: "libraries are called by a
    /// variety of programs in different environments … these rules must
    /// be predicated on the environment in which the library is used"):
    /// a rule can bind a shared-library entrypoint (`-p lib -i pc`) to
    /// one specific hosting program.
    Caller {
        /// The required main-program binary.
        program: ProgramId,
    },
}

/// What a rule does when a context field it needs *failed* to fetch
/// (`--ctx-missing`), as opposed to being benignly absent.
///
/// Benign absence keeps its historical meaning — the selector simply
/// does not match. A *failed* fetch (see [`crate::env::Fetched`]) is the
/// degraded case this policy governs:
///
/// * `Skip` — treat the rule as not matching and continue (fail-open;
///   the engine default for non-DROP rules);
/// * `Match` — treat the failed selector as satisfied and keep checking
///   the rule's other selectors (conservative matching);
/// * `Drop` — deny the operation immediately, attributed to this rule
///   (fail-closed; the engine default for DROP rules).
///
/// Any of the three marks the decision *degraded* for metrics/TRACE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtxPolicy {
    /// Fail open: the rule does not match.
    Skip,
    /// Conservative: the failed selector counts as satisfied.
    Match,
    /// Fail closed: deny immediately.
    Drop,
}

impl CtxPolicy {
    /// The `--ctx-missing` keyword for this policy.
    pub fn name(self) -> &'static str {
        match self {
            CtxPolicy::Skip => "skip",
            CtxPolicy::Match => "match",
            CtxPolicy::Drop => "drop",
        }
    }

    /// Parses a `--ctx-missing` keyword.
    pub fn parse(tok: &str) -> Option<CtxPolicy> {
        Some(match tok {
            "skip" => CtxPolicy::Skip,
            "match" => CtxPolicy::Match,
            "drop" => CtxPolicy::Drop,
            _ => return None,
        })
    }
}

/// Targets (`-j`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Target {
    /// Terminal: block the access.
    Drop,
    /// Terminal: allow the access immediately.
    Accept,
    /// Non-terminal: fall through to the next rule (useful with side
    /// effects such as LOG).
    Continue,
    /// Leave the current chain (top level: default policy applies).
    Return,
    /// Jump into a user-defined chain.
    Jump(String),
    /// `-j STATE --set --key K --value V`: record state, continue.
    StateSet {
        /// Dictionary key.
        key: u64,
        /// Stored value (often a context reference like `C_INO`).
        value: ValueExpr,
    },
    /// `-j STATE --unset --key K`: clear state, continue.
    StateUnset {
        /// Dictionary key.
        key: u64,
    },
    /// `-j LOG [--tag T]`: emit a JSON log record, continue.
    Log {
        /// Free-form tag carried in the record.
        tag: String,
    },
    /// `-j TRACE`: non-terminal. Once a packet hits a TRACE rule, every
    /// subsequent rule it traverses in the same invocation emits a
    /// structured trace event into the engine's ring buffer — the
    /// iptables TRACE semantics, adapted to one hook invocation.
    Trace,
    /// `-j RATELIMIT --rate N --burst M [--per K] [--exceed P]`: a
    /// keyed token bucket. Within budget the rule continues; over
    /// budget the `--exceed` policy decides (deny by default).
    RateLimit {
        /// Tokens accrued per [`crate::ratelimit::RATE_PERIOD`] ticks.
        rate: u64,
        /// Bucket capacity in whole tokens.
        burst: u64,
        /// What each bucket is keyed by.
        per: PerKey,
        /// What happens to over-budget accesses.
        exceed: ExceedPolicy,
    },
    /// `-j QUOTA --limit N [--window T] [--per K] [--exceed P]`: a
    /// keyed windowed counter — at most N grants per T-tick window.
    Quota {
        /// Grants allowed per window.
        limit: u64,
        /// Window length in virtual-clock ticks.
        window: u64,
        /// What each counter is keyed by.
        per: PerKey,
        /// What happens to over-budget accesses.
        exceed: ExceedPolicy,
    },
}

impl Target {
    /// Returns `true` for targets that end rule processing with a verdict
    /// or a control transfer.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            Target::Drop | Target::Accept | Target::Return | Target::Jump(_)
        )
    }

    /// The target's kind as a rule-language keyword (jump targets all
    /// render as `JUMP`; the chain name is carried elsewhere).
    pub fn kind_name(&self) -> &'static str {
        match self {
            Target::Drop => "DROP",
            Target::Accept => "ACCEPT",
            Target::Continue => "CONTINUE",
            Target::Return => "RETURN",
            Target::Jump(_) => "JUMP",
            Target::StateSet { .. } | Target::StateUnset { .. } => "STATE",
            Target::Log { .. } => "LOG",
            Target::Trace => "TRACE",
            Target::RateLimit { .. } => "RATELIMIT",
            Target::Quota { .. } => "QUOTA",
        }
    }

    /// Whether this target consumes throttle state (RATELIMIT/QUOTA)
    /// and therefore owns a [`ThrottleCell`].
    pub fn is_throttle(&self) -> bool {
        matches!(self, Target::RateLimit { .. } | Target::Quota { .. })
    }
}

/// One complete firewall rule.
///
/// The hit counter is a relaxed atomic so rules can be shared read-only
/// across concurrently evaluating tasks (see `snapshot.rs`); `Clone`
/// carries the current count forward (a reload-edited rule base keeps
/// the tallies of the rules it retained), and equality ignores it — two
/// rules are the same rule regardless of how often they have fired.
#[derive(Debug)]
pub struct Rule {
    /// The default matches.
    pub def: DefaultMatches,
    /// Additional match modules, all of which must match.
    pub matches: Vec<MatchModule>,
    /// The action when everything matches.
    pub target: Target,
    /// Per-rule `--ctx-missing` override; `None` defers to the chain
    /// default, then to the engine default (fail-closed for DROP rules,
    /// fail-open otherwise).
    pub ctx_policy: Option<CtxPolicy>,
    /// The original rule text (for display, deletion, and logs).
    pub text: String,
    /// Times this rule's target fired (match + modules all passed).
    hits: AtomicU64,
    /// Cacheability analysis, match side: `true` when any match module
    /// consults context outside the verdict-cache key (STATE entries,
    /// signal state, syscall args, DAC owners, interpreter frames), so
    /// a walk that reaches this rule's modules is not key-determined.
    pub(crate) vc_impure_match: bool,
    /// Cacheability analysis, target side: `true` for targets with side
    /// effects (STATE writes, LOG, TRACE, throttle-state consumption)
    /// that a cached verdict would fail to replay.
    pub(crate) vc_impure_target: bool,
    /// Throttle state for RATELIMIT/QUOTA targets; `None` otherwise.
    /// Shared by `Clone` (an `Arc`, like the rule itself in snapshots)
    /// so in-flight buckets survive snapshot edits, and ignored by
    /// equality — like `hits`, state is not part of a rule's identity.
    pub(crate) throttle: Option<Arc<ThrottleCell>>,
}

impl Clone for Rule {
    fn clone(&self) -> Self {
        Rule {
            def: self.def.clone(),
            matches: self.matches.clone(),
            target: self.target.clone(),
            ctx_policy: self.ctx_policy,
            text: self.text.clone(),
            hits: AtomicU64::new(self.hits()),
            vc_impure_match: self.vc_impure_match,
            vc_impure_target: self.vc_impure_target,
            throttle: self.throttle.clone(),
        }
    }
}

impl PartialEq for Rule {
    fn eq(&self, other: &Self) -> bool {
        self.def == other.def
            && self.matches == other.matches
            && self.target == other.target
            && self.ctx_policy == other.ctx_policy
            && self.text == other.text
    }
}

impl Eq for Rule {}

impl Rule {
    /// Creates a rule with a zeroed hit counter and no `--ctx-missing`
    /// override.
    pub fn new(
        def: DefaultMatches,
        matches: Vec<MatchModule>,
        target: Target,
        text: String,
    ) -> Self {
        let vc_impure_match = matches.iter().any(module_is_vc_impure);
        let vc_impure_target = matches!(
            target,
            Target::StateSet { .. }
                | Target::StateUnset { .. }
                | Target::Log { .. }
                | Target::Trace
                | Target::RateLimit { .. }
                | Target::Quota { .. }
        );
        let throttle = if target.is_throttle() {
            Some(Arc::new(ThrottleCell::new()))
        } else {
            None
        };
        Rule {
            def,
            matches,
            target,
            ctx_policy: None,
            text,
            hits: AtomicU64::new(0),
            vc_impure_match,
            vc_impure_target,
            throttle,
        }
    }

    /// The throttle state cell backing a RATELIMIT/QUOTA target.
    pub(crate) fn throttle_cell(&self) -> Option<&Arc<ThrottleCell>> {
        self.throttle.as_ref()
    }

    /// Replaces this rule's throttle cell with `cell` — the hot-reload
    /// carryover hook (see `RuleBase::carry_throttle_state`).
    pub(crate) fn adopt_throttle(&mut self, cell: Arc<ThrottleCell>) {
        if self.throttle.is_some() {
            self.throttle = Some(cell);
        }
    }

    /// Whether this rule is *pure* for the verdict cache: a traversal
    /// through it is fully determined by the cache key's context fields
    /// and has no side effects a cached verdict would skip.
    pub fn vc_pure(&self) -> bool {
        !self.vc_impure_match && !self.vc_impure_target
    }

    /// Whether this rule reads the resource identifier through a pure
    /// selector: `-r`, or `C_INO` in a `-m COMPARE`. The verdict-cache
    /// key carries the resource only when a reachable rule does (see
    /// `RuleBase::keys_resource`); impure readers such as `-m STATE`
    /// already keep the whole base out of the cache.
    pub(crate) fn reads_resource(&self) -> bool {
        let ino = ValueExpr::Ctx(CtxField::ResourceId);
        self.def.resource.is_some()
            || self.matches.iter().any(
                |m| matches!(m, MatchModule::Compare { v1, v2, .. } if *v1 == ino || *v2 == ino),
            )
    }

    /// Returns `true` if the rule can live in an entrypoint-specific
    /// chain.
    pub fn has_entrypoint(&self) -> bool {
        self.def.entrypoint().is_some()
    }

    /// Times this rule matched and its target ran.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub(crate) fn bump_hits(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }
}

/// Whether a value expression reads only context that equal
/// verdict-cache keys resolve to equal values: the key fields, the
/// adversary bits (a function of the object label within one adversary
/// generation, and the cache is flushed when that moves), and the
/// resource id (keyed whenever a reachable rule reads it).
fn value_is_key_determined(v: &ValueExpr) -> bool {
    match v {
        ValueExpr::Lit(_) => true,
        ValueExpr::Ctx(f) => matches!(
            f,
            CtxField::Entrypoint
                | CtxField::ResourceId
                | CtxField::ObjectSid
                | CtxField::AdvWrite
                | CtxField::AdvRead
                | CtxField::SubjectOrigin
        ),
    }
}

/// The static cacheability analysis for one match module: impure modules
/// consult per-process or per-call context the verdict-cache key does
/// not cover, so their outcome can change between equal-key invocations.
fn module_is_vc_impure(m: &MatchModule) -> bool {
    match m {
        // STATE entries, signal-handler state, syscall arguments, DAC
        // owners, and interpreter frames are all outside the key.
        MatchModule::State { .. }
        | MatchModule::SignalMatch
        | MatchModule::SyscallArgs { .. }
        | MatchModule::Owner { .. }
        | MatchModule::Interp { .. } => true,
        // COMPARE is pure only over key-covered context references.
        MatchModule::Compare { v1, v2, .. } => {
            !value_is_key_determined(v1) || !value_is_key_determined(v2)
        }
        // Adversary accessibility follows the keyed label (within one
        // adversary generation); the main-program binary is keyed.
        MatchModule::AdvAccess { .. } | MatchModule::Caller { .. } => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_types::InternId;

    #[test]
    fn entrypoint_requires_both_halves() {
        let mut d = DefaultMatches {
            program: Some(InternId(3)),
            ..Default::default()
        };
        assert_eq!(d.entrypoint(), None);
        d.entrypoint_pc = Some(0x596b);
        assert_eq!(d.entrypoint(), Some((InternId(3), 0x596b)));
    }

    #[test]
    fn cacheability_analysis_flags_impure_rules() {
        let rule = |m: Vec<MatchModule>, t: Target| {
            Rule::new(DefaultMatches::default(), m, t, String::new())
        };
        assert!(rule(
            vec![MatchModule::AdvAccess {
                write: true,
                want: true
            }],
            Target::Drop
        )
        .vc_pure());
        let state = rule(
            vec![MatchModule::State {
                key: 1,
                cmp: ValueExpr::Lit(1),
                negate: false,
            }],
            Target::Drop,
        );
        assert!(state.vc_impure_match && !state.vc_impure_target);
        assert!(state.clone().vc_impure_match, "clone keeps the flags");
        assert!(rule(vec![], Target::Log { tag: "t".into() }).vc_impure_target);
        assert!(rule(
            vec![MatchModule::Compare {
                v1: ValueExpr::Ctx(CtxField::ResourceId),
                v2: ValueExpr::Lit(3),
                negate: false,
            }],
            Target::Drop,
        )
        .vc_pure());
        assert!(
            rule(
                vec![MatchModule::Compare {
                    v1: ValueExpr::Ctx(CtxField::DacOwner),
                    v2: ValueExpr::Ctx(CtxField::TgtDacOwner),
                    negate: true,
                }],
                Target::Drop,
            )
            .vc_impure_match,
            "COMPARE over non-key context is impure"
        );
    }

    #[test]
    fn terminality() {
        assert!(Target::Drop.is_terminal());
        assert!(Target::Jump("x".into()).is_terminal());
        assert!(!Target::Trace.is_terminal());
        assert!(!Target::Log { tag: String::new() }.is_terminal());
        assert!(!Target::StateSet {
            key: 1,
            value: ValueExpr::Lit(1)
        }
        .is_terminal());
    }
}
