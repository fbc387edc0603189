//! Chains and the compiled rule base, including automatic entrypoint
//! chains.
//!
//! Network firewalls let administrators organize rules into chains by
//! hand; the Process Firewall builds chains *automatically* from rule
//! entrypoints (Section 4.3). The snapshot compile runs the input chain
//! through the one builder in `compile.rs` twice: an entrypoint-only
//! table (one leaf per entrypoint chain, the generic rules in the
//! wildcard) for EPTSPC, and the three-level (op → label → entrypoint)
//! tree for RULESETC. Partitioning preserves verdicts **only if
//! install order is preserved**: ACCEPT, RETURN, LOG, and STATE rules
//! make outcomes order-dependent, so the engine walks the selected
//! leaves as a merge over ascending install indices, never one leaf
//! after the other. The partition changes how many rules the engine
//! must look at, not the order in which the surviving ones run.
//!
//! A [`RuleBase`] is compiled once and never edited. Chains hold
//! `Arc<Rule>`, so the draft an edit works on (`snapshot.rs`) copies
//! rule pointers, and consecutive generations share every rule they
//! have in common.
//!
//! Rule compilation also performs the **static cacheability analysis**
//! backing the VCACHE verdict cache: each rule carries purity flags
//! (computed in `rule.rs` from its modules and target), and one walk of
//! the jump graph summarizes whether every rule reachable from the
//! built-in chains is key-determined and side-effect free
//! ([`RuleBase::statically_cacheable`]; when not, the engine bypasses
//! the cache for the whole snapshot) and whether any of them reads the
//! resource identifier ([`RuleBase::keys_resource`]; when not, the
//! verdict key leaves the resource out, so every object of one label
//! class shares an entry).

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::compile::CompiledDispatch;
use crate::rule::{Rule, Target};

/// A chain designator.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ChainName {
    /// Built-in: resource deliveries into the process (the default).
    Input,
    /// Built-in: data leaving the process (reserved; parsed, unused).
    Output,
    /// Built-in: evaluated at the start of every system call (rule R12).
    SyscallBegin,
    /// A user-defined chain reachable via `-j NAME`. The name is
    /// shared, so a TRACE hop or counter key naming the chain is a
    /// reference-count bump rather than a copy.
    User(Arc<str>),
}

impl ChainName {
    /// Parses a chain name; unknown names become user chains.
    pub fn parse(s: &str) -> ChainName {
        match s.to_ascii_lowercase().as_str() {
            "input" => ChainName::Input,
            "output" => ChainName::Output,
            "syscallbegin" => ChainName::SyscallBegin,
            other => ChainName::User(other.into()),
        }
    }

    /// The canonical printed name.
    pub fn name(&self) -> String {
        self.as_str().to_owned()
    }

    /// The canonical name without allocating — used on metrics paths.
    pub fn as_str(&self) -> &str {
        match self {
            ChainName::Input => "input",
            ChainName::Output => "output",
            ChainName::SyscallBegin => "syscallbegin",
            ChainName::User(s) => s,
        }
    }
}

/// The rules of every chain, in evaluation order. Chains hold shared
/// rules, so copying a `Chains` copies pointers, never rules.
pub(crate) type Chains = BTreeMap<ChainName, Vec<Arc<Rule>>>;

/// A compiled rule base: the installed rules, per chain, plus the input
/// chain's dispatch tables and the cacheability summary.
///
/// Immutable once compiled. Edits happen on a
/// [`RulesetDraft`], which copies the chains' rule pointers; publication
/// compiles a new base only when the rules changed, and a config-only
/// edit shares the published one (see `snapshot.rs`).
///
/// [`RulesetDraft`]: crate::snapshot::RulesetDraft
#[derive(Debug)]
pub struct RuleBase {
    chains: Chains,
    /// Total rules across all chains, so the hook path's emptiness test
    /// is one load, not a walk of `chains`.
    rule_count: usize,
    /// Static cacheability summary: `true` when every rule reachable
    /// from the built-in chains (following `-j` jumps) is pure for the
    /// verdict cache. When `false` the engine bypasses the cache for
    /// every invocation on this snapshot.
    statically_cacheable: bool,
    /// Whether some rule reachable from the built-in chains reads the
    /// resource identifier (`-r`, or `C_INO` in `-m COMPARE`), so the
    /// verdict key must carry it. Computed in the same jump-graph walk
    /// as `statically_cacheable`.
    keys_resource: bool,
    /// RULESETC artifact: the input chain compiled into the (op → label
    /// → entrypoint) dispatch tree (see `compile.rs`).
    input_dispatch: CompiledDispatch,
    /// EPTSPC artifact: the same compile on the entrypoint axis only —
    /// one leaf per entrypoint chain, the generic rules in the
    /// wildcard. Also the RULESETC fallback when the label is unreadable.
    input_ept_dispatch: CompiledDispatch,
}

impl RuleBase {
    /// The snapshot compile: takes the rules of every chain and builds
    /// the input chain's two dispatch tables, the rule count and the
    /// static cacheability summary.
    pub(crate) fn compile(chains: Chains) -> Self {
        let mut base = RuleBase {
            rule_count: chains.values().map(Vec::len).sum(),
            chains,
            statically_cacheable: true,
            keys_resource: false,
            input_dispatch: CompiledDispatch::default(),
            input_ept_dispatch: CompiledDispatch::default(),
        };
        (base.statically_cacheable, base.keys_resource) = base.vcache_summary();
        let input = base.chain(&ChainName::Input);
        let tables = (
            CompiledDispatch::compile(input),
            CompiledDispatch::compile_entrypoint_only(input),
        );
        (base.input_dispatch, base.input_ept_dispatch) = tables;
        base
    }

    /// Every chain's rules.
    pub(crate) fn chains(&self) -> &Chains {
        &self.chains
    }

    /// Rules of one chain, in order.
    pub fn chain(&self, chain: &ChainName) -> &[Arc<Rule>] {
        self.chains.get(chain).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total rules across all chains.
    pub fn len(&self) -> usize {
        self.rule_count
    }

    /// Returns `true` when no rules are installed.
    pub fn is_empty(&self) -> bool {
        self.rule_count == 0
    }

    /// Iterates over `(chain, rules)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&ChainName, &[Arc<Rule>])> {
        self.chains.iter().map(|(c, r)| (c, r.as_slice()))
    }

    /// Walks the jump graph from the built-in chains and reports
    /// `(statically_cacheable, keys_resource)`: whether every reachable
    /// rule is pure for the verdict cache, and whether any reads the
    /// resource identifier. The second answer only matters when the
    /// first is `true`, so an impure rule ends the walk.
    fn vcache_summary(&self) -> (bool, bool) {
        let mut pending = vec![ChainName::Input, ChainName::SyscallBegin];
        let mut visited: Vec<ChainName> = Vec::new();
        let mut keys_resource = false;
        while let Some(chain) = pending.pop() {
            if visited.contains(&chain) {
                continue;
            }
            for rule in self.chain(&chain) {
                if !rule.vc_pure() {
                    return (false, false);
                }
                keys_resource |= rule.reads_resource();
                if let Target::Jump(sub) = &rule.target {
                    pending.push(sub.clone());
                }
            }
            visited.push(chain);
        }
        (true, keys_resource)
    }

    /// Whether every rule reachable from the built-in chains is pure for
    /// the verdict cache (no STATE/signal/syscall-arg/owner/interpreter
    /// matchers, no STATE/LOG/TRACE/throttle targets). When `true`,
    /// every non-degraded traversal outcome is cache-eligible; when
    /// `false`, the engine bypasses the cache for the whole snapshot,
    /// including the walks that would have avoided the impure rules.
    pub fn statically_cacheable(&self) -> bool {
        self.statically_cacheable
    }

    /// Whether the verdict key carries the resource identifier: `true`
    /// when some reachable rule reads it (`-r`, or `C_INO` in
    /// `-m COMPARE`). When `false`, objects of one label class share a
    /// cache entry.
    pub fn keys_resource(&self) -> bool {
        self.keys_resource
    }

    /// The compiled RULESETC dispatch table for the input chain.
    pub fn input_dispatch(&self) -> &CompiledDispatch {
        &self.input_dispatch
    }

    /// The entrypoint-only dispatch table for the input chain (EPTSPC).
    pub fn input_ept_dispatch(&self) -> &CompiledDispatch {
        &self.input_ept_dispatch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PfConfig;
    use crate::rule::{DefaultMatches, Target};
    use crate::snapshot::{RulesetDraft, RulesetSnapshot, SharedRuleset};
    use pf_types::{InternId, LsmOperation, PfResult};

    fn rule(text: &str, ept: Option<(u32, u64)>) -> Rule {
        Rule::new(
            DefaultMatches {
                program: ept.map(|(p, _)| InternId(p)),
                entrypoint_pc: ept.map(|(_, pc)| pc),
                ..Default::default()
            },
            vec![],
            Target::Drop,
            text.to_owned(),
        )
    }

    /// Edits `shared` through a draft and returns the snapshot the edit
    /// published, whose base is the compiled result.
    fn publish(
        shared: &SharedRuleset,
        edit: impl FnOnce(&mut RulesetDraft) -> PfResult<()>,
    ) -> Arc<RulesetSnapshot> {
        shared.update(edit).unwrap();
        shared.load()
    }

    fn add(chain: ChainName, rule: Rule) -> impl FnOnce(&mut RulesetDraft) -> PfResult<()> {
        move |d| {
            d.add(chain, rule, false);
            Ok(())
        }
    }

    #[test]
    fn chain_name_parsing() {
        assert_eq!(ChainName::parse("input"), ChainName::Input);
        assert_eq!(ChainName::parse("INPUT"), ChainName::Input);
        assert_eq!(
            ChainName::parse("signal_chain"),
            ChainName::User("signal_chain".into())
        );
    }

    #[test]
    fn add_and_head_insert_ordering() {
        let shared = SharedRuleset::new(PfConfig::default());
        let rb = publish(&shared, |d| {
            d.add(ChainName::Input, rule("a", None), false);
            d.add(ChainName::Input, rule("b", None), true);
            Ok(())
        });
        let texts: Vec<_> = rb
            .chain(&ChainName::Input)
            .iter()
            .map(|r| r.text.as_str())
            .collect();
        assert_eq!(texts, ["b", "a"]);
    }

    #[test]
    fn entrypoint_partition() {
        let shared = SharedRuleset::new(PfConfig::default());
        let rb = publish(&shared, |d| {
            d.add(ChainName::Input, rule("gen", None), false);
            d.add(ChainName::Input, rule("e1", Some((1, 0x10))), false);
            d.add(ChainName::Input, rule("e1b", Some((1, 0x10))), false);
            d.add(ChainName::Input, rule("e2", Some((2, 0x20))), false);
            Ok(())
        });
        let eptspc = rb.input_ept_dispatch();
        assert_eq!(eptspc.wildcard_len(), 1, "one generic rule");
        assert_eq!(eptspc.bucket_count(), 2, "two entrypoint chains");
    }

    #[test]
    fn delete_by_text() {
        let shared = SharedRuleset::new(PfConfig::default());
        publish(&shared, |d| {
            d.add(ChainName::Input, rule("a", None), false);
            d.add(ChainName::Input, rule("b", Some((1, 2))), false);
            Ok(())
        });
        let rb = publish(&shared, |d| d.delete(&ChainName::Input, "b"));
        assert_eq!(rb.len(), 1);
        assert_eq!(rb.input_ept_dispatch().bucket_count(), 0);
        let by_label = rb
            .input_ept_dispatch()
            .by_op(LsmOperation::FileOpen)
            .by_label(None);
        assert!(!by_label.indexes_entrypoints());
        assert!(shared
            .update(|d| d.delete(&ChainName::Input, "zzz"))
            .is_err());
    }

    #[test]
    fn static_cacheability_follows_jump_reachability() {
        use crate::rule::MatchModule;
        use crate::value::ValueExpr;

        let shared = SharedRuleset::new(PfConfig::default());
        assert!(
            shared.load().statically_cacheable(),
            "empty base is trivially pure"
        );
        let rb = publish(
            &shared,
            add(ChainName::Input, rule("pure", Some((1, 0x10)))),
        );
        assert!(rb.statically_cacheable());

        // An impure rule in an unreachable user chain does not count…
        let state_rule = Rule::new(
            DefaultMatches::default(),
            vec![MatchModule::State {
                key: 1,
                cmp: ValueExpr::Lit(1),
                negate: false,
            }],
            Target::Drop,
            "state".to_owned(),
        );
        let rb = publish(&shared, add(ChainName::User("island".into()), state_rule));
        assert!(rb.statically_cacheable());

        // …until a jump from input makes it reachable.
        let jump = Rule::new(
            DefaultMatches::default(),
            vec![],
            Target::Jump(ChainName::User("island".into())),
            "jump".to_owned(),
        );
        let rb = publish(&shared, add(ChainName::Input, jump));
        assert!(!rb.statically_cacheable());

        // Deleting the jump restores the summary.
        let rb = publish(&shared, |d| d.delete(&ChainName::Input, "jump"));
        assert!(rb.statically_cacheable());
    }

    #[test]
    fn keys_resource_follows_jump_reachability() {
        use crate::context::CtxField;
        use crate::rule::MatchModule;
        use crate::value::ValueExpr;

        let shared = SharedRuleset::new(PfConfig::default());
        let rb = publish(
            &shared,
            add(ChainName::Input, rule("label-only", Some((1, 0x10)))),
        );
        assert!(rb.statically_cacheable() && !rb.keys_resource());

        // A `-r` rule in an unreachable user chain does not count…
        let by_resource = Rule::new(
            DefaultMatches {
                resource: Some(7),
                ..Default::default()
            },
            vec![],
            Target::Drop,
            "r".to_owned(),
        );
        let rb = publish(&shared, add(ChainName::User("island".into()), by_resource));
        assert!(!rb.keys_resource());

        // …until a jump from input makes it reachable…
        let jump = Rule::new(
            DefaultMatches::default(),
            vec![],
            Target::Jump(ChainName::User("island".into())),
            "jump".to_owned(),
        );
        let rb = publish(&shared, add(ChainName::Input, jump));
        assert!(rb.statically_cacheable() && rb.keys_resource());

        // …and deleting the jump restores per-class keying.
        let rb = publish(&shared, |d| d.delete(&ChainName::Input, "jump"));
        assert!(!rb.keys_resource());

        // `C_INO` in a COMPARE reads the resource as well.
        let compare = Rule::new(
            DefaultMatches::default(),
            vec![MatchModule::Compare {
                v1: ValueExpr::Lit(7),
                v2: ValueExpr::Ctx(CtxField::ResourceId),
                negate: false,
            }],
            Target::Drop,
            "cmp".to_owned(),
        );
        let rb = publish(&shared, add(ChainName::Input, compare));
        assert!(rb.statically_cacheable() && rb.keys_resource());
        assert_eq!(rb.len(), 3);
    }

    #[test]
    fn user_chains_are_separate() {
        let shared = SharedRuleset::new(PfConfig::default());
        let rb = publish(
            &shared,
            add(ChainName::User("signal_chain".into()), rule("s", None)),
        );
        assert_eq!(rb.chain(&ChainName::Input).len(), 0);
        assert_eq!(rb.chain(&ChainName::User("signal_chain".into())).len(), 1);
    }
}
