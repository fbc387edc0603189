//! Chains and the rule base, including automatic entrypoint chains.
//!
//! Network firewalls let administrators organize rules into chains by
//! hand; the Process Firewall builds chains *automatically* from rule
//! entrypoints (Section 4.3). The snapshot compile runs the input chain
//! through the one builder in `compile.rs` twice: an entrypoint-only
//! table (one bucket per entrypoint chain, the generic rules in the
//! wildcard) for EPTSPC, and the three-axis (op, label, entrypoint)
//! table for RULESETC. Partitioning preserves verdicts **only if
//! install order is preserved**: ACCEPT, RETURN, LOG, and STATE rules
//! make outcomes order-dependent, so the engine walks the selected
//! buckets as a merge over ascending install indices, never one bucket
//! after the other. The partition changes how many rules the engine
//! must look at, not the order in which the surviving ones run.
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

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use pf_types::{PfError, PfResult};

use crate::compile::CompiledDispatch;
use crate::rule::{CtxPolicy, Rule, Target};

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

/// The installed rules, per chain, in evaluation order, plus the input
/// chain's compiled dispatch tables.
///
/// `Clone` supports the engine's copy-on-write reload path: rule edits
/// clone the current base, mutate the copy, and publish it as a fresh
/// immutable snapshot (see `snapshot.rs`).
#[derive(Debug, Clone)]
pub struct RuleBase {
    chains: BTreeMap<ChainName, Vec<Rule>>,
    /// Total rules across all chains, recorded at compile time so the
    /// hook path's emptiness test is one load, not a walk of `chains`.
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
    /// Chain-level `--ctx-missing` defaults (`pftables -P chain
    /// --ctx-missing ...`), consulted when a rule has no override.
    ctx_defaults: BTreeMap<ChainName, CtxPolicy>,
    /// RULESETC artifact: the input chain compiled into per-(op, label,
    /// entrypoint) dispatch buckets (see `compile.rs`).
    input_dispatch: CompiledDispatch,
    /// EPTSPC artifact: the same compile on the entrypoint axis only —
    /// one bucket per entrypoint chain, the generic rules in the
    /// wildcard. Also the RULESETC fallback when the label is unreadable.
    input_ept_dispatch: CompiledDispatch,
    /// Batch-compile mode: while set, mutators only mark [`Self::dirty`]
    /// instead of recompiling, so an N-rule reload compiles once instead
    /// of N times (quadratic at 10k+ rules). Entered by
    /// [`SharedRuleset::update`]; never set on a published snapshot.
    ///
    /// [`SharedRuleset::update`]: crate::snapshot::SharedRuleset::update
    deferred: bool,
    /// Whether a mutation happened while `deferred` was set.
    dirty: bool,
}

impl Default for RuleBase {
    fn default() -> Self {
        RuleBase {
            chains: BTreeMap::new(),
            rule_count: 0,
            statically_cacheable: true,
            keys_resource: false,
            ctx_defaults: BTreeMap::new(),
            input_dispatch: CompiledDispatch::default(),
            input_ept_dispatch: CompiledDispatch::default(),
            deferred: false,
            dirty: false,
        }
    }
}

impl RuleBase {
    /// Creates an empty rule base.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends (or with `insert_head`, prepends) a rule to a chain.
    pub fn add(&mut self, chain: ChainName, rule: Rule, insert_head: bool) {
        let rules = self.chains.entry(chain).or_default();
        if insert_head {
            rules.insert(0, rule);
        } else {
            rules.push(rule);
        }
        self.mark_changed();
    }

    /// Deletes the first rule in `chain` whose text equals `text`.
    pub fn delete(&mut self, chain: &ChainName, text: &str) -> PfResult<()> {
        let rules = self
            .chains
            .get_mut(chain)
            .ok_or_else(|| PfError::RuleError(format!("no such chain {chain:?}")))?;
        let pos = rules
            .iter()
            .position(|r| r.text == text)
            .ok_or_else(|| PfError::RuleError(format!("no matching rule in {chain:?}")))?;
        rules.remove(pos);
        self.mark_changed();
        Ok(())
    }

    /// Removes every rule from every chain.
    pub fn clear(&mut self) {
        self.chains.clear();
        self.mark_changed();
    }

    /// Declares an empty user chain (`pftables -N name`).
    pub fn new_chain(&mut self, chain: ChainName) -> PfResult<()> {
        if self.chains.contains_key(&chain) {
            return Err(PfError::RuleError(format!(
                "chain `{}` already exists",
                chain.name()
            )));
        }
        self.chains.insert(chain, Vec::new());
        self.mark_changed();
        Ok(())
    }

    /// Empties one chain (`pftables -F chain`), keeping it declared.
    pub fn flush(&mut self, chain: &ChainName) -> PfResult<()> {
        match self.chains.get_mut(chain) {
            Some(rules) => {
                rules.clear();
                self.mark_changed();
                Ok(())
            }
            None => Err(PfError::RuleError(format!(
                "no such chain `{}`",
                chain.name()
            ))),
        }
    }

    /// Deletes an *empty user* chain (`pftables -X name`). Built-in
    /// chains cannot be deleted, and non-empty chains must be flushed
    /// first — `iptables` semantics.
    pub fn delete_chain(&mut self, chain: &ChainName) -> PfResult<()> {
        if !matches!(chain, ChainName::User(_)) {
            return Err(PfError::RuleError(format!(
                "cannot delete built-in chain `{}`",
                chain.name()
            )));
        }
        match self.chains.get(chain) {
            Some(rules) if rules.is_empty() => {
                self.chains.remove(chain);
                self.mark_changed();
                Ok(())
            }
            Some(_) => Err(PfError::RuleError(format!(
                "chain `{}` is not empty (flush it first)",
                chain.name()
            ))),
            None => Err(PfError::RuleError(format!(
                "no such chain `{}`",
                chain.name()
            ))),
        }
    }

    /// Rules of one chain, in order.
    pub fn chain(&self, chain: &ChainName) -> &[Rule] {
        self.chains.get(chain).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total rules across all chains, as of the last compile (a batch
    /// edit's draft compiles once, at publication).
    pub fn len(&self) -> usize {
        self.rule_count
    }

    /// Returns `true` when no rules are installed (as of the last
    /// compile, like [`Self::len`]).
    pub fn is_empty(&self) -> bool {
        self.rule_count == 0
    }

    /// Iterates over `(chain, rules)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&ChainName, &[Rule])> {
        self.chains.iter().map(|(c, r)| (c, r.as_slice()))
    }

    /// Hot-reload carryover for throttle state: every RATELIMIT/QUOTA
    /// rule in `self` whose text matches a throttle rule in the same
    /// chain of `old` adopts the old rule's live [`ThrottleCell`], so
    /// in-flight token buckets survive a reload that re-submits the
    /// same rule (even at a different position). Matching is by full
    /// rule text, first-come within a chain (duplicates pair up in
    /// order); a *changed* rule matches nothing and keeps the fresh
    /// cell `Rule::new` built — changing a rule resets its buckets.
    ///
    /// [`ThrottleCell`]: crate::ratelimit::ThrottleCell
    pub(crate) fn carry_throttle_state(&mut self, old: &RuleBase) {
        for (chain, rules) in self.chains.iter_mut() {
            let old_rules = match old.chains.get(chain) {
                Some(r) => r,
                None => continue,
            };
            // Queue the old chain's live cells by rule text, in chain
            // order, so duplicates pair up first-come — the same
            // pairing the former linear re-scan produced, but O(n)
            // instead of O(new × old) (quadratic reloads were visible
            // at the 10k-rule scale RULESETC targets).
            let mut cells: HashMap<&str, std::collections::VecDeque<&Arc<_>>> = HashMap::new();
            for o in old_rules.iter().filter(|o| o.target.is_throttle()) {
                if let Some(cell) = o.throttle_cell() {
                    cells.entry(o.text.as_str()).or_default().push_back(cell);
                }
            }
            for rule in rules.iter_mut().filter(|r| r.target.is_throttle()) {
                if let Some(cell) = cells
                    .get_mut(rule.text.as_str())
                    .and_then(|q| q.pop_front())
                {
                    rule.adopt_throttle(Arc::clone(cell));
                }
            }
        }
    }

    /// Called by every mutator: recompile immediately, or — in the
    /// deferred mode a batch edit enters via [`Self::set_deferred`] —
    /// just remember that a recompile is owed.
    fn mark_changed(&mut self) {
        if self.deferred {
            self.dirty = true;
        } else {
            self.recompile();
        }
    }

    /// Enters batch-compile mode: subsequent mutations skip the
    /// per-mutation [`Self::recompile`] until [`Self::finish_deferred`].
    pub(crate) fn set_deferred(&mut self) {
        self.deferred = true;
    }

    /// Leaves batch-compile mode, recompiling once if any mutation
    /// happened while it was on. Returns `true` if a recompile ran (the
    /// caller times it for the reload-commit event).
    pub(crate) fn finish_deferred(&mut self) -> bool {
        let owed = self.dirty;
        self.deferred = false;
        self.dirty = false;
        if owed {
            self.recompile();
        }
        owed
    }

    /// Snapshot compile step, run on every rule-base mutation: rebuilds
    /// the input chain's two dispatch tables, the rule count and the
    /// static cacheability summary.
    fn recompile(&mut self) {
        self.rule_count = self.chains.values().map(Vec::len).sum();
        (self.statically_cacheable, self.keys_resource) = self.vcache_summary();
        let input = self.chain(&ChainName::Input);
        let tables = (
            CompiledDispatch::compile(input),
            CompiledDispatch::compile_entrypoint_only(input),
        );
        (self.input_dispatch, self.input_ept_dispatch) = tables;
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

    /// Sets (or with `None`, clears) a chain's `--ctx-missing` default.
    pub fn set_ctx_default(&mut self, chain: ChainName, policy: Option<CtxPolicy>) {
        match policy {
            Some(p) => {
                self.ctx_defaults.insert(chain, p);
            }
            None => {
                self.ctx_defaults.remove(&chain);
            }
        }
    }

    /// The chain's `--ctx-missing` default, if one was configured.
    pub fn ctx_default(&self, chain: &ChainName) -> Option<CtxPolicy> {
        self.ctx_defaults.get(chain).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::{DefaultMatches, Target};
    use pf_types::InternId;

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
        let mut rb = RuleBase::new();
        rb.add(ChainName::Input, rule("a", None), false);
        rb.add(ChainName::Input, rule("b", None), true);
        let texts: Vec<_> = rb
            .chain(&ChainName::Input)
            .iter()
            .map(|r| r.text.as_str())
            .collect();
        assert_eq!(texts, ["b", "a"]);
    }

    #[test]
    fn entrypoint_partition() {
        let mut rb = RuleBase::new();
        rb.add(ChainName::Input, rule("gen", None), false);
        rb.add(ChainName::Input, rule("e1", Some((1, 0x10))), false);
        rb.add(ChainName::Input, rule("e1b", Some((1, 0x10))), false);
        rb.add(ChainName::Input, rule("e2", Some((2, 0x20))), false);
        let eptspc = rb.input_ept_dispatch();
        assert_eq!(eptspc.wildcard_len(), 1, "one generic rule");
        assert_eq!(eptspc.bucket_count(), 2, "two entrypoint chains");
    }

    #[test]
    fn delete_by_text() {
        let mut rb = RuleBase::new();
        rb.add(ChainName::Input, rule("a", None), false);
        rb.add(ChainName::Input, rule("b", Some((1, 2))), false);
        rb.delete(&ChainName::Input, "b").unwrap();
        assert_eq!(rb.len(), 1);
        assert_eq!(rb.input_ept_dispatch().bucket_count(), 0);
        assert!(!rb.input_ept_dispatch().has_ept_buckets());
        assert!(rb.delete(&ChainName::Input, "zzz").is_err());
    }

    #[test]
    fn static_cacheability_follows_jump_reachability() {
        use crate::rule::MatchModule;
        use crate::value::ValueExpr;

        let mut rb = RuleBase::new();
        assert!(rb.statically_cacheable(), "empty base is trivially pure");
        rb.add(ChainName::Input, rule("pure", Some((1, 0x10))), false);
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
        rb.add(ChainName::User("island".into()), state_rule, false);
        assert!(rb.statically_cacheable());

        // …until a jump from input makes it reachable.
        let jump = Rule::new(
            DefaultMatches::default(),
            vec![],
            Target::Jump(ChainName::User("island".into())),
            "jump".to_owned(),
        );
        rb.add(ChainName::Input, jump, false);
        assert!(!rb.statically_cacheable());

        // Deleting the jump restores the summary.
        rb.delete(&ChainName::Input, "jump").unwrap();
        assert!(rb.statically_cacheable());
    }

    #[test]
    fn keys_resource_follows_jump_reachability() {
        use crate::context::CtxField;
        use crate::rule::MatchModule;
        use crate::value::ValueExpr;

        let mut rb = RuleBase::new();
        rb.add(ChainName::Input, rule("label-only", Some((1, 0x10))), false);
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
        rb.add(ChainName::User("island".into()), by_resource, false);
        assert!(!rb.keys_resource());

        // …until a jump from input makes it reachable…
        let jump = Rule::new(
            DefaultMatches::default(),
            vec![],
            Target::Jump(ChainName::User("island".into())),
            "jump".to_owned(),
        );
        rb.add(ChainName::Input, jump, false);
        assert!(rb.statically_cacheable() && rb.keys_resource());

        // …and deleting the jump restores per-class keying.
        rb.delete(&ChainName::Input, "jump").unwrap();
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
        rb.add(ChainName::Input, compare, false);
        assert!(rb.statically_cacheable() && rb.keys_resource());
        assert_eq!(rb.len(), 3);
    }

    #[test]
    fn user_chains_are_separate() {
        let mut rb = RuleBase::new();
        rb.add(
            ChainName::User("signal_chain".into()),
            rule("s", None),
            false,
        );
        assert_eq!(rb.chain(&ChainName::Input).len(), 0);
        assert_eq!(rb.chain(&ChainName::User("signal_chain".into())).len(), 1);
    }
}
