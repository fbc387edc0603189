//! Immutable ruleset snapshots and the shared swap cell.
//!
//! The Process Firewall is re-entrant: its hooks run from many tasks at
//! once (the paper's LSM hooks execute with interrupts enabled and keep
//! only *per-process* traversal state, Section 5.1). The scalable shape
//! for that workload is the read-mostly snapshot discipline of network
//! firewalls: the compiled rule base is an **immutable** value shared
//! behind an [`Arc`], evaluation never locks or writes it, and rule
//! edits build a *new* snapshot and publish it with one pointer swap.
//!
//! [`SharedRuleset`] is the swap cell — a hand-rolled arc-swap built
//! from `Mutex<Arc<RulesetSnapshot>>` plus an atomic generation mirror:
//!
//! * **Writers** (`pftables` commands, level changes, hot reloads) take
//!   the mutex and edit a [`RulesetDraft`]: the published config, chain
//!   defaults and rule *pointers* — rules are shared `Arc<Rule>` values,
//!   so the draft copies no rule. Publication adopts the published
//!   `Arc` for every re-submitted rule that equals one already in its
//!   chain, compiles a new [`RuleBase`] only when the rules changed
//!   (a config-only edit shares the published base), and stores a
//!   fresh snapshot `Arc` with the generation bumped. Holding the mutex
//!   across copy → edit → swap serializes writers, so edits are never
//!   lost and generations are strictly ordered.
//! * **Readers** call [`SharedRuleset::load`], which locks only long
//!   enough to clone the `Arc` (two atomic ops; no allocation, no
//!   contention with evaluation). Sessions avoid even that in the
//!   steady state: [`SharedRuleset::generation`] is a lock-free load of
//!   the mirror, and a session re-`load`s only when the generation it
//!   has pinned is stale (see `session.rs`).
//!
//! Because a snapshot is never mutated after publication, every
//! in-flight invocation sees exactly one consistent ruleset — the one
//! it started with — and a reload is **linearizable**: invocations
//! before the swap see the old rules, invocations after see the new
//! ones, and nothing ever observes a mix. The snapshot's generation
//! number is carried into every [`crate::engine::EvalDecision`] so
//! tests (and auditors) can attribute each verdict to the exact ruleset
//! that produced it.
//!
//! A rule's live state — its hit counter and throttle buckets — belongs
//! to the rule, so it follows the rule's identity: every generation
//! that shares the `Arc` shares the state, a session pinned to an old
//! snapshot bumps the same counters as one on the new snapshot, and a
//! changed rule (new text, or a `SYSHIGH` set that expanded
//! differently) starts fresh.

use std::collections::{BTreeMap, HashMap};
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use pf_types::{PfError, PfResult};

use crate::chain::{ChainName, Chains, RuleBase};
use crate::config::PfConfig;
use crate::rule::{CtxPolicy, Rule};

/// One immutable published state of the firewall: the configuration,
/// the chain `--ctx-missing` defaults, the compiled rule base (chains +
/// dispatch tables), and the generation number under which it was
/// published.
///
/// Snapshots are frozen at publication; all mutation happens on a
/// [`RulesetDraft`] inside [`SharedRuleset::update`]. The rule hit
/// counters inside are relaxed atomics and remain live — they are
/// statistics, not semantics.
#[derive(Debug)]
pub struct RulesetSnapshot {
    config: PfConfig,
    /// Chain-level `--ctx-missing` defaults (`pftables -P chain
    /// --ctx-missing ...`), consulted when a rule has no override.
    ctx_defaults: BTreeMap<ChainName, CtxPolicy>,
    /// Shared with the previous snapshot when the edit left the rules
    /// alone.
    base: Arc<RuleBase>,
    generation: u64,
    /// Wall-clock nanoseconds the compile took inside the
    /// [`SharedRuleset::update`] that published this snapshot; 0 when
    /// the edit left the rules unchanged (e.g. a level change).
    compile_ns: u64,
}

impl RulesetSnapshot {
    /// The configuration this snapshot was published with.
    pub fn config(&self) -> PfConfig {
        self.config
    }

    /// The compiled rule base.
    pub fn base(&self) -> &RuleBase {
        &self.base
    }

    /// The publication generation: 0 for a fresh firewall, +1 per swap.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Nanoseconds spent compiling this snapshot's rule base (the input
    /// chain's entrypoint-only and three-axis dispatch tables, plus the
    /// cacheability analysis).
    pub fn compile_ns(&self) -> u64 {
        self.compile_ns
    }

    /// The chain's `--ctx-missing` default, if one was configured.
    pub fn ctx_default(&self, chain: &ChainName) -> Option<CtxPolicy> {
        self.ctx_defaults.get(chain).copied()
    }

    /// Every installed rule's original text, sorted — the multiset the
    /// reload self-observability events diff to report how big an edit
    /// was.
    pub fn rule_texts_sorted(&self) -> Vec<&str> {
        let mut texts: Vec<&str> = self
            .base
            .iter()
            .flat_map(|(_, rules)| rules.iter().map(|r| r.text.as_str()))
            .collect();
        texts.sort_unstable();
        texts
    }

    /// The rule-diff size against `other`: rules present in one
    /// snapshot's text multiset but not the other's (added + removed).
    /// Text-level and order-insensitive, so it counts what an operator
    /// changed in the rule lines. Rule identity is stricter: a line
    /// whose `SYSHIGH` expansion changed is no diff here, but it is a
    /// new rule with fresh state.
    pub fn rule_diff(&self, other: &RulesetSnapshot) -> u64 {
        let a = self.rule_texts_sorted();
        let b = other.rule_texts_sorted();
        let (mut i, mut j, mut diff) = (0usize, 0usize, 0u64);
        while i < a.len() && j < b.len() {
            match a[i].cmp(b[j]) {
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
                std::cmp::Ordering::Less => {
                    diff += 1;
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    diff += 1;
                    j += 1;
                }
            }
        }
        diff + (a.len() - i) as u64 + (b.len() - j) as u64
    }
}

impl Deref for RulesetSnapshot {
    type Target = RuleBase;

    fn deref(&self) -> &RuleBase {
        &self.base
    }
}

/// The mutable draft a [`SharedRuleset::update`] closure edits before
/// it is published as the next snapshot.
///
/// The draft starts as a copy of the published state. Its chains hold
/// the published rules' pointers, so the copy shares every rule, and
/// the mutators only edit those lists — the compile runs once, at
/// publication, and only when the rules changed.
#[derive(Debug)]
pub struct RulesetDraft {
    /// The configuration to publish.
    pub config: PfConfig,
    /// The chain `--ctx-missing` defaults to publish.
    pub ctx_defaults: BTreeMap<ChainName, CtxPolicy>,
    chains: Chains,
}

impl RulesetDraft {
    /// Appends (or with `insert_head`, prepends) a rule to a chain.
    pub fn add(&mut self, chain: ChainName, rule: Rule, insert_head: bool) {
        let rules = self.chains.entry(chain).or_default();
        let rule = Arc::new(rule);
        if insert_head {
            rules.insert(0, rule);
        } else {
            rules.push(rule);
        }
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
        Ok(())
    }

    /// Removes every rule and every chain.
    pub fn clear(&mut self) {
        self.chains.clear();
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
        Ok(())
    }

    /// Empties one chain (`pftables -F chain`), keeping it declared.
    pub fn flush(&mut self, chain: &ChainName) -> PfResult<()> {
        match self.chains.get_mut(chain) {
            Some(rules) => {
                rules.clear();
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

    /// Adoption at publication: every rule this edit added that equals
    /// a rule of the same chain in `published` (text and parse alike,
    /// by `Rule: PartialEq`) is replaced by that rule's `Arc`, so a line
    /// re-submitted verbatim keeps its identity, its hit counter and its
    /// throttle buckets. Published rules the draft kept pair with
    /// themselves; the rest pair with added rules first-come, so
    /// duplicates pair in order and a changed rule keeps its fresh state.
    fn adopt(&mut self, published: &RuleBase) {
        // Only the draft holds a rule the edit added; every rule it kept
        // is also held by `published`.
        let added = |r: &Arc<Rule>| Arc::strong_count(r) == 1;
        for (chain, rules) in self.chains.iter_mut() {
            if !rules.iter().any(added) {
                continue;
            }
            let mut spare: HashMap<&str, Vec<&Arc<Rule>>> = HashMap::new();
            for old in published.chain(chain) {
                spare.entry(old.text.as_str()).or_default().push(old);
            }
            for kept in rules.iter().filter(|r| !added(r)) {
                if let Some(queue) = spare.get_mut(kept.text.as_str()) {
                    queue.retain(|old| !Arc::ptr_eq(old, kept));
                }
            }
            for rule in rules.iter_mut().filter(|r| added(r)) {
                let Some(queue) = spare.get_mut(rule.text.as_str()) else {
                    continue;
                };
                if let Some(pos) = queue.iter().position(|old| ***old == **rule) {
                    *rule = Arc::clone(queue.remove(pos));
                }
            }
        }
    }
}

/// Whether two chain sets hold the same rules — the same `Arc`s, in
/// the same chains and order.
fn same_rules(a: &Chains, b: &Chains) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|((ca, ra), (cb, rb))| {
            ca == cb && ra.len() == rb.len() && ra.iter().zip(rb).all(|(x, y)| Arc::ptr_eq(x, y))
        })
}

/// The shared swap cell holding the currently published snapshot.
pub struct SharedRuleset {
    current: Mutex<Arc<RulesetSnapshot>>,
    /// Lock-free mirror of `current`'s generation, written inside the
    /// writer lock with `Release` so a reader that observes generation
    /// `g` via `Acquire` can only `load()` a snapshot with generation
    /// `>= g`.
    generation: AtomicU64,
}

impl std::fmt::Debug for SharedRuleset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.load();
        f.debug_struct("SharedRuleset")
            .field("generation", &snap.generation())
            .field("rules", &snap.len())
            .finish()
    }
}

impl SharedRuleset {
    /// Publishes generation 0: the given configuration, no rules.
    pub fn new(config: PfConfig) -> Self {
        SharedRuleset {
            current: Mutex::new(Arc::new(RulesetSnapshot {
                config,
                ctx_defaults: BTreeMap::new(),
                base: Arc::new(RuleBase::compile(Chains::new())),
                generation: 0,
                compile_ns: 0,
            })),
            generation: AtomicU64::new(0),
        }
    }

    /// Locks the swap cell, recovering from poisoning. The invariant
    /// the lock protects (`current` always holds a fully published
    /// snapshot) cannot be broken mid-critical-section: the `Arc` store
    /// is the last step of `update` and is itself atomic. A writer that
    /// panicked inside its *edit closure* never reached the store, so
    /// the previous snapshot is still live and readers must keep going.
    fn lock_current(&self) -> MutexGuard<'_, Arc<RulesetSnapshot>> {
        self.current.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns the currently published snapshot.
    ///
    /// Locks only to clone the `Arc`; the snapshot itself is immutable
    /// and valid for as long as the caller holds it, across any number
    /// of subsequent swaps.
    pub fn load(&self) -> Arc<RulesetSnapshot> {
        self.lock_current().clone()
    }

    /// The current generation, without taking the writer lock.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Edits the ruleset through `edit` and publishes the result as the
    /// next generation. Returns the error (publishing **nothing**) if
    /// `edit` fails — the all-or-nothing contract every rule command
    /// and the hot-reload path rely on.
    ///
    /// The writer lock is held across copy → edit → swap, so
    /// concurrent updates serialize and none is lost.
    pub fn update<T>(
        &self,
        edit: impl FnOnce(&mut RulesetDraft) -> PfResult<T>,
    ) -> PfResult<(T, u64)> {
        let mut current = self.lock_current();
        let mut draft = RulesetDraft {
            config: current.config,
            ctx_defaults: current.ctx_defaults.clone(),
            chains: current.base.chains().clone(),
        };
        let value = edit(&mut draft)?;
        draft.adopt(&current.base);
        let (base, compile_ns) = if same_rules(&draft.chains, current.base.chains()) {
            (Arc::clone(&current.base), 0)
        } else {
            let t0 = std::time::Instant::now();
            let base = RuleBase::compile(draft.chains);
            (Arc::new(base), t0.elapsed().as_nanos() as u64)
        };
        let generation = current.generation + 1;
        *current = Arc::new(RulesetSnapshot {
            config: draft.config,
            ctx_defaults: draft.ctx_defaults,
            base,
            generation,
            compile_ns,
        });
        self.generation.store(generation, Ordering::Release);
        Ok((value, generation))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OptLevel;
    use crate::rule::{DefaultMatches, Target};

    fn rule(text: &str) -> Rule {
        Rule::new(DefaultMatches::default(), vec![], Target::Drop, text.into())
    }

    #[test]
    fn update_publishes_new_generation() {
        let shared = SharedRuleset::new(PfConfig::default());
        assert_eq!(shared.generation(), 0);
        let ((), gen) = shared
            .update(|d| {
                d.add(ChainName::Input, rule("a"), false);
                Ok(())
            })
            .unwrap();
        assert_eq!(gen, 1);
        assert_eq!(shared.generation(), 1);
        assert_eq!(shared.load().len(), 1);
    }

    #[test]
    fn failed_update_publishes_nothing() {
        let shared = SharedRuleset::new(PfConfig::default());
        shared
            .update(|d| {
                d.add(ChainName::Input, rule("a"), false);
                Ok(())
            })
            .unwrap();
        let err = shared.update(|d| -> PfResult<()> {
            d.clear(); // draft mutation that must be discarded
            Err(PfError::RuleError("nope".into()))
        });
        assert!(err.is_err());
        assert_eq!(shared.generation(), 1, "generation unchanged");
        assert_eq!(shared.load().len(), 1, "rules unchanged");
    }

    #[test]
    fn old_snapshots_survive_swaps() {
        let shared = SharedRuleset::new(PfConfig::default());
        shared
            .update(|d| {
                d.add(ChainName::Input, rule("old"), false);
                Ok(())
            })
            .unwrap();
        let pinned = shared.load();
        shared
            .update(|d| {
                d.clear();
                d.add(ChainName::Input, rule("new"), false);
                Ok(())
            })
            .unwrap();
        assert_eq!(pinned.chain(&ChainName::Input)[0].text, "old");
        assert_eq!(shared.load().chain(&ChainName::Input)[0].text, "new");
        assert_eq!(pinned.generation() + 1, shared.load().generation());
    }

    #[test]
    fn rule_diff_counts_added_and_removed() {
        let shared = SharedRuleset::new(PfConfig::default());
        shared
            .update(|d| {
                d.add(ChainName::Input, rule("a"), false);
                d.add(ChainName::Input, rule("b"), false);
                Ok(())
            })
            .unwrap();
        let old = shared.load();
        assert_eq!(old.rule_diff(&old), 0);
        shared
            .update(|d| {
                d.delete(&ChainName::Input, "a")?;
                d.add(ChainName::Input, rule("c"), false);
                Ok(())
            })
            .unwrap();
        let new = shared.load();
        assert_eq!(old.rule_diff(&new), 2, "one removed plus one added");
        assert_eq!(new.rule_diff(&old), 2, "diff is symmetric");
    }

    #[test]
    fn generation_mirror_matches_snapshot() {
        let shared = SharedRuleset::new(PfConfig::default());
        for _ in 0..5 {
            shared.update(|_| Ok(())).unwrap();
            assert_eq!(shared.generation(), shared.load().generation());
        }
    }

    #[test]
    fn config_only_edit_shares_the_compiled_base() {
        let shared = SharedRuleset::new(PfConfig::default());
        shared
            .update(|d| {
                d.add(ChainName::Input, rule("a"), false);
                Ok(())
            })
            .unwrap();
        let before = shared.load();
        shared
            .update(|d| {
                d.config = OptLevel::RulesetC.config();
                d.ctx_defaults.insert(ChainName::Input, CtxPolicy::Drop);
                Ok(())
            })
            .unwrap();
        let after = shared.load();
        assert_eq!(after.config(), OptLevel::RulesetC.config());
        assert_eq!(after.ctx_default(&ChainName::Input), Some(CtxPolicy::Drop));
        assert_eq!(after.compile_ns(), 0, "nothing to compile");
        assert!(std::ptr::eq(before.base(), after.base()), "base is shared");
    }

    #[test]
    fn adoption_pairs_duplicates_first_come() {
        let shared = SharedRuleset::new(PfConfig::default());
        let chain = |snap: &RulesetSnapshot| snap.chain(&ChainName::Input).to_vec();
        shared
            .update(|d| {
                d.add(ChainName::Input, rule("a"), false);
                d.add(ChainName::Input, rule("a"), false);
                Ok(())
            })
            .unwrap();
        let old = chain(&shared.load());
        assert!(!Arc::ptr_eq(&old[0], &old[1]), "duplicates are two rules");

        // Re-submitted verbatim, each duplicate adopts its counterpart
        // in order, and the unchanged rules need no compile.
        shared
            .update(|d| {
                d.clear();
                d.add(ChainName::Input, rule("a"), false);
                d.add(ChainName::Input, rule("a"), false);
                Ok(())
            })
            .unwrap();
        let snap = shared.load();
        let new = chain(&snap);
        assert!(Arc::ptr_eq(&new[0], &old[0]) && Arc::ptr_eq(&new[1], &old[1]));
        assert_eq!(snap.compile_ns(), 0);

        // A duplicate inserted ahead of kept rules stays fresh: the kept
        // rules pair with themselves first.
        shared
            .update(|d| {
                d.add(ChainName::Input, rule("a"), true);
                Ok(())
            })
            .unwrap();
        let new = chain(&shared.load());
        assert!(Arc::ptr_eq(&new[1], &old[0]) && Arc::ptr_eq(&new[2], &old[1]));
        assert!(!Arc::ptr_eq(&new[0], &old[0]) && !Arc::ptr_eq(&new[0], &old[1]));
    }
}
