//! Snapshot-time compilation of the input chain into a dispatch tree —
//! the one index behind both EPTSPC and RULESETC.
//!
//! Every input rule is placed along three axes, in the order a hook
//! descends them: LSM operation (`-o`), object label (`-d`), and
//! entrypoint (`-p`/`-i`). A rule whose selector along an axis is
//! absent (or too broad to index) lands in that level's *wildcard*
//! node. The tree has three levels:
//!
//! 1. one node per operation, plus the op-wildcard node;
//! 2. in each, a label map plus the label-wildcard node;
//! 3. in each of those, an entrypoint map plus the entrypoint-wildcard
//!    index list. These are the leaves.
//!
//! A lookup descends one level at a time (`by_op`, `by_label`,
//! `by_entrypoint`). Before each step it asks whether the nodes reached
//! so far index the next axis at all (`indexes_labels`,
//! `indexes_entrypoints`); when none does, the value cannot exclude a
//! rule, so the engine skips that context fetch and its failure modes.
//! A hook reaches at most 2 operation nodes, 4 label nodes and 8 leaves.
//!
//! [`CompiledDispatch::compile`] builds the three-axis RULESETC tree.
//! [`CompiledDispatch::compile_entrypoint_only`] builds the same tree
//! with only its wildcard path filled, so every rule's `-o`/`-d` sits in
//! a wildcard: that is exactly the paper's automatic entrypoint chains
//! (Section 4.3). Each entrypoint leaf is one entrypoint chain and the
//! `(*,*,*)` leaf is the generic rules, so EPTSPC and RULESETC run the
//! same lookup and the same walk.
//!
//! The soundness argument is Section 4.3's: a rule excluded from a
//! lookup is one whose indexed selector is *known not to match* the
//! fetched context value, so skipping it cannot change the verdict —
//! provided install order is preserved across the merged leaves, which
//! [`MergeDispatch`] guarantees by walking the (sorted, pairwise
//! disjoint) index vectors as an ascending k-way merge. Fetch
//! *failures* never consult a concrete node (the engine falls back to
//! the entrypoint-only table or the full chain; see `engine.rs`), so
//! `--ctx-missing` policies keep their say.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use pf_types::{LsmOperation, ProgramId, SecId};

use crate::rule::Rule;

/// Label sets with more members than this are not fanned out into
/// per-label nodes; the rule goes to the label-wildcard node instead.
/// Keeps pathological `-d a,b,c,...` rules from multiplying the
/// artifact size.
pub const MAX_LABEL_FANOUT: usize = 16;

/// Fixed-width multiplicative hash for the tree's label and entrypoint
/// keys: a key is one or two small integers, which SipHash would spend
/// most of a lookup on. Unkeyed on purpose — lookups never insert, and
/// only administrator-installed rules populate the maps, so there is no
/// attacker-chosen key set to flood them with.
#[derive(Default)]
struct DispatchHasher(u64);

impl Hasher for DispatchHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn finish(&self) -> u64 {
        // The multiply leaves the low bits (the table index) a function
        // of the inputs' low bits alone; entrypoint PCs share theirs.
        self.0.rotate_left(26)
    }
}

/// One level's map from an axis value to the node below it.
type AxisMap<K, V> = HashMap<K, V, BuildHasherDefault<DispatchHasher>>;

/// The compiled artifact for one chain: rule indices in a tree keyed by
/// operation, then object label, then entrypoint. Built once per
/// snapshot compile; immutable and shared read-only afterwards.
#[derive(Debug, Clone, Default)]
pub struct CompiledDispatch {
    /// The operation level for rules with `-o`, indexed by
    /// `op as usize`. Left empty, with no allocation, when no rule is
    /// placed by operation (the entrypoint-only table).
    ops: Vec<OpNode>,
    /// The op-wildcard node: rules without `-o`. Every hook reaches it.
    any_op: OpNode,
}

/// One operation node: its rules by object label.
#[derive(Debug, Clone, Default)]
struct OpNode {
    labels: AxisMap<SecId, LabelNode>,
    /// Rules whose `-d` cannot exclude a label: absent, negated, empty
    /// or oversize.
    any_label: LabelNode,
}

/// One label node: its rules by entrypoint, in leaves of ascending
/// rule indices.
#[derive(Debug, Clone, Default)]
struct LabelNode {
    epts: AxisMap<(ProgramId, u64), Vec<usize>>,
    /// Rules bound to no entrypoint.
    any_ept: Vec<usize>,
}

impl OpNode {
    fn is_empty(&self) -> bool {
        self.labels.is_empty() && self.any_label.is_empty()
    }

    /// Non-empty leaves under this node.
    fn leaves(&self) -> usize {
        self.labels.values().map(LabelNode::leaves).sum::<usize>() + self.any_label.leaves()
    }
}

impl LabelNode {
    fn is_empty(&self) -> bool {
        self.epts.is_empty() && self.any_ept.is_empty()
    }

    fn leaves(&self) -> usize {
        self.epts.len() + usize::from(!self.any_ept.is_empty())
    }

    fn place(&mut self, ept: Option<(ProgramId, u64)>, index: usize) {
        match ept {
            Some(ept) => self.epts.entry(ept).or_default().push(index),
            None => self.any_ept.push(index),
        }
    }
}

impl CompiledDispatch {
    /// Compiles a chain's rules into the three-axis RULESETC tree.
    ///
    /// Placement per rule and level:
    /// * **operation** — `-o OP` present → the node of `OP`, else the
    ///   op-wildcard node. Infallible at lookup (the operation is the
    ///   hook argument, never fetched).
    /// * **label** — a *positive* `-d` set with 1..=[`MAX_LABEL_FANOUT`]
    ///   members fans out into one label node per member (the rule can
    ///   only match an object carrying one of exactly those labels).
    ///   Negated sets, oversize sets, and the degenerate empty positive
    ///   set all go to the label wildcard: exclusion must be provable,
    ///   not probable.
    /// * **entrypoint** — `-p BIN -i PC` (both halves) → the exact
    ///   `(program, pc)` leaf, else the entrypoint wildcard.
    pub fn compile(rules: &[Arc<Rule>]) -> Self {
        Self::build(rules, true)
    }

    /// Compiles a chain's rules on the entrypoint axis only — the
    /// EPTSPC table, and the RULESETC fallback when the object label
    /// cannot be read. Only the wildcard path is filled: one leaf per
    /// entrypoint chain, and the `(*,*,*)` leaf holds the generic rules.
    pub fn compile_entrypoint_only(rules: &[Arc<Rule>]) -> Self {
        Self::build(rules, false)
    }

    fn build(rules: &[Arc<Rule>], all_axes: bool) -> Self {
        let mut this = CompiledDispatch::default();
        for (i, rule) in rules.iter().enumerate() {
            let ept = rule.def.entrypoint();
            if !all_axes {
                this.any_op.any_label.place(ept, i);
                continue;
            }
            let node = match rule.def.op {
                Some(op) => {
                    if this.ops.is_empty() {
                        this.ops
                            .resize_with(LsmOperation::ALL.len(), OpNode::default);
                    }
                    &mut this.ops[op as usize]
                }
                None => &mut this.any_op,
            };
            match &rule.def.object {
                Some(set)
                    if !set.is_negated()
                        && !set.raw_members().is_empty()
                        && set.raw_members().len() <= MAX_LABEL_FANOUT =>
                {
                    // Fan-out: one label node per member. The member
                    // list is sorted and deduplicated (a LabelSet
                    // invariant), so each index lands in each member
                    // node exactly once.
                    for &sid in set.raw_members() {
                        node.labels.entry(sid).or_default().place(ept, i);
                    }
                }
                _ => node.any_label.place(ept, i),
            }
        }
        this
    }

    /// Number of non-empty leaves with at least one indexed axis (the
    /// `(*,*,*)` leaf is not counted). On the entrypoint-only table this
    /// is the number of entrypoint chains.
    pub fn bucket_count(&self) -> usize {
        let leaves = self.ops.iter().map(OpNode::leaves).sum::<usize>() + self.any_op.leaves();
        leaves - usize::from(self.wildcard_len() > 0)
    }

    /// Number of rules in the `(*,*,*)` leaf. On the entrypoint-only
    /// table these are the generic rules every invocation walks.
    pub fn wildcard_len(&self) -> usize {
        self.any_op.any_label.any_ept.len()
    }

    /// Level one: the operation nodes a hook of `op` reaches — the node
    /// of `op` and the op-wildcard node, each only if it holds a rule.
    #[inline]
    pub(crate) fn by_op(&self, op: LsmOperation) -> ReachedOps<'_> {
        let mut reached = ReachedOps {
            nodes: [&self.any_op; 2],
            n: 0,
        };
        if let Some(node) = self.ops.get(op as usize) {
            reached.push(node);
        }
        reached.push(&self.any_op);
        reached
    }
}

/// The operation nodes one hook reached: at most 2, each non-empty.
pub(crate) struct ReachedOps<'d> {
    nodes: [&'d OpNode; 2],
    n: usize,
}

impl<'d> ReachedOps<'d> {
    #[inline]
    fn push(&mut self, node: &'d OpNode) {
        if !node.is_empty() {
            self.nodes[self.n] = node;
            self.n += 1;
        }
    }

    /// Whether a reached node indexes object labels. When none does,
    /// the label cannot exclude a rule and the lookup needs no label.
    #[inline]
    pub(crate) fn indexes_labels(&self) -> bool {
        self.nodes[..self.n]
            .iter()
            .any(|node| !node.labels.is_empty())
    }

    /// Level two: the label nodes reached under the object label
    /// `label`, merged from every reached operation node.
    ///
    /// `None` when the object is benignly absent (`Fetched::Missing`)
    /// or the label was not needed; then only the label-wildcard nodes
    /// are reached — exactly the Missing → NoMatch semantics of a
    /// positive `-d` selector.
    #[inline]
    pub(crate) fn by_label(&self, label: Option<SecId>) -> ReachedLabels<'d> {
        // Any node fills the unused slots; only the first `n` are read.
        let filler: &'d OpNode = self.nodes[0];
        let mut reached = ReachedLabels {
            nodes: [&filler.any_label; 4],
            n: 0,
        };
        for &node in &self.nodes[..self.n] {
            if let Some(exact) = label.and_then(|sid| node.labels.get(&sid)) {
                reached.push(exact);
            }
            reached.push(&node.any_label);
        }
        reached
    }
}

/// The label nodes one hook reached: at most 4, each non-empty.
pub(crate) struct ReachedLabels<'d> {
    nodes: [&'d LabelNode; 4],
    n: usize,
}

impl<'d> ReachedLabels<'d> {
    #[inline]
    fn push(&mut self, node: &'d LabelNode) {
        if !node.is_empty() {
            self.nodes[self.n] = node;
            self.n += 1;
        }
    }

    /// Whether a reached node indexes entrypoints. When none does, the
    /// entrypoint cannot exclude a rule and the lookup needs no unwind.
    #[inline]
    pub(crate) fn indexes_entrypoints(&self) -> bool {
        self.nodes[..self.n]
            .iter()
            .any(|node| !node.epts.is_empty())
    }

    /// Level three: the install-order walk over the leaves reached under
    /// the entrypoint `ept` (`None` when benignly absent or not needed:
    /// only entrypoint-wildcard leaves).
    ///
    /// The up to 8 leaves are pairwise disjoint by construction: each
    /// rule lives in exactly one operation node, in at most one label
    /// node for any single label, and in exactly one leaf of that node.
    /// So the merge below never sees a duplicate index.
    #[inline]
    pub(crate) fn by_entrypoint(&self, ept: Option<(ProgramId, u64)>) -> MergeDispatch<'d> {
        let mut merge = MergeDispatch::default();
        for &node in &self.nodes[..self.n] {
            if let Some(exact) = ept.and_then(|ept| node.epts.get(&ept)) {
                merge.push(exact);
            }
            merge.push(&node.any_ept);
        }
        merge
    }
}

/// Ascending k-way merge over up to 8 sorted, pairwise-disjoint index
/// slices — the order-preserving walk over the reached leaves. Zero
/// allocations: the state is the slices still to walk, each non-empty.
#[derive(Default)]
pub struct MergeDispatch<'s> {
    slices: [&'s [usize]; 8],
    n: usize,
}

impl<'s> MergeDispatch<'s> {
    /// Whether no index is left to walk: every reached leaf is empty.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.n == 0
    }

    #[inline]
    fn push(&mut self, slice: &'s [usize]) {
        if !slice.is_empty() {
            self.slices[self.n] = slice;
            self.n += 1;
        }
    }
}

impl Iterator for MergeDispatch<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        // The slices are disjoint, so their order is free: an exhausted
        // one is replaced by the last, keeping every live slice non-empty.
        let k = (0..self.n).min_by_key(|&k| self.slices[k][0])?;
        let (&v, rest) = self.slices[k].split_first()?;
        if rest.is_empty() {
            self.n -= 1;
            self.slices[k] = self.slices[self.n];
        } else {
            self.slices[k] = rest;
        }
        Some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::{DefaultMatches, Rule, Target};
    use pf_types::{InternId, LabelSet};
    use proptest::prelude::*;

    fn rule(
        op: Option<LsmOperation>,
        object: Option<LabelSet>,
        ept: Option<(u32, u64)>,
    ) -> Arc<Rule> {
        Arc::new(Rule::new(
            DefaultMatches {
                op,
                object,
                program: ept.map(|(p, _)| InternId(p)),
                entrypoint_pc: ept.map(|(_, pc)| pc),
                ..Default::default()
            },
            vec![],
            Target::Drop,
            String::new(),
        ))
    }

    fn labels(members: &[u32]) -> LabelSet {
        LabelSet::of(members.iter().map(|&m| InternId(m)))
    }

    /// The selection for a fully known context: the tree descended with
    /// every axis supplied, whether or not a level needed it.
    fn lookup(
        d: &CompiledDispatch,
        op: LsmOperation,
        label: Option<u32>,
        ept: Option<(u32, u64)>,
    ) -> Vec<usize> {
        d.by_op(op)
            .by_label(label.map(InternId))
            .by_entrypoint(ept.map(|(p, pc)| (InternId(p), pc)))
            .collect()
    }

    /// Whether a lookup for `op` reads the label, and (with `label`
    /// read) whether it unwinds for the entrypoint.
    fn fetches(d: &CompiledDispatch, op: LsmOperation, label: Option<u32>) -> (bool, bool) {
        let ops = d.by_op(op);
        let labels = ops.by_label(label.map(InternId));
        (ops.indexes_labels(), labels.indexes_entrypoints())
    }

    #[test]
    fn empty_chain_compiles_to_nothing() {
        let d = CompiledDispatch::compile(&[]);
        assert_eq!(d.bucket_count(), 0);
        assert_eq!(d.wildcard_len(), 0);
        assert_eq!(fetches(&d, LsmOperation::FileOpen, None), (false, false));
        assert!(lookup(&d, LsmOperation::FileOpen, None, None).is_empty());
    }

    #[test]
    fn merge_preserves_install_order_across_buckets() {
        let rules = vec![
            rule(Some(LsmOperation::FileOpen), None, None), // 0: op node
            rule(None, Some(labels(&[7])), None),           // 1: label node
            rule(None, None, Some((3, 0x10))),              // 2: ept leaf
            rule(None, None, None),                         // 3: triple wildcard
            rule(
                Some(LsmOperation::FileOpen),
                Some(labels(&[7])),
                Some((3, 0x10)),
            ), // 4: exact
        ];
        let d = CompiledDispatch::compile(&rules);
        assert_eq!(fetches(&d, LsmOperation::FileOpen, Some(7)), (true, true));
        assert_eq!(d.wildcard_len(), 1, "only rule 3 is unindexable");
        // Everything applicable, merged back into install order.
        assert_eq!(
            lookup(&d, LsmOperation::FileOpen, Some(7), Some((3, 0x10))),
            vec![0, 1, 2, 3, 4]
        );
        // A different label/entrypoint excludes the bound rules.
        assert_eq!(
            lookup(&d, LsmOperation::FileOpen, Some(9), Some((9, 0x90))),
            vec![0, 3]
        );
        // A different op excludes the op-bound rules (1 needs label 7).
        assert_eq!(
            lookup(&d, LsmOperation::FileUnlink, Some(7), None),
            vec![1, 3]
        );
    }

    #[test]
    fn entrypoint_only_table_is_the_eptspc_partition() {
        // A mixed chain: generic rules (some with `-o`/`-d`) interleaved
        // with rules bound to two entrypoints.
        let rules = vec![
            rule(Some(LsmOperation::FileOpen), Some(labels(&[7])), None), // 0: generic
            rule(None, None, Some((1, 0x10))),                            // 1: ept A
            rule(Some(LsmOperation::FileWrite), None, Some((2, 0x20))),   // 2: ept B
            rule(None, Some(labels(&[9])), None),                         // 3: generic
            rule(
                Some(LsmOperation::FileOpen),
                Some(labels(&[7])),
                Some((1, 0x10)),
            ), // 4: ept A
            rule(None, None, None),                                       // 5: generic
        ];
        let d = CompiledDispatch::compile_entrypoint_only(&rules);
        assert_eq!(d.bucket_count(), 2, "one leaf per entrypoint chain");
        assert_eq!(d.wildcard_len(), 3, "the generic rules");
        // The lookup ignores the operation and label it is handed…
        for op in [LsmOperation::FileOpen, LsmOperation::SocketBind] {
            // `-o`/`-d` never index: only the entrypoint axis is concrete.
            assert!(d.ops.is_empty() && d.any_op.labels.is_empty());
            for label in [None, Some(7), Some(42)] {
                assert_eq!(fetches(&d, op, label), (false, true));
                // …and yields the old generic + bound merge order.
                assert_eq!(lookup(&d, op, label, Some((1, 0x10))), vec![0, 1, 3, 4, 5]);
                assert_eq!(lookup(&d, op, label, Some((2, 0x20))), vec![0, 2, 3, 5]);
                assert_eq!(lookup(&d, op, label, Some((9, 0x90))), vec![0, 3, 5]);
                assert_eq!(lookup(&d, op, label, None), vec![0, 3, 5]);
            }
        }
    }

    #[test]
    fn missing_dimensions_walk_wildcard_buckets_only() {
        let rules = vec![
            rule(None, Some(labels(&[7])), None),
            rule(None, None, Some((3, 0x10))),
            rule(None, None, None),
        ];
        let d = CompiledDispatch::compile(&rules);
        // Benign absence along both fetched dimensions: only the
        // wildcard rule can match, and only it is walked.
        assert_eq!(lookup(&d, LsmOperation::FileOpen, None, None), vec![2]);
    }

    #[test]
    fn multi_label_sets_fan_out_to_each_member() {
        let rules = vec![rule(None, Some(labels(&[3, 5])), None)];
        let d = CompiledDispatch::compile(&rules);
        assert_eq!(d.bucket_count(), 2);
        assert_eq!(lookup(&d, LsmOperation::FileOpen, Some(3), None), vec![0]);
        assert_eq!(lookup(&d, LsmOperation::FileOpen, Some(5), None), vec![0]);
        assert!(lookup(&d, LsmOperation::FileOpen, Some(4), None).is_empty());
    }

    #[test]
    fn negated_and_oversize_sets_stay_wildcard() {
        let negated = labels(&[7]).negated();
        let oversize = labels(&(0..=MAX_LABEL_FANOUT as u32).collect::<Vec<_>>());
        let empty = labels(&[]);
        let rules = vec![
            rule(None, Some(negated), None),
            rule(None, Some(oversize), None),
            rule(None, Some(empty), None),
        ];
        let d = CompiledDispatch::compile(&rules);
        assert!(
            !d.by_op(LsmOperation::FileOpen).indexes_labels(),
            "no provable exclusion → no fan-out"
        );
        // Every lookup walks all three: none can be excluded by label.
        assert_eq!(
            lookup(&d, LsmOperation::FileOpen, Some(7), None),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn fetches_follow_the_nodes_reached() {
        let rules = vec![
            rule(
                Some(LsmOperation::FileOpen),
                Some(labels(&[7])),
                Some((1, 0x10)),
            ),
            rule(Some(LsmOperation::FileOpen), Some(labels(&[9])), None),
        ];
        let d = CompiledDispatch::compile(&rules);
        // No rule names DIR_SEARCH and every rule names an operation:
        // the hook reaches no node and needs neither value.
        assert_eq!(
            fetches(&d, LsmOperation::DirSearch, Some(7)),
            (false, false)
        );
        assert!(lookup(&d, LsmOperation::DirSearch, Some(7), Some((1, 0x10))).is_empty());
        // FILE_OPEN indexes labels; only label 7's node indexes
        // entrypoints, so label 9 (and no label at all) needs no unwind.
        assert_eq!(fetches(&d, LsmOperation::FileOpen, Some(9)), (true, false));
        assert_eq!(fetches(&d, LsmOperation::FileOpen, None), (true, false));
        assert_eq!(fetches(&d, LsmOperation::FileOpen, Some(7)), (true, true));
        assert_eq!(lookup(&d, LsmOperation::FileOpen, Some(9), None), vec![1]);
        assert_eq!(
            lookup(&d, LsmOperation::FileOpen, Some(7), Some((1, 0x10))),
            vec![0]
        );
    }

    #[test]
    fn merge_handles_adjacent_and_interleaved_runs() {
        let a = [0usize, 2, 4];
        let b = [1usize, 3, 5];
        let c = [6usize, 7];
        let merge = |slices: &[&[usize]]| {
            let mut merge = MergeDispatch::default();
            slices.iter().for_each(|s| merge.push(s));
            merge.collect::<Vec<_>>()
        };
        assert_eq!(merge(&[&a, &b, &c]), vec![0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(merge(&[&c]), vec![6, 7]);
        assert!(merge(&[]).is_empty());
    }

    // --- property: the tree against a brute-force filter of the chain ---

    const OPS: [LsmOperation; 3] = [
        LsmOperation::FileOpen,
        LsmOperation::FileRead,
        LsmOperation::DirSearch,
    ];
    const EPTS: [(u32, u64); 3] = [(1, 0x10), (1, 0x20), (2, 0x10)];

    /// One generated rule, `(op, label kind, members, entrypoint)`:
    /// * op 0–2 names `OPS[op]`, 3 is no `-o`;
    /// * label kind 0 is no `-d`, 1–2 a positive set of `members`
    ///   (empty when they are), 3 the negated set, 4 an oversize set;
    /// * entrypoint 0–2 binds `EPTS[e]`, 3 is `-p` without `-i`, 4–5
    ///   leave the rule unbound.
    fn spec_rule(&(op, kind, ref members, ept): &(usize, u8, Vec<u32>, usize)) -> Arc<Rule> {
        let object = match kind {
            0 => None,
            1 | 2 => Some(labels(members)),
            3 => Some(labels(members).negated()),
            _ => Some(labels(&(0..=MAX_LABEL_FANOUT as u32).collect::<Vec<_>>())),
        };
        Arc::new(Rule::new(
            DefaultMatches {
                op: OPS.get(op).copied(),
                object,
                program: EPTS
                    .get(ept)
                    .map(|e| e.0)
                    .or((ept == 3).then_some(1))
                    .map(InternId),
                entrypoint_pc: EPTS.get(ept).map(|e| e.1),
                ..Default::default()
            },
            vec![],
            Target::Drop,
            String::new(),
        ))
    }

    /// Whether `-d` is an exclusion the tree may index: a positive,
    /// non-empty set small enough to fan out.
    fn label_indexed(rule: &Rule) -> bool {
        rule.def.object.as_ref().is_some_and(|set| {
            !set.is_negated() && (1..=MAX_LABEL_FANOUT).contains(&set.raw_members().len())
        })
    }

    /// Whether the rule's indexed `-d` admits `label`, by the selector's
    /// own membership test (`None`: no object, so a positive set fails).
    fn label_admits(rule: &Rule, label: Option<SecId>) -> bool {
        !label_indexed(rule) || label.is_some_and(|l| rule.def.object.as_ref().unwrap().contains(l))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn tree_selection_matches_brute_force(
            specs in prop::collection::vec(
                (0usize..4, 0u8..5, prop::collection::vec(0u32..5, 0..3), 0usize..6),
                0..24,
            ),
            probes in prop::collection::vec(
                (0usize..3, prop::option::of(0u32..6), prop::option::of(0usize..3)),
                1..8,
            ),
        ) {
            let rules: Vec<Arc<Rule>> = specs.iter().map(spec_rule).collect();
            let d = CompiledDispatch::compile(&rules);
            for &probe in &probes {
                let op = OPS[probe.0];
                let label = probe.1.map(InternId);
                let ept = probe.2.map(|e| (InternId(EPTS[e].0), EPTS[e].1));
                // Descend like the engine: a value no reached node
                // indexes is never fetched.
                let ops = d.by_op(op);
                let read_label = ops.indexes_labels();
                let read = label.filter(|_| read_label);
                let reached = ops.by_label(read);
                let unwind = reached.indexes_entrypoints();
                let got: Vec<usize> = reached.by_entrypoint(ept.filter(|_| unwind)).collect();
                // Brute force over the whole chain, with every axis known.
                let op_admits = |r: &Rule| r.def.op.is_none_or(|o| o == op);
                let want: Vec<usize> = (0..rules.len())
                    .filter(|&i| {
                        let r = &rules[i];
                        op_admits(r)
                            && label_admits(r, label)
                            && r.def.entrypoint().is_none_or(|e| Some(e) == ept)
                    })
                    .collect();
                prop_assert_eq!(&got, &want, "probe {:?}", probe);
                // A skipped fetch never hides a rule indexed on its axis…
                if !read_label {
                    let indexed = want.iter().any(|&i| label_indexed(&rules[i]));
                    prop_assert!(!indexed, "probe {:?}", probe);
                }
                if !unwind {
                    let bound = want.iter().any(|&i| rules[i].def.entrypoint().is_some());
                    prop_assert!(!bound, "probe {:?}", probe);
                }
                // …and a fetch is made only for a rule the levels above
                // left in the selection.
                let indexed = rules.iter().any(|r| op_admits(r) && label_indexed(r));
                prop_assert_eq!(read_label, indexed, "probe {:?}", probe);
                let bound = rules
                    .iter()
                    .any(|r| op_admits(r) && label_admits(r, read) && r.def.entrypoint().is_some());
                prop_assert_eq!(unwind, bound, "probe {:?}", probe);
            }
        }
    }
}
