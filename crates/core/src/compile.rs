//! Snapshot-time compilation of the input chain into indexed dispatch
//! tables — the one index behind both EPTSPC and RULESETC.
//!
//! Every input rule is placed along up to **three** axes — LSM
//! operation (`-o`), object label (`-d`), and entrypoint (`-p`/`-i`) —
//! so a lookup touches only the rules whose selectors could possibly
//! accept the invocation at hand. A rule whose selector along an axis
//! is absent (or too broad to index) lands in that axis's *wildcard*
//! half; a lookup merges the exact and wildcard halves of every axis.
//!
//! [`CompiledDispatch::compile`] builds the three-axis RULESETC table.
//! [`CompiledDispatch::compile_entrypoint_only`] builds the same table
//! with the operation and label axes left out, so every rule's `-o`/`-d`
//! sits in the wildcard: that is exactly the paper's automatic
//! entrypoint chains (Section 4.3). Each concrete bucket is one
//! entrypoint chain and the `(*,*,*)` bucket is the generic rules, so
//! EPTSPC and RULESETC run the same lookup and the same walk.
//!
//! The soundness argument is Section 4.3's: a rule excluded from a
//! lookup is one whose indexed selector is *known not to match* the
//! fetched context value, so skipping it cannot change the verdict —
//! provided install order is preserved across the merged buckets, which
//! [`MergeDispatch`] guarantees by walking the (sorted, pairwise
//! disjoint) index vectors as an ascending k-way merge. Fetch
//! *failures* never consult a concrete bucket (the engine falls back to
//! the entrypoint-only table or the full chain; see `engine.rs`), so
//! `--ctx-missing` policies keep their say.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use pf_types::{LsmOperation, ProgramId, SecId};

use crate::rule::Rule;

/// Label sets with more members than this are not fanned out into
/// per-label buckets; the rule goes to the label-wildcard bucket
/// instead. Keeps pathological `-d a,b,c,...` rules from multiplying
/// the artifact size.
pub const MAX_LABEL_FANOUT: usize = 16;

/// One dispatch key: `None` along an axis means "wildcard half".
type DispatchKey = (
    Option<LsmOperation>,
    Option<SecId>,
    Option<(ProgramId, u64)>,
);

/// Fixed-width multiplicative hash for [`DispatchKey`]s: a key is a
/// handful of small integers, which SipHash would spend most of a
/// lookup on. Unkeyed on purpose — lookups never insert, and only
/// administrator-installed rules populate the map, so there is no
/// attacker-chosen key set to flood it with.
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

/// The compiled artifact for one chain: rule indices bucketed by
/// (operation, object label, entrypoint). Built once per snapshot
/// compile; immutable and shared read-only afterwards.
#[derive(Debug, Clone, Default)]
pub struct CompiledDispatch {
    /// Buckets with at least one concrete axis.
    buckets: HashMap<DispatchKey, Vec<usize>, BuildHasherDefault<DispatchHasher>>,
    /// The `(*,*,*)` bucket: rules no axis can exclude. Every lookup
    /// walks it, so it lives outside the map and costs no probe.
    wildcard: Vec<usize>,
    /// `true` when at least one rule is bucketed under a concrete
    /// operation; otherwise lookups skip the operation's exact half.
    has_op_buckets: bool,
    /// `true` when at least one rule is bucketed under a concrete
    /// object label — the gate for eagerly fetching the label on
    /// lookup. When `false` the label axis is pure wildcard and the
    /// fetch (with its failure modes) is skipped entirely.
    has_label_buckets: bool,
    /// Same gate for the entrypoint axis: with no entrypoint-bound
    /// rules, no lookup needs the stack unwind.
    has_ept_buckets: bool,
}

impl CompiledDispatch {
    /// Compiles a chain's rules into the three-axis RULESETC index.
    ///
    /// Placement per rule and axis:
    /// * **operation** — `-o OP` present → the `Some(op)` half, else
    ///   wildcard. Infallible at lookup (the operation is the hook
    ///   argument, never fetched).
    /// * **label** — a *positive* `-d` set with 1..=[`MAX_LABEL_FANOUT`]
    ///   members fans out into one bucket per member (the rule can only
    ///   match an object carrying one of exactly those labels). Negated
    ///   sets, oversize sets, and the degenerate empty positive set all
    ///   go to the wildcard: exclusion must be provable, not probable.
    /// * **entrypoint** — `-p BIN -i PC` (both halves) → the exact
    ///   `(program, pc)` bucket, else wildcard.
    pub fn compile(rules: &[Arc<Rule>]) -> Self {
        Self::build(rules, true)
    }

    /// Compiles a chain's rules on the entrypoint axis only — the
    /// EPTSPC table, and the RULESETC fallback when the object label
    /// cannot be read. One concrete bucket per entrypoint chain; the
    /// wildcard holds the generic rules.
    pub fn compile_entrypoint_only(rules: &[Arc<Rule>]) -> Self {
        Self::build(rules, false)
    }

    fn build(rules: &[Arc<Rule>], all_axes: bool) -> Self {
        let mut this = CompiledDispatch::default();
        for (i, rule) in rules.iter().enumerate() {
            let ept = rule.def.entrypoint();
            if !all_axes {
                this.place((None, None, ept), i);
                continue;
            }
            let op = rule.def.op;
            match &rule.def.object {
                Some(set)
                    if !set.is_negated()
                        && !set.raw_members().is_empty()
                        && set.raw_members().len() <= MAX_LABEL_FANOUT =>
                {
                    // Fan-out: one bucket per member label. The member
                    // list is sorted and deduplicated (a LabelSet
                    // invariant), so each index lands in each member
                    // bucket exactly once.
                    for &sid in set.raw_members() {
                        this.place((op, Some(sid), ept), i);
                    }
                }
                _ => this.place((op, None, ept), i),
            }
        }
        this
    }

    fn place(&mut self, key: DispatchKey, index: usize) {
        self.has_op_buckets |= key.0.is_some();
        self.has_label_buckets |= key.1.is_some();
        self.has_ept_buckets |= key.2.is_some();
        match key {
            (None, None, None) => self.wildcard.push(index),
            key => self.buckets.entry(key).or_default().push(index),
        }
    }

    /// Whether any rule is bucketed under a concrete object label.
    #[inline]
    pub fn has_label_buckets(&self) -> bool {
        self.has_label_buckets
    }

    /// Whether any rule is bucketed under a concrete entrypoint.
    #[inline]
    pub fn has_ept_buckets(&self) -> bool {
        self.has_ept_buckets
    }

    /// Number of distinct concrete buckets (the `(*,*,*)` bucket is
    /// not counted). On the entrypoint-only table this is the number
    /// of entrypoint chains.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Number of rules in the `(*,*,*)` bucket. On the entrypoint-only
    /// table these are the generic rules every invocation walks.
    pub fn wildcard_len(&self) -> usize {
        self.wildcard.len()
    }

    /// The install-order walk over the buckets applicable to an
    /// invocation whose fetched context is (`op`, `label`, `ept`).
    ///
    /// `label`/`ept` are `None` when the field was *benignly absent*
    /// (`Fetched::Missing`) or its axis has no concrete buckets; then
    /// only that axis's wildcard half is consulted — exactly the
    /// Missing → NoMatch semantics of the indexed selectors. The up to
    /// 2×2×2 combinations are pairwise disjoint by construction (each
    /// rule lives in exactly one op half, one ept half, and — for any
    /// single fetched label — at most one label bucket), so the merge
    /// below never sees a duplicate index.
    #[inline]
    pub fn select(
        &self,
        op: LsmOperation,
        label: Option<SecId>,
        ept: Option<(ProgramId, u64)>,
    ) -> MergeDispatch<'_> {
        // An absent axis makes its exact and wildcard halves identical,
        // so consult only the wildcard once.
        let op_halves = [Some(op), None];
        let op_halves = &op_halves[usize::from(!self.has_op_buckets)..];
        let label_halves = [label, None];
        let label_halves = &label_halves[usize::from(label.is_none())..];
        let ept_halves = [ept, None];
        let ept_halves = &ept_halves[usize::from(ept.is_none())..];
        let mut merge = MergeDispatch::default();
        for &op_key in op_halves {
            for &label_key in label_halves {
                for &ept_key in ept_halves {
                    match (op_key, label_key, ept_key) {
                        (None, None, None) => merge.push(&self.wildcard),
                        key => merge.push(self.buckets.get(&key).map_or(&[], Vec::as_slice)),
                    }
                }
            }
        }
        merge
    }
}

/// Ascending k-way merge over up to 8 sorted, pairwise-disjoint index
/// slices — the order-preserving walk over the selected buckets. Zero
/// allocations: the state is the slices still to walk, each non-empty.
#[derive(Default)]
pub struct MergeDispatch<'s> {
    slices: [&'s [usize]; 8],
    n: usize,
}

impl<'s> MergeDispatch<'s> {
    /// Whether no index is left to walk: every selected bucket is empty.
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

    fn lookup(
        d: &CompiledDispatch,
        op: LsmOperation,
        label: Option<u32>,
        ept: Option<(u32, u64)>,
    ) -> Vec<usize> {
        d.select(
            op,
            label.map(InternId),
            ept.map(|(p, pc)| (InternId(p), pc)),
        )
        .collect()
    }

    #[test]
    fn empty_chain_compiles_to_nothing() {
        let d = CompiledDispatch::compile(&[]);
        assert_eq!(d.bucket_count(), 0);
        assert_eq!(d.wildcard_len(), 0);
        assert!(!d.has_label_buckets() && !d.has_ept_buckets());
        assert!(lookup(&d, LsmOperation::FileOpen, None, None).is_empty());
    }

    #[test]
    fn merge_preserves_install_order_across_buckets() {
        let rules = vec![
            rule(Some(LsmOperation::FileOpen), None, None), // 0: op bucket
            rule(None, Some(labels(&[7])), None),           // 1: label bucket
            rule(None, None, Some((3, 0x10))),              // 2: ept bucket
            rule(None, None, None),                         // 3: triple wildcard
            rule(
                Some(LsmOperation::FileOpen),
                Some(labels(&[7])),
                Some((3, 0x10)),
            ), // 4: exact
        ];
        let d = CompiledDispatch::compile(&rules);
        assert!(d.has_label_buckets() && d.has_ept_buckets());
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
        // `-o`/`-d` never index: only the entrypoint axis is concrete.
        assert!(!d.has_label_buckets());
        assert!(d.has_ept_buckets());
        assert_eq!(d.bucket_count(), 2, "one bucket per entrypoint chain");
        assert_eq!(d.wildcard_len(), 3, "the generic rules");
        // The lookup ignores the operation and label it is handed…
        for op in [LsmOperation::FileOpen, LsmOperation::SocketBind] {
            for label in [None, Some(7), Some(42)] {
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
        assert!(!d.has_label_buckets(), "no provable exclusion → no fan-out");
        // Every lookup walks all three: none can be excluded by label.
        assert_eq!(
            lookup(&d, LsmOperation::FileOpen, Some(7), None),
            vec![0, 1, 2]
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
}
