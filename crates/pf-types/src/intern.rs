//! A tiny string interner.
//!
//! Security labels, program paths, and state-dictionary keys are all
//! hot-path comparands in the firewall's rule-matching loop. The kernel
//! prototype in the paper translates SELinux labels into integer security
//! IDs "for fast matching" (Section 5.2); [`Interner`] provides the same
//! service here for any string-like namespace.
//!
//! Each string is stored once, as an `Arc<str>` shared by the lookup map
//! and the id table. [`Interner::resolve_shared`] hands out that same
//! allocation, so a record captured on a hot path can name a label or a
//! program with a reference-count bump instead of a copy; because the
//! interner is append-only, the handle keeps naming the same string for
//! as long as it lives.

use std::collections::HashMap;
use std::sync::Arc;

/// An index into an [`Interner`].
///
/// `InternId` is deliberately opaque: two ids are equal iff the interned
/// strings are equal, and ids are only meaningful relative to the interner
/// that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InternId(pub u32);

impl InternId {
    /// Returns the raw index value.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An append-only string interner with O(1) id-to-string lookup.
///
/// # Examples
///
/// ```
/// use pf_types::Interner;
///
/// let mut i = Interner::new();
/// let a = i.intern("lib_t");
/// let b = i.intern("tmp_t");
/// assert_ne!(a, b);
/// assert_eq!(i.intern("lib_t"), a);
/// assert_eq!(i.resolve(a), "lib_t");
/// assert_eq!(&*i.resolve_shared(a), "lib_t");
/// ```
#[derive(Debug, Default, Clone)]
pub struct Interner {
    map: HashMap<Arc<str>, InternId>,
    strings: Vec<Arc<str>>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `s`, returning its stable id.
    pub fn intern(&mut self, s: &str) -> InternId {
        if let Some(&id) = self.map.get(s) {
            return id;
        }
        let id = InternId(
            u32::try_from(self.strings.len()).expect("interner capacity exceeded u32::MAX"),
        );
        let shared: Arc<str> = Arc::from(s);
        self.strings.push(Arc::clone(&shared));
        self.map.insert(shared, id);
        id
    }

    /// Looks up the id of an already-interned string without inserting.
    pub fn get(&self, s: &str) -> Option<InternId> {
        self.map.get(s).copied()
    }

    /// Resolves an id back to its string.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this interner.
    pub fn resolve(&self, id: InternId) -> &str {
        &self.strings[id.index()]
    }

    /// Resolves an id to the interner's own shared copy of the string:
    /// a reference-count bump, no allocation.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this interner.
    pub fn resolve_shared(&self, id: InternId) -> Arc<str> {
        Arc::clone(&self.strings[id.index()])
    }

    /// Returns the number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Returns `true` if nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Iterates over `(id, string)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (InternId, &str)> {
        self.strings
            .iter()
            .enumerate()
            .map(|(i, s)| (InternId(i as u32), &**s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("x");
        assert_eq!(i.intern("x"), a);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn resolve_round_trips() {
        let mut i = Interner::new();
        let ids: Vec<_> = ["a", "b", "c"].iter().map(|s| i.intern(s)).collect();
        let back: Vec<_> = ids.iter().map(|&id| i.resolve(id)).collect();
        assert_eq!(back, ["a", "b", "c"]);
    }

    #[test]
    fn shared_resolution_is_the_interned_allocation() {
        let mut i = Interner::new();
        let a = i.intern("lib_t");
        let first = i.resolve_shared(a);
        i.intern("tmp_t");
        let second = i.resolve_shared(a);
        assert!(Arc::ptr_eq(&first, &second), "no copy per resolution");
        assert_eq!(&*first, "lib_t");
    }

    #[test]
    fn get_does_not_insert() {
        let i = Interner::new();
        assert!(i.get("missing").is_none());
        assert!(i.is_empty());
    }

    #[test]
    fn iter_preserves_order() {
        let mut i = Interner::new();
        i.intern("first");
        i.intern("second");
        let names: Vec<_> = i.iter().map(|(_, s)| s.to_owned()).collect();
        assert_eq!(names, ["first", "second"]);
    }
}
