//! Interned statement labels.
//!
//! Every executed statement used to clone its display label (a heap
//! `String`) into the history and the observability trace, making label
//! handling the dominant per-statement allocation. Labels now live in an
//! [`Interner`] — each trace's own symbol table, mapping each distinct label
//! string to a small [`Sym`] id — and events carry the `Copy` id instead.
//! Strings are materialised only at serialization boundaries
//! ([`crate::obs::Trace::to_text`] and friends) by resolving the id.
//!
//! Algorithm machines label a bounded set of distinct statements (the
//! numbered lines of the paper's figures), so the table stays tiny while
//! executions run to millions of statements: after the first occurrence of
//! each label, the per-statement cost is a hash lookup and a 4-byte copy.
//! Shared-table strings are `Arc<str>`, so cloning an interner (with a
//! forked kernel's trace, or into a history) is O(distinct labels), not
//! O(text).

use std::collections::HashMap;
use std::sync::Arc;

/// An interned label: a `Copy` id valid for the [`Interner`] that produced
/// it (and its clones).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(u32);

impl Sym {
    /// The empty label `""`, pre-interned in every table at id 0 so that
    /// unlabeled statements need no table access at all.
    pub const EMPTY: Sym = Sym(0);

    /// The id's index into its table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A symbol table: distinct label strings, densely numbered by [`Sym`].
///
/// Every table starts with `""` at [`Sym::EMPTY`]. Tables only grow, so a
/// table resolves every id it ever handed out.
#[derive(Clone, Debug)]
pub struct Interner {
    names: Vec<Arc<str>>,
    map: HashMap<Arc<str>, Sym>,
}

impl Default for Interner {
    fn default() -> Self {
        let empty: Arc<str> = Arc::from("");
        let mut map = HashMap::new();
        map.insert(empty.clone(), Sym::EMPTY);
        Interner { names: vec![empty], map }
    }
}

impl Interner {
    /// A fresh table containing only the empty label.
    pub fn new() -> Self {
        Interner::default()
    }

    /// Interns `s`, returning its id (allocating only on first occurrence).
    pub fn intern(&mut self, s: &str) -> Sym {
        if let Some(&sym) = self.map.get(s) {
            return sym;
        }
        let sym = Sym(self.names.len() as u32);
        let name: Arc<str> = Arc::from(s);
        self.names.push(name.clone());
        self.map.insert(name, sym);
        sym
    }

    /// The string for `sym`.
    ///
    /// # Panics
    ///
    /// Panics if `sym` did not come from this table.
    pub fn resolve(&self, sym: Sym) -> &str {
        &self.names[sym.index()]
    }

    /// Number of interned labels (including the empty label).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the table holds only the empty label.
    pub fn is_empty(&self) -> bool {
        self.names.len() == 1
    }
}

impl PartialEq for Interner {
    fn eq(&self, other: &Self) -> bool {
        // The map is derived from `names`; comparing names is sufficient.
        self.names == other.names
    }
}

impl Eq for Interner {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_label_is_preinterned() {
        let mut i = Interner::new();
        assert_eq!(i.intern(""), Sym::EMPTY);
        assert_eq!(i.resolve(Sym::EMPTY), "");
        assert!(i.is_empty());
    }

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut i = Interner::new();
        let a = i.intern("1: v := val");
        let b = i.intern("2: return");
        assert_eq!(i.intern("1: v := val"), a);
        assert_ne!(a, b);
        assert_eq!(i.len(), 3);
        assert_eq!(i.resolve(a), "1: v := val");
        assert_eq!(i.resolve(b), "2: return");
    }
}
