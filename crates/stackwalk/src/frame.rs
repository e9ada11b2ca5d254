//! Interned stack frames.
//!
//! A 208K-task job produces millions of individual stack frames, but only a few dozen
//! *distinct* function names (the ring test's traces in Figure 1 contain about twenty).
//! Interning the names once and passing 4-byte [`FrameId`]s everywhere keeps traces,
//! prefix-tree nodes and serialised packets small — the same reasoning that leads the
//! paper to compress task sets rather than ship raw representations around.

use std::collections::HashMap;

/// An interned function-name identifier, valid within one [`FrameTable`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FrameId(pub u32);

/// A bidirectional map between function names and [`FrameId`]s.
///
/// The table is append-only: ids are stable for the lifetime of the table, so traces
/// and prefix trees can hold bare ids without lifetimes.
#[derive(Clone, Debug, Default)]
pub struct FrameTable {
    names: Vec<String>,
    index: HashMap<String, FrameId>,
}

impl FrameTable {
    /// An empty table.
    pub fn new() -> Self {
        FrameTable::default()
    }

    /// Intern a function name, returning its stable id.
    pub fn intern(&mut self, name: &str) -> FrameId {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = FrameId(self.names.len() as u32);
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), id);
        id
    }

    /// Intern every name of a call path (outermost frame first).
    pub fn intern_path(&mut self, path: &[&str]) -> Vec<FrameId> {
        path.iter().map(|n| self.intern(n)).collect()
    }

    /// The name behind an id.  Panics on an id from another table, which is a
    /// programming error.
    pub fn name(&self, id: FrameId) -> &str {
        &self.names[id.0 as usize]
    }

    /// Look up an id without interning.
    pub fn lookup(&self, name: &str) -> Option<FrameId> {
        self.index.get(name).copied()
    }

    /// Every interned name, in id order.
    pub fn names(&self) -> impl Iterator<Item = &str> + '_ {
        self.names.iter().map(String::as_str)
    }

    /// Number of distinct interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Approximate serialised size of the table itself: the table travels with a
    /// merged prefix tree exactly once (names are never repeated per edge).
    pub fn serialized_bytes(&self) -> u64 {
        self.names.iter().map(|n| n.len() as u64 + 4).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut t = FrameTable::new();
        let a = t.intern("main");
        let b = t.intern("main");
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
        assert_eq!(t.name(a), "main");
    }

    #[test]
    fn distinct_names_get_distinct_ids() {
        let mut t = FrameTable::new();
        let a = t.intern("MPI_Barrier");
        let b = t.intern("MPI_Waitall");
        assert_ne!(a, b);
        assert_eq!(t.len(), 2);
        assert_eq!(t.lookup("MPI_Barrier"), Some(a));
        assert_eq!(t.lookup("missing"), None);
    }

    #[test]
    fn intern_path_preserves_order() {
        let mut t = FrameTable::new();
        let path = t.intern_path(&["_start", "main", "MPI_Barrier"]);
        assert_eq!(path.len(), 3);
        assert_eq!(t.name(path[0]), "_start");
        assert_eq!(t.name(path[2]), "MPI_Barrier");
    }

    #[test]
    fn serialized_size_counts_each_name_once() {
        let mut t = FrameTable::new();
        for _ in 0..100 {
            t.intern("do_SendOrStall");
        }
        assert_eq!(t.serialized_bytes(), "do_SendOrStall".len() as u64 + 4);
    }
}
