//! The session-global frame dictionary behind wire format v2.
//!
//! Version 1 of the wire format shipped every frame name as a length-prefixed
//! string in every packet: daemons did not share an interning order, so ids were
//! packet-local and the name table travelled with each tree.  At 208K endpoints
//! that is exactly the kind of per-packet redundancy the paper's Section V
//! argues a scalable tool cannot afford — and the fixed-width length prefix it
//! required is where the `as u16` truncation bug lived.
//!
//! [`FrameDictionary`] replaces that with one u32 id space per session:
//!
//! * at `Session::attach` / `StreamingSession::open` the front end *negotiates*
//!   the dictionary — it seeds the table with the frame names the application's
//!   runtime is expected to produce ([`negotiate`](FrameDictionary::negotiate))
//!   and broadcasts that base table down the overlay once;
//! * daemons intern against the shared table while encoding
//!   ([`intern`](FrameDictionary::intern)); a frame the negotiation did not
//!   anticipate gets an id past [`base_len`](FrameDictionary::base_len) and its
//!   name ships exactly once per packet as an *incremental dictionary record*;
//! * merge filters never look names up at all — with a session-global id space,
//!   comparing two frames is integer equality on ids.
//!
//! The handle is cheap to clone (all clones share one table) and callable from
//! every daemon thread; a poisoned lock is recovered rather than propagated,
//! because the table is append-only and never observed mid-update.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

use crate::frame::FrameTable;

#[derive(Debug, Default)]
struct DictionaryInner {
    names: Vec<String>,
    index: HashMap<String, u32>,
    base_len: u32,
}

/// A shared, session-global frame interner with a negotiated base table.
///
/// Ids below [`base_len`](Self::base_len) were agreed at session setup and need
/// never travel again; ids at or above it are incremental and ship their name
/// once per referencing packet.
#[derive(Clone, Debug, Default)]
pub struct FrameDictionary {
    inner: Arc<Mutex<DictionaryInner>>,
}

impl FrameDictionary {
    /// Negotiate a dictionary from the frame names a session expects to see.
    ///
    /// Duplicate hints collapse onto the first occurrence, so vocabularies can
    /// be concatenated freely.
    pub fn negotiate<'a>(hints: impl IntoIterator<Item = &'a str>) -> Self {
        let dict = FrameDictionary::default();
        {
            let mut inner = dict.lock();
            for name in hints {
                if !inner.index.contains_key(name) {
                    let id = u32::try_from(inner.names.len()).unwrap_or(u32::MAX);
                    inner.names.push(name.to_string());
                    inner.index.insert(name.to_string(), id);
                }
            }
            inner.base_len = u32::try_from(inner.names.len()).unwrap_or(u32::MAX);
        }
        dict
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, DictionaryInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Intern a frame name, returning its session-global id.  Names beyond the
    /// negotiated base get fresh incremental ids.
    pub fn intern(&self, name: &str) -> u32 {
        let mut inner = self.lock();
        if let Some(&id) = inner.index.get(name) {
            return id;
        }
        let id = u32::try_from(inner.names.len()).unwrap_or(u32::MAX);
        inner.names.push(name.to_string());
        inner.index.insert(name.to_string(), id);
        id
    }

    /// Look up a name without interning it.
    pub fn lookup(&self, name: &str) -> Option<u32> {
        self.lock().index.get(name).copied()
    }

    /// Whether every name already has an id, checked under one lock: encoding
    /// a tree over only these names interns nothing new.
    pub fn knows_all<'a>(&self, names: impl IntoIterator<Item = &'a str>) -> bool {
        let inner = self.lock();
        names.into_iter().all(|name| inner.index.contains_key(name))
    }

    /// The name behind a session-global id, if the dictionary has seen it.
    pub fn name(&self, id: u32) -> Option<String> {
        self.lock().names.get(usize::try_from(id).ok()?).cloned()
    }

    /// Size of the negotiated base table: ids below this were agreed at session
    /// setup and are never re-shipped.
    pub fn base_len(&self) -> u32 {
        self.lock().base_len
    }

    /// Total names interned so far (base + incremental).
    pub fn len(&self) -> usize {
        self.lock().names.len()
    }

    /// True if nothing was negotiated or interned.
    pub fn is_empty(&self) -> bool {
        self.lock().names.is_empty()
    }

    /// The negotiated base names in id order — the payload of the one-time
    /// dictionary broadcast down the overlay.
    pub fn negotiated_names(&self) -> Vec<String> {
        let inner = self.lock();
        let base = usize::try_from(inner.base_len).unwrap_or(inner.names.len());
        inner.names.iter().take(base).cloned().collect()
    }

    /// A point-in-time [`FrameTable`] whose [`FrameId`](crate::FrameId)s equal the dictionary's
    /// global ids — the front end resolves decoded trees against this.
    pub fn snapshot(&self) -> FrameTable {
        let inner = self.lock();
        let mut table = FrameTable::new();
        for name in &inner.names {
            table.intern(name);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameId;

    #[test]
    fn negotiation_fixes_the_base_and_dedupes_hints() {
        let dict = FrameDictionary::negotiate(["_start", "main", "MPI_Barrier", "main"]);
        assert_eq!(dict.base_len(), 3);
        assert_eq!(dict.len(), 3);
        assert_eq!(dict.lookup("main"), Some(1));
        assert_eq!(
            dict.negotiated_names(),
            vec!["_start", "main", "MPI_Barrier"]
        );
    }

    #[test]
    fn incremental_interns_land_past_the_base() {
        let dict = FrameDictionary::negotiate(["_start", "main"]);
        let late = dict.intern("do_SendOrStall");
        assert_eq!(late, 2);
        assert!(late >= dict.base_len());
        // Idempotent, and the base never moves.
        assert_eq!(dict.intern("do_SendOrStall"), late);
        assert_eq!(dict.base_len(), 2);
        assert_eq!(dict.name(late).as_deref(), Some("do_SendOrStall"));
    }

    #[test]
    fn knows_all_checks_without_interning() {
        let dict = FrameDictionary::negotiate(["_start", "main"]);
        assert!(dict.knows_all(["main", "_start"]));
        assert!(!dict.knows_all(["main", "poll_step"]));
        assert_eq!(dict.len(), 2, "the check interns nothing");
        dict.intern("poll_step");
        assert!(dict.knows_all(["main", "poll_step"]));
    }

    #[test]
    fn clones_share_one_id_space() {
        let dict = FrameDictionary::negotiate(["main"]);
        let other = dict.clone();
        let a = dict.intern("MPI_Waitall");
        let b = other.intern("MPI_Waitall");
        assert_eq!(a, b);
        assert_eq!(dict.len(), other.len());
    }

    #[test]
    fn snapshot_ids_equal_global_ids() {
        let dict = FrameDictionary::negotiate(["_start", "main"]);
        dict.intern("poll_step");
        let table = dict.snapshot();
        assert_eq!(table.len(), 3);
        assert_eq!(table.name(FrameId(2)), "poll_step");
        assert_eq!(table.lookup("_start"), Some(FrameId(0)));
    }

    #[test]
    fn empty_dictionary_is_usable() {
        let dict = FrameDictionary::default();
        assert!(dict.is_empty());
        assert_eq!(dict.base_len(), 0);
        assert_eq!(dict.intern("???"), 0);
        assert_eq!(dict.base_len(), 0, "interning never widens the base");
    }
}
