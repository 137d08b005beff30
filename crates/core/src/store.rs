//! In-memory fragment storage with a consumed-label index.
//!
//! [`InMemoryFragmentStore`] is a host's fragment database: the local
//! analogue of the paper's Fragment Manager database (§4.2; the runtime's
//! Fragment Manager wraps one), the query index every
//! [`FragmentBackend`] answers from, and the reference implementation of
//! [`FragmentSource`].
//!
//! A fragment's slot is its global insertion sequence: new ids append,
//! replaces keep their slot, and nothing is ever removed. Queries answer
//! in slot order, so insert order is construction order.
//!
//! Fragments are held behind [`Arc`] so that answering a frontier query
//! hands out shared references instead of deep-copying whole workflow
//! graphs — the incremental constructor, the runtime's Fragment Manager
//! and the simulated network all share one allocation per fragment.

use std::fmt;
use std::sync::{Arc, Mutex};

use crate::construct::incremental::FragmentSource;
use crate::fragment::{Fragment, FragmentId};
use crate::fx::FxHashMap;
use crate::ids::Label;

/// A fragment database indexed by the labels its tasks consume.
#[derive(Default)]
pub struct InMemoryFragmentStore {
    fragments: Vec<Arc<Fragment>>,
    by_id: FxHashMap<FragmentId, usize>,
    by_consumed_label: FxHashMap<Label, Vec<u32>>,
    /// Reusable dedup bitset for [`InMemoryFragmentStore::consuming`]
    /// (one bit per stored fragment, zeroed after each query). Behind a
    /// mutex so queries stay `&self` and the store stays `Sync`.
    seen_scratch: Mutex<Vec<u64>>,
}

impl Clone for InMemoryFragmentStore {
    fn clone(&self) -> Self {
        InMemoryFragmentStore {
            fragments: self.fragments.clone(),
            by_id: self.by_id.clone(),
            by_consumed_label: self.by_consumed_label.clone(),
            seen_scratch: Mutex::new(Vec::new()),
        }
    }
}

impl InMemoryFragmentStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        InMemoryFragmentStore::default()
    }

    /// Inserts a fragment, replacing any fragment with the same id.
    ///
    /// Accepts owned fragments or already-shared `Arc<Fragment>`s (no
    /// re-allocation in the latter case).
    ///
    /// Returns `true` if the fragment was new, `false` if it replaced an
    /// existing one.
    pub fn insert(&mut self, fragment: impl Into<Arc<Fragment>>) -> bool {
        let fragment = fragment.into();
        if let Some(&pos) = self.by_id.get(fragment.id()) {
            // Replace: rebuild the index entries for this slot, pruning
            // buckets the old fragment leaves empty.
            let old = std::mem::replace(&mut self.fragments[pos], fragment);
            for label in old.all_input_labels() {
                if let Some(v) = self.by_consumed_label.get_mut(&label) {
                    v.retain(|&i| i as usize != pos);
                    if v.is_empty() {
                        self.by_consumed_label.remove(&label);
                    }
                }
            }
            let new_labels = self.fragments[pos].all_input_labels();
            for label in new_labels {
                self.by_consumed_label
                    .entry(label)
                    .or_default()
                    .push(pos as u32);
            }
            return false;
        }
        let pos = self.fragments.len();
        self.by_id.insert(fragment.id().clone(), pos);
        for label in fragment.all_input_labels() {
            self.by_consumed_label
                .entry(label)
                .or_default()
                .push(pos as u32);
        }
        self.fragments.push(fragment);
        true
    }

    /// Number of stored fragments.
    pub fn len(&self) -> usize {
        self.fragments.len()
    }

    /// True if the store holds no fragments.
    pub fn is_empty(&self) -> bool {
        self.fragments.is_empty()
    }

    /// Looks up a fragment by id.
    pub fn get(&self, id: &FragmentId) -> Option<&Arc<Fragment>> {
        self.by_id.get(id).map(|&i| &self.fragments[i])
    }

    /// All stored fragments in insertion order.
    pub fn fragments(&self) -> impl Iterator<Item = &Fragment> + '_ {
        self.fragments.iter().map(Arc::as_ref)
    }

    /// All stored fragments as shared handles, in insertion order.
    pub fn fragments_shared(&self) -> impl Iterator<Item = &Arc<Fragment>> + '_ {
        self.fragments.iter()
    }

    /// `(sequence, fragment)` for every stored fragment, in sequence
    /// order. The sequence is the slot: snapshot writers persist it and
    /// [`InMemoryFragmentStore::restore`] takes it back.
    pub fn entries(&self) -> impl Iterator<Item = (u64, &Arc<Fragment>)> + '_ {
        self.fragments
            .iter()
            .enumerate()
            .map(|(i, f)| (i as u64, f))
    }

    /// Restores a fragment at an explicit insertion sequence — the
    /// checkpoint-load dual of [`InMemoryFragmentStore::insert`].
    /// Restoring a snapshot's [`InMemoryFragmentStore::entries`] in order
    /// rebuilds the same store: same slots, same query answers, and tail
    /// inserts continue the numbering.
    ///
    /// Returns `false` and leaves the store unchanged when `seq` is not
    /// the next dense sequence ([`InMemoryFragmentStore::len`]) or the id
    /// is already stored — shapes no well-formed snapshot has.
    pub fn restore(&mut self, seq: u64, fragment: Arc<Fragment>) -> bool {
        if seq != self.fragments.len() as u64 || self.by_id.contains_key(fragment.id()) {
            return false;
        }
        self.insert(fragment)
    }

    /// Fragments containing a task that consumes any of `labels`,
    /// deduplicated, in insertion order. Hands out `Arc` clones — callers
    /// share the stored allocation.
    pub fn consuming(&self, labels: &[Label]) -> Vec<Arc<Fragment>> {
        let mut seen = self.seen_scratch.lock().expect("store scratch lock");
        let words = self.fragments.len().div_ceil(64);
        if seen.len() < words {
            seen.resize(words, 0);
        }
        let mut hits: Vec<u32> = Vec::new();
        for label in labels {
            if let Some(indices) = self.by_consumed_label.get(label) {
                for &i in indices {
                    let (w, b) = (i as usize / 64, i % 64);
                    if seen[w] & (1 << b) == 0 {
                        seen[w] |= 1 << b;
                        hits.push(i);
                    }
                }
            }
        }
        // Zero exactly the bits we set, leaving the scratch clean for the
        // next query without a full memset.
        for &i in &hits {
            seen[i as usize / 64] &= !(1 << (i % 64));
        }
        drop(seen);
        hits.sort_unstable();
        hits.into_iter()
            .map(|i| Arc::clone(&self.fragments[i as usize]))
            .collect()
    }
}

impl FragmentSource for InMemoryFragmentStore {
    fn fragments_consuming(&mut self, labels: &[Label]) -> Vec<Arc<Fragment>> {
        self.consuming(labels)
    }
}

impl FromIterator<Fragment> for InMemoryFragmentStore {
    fn from_iter<I: IntoIterator<Item = Fragment>>(iter: I) -> Self {
        let mut store = InMemoryFragmentStore::new();
        for f in iter {
            store.insert(f);
        }
        store
    }
}

impl FromIterator<Arc<Fragment>> for InMemoryFragmentStore {
    fn from_iter<I: IntoIterator<Item = Arc<Fragment>>>(iter: I) -> Self {
        let mut store = InMemoryFragmentStore::new();
        for f in iter {
            store.insert(f);
        }
        store
    }
}

impl Extend<Fragment> for InMemoryFragmentStore {
    fn extend<I: IntoIterator<Item = Fragment>>(&mut self, iter: I) {
        for f in iter {
            self.insert(f);
        }
    }
}

impl Extend<Arc<Fragment>> for InMemoryFragmentStore {
    fn extend<I: IntoIterator<Item = Arc<Fragment>>>(&mut self, iter: I) {
        for f in iter {
            self.insert(f);
        }
    }
}

impl fmt::Debug for InMemoryFragmentStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InMemoryFragmentStore")
            .field("fragments", &self.fragments.len())
            .field("indexed_labels", &self.by_consumed_label.len())
            .finish()
    }
}

/// Error surfaced by a fragment storage backend (e.g. disk I/O or a
/// corrupt log record in a durable backend). In-memory backends never
/// fail.
pub type BackendError = Box<dyn std::error::Error + Send + Sync>;

/// A pluggable fragment storage backend behind the runtime's Fragment
/// Manager.
///
/// Every backend maintains (or can cheaply rebuild) an in-memory
/// [`InMemoryFragmentStore`] as its query index — consumed-label queries
/// are always answered from memory; what varies is the *durability* of
/// the record of fragments. The in-memory backend is the store itself; a
/// durable backend (see `openwf-wire`'s `DurableFragmentStore`) appends
/// every insert to an on-disk segment log first and rebuilds the index by
/// replay on restart, so the same database (same fragments, same global
/// insertion sequence) comes back after a crash.
pub trait FragmentBackend: Send {
    /// Inserts a fragment, replacing any fragment with the same id.
    /// Returns `Ok(true)` when the fragment was new.
    ///
    /// # Errors
    ///
    /// [`BackendError`] when the backend cannot persist the fragment
    /// (disk full, closed log…). In-memory backends are infallible.
    fn insert_fragment(&mut self, fragment: Arc<Fragment>) -> Result<bool, BackendError>;

    /// The in-memory query index over the stored fragments.
    fn index(&self) -> &InMemoryFragmentStore;

    /// Short human-readable backend name (`"memory"`, `"durable"`).
    fn backend_kind(&self) -> &'static str;

    /// Flushes any buffered writes to stable storage. No-op for
    /// in-memory backends.
    ///
    /// # Errors
    ///
    /// [`BackendError`] when the flush fails.
    fn sync(&mut self) -> Result<(), BackendError> {
        Ok(())
    }

    /// Backend-defined numeric metrics as stable `(name, value)` pairs,
    /// e.g. a durable backend's snapshot/compaction/replay tallies and
    /// live/garbage byte counts. Observability layers publish these
    /// into a metrics registry by delta, so values may move in either
    /// direction between calls. In-memory backends report nothing.
    fn metrics(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }
}

impl FragmentBackend for InMemoryFragmentStore {
    fn insert_fragment(&mut self, fragment: Arc<Fragment>) -> Result<bool, BackendError> {
        Ok(self.insert(fragment))
    }

    fn index(&self) -> &InMemoryFragmentStore {
        self
    }

    fn backend_kind(&self) -> &'static str {
        "memory"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Mode;

    fn frag(id: &str, task: &str, ins: &[&str], outs: &[&str]) -> Fragment {
        Fragment::single_task(
            id,
            task,
            Mode::Disjunctive,
            ins.iter().copied(),
            outs.iter().copied(),
        )
        .unwrap()
    }

    #[test]
    fn insert_and_lookup() {
        let mut s = InMemoryFragmentStore::new();
        assert!(s.insert(frag("f1", "t1", &["a"], &["b"])));
        assert!(s.insert(frag("f2", "t2", &["b"], &["c"])));
        assert_eq!(s.len(), 2);
        assert!(s.get(&FragmentId::new("f1")).is_some());
        assert!(s.get(&FragmentId::new("zz")).is_none());
    }

    #[test]
    fn inserting_shared_arcs_does_not_reallocate() {
        let f = Arc::new(frag("f1", "t1", &["a"], &["b"]));
        let mut s = InMemoryFragmentStore::new();
        s.insert(Arc::clone(&f));
        let got = s.get(&FragmentId::new("f1")).unwrap();
        assert!(Arc::ptr_eq(got, &f), "stored handle shares the allocation");
        let hits = s.consuming(&[Label::new("a")]);
        assert!(Arc::ptr_eq(&hits[0], &f), "queries share the allocation");
    }

    #[test]
    fn consuming_matches_input_labels() {
        let mut s = InMemoryFragmentStore::new();
        s.insert(frag("f1", "t1", &["a"], &["b"]));
        s.insert(frag("f2", "t2", &["b"], &["c"]));
        s.insert(frag("f3", "t3", &["a", "x"], &["d"]));
        let hits = s.consuming(&[Label::new("a")]);
        let ids: Vec<&str> = hits.iter().map(|f| f.id().as_str()).collect();
        assert_eq!(ids, ["f1", "f3"]);
        assert!(s.consuming(&[Label::new("nope")]).is_empty());
    }

    #[test]
    fn consuming_dedupes_across_query_labels() {
        let mut s = InMemoryFragmentStore::new();
        s.insert(frag("f", "t", &["a", "b"], &["c"]));
        let hits = s.consuming(&[Label::new("a"), Label::new("b")]);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn consuming_scratch_is_clean_across_queries() {
        // Re-running the same query must keep returning every hit (a
        // stale bit in the scratch would hide fragments).
        let mut s = InMemoryFragmentStore::new();
        for i in 0..130 {
            s.insert(frag(&format!("f{i}"), &format!("t{i}"), &["a"], &["b"]));
        }
        for _ in 0..3 {
            assert_eq!(s.consuming(&[Label::new("a")]).len(), 130);
        }
    }

    #[test]
    fn internal_input_labels_are_indexed() {
        // Fragment with an internal label: t1 -> mid -> t2. A query on
        // `mid` must return the fragment even though mid is not a source.
        let f = Fragment::builder("f")
            .task("t1", Mode::Disjunctive)
            .inputs(["a"])
            .outputs(["mid"])
            .done()
            .task("t2", Mode::Disjunctive)
            .inputs(["mid"])
            .outputs(["b"])
            .done()
            .build()
            .unwrap();
        let mut s = InMemoryFragmentStore::new();
        s.insert(f);
        assert_eq!(s.consuming(&[Label::new("mid")]).len(), 1);
    }

    #[test]
    fn replacing_fragment_updates_index() {
        let mut s = InMemoryFragmentStore::new();
        s.insert(frag("f", "t", &["a"], &["b"]));
        assert!(!s.insert(frag("f", "t", &["x"], &["b"])), "replacement");
        assert_eq!(s.len(), 1);
        assert!(s.consuming(&[Label::new("a")]).is_empty());
        assert_eq!(s.consuming(&[Label::new("x")]).len(), 1);
    }

    #[test]
    fn replace_prunes_empty_label_buckets() {
        let mut s = InMemoryFragmentStore::new();
        s.insert(frag("f", "t", &["only-a"], &["b"]));
        s.insert(frag("f", "t", &["only-x"], &["b"]));
        // The `only-a` bucket is gone entirely, not left as an empty Vec.
        assert_eq!(s.by_consumed_label.len(), 1);
        assert!(s.by_consumed_label.contains_key(&Label::new("only-x")));
    }

    #[test]
    fn restore_rebuilds_the_exact_layout() {
        // Build a store with interleaved inserts and replaces, then
        // rebuild it from its own entries — slots, sequences and query
        // answers must all come back identical.
        let mut original = InMemoryFragmentStore::new();
        for i in 0..20 {
            original.insert(frag(
                &format!("f{i}"),
                &format!("t{i}"),
                &[&format!("in{}", i % 4)],
                &[&format!("out{}", i % 6)],
            ));
        }
        // Replaces keep their slot even when every label changes.
        for i in [3usize, 7, 11] {
            assert!(!original.insert(frag(
                &format!("f{i}"),
                &format!("t{i}"),
                &["swapped"],
                &["elsewhere"],
            )));
        }

        let mut restored = InMemoryFragmentStore::new();
        for (seq, f) in original.entries() {
            assert!(restored.restore(seq, Arc::clone(f)));
        }
        let layout = |s: &InMemoryFragmentStore| -> Vec<(u64, String)> {
            s.entries().map(|(q, f)| (q, f.id().to_string())).collect()
        };
        assert_eq!(layout(&restored), layout(&original));
        for q in ["in0", "in3", "swapped", "absent"] {
            let a: Vec<String> = original
                .consuming(&[Label::new(q)])
                .iter()
                .map(|f| f.id().to_string())
                .collect();
            let b: Vec<String> = restored
                .consuming(&[Label::new(q)])
                .iter()
                .map(|f| f.id().to_string())
                .collect();
            assert_eq!(a, b, "query {q} differs");
        }
        // Tail inserts continue the original numbering.
        restored.insert(frag("f-new", "t-new", &["x"], &["y"]));
        let new_seq = restored
            .entries()
            .find(|(_, f)| f.id().as_str() == "f-new")
            .map(|(seq, _)| seq)
            .unwrap();
        assert_eq!(new_seq, original.len() as u64);
    }

    #[test]
    fn restore_rejects_gaps_and_duplicate_ids() {
        let mut s = InMemoryFragmentStore::new();
        assert!(
            !s.restore(1, Arc::new(frag("f", "t", &["a"], &["b"]))),
            "gap"
        );
        assert!(s.is_empty());
        assert!(s.restore(0, Arc::new(frag("f", "t", &["a"], &["b"]))));
        assert!(
            !s.restore(1, Arc::new(frag("f", "t", &["x"], &["b"]))),
            "duplicate id"
        );
        assert_eq!(s.len(), 1);
        assert!(s.consuming(&[Label::new("x")]).is_empty(), "unchanged");
        assert_eq!(s.consuming(&[Label::new("a")]).len(), 1);
    }

    #[test]
    fn collects_from_iterator() {
        let s: InMemoryFragmentStore = vec![
            frag("f1", "t1", &["a"], &["b"]),
            frag("f2", "t2", &["b"], &["c"]),
        ]
        .into_iter()
        .collect();
        assert_eq!(s.len(), 2);
        let mut s = s;
        s.extend([frag("f3", "t3", &["c"], &["d"])]);
        assert_eq!(s.len(), 3);
        s.extend([Arc::new(frag("f4", "t4", &["d"], &["e"]))]);
        assert_eq!(s.len(), 4);
    }
}
