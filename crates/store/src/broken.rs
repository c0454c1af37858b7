//! Deliberately broken store variants — the mutation controls for the
//! linearizability suite. If the spec checker cannot kill these, the
//! harness is vacuous.

use crate::striped::{RegStore, StoreAbdBackend};
use shmem_algorithms::backend::AbdBackend;
use shmem_algorithms::multikey::Key;
use shmem_algorithms::tag::Tag;
use shmem_algorithms::value::Value;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// A register handle with a *stale-tag read* bug: the first version it
/// observes for a key is cached and returned forever, as if the reader
/// trusted a stale replica without re-validating its tag against the
/// shared current version. Writes are honest, so the shared store keeps
/// advancing underneath — once two further writes have completed, a
/// cached read returns a value the serialization order can no longer
/// place, and `shmem_spec::check_atomic` must report the violation.
pub struct StaleTagRegHandle {
    inner: StoreAbdBackend,
    /// First-seen version per key (`None` = seen unmaterialized); the
    /// bug is never refreshing it.
    cached: RefCell<BTreeMap<Key, Option<(Tag, Value)>>>,
}

impl StaleTagRegHandle {
    /// A broken handle over `store`.
    pub fn new(store: &Arc<RegStore>) -> StaleTagRegHandle {
        StaleTagRegHandle {
            inner: StoreAbdBackend::shared(store),
            cached: RefCell::new(BTreeMap::new()),
        }
    }

    /// The broken read: first observation wins forever. Single-threaded
    /// runs with one write between reads still look plausible, which is
    /// what makes this a useful mutation — only the recorded-history
    /// checker, not casual assertions, reliably kills it.
    pub fn load(&self, key: Key) -> Option<(Tag, Value)> {
        *self
            .cached
            .borrow_mut()
            .entry(key)
            .or_insert_with(|| self.inner.load(key))
    }
}

/// A locked register store with the bug a lock design can actually have:
/// `store_if_newer` compares the tag in one critical section and stores
/// in another. A store that was newer when compared lands after a
/// higher-tagged one that got in between, so the replica's tag goes
/// *backwards* — the max-tag merge every quorum protocol leans on is
/// lost. One replica regressing is invisible to a reader of that replica
/// alone (a blind overwrite is still a register); it takes a quorum
/// history — one reader served by the regressed replica, the next by an
/// intact one — for the checker to see the new/old inversion. Starts
/// empty (`Default`).
#[derive(Default)]
pub struct SplitSectionReg {
    entries: Mutex<BTreeMap<Key, (Tag, Value)>>,
}

impl SplitSectionReg {
    fn entries(&self) -> std::sync::MutexGuard<'_, BTreeMap<Key, (Tag, Value)>> {
        self.entries.lock().expect("no panic under this lock")
    }

    /// An honest read.
    pub fn load(&self, key: Key) -> Option<(Tag, Value)> {
        self.entries().get(&key).copied()
    }

    /// The broken write. `between` runs in the window between the two
    /// critical sections, so a test can place other threads' operations
    /// there deterministically instead of hoping a race finds it.
    pub fn store_if_newer(&self, key: Key, tag: Tag, value: Value, between: impl FnOnce()) -> bool {
        let newer = tag > self.load(key).map_or(Tag::ZERO, |(t, _)| t);
        between();
        if newer {
            self.entries().insert(key, (tag, value));
        }
        newer
    }
}
