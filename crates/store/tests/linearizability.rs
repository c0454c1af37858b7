//! Linearizability of the shared store, *checked* by the unchanged
//! `shmem-spec` atomicity checker over recorded multi-threaded histories.
//!
//! Worker threads hammer a shared store with seeded read/write op decks,
//! stamping every operation's invoke/response interval through the
//! per-thread [`ThreadLog`]; after joining, the logs merge into per-key
//! histories and `check_atomic` delivers the verdict. The suite sweeps
//! 2/4/8 threads × several seeds, and includes two deliberately broken
//! store variants as mutation controls the checker must kill — stale-tag
//! reads, and a compare-and-store split over two critical sections —
//! proof the harness can actually see violations.

use shmem_algorithms::backend::{AbdBackend, CasBackend, LocalCas};
use shmem_algorithms::multikey::{Key, ShardMap};
use shmem_algorithms::tag::Tag;
use shmem_algorithms::value::{Value, ValueSpec};
use shmem_spec::{check_atomic, History};
use shmem_store::log::{merge_histories, OpClock, ThreadLog};
use shmem_store::{
    CodedStore, RegStore, SplitSectionReg, StaleTagRegHandle, StoreAbdBackend, StoreCasBackend,
};
use shmem_util::rng::DetRng;
use std::sync::{Arc, Barrier};

const KEYS: u64 = 6;
const INITIAL: Value = 0;
/// Per-key op budget across all threads; the spec checker caps a history
/// at 128 operations.
const OPS_PER_KEY: usize = 120;

/// A value that encodes its writer and sequence — unique per write.
fn val(thread: u32, seq: u32) -> Value {
    1 + (u64::from(thread) << 32 | u64::from(seq))
}

/// One thread's shuffled op deck: `(key, is_write)` pairs, `m` per key.
fn deck(rng: &mut DetRng, m: usize, write_ratio: f64) -> Vec<(Key, bool)> {
    let mut ops: Vec<(Key, bool)> = (0..KEYS)
        .flat_map(|k| (0..m).map(move |_| (k, false)))
        .collect();
    for op in &mut ops {
        op.1 = rng.gen_bool(write_ratio);
    }
    rng.shuffle(&mut ops);
    ops
}

/// Register mix: every thread interleaves honest loads and tag-ordered
/// compare-and-bump writes against one shared [`RegStore`].
fn run_register_stress(threads: u32, seed: u64) {
    let store = Arc::new(RegStore::new());
    let clock = OpClock::new();
    let m = OPS_PER_KEY / threads as usize;

    let logs: Vec<ThreadLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let mut handle = StoreAbdBackend::shared(&store);
                let mut log = ThreadLog::new(t, &clock);
                let mut rng = DetRng::seed_from_u64(seed ^ u64::from(t) << 17);
                scope.spawn(move || {
                    let mut seq = 0u32;
                    for (key, is_write) in deck(&mut rng, m, 0.5) {
                        let invoked = log.invoke();
                        if is_write {
                            // MWMR write: bump past the current tag; ties
                            // (same seq from racing writers) break by id.
                            let cur = handle.load(key).map_or(Tag::ZERO, |(t, _)| t);
                            let v = val(t, seq);
                            seq += 1;
                            handle.store_if_newer(key, cur.successor(t), v);
                            log.write_done(key, invoked, v);
                        } else {
                            let v = handle.load(key).map_or(INITIAL, |(_, v)| v);
                            log.read_done(key, invoked, v);
                        }
                    }
                    log
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let histories = merge_histories(INITIAL, logs);
    assert_eq!(histories.len() as u64, KEYS, "every key must be touched");
    for (key, h) in histories {
        assert!(h.len() <= 128, "checker budget exceeded on key {key}");
        if let Err(v) = check_atomic(&h) {
            panic!("threads={threads} seed={seed:#x} key={key}: store history not atomic: {v}");
        }
    }
}

#[test]
fn register_stress_atomic_2_threads() {
    for seed in [0x5103_1e47, 0xace0_11b5, 0x90_4e57] {
        run_register_stress(2, seed);
    }
}

#[test]
fn register_stress_atomic_4_threads() {
    for seed in [0x5103_1e47, 0xace0_11b5, 0x90_4e57] {
        run_register_stress(4, seed);
    }
}

#[test]
fn register_stress_atomic_8_threads() {
    for seed in [0x5103_1e47, 0xace0_11b5, 0x90_4e57] {
        run_register_stress(8, seed);
    }
}

/// Coded mix: threads drive the [`CasBackend`] transitions directly
/// (query-tag → pre-write → finalize for writes; query-tag → read-get →
/// decode for reads) against one shared [`CodedStore`], single-server
/// `[1,1]` geometry so every round is one backend call deep. Under
/// `gc(0)` a read's `read_get` — finalize, gc and fetch in one critical
/// section — races `pre_write`/`finalize` of newer tags on the same key:
/// when the queried tag's symbol has been collected meanwhile the reader
/// starts over from a fresh tag, as a CAS reader does.
fn run_coded_stress(threads: u32, seed: u64, gc: Option<u32>) {
    let mut cfg = shmem_algorithms::cas::ShardedCasConfig::native(
        ShardMap::full(1),
        0,
        ValueSpec::from_bits(64.0),
    );
    cfg.gc_depth = gc;
    let store: Arc<CodedStore> = Arc::new(CodedStore::of(LocalCas::new(cfg.clone(), 0, INITIAL)));
    let clock = OpClock::new();
    let m = OPS_PER_KEY / threads as usize;

    let logs: Vec<ThreadLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let mut backend = StoreCasBackend::shared(&store);
                let code = cfg.code();
                let mut log = ThreadLog::new(t, &clock);
                let mut rng = DetRng::seed_from_u64(seed ^ u64::from(t) << 23);
                scope.spawn(move || {
                    let mut seq = 0u32;
                    for (key, is_write) in deck(&mut rng, m, 0.5) {
                        let invoked = log.invoke();
                        if is_write {
                            let v = val(t, seq);
                            seq += 1;
                            let tag = backend.max_finalized(key).successor(t);
                            let share = code.encode_bytes(&ValueSpec::to_bytes(v));
                            backend.pre_write(key, tag, share[0].clone());
                            backend.finalize(key, tag);
                            log.write_done(key, invoked, v);
                        } else {
                            let share = loop {
                                let tag = backend.max_finalized(key);
                                let held = backend
                                    .read_get(key, tag)
                                    .expect("full map: every key in shard");
                                match held {
                                    Some(share) => break share,
                                    None => assert!(gc.is_some(), "no GC: share must be held"),
                                }
                            };
                            let bytes = code
                                .decode_bytes(&[(0, share)], ValueSpec::VALUE_BYTES)
                                .expect("[1,1] decode from its only share");
                            log.read_done(key, invoked, ValueSpec::from_bytes(&bytes));
                        }
                    }
                    log
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let histories = merge_histories(INITIAL, logs);
    assert_eq!(histories.len() as u64, KEYS, "every key must be touched");
    for (key, h) in histories {
        if let Err(v) = check_atomic(&h) {
            panic!(
                "threads={threads} seed={seed:#x} gc={gc:?} key={key}: coded history not atomic: {v}"
            );
        }
    }
}

#[test]
fn coded_stress_atomic_4_threads() {
    for seed in [0xc0de_d001, 0xc0de_d002, 0xc0de_d003] {
        run_coded_stress(4, seed, None);
        run_coded_stress(4, seed, Some(0));
    }
}

#[test]
fn coded_stress_atomic_8_threads() {
    run_coded_stress(8, 0xc0de_d004, None);
    run_coded_stress(8, 0xc0de_d004, Some(0));
}

/// The first mutation control: a store whose reads return stale cached
/// versions MUST be killed by the checker — otherwise the whole suite is
/// vacuous. Three honest writers complete a round of writes between a
/// broken reader's first and second read of each key (barrier-sequenced,
/// so the kill is deterministic across every seed).
#[test]
fn stale_tag_store_is_killed_by_the_checker() {
    for seed in [0xbad5_eed1_u64, 0xbad5_eed2, 0xbad5_eed3] {
        let store = Arc::new(RegStore::new());
        let clock = OpClock::new();
        let writers = 3u32;
        // reader + writers rendezvous twice per phase boundary
        let gate = Arc::new(Barrier::new(writers as usize + 1));

        let logs: Vec<ThreadLog> = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            // Broken reader: client 0.
            {
                let broken = StaleTagRegHandle::new(&store);
                let mut log = ThreadLog::new(0, &clock);
                let gate = Arc::clone(&gate);
                handles.push(scope.spawn(move || {
                    for key in 0..KEYS {
                        let invoked = log.invoke();
                        let v = broken.load(key).map_or(INITIAL, |(_, v)| v);
                        log.read_done(key, invoked, v); // caches forever
                    }
                    gate.wait(); // writers now complete a full round
                    gate.wait();
                    for key in 0..KEYS {
                        let invoked = log.invoke();
                        let v = broken.load(key).map_or(INITIAL, |(_, v)| v);
                        log.read_done(key, invoked, v); // stale!
                    }
                    log
                }));
            }
            for w in 1..=writers {
                let mut handle = StoreAbdBackend::shared(&store);
                let mut log = ThreadLog::new(w, &clock);
                let gate = Arc::clone(&gate);
                let mut rng = DetRng::seed_from_u64(seed ^ u64::from(w));
                handles.push(scope.spawn(move || {
                    gate.wait();
                    let mut keys: Vec<Key> = (0..KEYS).collect();
                    rng.shuffle(&mut keys);
                    for (i, key) in keys.into_iter().enumerate() {
                        let invoked = log.invoke();
                        let cur = handle.load(key).map_or(Tag::ZERO, |(t, _)| t);
                        let v = val(w, i as u32);
                        handle.store_if_newer(key, cur.successor(w), v);
                        log.write_done(key, invoked, v);
                    }
                    gate.wait();
                    log
                }));
            }
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        let histories = merge_histories(INITIAL, logs);
        let violations = histories
            .values()
            .filter(|h| check_atomic(h).is_err())
            .count();
        assert!(
            violations > 0,
            "seed {seed:#x}: stale-tag mutation survived the checker — the suite is vacuous"
        );
    }
}

/// One replica of a three-replica register, as [`quorum_script`] drives
/// it. `between` runs inside `store`, wherever the implementation is not
/// holding its lock — for an honest store that is before it takes it.
trait Replica {
    fn load(&self) -> Option<(Tag, Value)>;
    fn store(&self, tag: Tag, value: Value, between: &mut dyn FnMut());
}

const REPLICATED_KEY: Key = 0;

impl Replica for Arc<RegStore> {
    fn load(&self) -> Option<(Tag, Value)> {
        StoreAbdBackend::shared(self).load(REPLICATED_KEY)
    }
    fn store(&self, tag: Tag, value: Value, between: &mut dyn FnMut()) {
        between();
        StoreAbdBackend::shared(self).store_if_newer(REPLICATED_KEY, tag, value);
    }
}

impl Replica for SplitSectionReg {
    fn load(&self) -> Option<(Tag, Value)> {
        SplitSectionReg::load(self, REPLICATED_KEY)
    }
    fn store(&self, tag: Tag, value: Value, between: &mut dyn FnMut()) {
        self.store_if_newer(REPLICATED_KEY, tag, value, between);
    }
}

/// ABD's query phase against the quorum `q`: the highest-tagged version.
fn quorum_max<R: Replica>(replicas: &[R; 3], q: [usize; 2]) -> (Tag, Value) {
    let version = |i: usize| replicas[i].load().unwrap_or((Tag::ZERO, INITIAL));
    version(q[0]).max(version(q[1]))
}

/// An ABD read through the quorum `q`: query, write back, return.
fn quorum_read<R: Replica>(replicas: &[R; 3], q: [usize; 2], log: &mut ThreadLog) {
    let invoked = log.invoke();
    let (tag, value) = quorum_max(replicas, q);
    for i in q {
        replicas[i].store(tag, value, &mut || {});
    }
    log.read_done(REPLICATED_KEY, invoked, value);
}

/// A fixed interleaving of three ABD clients over three replicas, each
/// client a correct ABD client (query a quorum, store to a quorum). A
/// slow writer's store to replica 0 is in flight — compared, not yet
/// stored, if the replica lets those come apart — while a second writer
/// with a higher tag completes and is read; the slow write then lands,
/// and two more reads go through different quorums.
fn quorum_script<R: Replica>(replicas: [R; 3]) -> History<Value> {
    let clock = OpClock::new();
    let (slow_id, fast_id) = (1, 2);
    let mut slow = ThreadLog::new(slow_id, &clock);
    let mut fast = ThreadLog::new(fast_id, &clock);
    let mut reader = ThreadLog::new(3, &clock);

    let slow_invoked = slow.invoke();
    let slow_tag = quorum_max(&replicas, [0, 1]).0.successor(slow_id);
    replicas[0].store(slow_tag, val(slow_id, 0), &mut || {
        let invoked = fast.invoke();
        let tag = quorum_max(&replicas, [0, 1]).0.successor(fast_id);
        assert!(tag > slow_tag);
        for i in [0, 1] {
            replicas[i].store(tag, val(fast_id, 0), &mut || {});
        }
        fast.write_done(REPLICATED_KEY, invoked, val(fast_id, 0));
        quorum_read(&replicas, [0, 1], &mut reader);
    });
    replicas[2].store(slow_tag, val(slow_id, 0), &mut || {});
    slow.write_done(REPLICATED_KEY, slow_invoked, val(slow_id, 0));

    quorum_read(&replicas, [0, 2], &mut reader);
    quorum_read(&replicas, [1, 2], &mut reader);

    merge_histories(INITIAL, vec![slow, fast, reader])
        .remove(&REPLICATED_KEY)
        .expect("the script touches the key")
}

/// The second mutation control: a store that compares the tag in one
/// critical section and stores in another loses the max-tag merge, and
/// the checker MUST see it. Over the honest store the same script is
/// atomic — the slow store is refused — so the kill is the mutant's
/// doing, not the script's.
#[test]
fn split_section_store_is_killed_by_the_checker() {
    let honest = quorum_script([(); 3].map(|()| Arc::new(RegStore::new())));
    if let Err(v) = check_atomic(&honest) {
        panic!("quorum script over the honest store not atomic: {v}");
    }
    let broken = quorum_script([(); 3].map(|()| SplitSectionReg::default()));
    assert!(
        check_atomic(&broken).is_err(),
        "split-section mutation survived the checker — the suite is vacuous"
    );
}
