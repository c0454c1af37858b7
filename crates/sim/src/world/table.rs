//! The structure-of-arrays channel table and its message arena.
//!
//! The old representation — a `BTreeMap` from channel key to a shared
//! `VecDeque` per channel — allocated per channel and per message and
//! chased pointers on every step. This module replaces it with flat
//! structures the world owns:
//!
//! * [`MsgArena`]: a slab of message slots with a free list. Enqueueing a
//!   message reuses a freed slot instead of heap-allocating; a generation
//!   counter per slot catches stale [`Handle`]s in debug builds. Queues are
//!   threaded *through* the arena as intrusive singly-linked lists (each
//!   slot stores the handle of the next message on the same channel), so a
//!   channel queue needs no container of its own — pushing and popping are
//!   a couple of stores each, with zero allocation in steady state.
//! * [`ChannelTable`]: parallel vectors — one entry per channel, sorted by
//!   `(src, dst)` key so iteration order is byte-for-byte the order the old
//!   `BTreeMap` produced (schedulers, traces and recorded fault corpora
//!   depend on that order). Besides the key, each row carries its
//!   endpoints' block-mask slots, its [`Queue`] (head, tail and length in
//!   one record, so a push or pop pays one bounds check), a cut flag
//!   mirroring `Sim::cut_links`, and the cached digest component the
//!   incremental world digest folds (see `state.rs`).
//! * [`RowSet`]: the non-empty rows as a bitset. Emptying or refilling a
//!   row flips one bit (the sorted-`Vec` alternative pays a binary search
//!   plus a memmove on *every* queue-empty transition, which the request/
//!   response traffic of quorum protocols triggers almost every step);
//!   ascending-order iteration and `select(k)` fall out of bit scanning.
//! * a dense route table mapping `(src_slot, dst_slot)` to its row, so the
//!   send and targeted-delivery paths skip the binary search entirely.
//!
//! The table is a plain field of [`super::Sim`]: forking a world copies
//! it, arena included.

use crate::ids::NodeId;

/// A generation-checked reference to an arena slot.
///
/// `idx` names the slot; `gen` must match the slot's current generation,
/// which bumps every time the slot is freed — so a handle held across a
/// free/reuse cycle is detected (debug builds assert on every access).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) struct Handle {
    pub idx: u32,
    pub gen: u32,
}

/// The null handle, used as list terminator and empty head/tail.
pub(super) const NIL: Handle = Handle {
    idx: u32::MAX,
    gen: 0,
};

/// Route-table entry for a `(src, dst)` pair with no channel row yet.
pub(super) const NO_ROW: u32 = u32::MAX;

impl Handle {
    #[inline]
    pub fn is_nil(self) -> bool {
        self.idx == u32::MAX
    }
}

#[derive(Clone, Debug)]
struct Slot<M> {
    /// `None` while the slot is on the free list.
    msg: Option<M>,
    /// Next message queued on the same channel (NIL at the tail).
    next: Handle,
    /// Bumped on every free; handles carry the value they were minted with.
    gen: u32,
    /// The step at which the message was enqueued (diagnostics only —
    /// deliberately excluded from the digest, which certifies world
    /// *states*, not histories).
    tick: u64,
}

/// A slab allocator for in-flight messages with free-list reuse.
#[derive(Clone, Debug)]
pub(super) struct MsgArena<M> {
    slots: Vec<Slot<M>>,
    free: Vec<u32>,
}

// Manual impl: the derive would demand `M: Default` for no reason.
impl<M> Default for MsgArena<M> {
    fn default() -> MsgArena<M> {
        MsgArena {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<M> MsgArena<M> {
    /// Allocated slot capacity — observed by the no-allocation-growth
    /// test to prove steady-state stepping reuses freed slots.
    #[cfg(test)]
    pub fn slot_capacity(&self) -> usize {
        self.slots.capacity()
    }

    /// Stores `msg`, reusing a freed slot if one exists.
    #[inline]
    pub fn insert(&mut self, msg: M, tick: u64) -> Handle {
        match self.free.pop() {
            Some(idx) => {
                let slot = &mut self.slots[idx as usize];
                debug_assert!(slot.msg.is_none(), "free-list slot still occupied");
                slot.msg = Some(msg);
                slot.next = NIL;
                slot.tick = tick;
                Handle { idx, gen: slot.gen }
            }
            None => {
                let idx = self.slots.len() as u32;
                self.slots.push(Slot {
                    msg: Some(msg),
                    next: NIL,
                    gen: 0,
                    tick,
                });
                Handle { idx, gen: 0 }
            }
        }
    }

    /// Removes and returns the message at `h`, returning the slot to the
    /// free list.
    #[inline]
    pub fn take(&mut self, h: Handle) -> M {
        let slot = &mut self.slots[h.idx as usize];
        debug_assert_eq!(slot.gen, h.gen, "stale arena handle");
        let msg = slot.msg.take().expect("arena handle points at a free slot");
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(h.idx);
        msg
    }

    /// The message at `h`.
    #[inline]
    pub fn get(&self, h: Handle) -> &M {
        let slot = &self.slots[h.idx as usize];
        debug_assert_eq!(slot.gen, h.gen, "stale arena handle");
        slot.msg
            .as_ref()
            .expect("arena handle points at a free slot")
    }

    /// Mutable access to the message at `h` — the corruption adversary's
    /// in-flight tamper seam. The caller must mark the owning channel's
    /// digest component dirty *before* mutating through this.
    #[inline]
    pub fn get_mut(&mut self, h: Handle) -> &mut M {
        let slot = &mut self.slots[h.idx as usize];
        debug_assert_eq!(slot.gen, h.gen, "stale arena handle");
        slot.msg
            .as_mut()
            .expect("arena handle points at a free slot")
    }

    /// The queue successor recorded in `h`'s slot.
    #[inline]
    pub fn next(&self, h: Handle) -> Handle {
        self.slots[h.idx as usize].next
    }

    #[inline]
    fn set_next(&mut self, h: Handle, next: Handle) {
        self.slots[h.idx as usize].next = next;
    }

    /// The step at which the message at `h` was enqueued.
    #[cfg(test)]
    pub fn enqueue_tick(&self, h: Handle) -> u64 {
        self.slots[h.idx as usize].tick
    }

    /// Occupied slots (live messages).
    #[cfg(test)]
    pub fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Reserves slot capacity (a fresh world's first delivery wave would
    /// otherwise grow the slab through several doublings).
    pub fn reserve(&mut self, additional: usize) {
        self.slots.reserve(additional);
    }
}

/// A set of row indices as a bitset, iterated in ascending order.
///
/// Insert and remove are single bit flips — O(1) where the sorted-`Vec`
/// representation pays a binary search and a memmove. The scheduler's
/// round-robin pick is [`RowSet::select`], the k-th set bit.
#[derive(Clone, Debug, Default)]
pub(super) struct RowSet {
    words: Vec<u64>,
    count: u32,
}

impl RowSet {
    /// Grows the bit capacity to cover `rows` row indices.
    fn ensure_rows(&mut self, rows: usize) {
        let need = rows.div_ceil(64);
        if self.words.len() < need {
            self.words.resize(need, 0);
        }
    }

    #[inline]
    pub fn insert(&mut self, row: u32) {
        let (w, b) = (row as usize / 64, row % 64);
        debug_assert_eq!(self.words[w] & (1 << b), 0, "row already in set");
        self.words[w] |= 1 << b;
        self.count += 1;
    }

    #[inline]
    pub fn remove(&mut self, row: u32) {
        let (w, b) = (row as usize / 64, row % 64);
        debug_assert_ne!(self.words[w] & (1 << b), 0, "row missing from set");
        self.words[w] &= !(1 << b);
        self.count -= 1;
    }

    #[inline]
    pub fn len(&self) -> u32 {
        self.count
    }

    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The `k`-th smallest row in the set (`k < len`).
    #[inline]
    pub fn select(&self, mut k: u32) -> u32 {
        debug_assert!(k < self.count);
        for (w, &word) in self.words.iter().enumerate() {
            let pop = word.count_ones();
            if k < pop {
                return (w * 64) as u32 + select_in_word(word, k);
            }
            k -= pop;
        }
        unreachable!("select index past set size")
    }

    /// The set's rows in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            std::iter::successors((word != 0).then_some(word), |m| {
                let m = m & (m - 1);
                (m != 0).then_some(m)
            })
            .map(move |m| (w * 64) as u32 + m.trailing_zeros())
        })
    }

    /// Renumbers for a row inserted at `pos`: every member `>= pos` moves
    /// up by one. Membership count is unchanged.
    fn shift_up_from(&mut self, pos: u32) {
        let w0 = pos as usize / 64;
        let low_mask = (1u64 << (pos % 64)) - 1;
        let mut carry = 0u64;
        for (w, word) in self.words.iter_mut().enumerate().skip(w0) {
            let keep = if w == w0 { *word & low_mask } else { 0 };
            let moving = *word & !if w == w0 { low_mask } else { 0 };
            let next_carry = moving >> 63;
            *word = keep | (moving << 1) | carry;
            carry = next_carry;
        }
        if carry != 0 {
            self.words.push(carry);
        }
    }
}

/// The index of the `k`-th set bit of `word` (`k < popcount`): clears
/// the lowest set bit `k` times.
#[inline]
fn select_in_word(word: u64, k: u32) -> u32 {
    let mut m = word;
    for _ in 0..k {
        m &= m - 1; // clear lowest set bit
    }
    m.trailing_zeros()
}

/// One channel's intrusive queue: head and tail handles into the arena
/// and the queue length, kept together so a push or pop indexes one row.
#[derive(Clone, Copy, Debug)]
pub(super) struct Queue {
    /// Head of the intrusive queue (NIL when empty).
    pub head: Handle,
    /// Tail of the intrusive queue (NIL when empty).
    pub tail: Handle,
    /// Queue length.
    pub len: u32,
}

/// The queue of a row with nothing in flight.
const EMPTY: Queue = Queue {
    head: NIL,
    tail: NIL,
    len: 0,
};

/// Parallel per-channel vectors, sorted by `(src, dst)`.
///
/// Fields are `pub(super)`: the step relation, fault primitives and digest
/// maintenance in the sibling modules manipulate rows directly, and the
/// borrow checker can then see disjoint-field borrows that accessor
/// methods would hide.
#[derive(Clone, Debug)]
pub(super) struct ChannelTable<M> {
    /// Channel keys, ascending — the old `BTreeMap` iteration order.
    pub keys: Vec<(NodeId, NodeId)>,
    /// Source endpoint's index into the world's block mask.
    pub src_slot: Vec<u32>,
    /// Destination endpoint's index into the world's block mask.
    pub dst_slot: Vec<u32>,
    /// Each row's queue.
    pub queues: Vec<Queue>,
    /// Mirrors `Sim::cut_links` for rows that exist (links can be cut
    /// before their channel ever carries a message).
    pub cut: Vec<bool>,
    /// Cached digest component currently folded into the world digest —
    /// valid only while `dirty` is false.
    pub comp: Vec<u64>,
    /// Whether the row's digest component is stale (unfolded).
    pub dirty: Vec<bool>,
    /// Rows with `len > 0` — the scheduler's scan set.
    pub nonempty: RowSet,
    /// Dense `(src_slot, dst_slot) → row` map ([`NO_ROW`] where absent),
    /// allocated on first use; `slots` is its side length. The send path
    /// resolves its channel with one load instead of a binary search.
    route: Vec<u32>,
    slots: u32,
    /// Message storage shared by all rows.
    pub arena: MsgArena<M>,
    /// Total queued messages across all rows.
    pub in_flight: usize,
}

impl<M> ChannelTable<M> {
    /// An empty table for a world with `slots` nodes (servers + clients).
    pub fn new(slots: u32) -> ChannelTable<M> {
        ChannelTable {
            keys: Vec::new(),
            src_slot: Vec::new(),
            dst_slot: Vec::new(),
            queues: Vec::new(),
            cut: Vec::new(),
            comp: Vec::new(),
            dirty: Vec::new(),
            nonempty: RowSet::default(),
            route: Vec::new(),
            slots,
            arena: MsgArena::default(),
            in_flight: 0,
        }
    }

    /// The full channel mesh of the paper's Section 3 model, pre-created
    /// empty: every client↔server channel in both directions, plus every
    /// server→server channel when `gossip` allows them. Pre-creating the
    /// mesh in bulk (rows pushed in sorted order, columns memset) costs a
    /// few hundred nanoseconds at construction and removes the sorted
    /// *insert* — nine parallel-vector memmoves plus renumbering — from
    /// the first delivery wave of every fresh world. Empty rows are
    /// invisible to digests and scheduling, so the mesh is semantically
    /// identical to lazy creation.
    pub fn mesh(nserv: u32, nclients: u32, gossip: bool) -> ChannelTable<M> {
        let slots = nserv + nclients;
        let mut t = ChannelTable::new(slots);
        let rows = if gossip {
            (nserv as usize) * (nserv as usize - 1 + nclients as usize)
                + (nclients as usize) * (nserv as usize)
        } else {
            2 * (nserv as usize) * (nclients as usize)
        };
        t.reserve_rows(rows);
        // `NodeId` orders every server before every client, so pushing
        // servers-first per source yields ascending keys with no sorting.
        for s in 0..nserv {
            if gossip {
                for d in 0..nserv {
                    if d != s {
                        t.keys.push((NodeId::server(s), NodeId::server(d)));
                        t.src_slot.push(s);
                        t.dst_slot.push(d);
                    }
                }
            }
            for c in 0..nclients {
                t.keys.push((NodeId::server(s), NodeId::client(c)));
                t.src_slot.push(s);
                t.dst_slot.push(nserv + c);
            }
        }
        for c in 0..nclients {
            for d in 0..nserv {
                t.keys.push((NodeId::client(c), NodeId::server(d)));
                t.src_slot.push(nserv + c);
                t.dst_slot.push(d);
            }
        }
        debug_assert_eq!(t.keys.len(), rows);
        debug_assert!(t.keys.windows(2).all(|w| w[0] < w[1]), "mesh out of order");
        t.queues = vec![EMPTY; rows];
        t.cut = vec![false; rows];
        t.comp = vec![0; rows];
        t.dirty = vec![false; rows];
        t.nonempty.ensure_rows(rows);
        t.route = vec![NO_ROW; (slots * slots) as usize];
        for r in 0..rows {
            t.route[(t.src_slot[r] * slots + t.dst_slot[r]) as usize] = r as u32;
        }
        t.arena.reserve(slots as usize);
        t
    }

    /// The row for `key`, if present.
    #[inline]
    pub fn find(&self, key: (NodeId, NodeId)) -> Option<usize> {
        self.keys.binary_search(&key).ok()
    }

    /// The row for the channel from block-mask slot `src` to `dst`, if one
    /// exists — the O(1) lookup the hot paths use in place of [`find`].
    ///
    /// [`find`]: ChannelTable::find
    #[inline]
    pub fn lookup(&self, src: u32, dst: u32) -> Option<usize> {
        if src >= self.slots || dst >= self.slots {
            return None;
        }
        match self.route.get((src * self.slots + dst) as usize) {
            Some(&row) if row != NO_ROW => Some(row as usize),
            _ => None,
        }
    }

    /// The row for `key`, inserting an empty one in sorted position if
    /// absent. `src`/`dst` are the endpoints' block-mask indices, `cut` the
    /// link's current cut status.
    pub fn ensure(&mut self, key: (NodeId, NodeId), src: u32, dst: u32, cut: bool) -> usize {
        if let Some(row) = self.lookup(src, dst) {
            debug_assert_eq!(self.keys[row], key);
            return row;
        }
        match self.keys.binary_search(&key) {
            Ok(row) => row,
            Err(pos) => {
                if self.keys.len() == self.keys.capacity() {
                    // First growth (or a full table): size for a dense
                    // client↔server mesh up front rather than doubling
                    // seven parallel vectors in lockstep.
                    let add = (2 * self.slots as usize).max(8);
                    self.reserve_rows(add);
                }
                self.keys.insert(pos, key);
                self.src_slot.insert(pos, src);
                self.dst_slot.insert(pos, dst);
                self.queues.insert(pos, EMPTY);
                self.cut.insert(pos, cut);
                self.comp.insert(pos, 0);
                self.dirty.insert(pos, false);
                self.nonempty.ensure_rows(self.keys.len());
                self.nonempty.shift_up_from(pos as u32);
                if self.route.is_empty() {
                    self.route = vec![NO_ROW; (self.slots * self.slots) as usize];
                }
                // Rows after `pos` shifted up by one: refresh their route
                // entries from their own endpoint slots (O(rows), not
                // O(slots²)).
                for r in pos + 1..self.keys.len() {
                    let idx = (self.src_slot[r] * self.slots + self.dst_slot[r]) as usize;
                    self.route[idx] = r as u32;
                }
                self.route[(src * self.slots + dst) as usize] = pos as u32;
                pos
            }
        }
    }

    /// Reserves capacity for `additional` more channel rows.
    pub fn reserve_rows(&mut self, additional: usize) {
        self.keys.reserve(additional);
        self.src_slot.reserve(additional);
        self.dst_slot.reserve(additional);
        self.queues.reserve(additional);
        self.cut.reserve(additional);
        self.comp.reserve(additional);
        self.dirty.reserve(additional);
    }

    /// Appends `msg` to `row`'s queue; returns the new queue length.
    #[inline]
    pub fn push_back(&mut self, row: usize, msg: M, tick: u64) -> u32 {
        let h = self.arena.insert(msg, tick);
        let q = &mut self.queues[row];
        if q.tail.is_nil() {
            q.head = h;
            self.nonempty.insert(row as u32);
        } else {
            self.arena.set_next(q.tail, h);
        }
        q.tail = h;
        q.len += 1;
        self.in_flight += 1;
        q.len
    }

    /// Pops the head message of `row`.
    ///
    /// # Panics
    ///
    /// Panics if the queue is empty.
    #[inline]
    pub fn pop_front(&mut self, row: usize) -> M {
        let q = &mut self.queues[row];
        let h = q.head;
        assert!(!h.is_nil(), "pop from empty channel queue");
        let next = self.arena.next(h);
        q.head = next;
        if next.is_nil() {
            q.tail = NIL;
            self.nonempty.remove(row as u32);
        }
        q.len -= 1;
        self.in_flight -= 1;
        self.arena.take(h)
    }

    /// Unlinks the `idx`-th queued message (0 = head) and relinks it at the
    /// head — the adversarial reorder primitive.
    pub fn rotate_nth_to_front(&mut self, row: usize, idx: usize) {
        if idx == 0 {
            return;
        }
        // Walk to the predecessor of the target.
        let q = &mut self.queues[row];
        let mut prev = q.head;
        for _ in 1..idx {
            prev = self.arena.next(prev);
        }
        let target = self.arena.next(prev);
        let after = self.arena.next(target);
        self.arena.set_next(prev, after);
        if after.is_nil() {
            q.tail = prev;
        }
        self.arena.set_next(target, q.head);
        q.head = target;
    }

    /// Empties `row`, freeing every queued message.
    pub fn purge(&mut self, row: usize) {
        let q = std::mem::replace(&mut self.queues[row], EMPTY);
        let mut h = q.head;
        while !h.is_nil() {
            let next = self.arena.next(h);
            self.arena.take(h);
            h = next;
        }
        self.in_flight -= q.len as usize;
        if q.len > 0 {
            self.nonempty.remove(row as u32);
        }
    }

    /// Folds `f` over `row`'s queued messages in delivery order.
    #[inline]
    pub fn for_each_msg(&self, row: usize, mut f: impl FnMut(&M)) {
        let mut h = self.queues[row].head;
        while !h.is_nil() {
            f(self.arena.get(h));
            h = self.arena.next(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u32) -> (NodeId, NodeId) {
        (NodeId::server(i), NodeId::client(0))
    }

    // `key(i)` maps server i (slot i) to client 0; give the table enough
    // node slots for the ids the tests use.
    fn table() -> ChannelTable<u32> {
        ChannelTable::new(16)
    }

    fn slot_of(n: NodeId) -> u32 {
        match n {
            NodeId::Server(s) => s.0,
            NodeId::Client(c) => 10 + c.0,
        }
    }

    fn ensure(t: &mut ChannelTable<u32>, k: (NodeId, NodeId)) -> usize {
        t.ensure(k, slot_of(k.0), slot_of(k.1), false)
    }

    #[test]
    fn arena_reuses_freed_slots_with_new_generation() {
        let mut a: MsgArena<u32> = MsgArena::default();
        let h1 = a.insert(7, 1);
        assert_eq!(a.enqueue_tick(h1), 1);
        assert_eq!(a.take(h1), 7);
        let h2 = a.insert(8, 2);
        assert_eq!(h2.idx, h1.idx, "slot is reused");
        assert_ne!(h2.gen, h1.gen, "generation bumps on free");
        assert_eq!(*a.get(h2), 8);
        assert_eq!(a.live(), 1);
    }

    #[test]
    #[should_panic(expected = "stale arena handle")]
    #[cfg(debug_assertions)]
    fn stale_handle_caught_in_debug() {
        let mut a: MsgArena<u32> = MsgArena::default();
        let h = a.insert(7, 0);
        a.take(h);
        a.insert(9, 0);
        a.get(h);
    }

    #[test]
    fn fifo_order_through_intrusive_links() {
        let mut t = table();
        let row = ensure(&mut t, key(0));
        for v in 1..=4 {
            t.push_back(row, v, 0);
        }
        assert_eq!(t.queues[row].len, 4);
        assert_eq!(t.in_flight, 4);
        let drained: Vec<u32> = (0..4).map(|_| t.pop_front(row)).collect();
        assert_eq!(drained, vec![1, 2, 3, 4]);
        assert!(t.nonempty.is_empty());
        assert_eq!(t.in_flight, 0);
    }

    #[test]
    fn ensure_keeps_rows_sorted_and_fixes_nonempty() {
        let mut t = table();
        let r2 = ensure(&mut t, key(2));
        t.push_back(r2, 20, 0);
        // Inserting a smaller key shifts the existing row up; the nonempty
        // set and route table must follow.
        let r0 = ensure(&mut t, key(0));
        t.push_back(r0, 10, 0);
        assert_eq!(t.keys, vec![key(0), key(2)]);
        assert_eq!(t.nonempty.iter().collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(t.lookup(slot_of(key(2).0), slot_of(key(2).1)), Some(1));
        assert_eq!(t.pop_front(0), 10);
        assert_eq!(t.pop_front(1), 20);
    }

    #[test]
    fn lookup_matches_find() {
        let mut t = table();
        for i in [5, 1, 3] {
            ensure(&mut t, key(i));
        }
        for i in 0..7 {
            let k = key(i);
            assert_eq!(t.lookup(slot_of(k.0), slot_of(k.1)), t.find(k));
        }
        assert_eq!(t.lookup(999, 0), None);
    }

    #[test]
    fn rotate_nth_to_front() {
        let mut t = table();
        let row = ensure(&mut t, key(0));
        for v in 1..=4 {
            t.push_back(row, v, 0);
        }
        t.rotate_nth_to_front(row, 2);
        let drained: Vec<u32> = (0..4).map(|_| t.pop_front(row)).collect();
        assert_eq!(drained, vec![3, 1, 2, 4]);
    }

    #[test]
    fn rotate_tail_updates_tail_link() {
        let mut t = table();
        let row = ensure(&mut t, key(0));
        for v in 1..=3 {
            t.push_back(row, v, 0);
        }
        t.rotate_nth_to_front(row, 2);
        t.push_back(row, 9, 0);
        let drained: Vec<u32> = (0..4).map(|_| t.pop_front(row)).collect();
        assert_eq!(drained, vec![3, 1, 2, 9]);
    }

    #[test]
    fn purge_frees_all_messages() {
        let mut t = table();
        let row = ensure(&mut t, key(1));
        for v in 0..5 {
            t.push_back(row, v, 0);
        }
        t.purge(row);
        assert_eq!(t.queues[row].len, 0);
        assert_eq!(t.in_flight, 0);
        assert_eq!(t.arena.live(), 0);
        assert!(t.nonempty.is_empty());
        // The freed slots are all reusable.
        let h = t.arena.insert(42, 0);
        assert!(h.idx < 5);
    }

    #[test]
    fn rowset_select_and_iter_are_sorted() {
        let mut s = RowSet::default();
        s.ensure_rows(200);
        for r in [190, 3, 64, 65, 0, 127] {
            s.insert(r);
        }
        let sorted: Vec<u32> = s.iter().collect();
        assert_eq!(sorted, vec![0, 3, 64, 65, 127, 190]);
        for (k, &r) in sorted.iter().enumerate() {
            assert_eq!(s.select(k as u32), r);
        }
        assert_eq!(s.len(), 6);
        s.remove(64);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 3, 65, 127, 190]);
    }

    #[test]
    fn select_matches_iter_over_random_sets() {
        // `select(k)` is the scheduler's round-robin pick; it must name
        // the same row as walking the set in ascending order.
        let mut rng = shmem_util::DetRng::seed_from_u64(0x5e1ec7);
        for _ in 0..200 {
            let rows = rng.gen_range(1..300usize);
            let mut s = RowSet::default();
            s.ensure_rows(rows);
            for r in 0..rows as u32 {
                if rng.gen_bool(0.3) {
                    s.insert(r);
                }
            }
            let members: Vec<u32> = s.iter().collect();
            assert_eq!(members.len() as u32, s.len());
            for k in 0..s.len() {
                assert_eq!(Some(s.select(k)), s.iter().nth(k as usize));
            }
        }
    }

    #[test]
    fn rowset_shift_renumbers_members() {
        let mut s = RowSet::default();
        s.ensure_rows(130);
        for r in [2, 5, 63, 64, 100] {
            s.insert(r);
        }
        s.shift_up_from(5);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![2, 6, 64, 65, 101]);
        // Shift at a word boundary propagates the carry.
        s.shift_up_from(64);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![2, 6, 65, 66, 102]);
        assert_eq!(s.len(), 5);
    }
}
