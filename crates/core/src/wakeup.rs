//! The issue stage's three O(work) structures (DESIGN.md §9, §12), each
//! sized once at simulator construction and never reallocated:
//!
//! * [`WakeupLists`] — "who waits on producer P?", as intrusive
//!   per-producer waiter chains;
//! * [`CompletionQueue`] — "which producers complete this cycle, and
//!   when is the next completion?", as a 64-cycle wheel of intrusive
//!   per-slot chains with a binary heap behind it for the rest;
//! * [`StoreRing`] — "which older in-flight store does this load
//!   forward from?", as a program-ordered ring of `(seq, addr, bytes)`
//!   so a load looks at the in-flight *stores*, not at every older
//!   ROB slot.
//!
//! # Wakeup lists
//!
//! The event-driven scheduler must answer "who waits on producer P?"
//! once per completion event and register "consumer C's operand k waits
//! on P" up to twice per dispatched instruction. The relation is stored
//! *intrusively* over the slot slab: per producer slot a head link, per
//! (consumer slot, source operand) a next link, both plain `u32`s in
//! two flat arrays. Insertion is two stores; draining a producer's list
//! walks the chain with one load per waiter.
//!
//! A *link* names one dependence edge and is encoded as
//! `consumer_slot_index * 2 + operand_index`; [`NO_LINK`] terminates a
//! chain. Because each in-flight (consumer, operand) pair waits on at
//! most one producer at a time — dispatch registers it exactly once,
//! and a squashed consumer only re-registers after a flush has reset
//! every chain via [`WakeupLists::clear`] — a link can sit on at most
//! one chain, which is what makes the intrusive encoding sound.
//!
//! Invariants (checked in debug builds and exercised by the `checked`
//! feature's scheduler invariants at the [`crate::Simulator`] level):
//!
//! 1. every chain is `NO_LINK`-terminated and cycle-free (a link is
//!    pushed at most once between clears);
//! 2. [`WakeupLists::insert`] writes `next[link]` before linking it as
//!    the head, so a stale `next` value left by an earlier generation
//!    is never observed;
//! 3. [`WakeupLists::drain_head`]/[`WakeupLists::take_next`] unlink as
//!    they walk, so a drained chain is immediately reusable.
//!
//! # Completion queue
//!
//! Every issued instruction schedules one completion event and the
//! issue stage pops it again in exactly the cycle it names. Almost all
//! of those events are due a handful of cycles out (every non-DRAM
//! latency of Table 1 is under 64 cycles: ALU 1, mul 3, fp 3–6, div
//! 18, L1 4, L2 12, L3 42), so a heap pays `log n` sifts to order
//! events whose order is already their due cycle. The queue therefore
//! has two tiers:
//!
//! * **near** — events with `1 <= t - now < 64` go on a wheel: bucket
//!   `t % 64` is an intrusive chain of slab-slot indices (`heads`,
//!   `next`) and one `u64` bitmap marks the non-empty buckets. A slab
//!   slot owns at most one live event (one per issued in-flight
//!   instruction), so the chain needs no per-event node and nothing is
//!   allocated. Because the caller drains every cycle that holds an
//!   event (the fast-forward horizon is bounded by
//!   [`CompletionQueue::next_time`]), every wheel event satisfies
//!   `now <= t < now + 64`: bucket `now % 64` holds exactly the events
//!   due now, and the first set bit of the bitmap rotated by `now % 64`
//!   is the next due cycle.
//! * **far** — everything else (DRAM-bound loads, and the `t <= now`
//!   corner a zero-latency functional unit produces by scheduling an
//!   event after its own cycle's drain) stays on the binary heap, which
//!   pops `t <= now` exactly as before.
//!
//! Pop order within a cycle differs from the heap's `(t, seq)` order;
//! the simulator's drain is order-independent (decrementing waiters'
//! pending counts commutes and the ready list is sorted before use), so
//! issue order and every statistic are unchanged.
//!
//! # Store ring
//!
//! Store-to-load forwarding asks for the *nearest older in-flight store
//! that covers the load*. Walking the ROB backwards from the load
//! visits every older slot to find the few that are stores; the ring
//! holds just those stores, in program order, pushed at dispatch and
//! popped at commit, so the same stores are visited in the same order
//! and the verdict is identical.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Terminates a chain (also the "no waiters" head value).
pub const NO_LINK: u32 = u32::MAX;

/// Intrusive wakeup lists for `n_slots` slab slots. See the
/// [module docs](self).
#[derive(Debug)]
pub struct WakeupLists {
    /// Per producer slot: first link of its waiter chain.
    head: Box<[u32]>,
    /// Per link (`consumer_slot * 2 + operand`): the next link.
    next: Box<[u32]>,
}

impl WakeupLists {
    /// Creates empty lists for a slab of `n_slots` slots. This is the
    /// only allocation the structure ever performs.
    pub fn new(n_slots: usize) -> WakeupLists {
        WakeupLists {
            head: vec![NO_LINK; n_slots].into_boxed_slice(),
            next: vec![NO_LINK; 2 * n_slots].into_boxed_slice(),
        }
    }

    /// Registers "consumer slot `consumer`'s operand `operand` waits
    /// on producer slot `producer`" — O(1), two stores.
    #[inline]
    pub fn insert(&mut self, producer: usize, consumer: usize, operand: usize) {
        debug_assert!(operand < 2, "two source operands per instruction");
        let link = (consumer * 2 + operand) as u32;
        // Order matters (invariant 2): point the link at the current
        // chain before publishing it as the head.
        self.next[link as usize] = self.head[producer];
        self.head[producer] = link;
    }

    /// Detaches and returns the first link of `producer`'s chain, or
    /// [`NO_LINK`] if it has no waiters. Walk the rest of the chain
    /// with [`Self::take_next`].
    #[inline]
    pub fn drain_head(&mut self, producer: usize) -> u32 {
        std::mem::replace(&mut self.head[producer], NO_LINK)
    }

    /// Unlinks `link` from its chain and returns its successor. The
    /// consumer slot the link belongs to is `link >> 1`, the operand
    /// `link & 1`.
    #[inline]
    pub fn take_next(&mut self, link: u32) -> u32 {
        std::mem::replace(&mut self.next[link as usize], NO_LINK)
    }

    /// Resets every chain — the flush/recovery path. O(n_slots) but
    /// runs only on pipeline flushes (runahead exits), never per
    /// instruction; consumers re-register when they re-dispatch.
    pub fn clear(&mut self) {
        self.head.fill(NO_LINK);
        // `next` entries need no reset: they are unreachable once the
        // heads are gone, and insert() rewrites a link's `next` before
        // re-publishing it (invariant 2).
    }

    /// Number of slab slots covered.
    pub fn slots(&self) -> usize {
        self.head.len()
    }
}

/// Span of the [`CompletionQueue`]'s near tier in cycles: one bit per
/// bucket in a `u64`, and longer than every non-DRAM latency of Table 1
/// (the longest, an L3 hit, is 42). A configuration with longer
/// latencies is still exact — it merely uses the far heap more.
pub const WHEEL_SPAN: u64 = 64;

/// Completion events `(due cycle, producer seq)` for a slab of slots:
/// a [`WHEEL_SPAN`]-cycle wheel for the near future, a binary heap for
/// the rest. See the [module docs](self#completion-queue).
#[derive(Debug)]
pub struct CompletionQueue {
    /// Per wheel bucket: slab slot of the first event due at a cycle
    /// `≡ bucket (mod 64)`, or [`NO_LINK`].
    heads: [u32; WHEEL_SPAN as usize],
    /// Per slab slot: the next slot on the same bucket's chain.
    next: Box<[u32]>,
    /// Per slab slot: the seq its wheel event names ([`Self::purge`]
    /// decides by seq; the chains only carry slot indices).
    seqs: Box<[u64]>,
    /// Bit `b` set iff `heads[b]` is not [`NO_LINK`].
    occupied: u64,
    /// Events on the wheel.
    near: usize,
    /// Events the wheel cannot hold: due 64 or more cycles out, or
    /// already due when pushed.
    far: BinaryHeap<Reverse<(u64, u64)>>,
    slot_mask: u64,
}

impl CompletionQueue {
    /// Creates an empty queue over a slab of `n_slots` slots (a power
    /// of two). A slot has at most one live event, so the far heap's
    /// capacity of `n_slots` is never outgrown: this is the only
    /// allocation the queue performs.
    pub fn new(n_slots: usize) -> CompletionQueue {
        assert!(n_slots.is_power_of_two(), "slab slots are addressed by seq & mask");
        CompletionQueue {
            heads: [NO_LINK; WHEEL_SPAN as usize],
            next: vec![NO_LINK; n_slots].into_boxed_slice(),
            seqs: vec![0; n_slots].into_boxed_slice(),
            occupied: 0,
            near: 0,
            far: BinaryHeap::with_capacity(n_slots),
            slot_mask: n_slots as u64 - 1,
        }
    }

    /// Schedules the completion of `seq` for cycle `t`, at cycle `now`.
    #[inline]
    pub fn push(&mut self, now: u64, t: u64, seq: u64) {
        // `t <= now` wraps to a huge distance and lands on the heap.
        if (1..WHEEL_SPAN).contains(&t.wrapping_sub(now)) {
            let b = (t % WHEEL_SPAN) as usize;
            let slot = (seq & self.slot_mask) as usize;
            self.next[slot] = self.heads[b];
            self.seqs[slot] = seq;
            self.heads[b] = slot as u32;
            self.occupied |= 1 << b;
            self.near += 1;
        } else {
            self.far.push(Reverse((t, seq)));
        }
    }

    /// Removes one event due at or before `now` and returns its slab
    /// slot, or `None` when nothing (more) is due. Must be drained at
    /// every cycle that holds an event — jump there with
    /// [`Self::next_time`] — which is what keeps bucket `now % 64`
    /// free of events for any other cycle.
    #[inline]
    pub fn pop_due(&mut self, now: u64) -> Option<usize> {
        let b = (now % WHEEL_SPAN) as usize;
        let slot = self.heads[b];
        if slot != NO_LINK {
            self.heads[b] = self.next[slot as usize];
            if self.heads[b] == NO_LINK {
                self.occupied &= !(1 << b);
            }
            self.near -= 1;
            return Some(slot as usize);
        }
        match self.far.peek() {
            Some(&Reverse((t, seq))) if t <= now => {
                self.far.pop();
                Some((seq & self.slot_mask) as usize)
            }
            _ => None,
        }
    }

    /// The earliest due cycle of any queued event (which may be at or
    /// before `now`), or `None` when the queue is empty.
    #[inline]
    pub fn next_time(&self, now: u64) -> Option<u64> {
        let far = self.far.peek().map(|&Reverse((t, _))| t);
        if self.occupied == 0 {
            return far;
        }
        // Every wheel event has `now <= t < now + 64`, so the first
        // occupied bucket at or after `now % 64` names its exact cycle.
        let ahead = self.occupied.rotate_right((now % WHEEL_SPAN) as u32).trailing_zeros();
        let near = now + u64::from(ahead);
        Some(far.map_or(near, |f| f.min(near)))
    }

    /// Drops every event whose seq is `>= live_end` — the flush path:
    /// a squashed producer's slot will be re-issued, so its old event
    /// must not survive. Allocation-free.
    pub fn purge(&mut self, live_end: u64) {
        let mut buckets = self.occupied;
        while buckets != 0 {
            let b = buckets.trailing_zeros() as usize;
            buckets &= buckets - 1;
            // Re-thread the survivors (the order within a bucket is
            // immaterial).
            let mut link = std::mem::replace(&mut self.heads[b], NO_LINK);
            while link != NO_LINK {
                let after = self.next[link as usize];
                if self.seqs[link as usize] < live_end {
                    self.next[link as usize] = self.heads[b];
                    self.heads[b] = link;
                } else {
                    self.near -= 1;
                }
                link = after;
            }
            if self.heads[b] == NO_LINK {
                self.occupied &= !(1 << b);
            }
        }
        self.far.retain(|&Reverse((_, seq))| seq < live_end);
    }

    /// Number of queued events, both tiers.
    pub fn len(&self) -> usize {
        self.near + self.far.len()
    }

    /// Whether no event is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Structural self-check at cycle `now` (before that cycle's
    /// drain): the bitmap matches bucket emptiness, the near count
    /// matches the chains, and every wheel event sits in bucket
    /// `t % 64` with `now <= t < now + 64`, where `due_at(slot)` is the
    /// cycle the slot's owner completes.
    #[cfg(any(test, feature = "checked"))]
    pub(crate) fn check(
        &self,
        now: u64,
        due_at: impl Fn(usize) -> Option<u64>,
    ) -> Result<(), String> {
        let mut counted = 0;
        for (b, &head) in self.heads.iter().enumerate() {
            if (head != NO_LINK) != (self.occupied >> b & 1 == 1) {
                return Err(format!("completion wheel bitmap disagrees with bucket {b}"));
            }
            let mut link = head;
            while link != NO_LINK {
                counted += 1;
                if counted > self.near {
                    return Err(format!("completion wheel bucket {b}: chain cyclic or overlong"));
                }
                let slot = link as usize;
                let due = due_at(slot);
                let in_place = due.is_some_and(|t| {
                    t % WHEEL_SPAN == b as u64 && (now..now + WHEEL_SPAN).contains(&t)
                });
                if !in_place {
                    return Err(format!(
                        "completion wheel bucket {b} holds slot {slot} (seq {}) due {due:?} \
                         at cycle {now}",
                        self.seqs[slot]
                    ));
                }
                link = self.next[slot];
            }
        }
        if counted != self.near {
            return Err(format!(
                "completion wheel counts {} events, chains hold {counted}",
                self.near
            ));
        }
        Ok(())
    }
}

/// One dispatched, uncommitted store as the forwarding check sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InFlightStore {
    /// Program-order sequence number.
    pub seq: u64,
    /// Effective byte address.
    pub addr: u64,
    /// Access width in bytes.
    pub bytes: u8,
}

/// The dispatched, uncommitted stores in program order. See the
/// [module docs](self#store-ring).
#[derive(Debug)]
pub struct StoreRing {
    /// Oldest at the front. Never grows past the capacity it was built
    /// with (the caller gates pushes on [`Self::len`]), so it never
    /// reallocates.
    stores: VecDeque<InFlightStore>,
}

impl StoreRing {
    /// Creates an empty ring for up to `capacity` in-flight stores (the
    /// store-queue size) — the only allocation it performs.
    pub fn new(capacity: usize) -> StoreRing {
        StoreRing { stores: VecDeque::with_capacity(capacity) }
    }

    /// Appends the youngest store (dispatch).
    #[inline]
    pub fn push(&mut self, store: InFlightStore) {
        debug_assert!(self.stores.len() < self.stores.capacity(), "store ring over capacity");
        debug_assert!(
            self.stores.back().is_none_or(|y| y.seq < store.seq),
            "stores dispatch in program order"
        );
        self.stores.push_back(store);
    }

    /// Removes the oldest store (commit).
    #[inline]
    pub fn pop_oldest(&mut self) -> Option<InFlightStore> {
        self.stores.pop_front()
    }

    /// Empties the ring (flush).
    pub fn clear(&mut self) {
        self.stores.clear();
    }

    /// Number of in-flight stores — the store-queue occupancy.
    #[inline]
    pub fn len(&self) -> usize {
        self.stores.len()
    }

    /// Whether no store is in flight.
    pub fn is_empty(&self) -> bool {
        self.stores.is_empty()
    }

    /// The in-flight stores, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &InFlightStore> {
        self.stores.iter()
    }

    /// The seq of the nearest store older than `load_seq` that writes
    /// `addr` with at least `bytes` bytes — the one store that decides
    /// whether the load forwards — or `None` when no in-flight store
    /// covers it.
    #[inline]
    pub fn forwarder(&self, load_seq: u64, addr: u64, bytes: u8) -> Option<u64> {
        self.stores
            .iter()
            .rev()
            .find(|s| s.addr == addr && s.seq < load_seq && s.bytes >= bytes)
            .map(|s| s.seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains `producer` into a Vec of (consumer, operand) pairs.
    fn drain_all(w: &mut WakeupLists, producer: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut l = w.drain_head(producer);
        while l != NO_LINK {
            out.push(((l >> 1) as usize, (l & 1) as usize));
            l = w.take_next(l);
        }
        out
    }

    #[test]
    fn insert_then_drain_is_lifo_and_leaves_empty() {
        let mut w = WakeupLists::new(8);
        w.insert(3, 5, 0);
        w.insert(3, 6, 1);
        w.insert(3, 7, 0);
        assert_eq!(drain_all(&mut w, 3), vec![(7, 0), (6, 1), (5, 0)]);
        assert_eq!(w.drain_head(3), NO_LINK, "drain leaves the chain empty");
    }

    #[test]
    fn chains_are_independent() {
        let mut w = WakeupLists::new(8);
        w.insert(0, 2, 0);
        w.insert(1, 2, 1); // same consumer, other operand, other producer
        w.insert(0, 3, 0);
        assert_eq!(drain_all(&mut w, 0), vec![(3, 0), (2, 0)]);
        assert_eq!(drain_all(&mut w, 1), vec![(2, 1)]);
    }

    #[test]
    fn both_operands_on_one_producer() {
        // addi-style `op c, p, p`: both sources name the same producer.
        let mut w = WakeupLists::new(4);
        w.insert(1, 2, 0);
        w.insert(1, 2, 1);
        assert_eq!(drain_all(&mut w, 1), vec![(2, 1), (2, 0)]);
    }

    #[test]
    fn clear_resets_heads_and_links_are_reusable() {
        let mut w = WakeupLists::new(4);
        w.insert(0, 1, 0);
        w.insert(0, 2, 0);
        w.clear();
        assert_eq!(w.drain_head(0), NO_LINK);
        // Re-register the same links on a different producer: the
        // stale `next` values from before the clear must not leak in.
        w.insert(3, 1, 0);
        assert_eq!(drain_all(&mut w, 3), vec![(1, 0)]);
        assert_eq!(w.drain_head(0), NO_LINK);
    }

    // ---- completion queue ------------------------------------------

    /// Drains everything due at `now` into a sorted Vec of slots.
    fn drain_due(q: &mut CompletionQueue, now: u64) -> Vec<usize> {
        let mut out: Vec<usize> = std::iter::from_fn(|| q.pop_due(now)).collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn empty_queue_has_nothing_due_and_no_next_time() {
        let mut q = CompletionQueue::new(8);
        assert!(q.is_empty());
        assert_eq!(q.next_time(0), None);
        assert_eq!(q.pop_due(1_000_000), None);
        q.purge(0);
        assert_eq!(q.len(), 0);
        q.check(5, |_| None).expect("empty queue is consistent");
    }

    #[test]
    fn two_events_in_one_bucket_both_pop_in_their_cycle() {
        let mut q = CompletionQueue::new(8);
        q.push(0, 5, 1);
        q.push(2, 5, 2);
        q.push(2, 6, 3);
        assert_eq!(q.len(), 3);
        assert_eq!(q.next_time(3), Some(5));
        assert_eq!(drain_due(&mut q, 4), Vec::<usize>::new());
        assert_eq!(drain_due(&mut q, 5), vec![1, 2]);
        assert_eq!(q.next_time(6), Some(6));
        assert_eq!(drain_due(&mut q, 6), vec![3]);
        assert!(q.is_empty());
    }

    #[test]
    fn a_bucket_is_reused_after_the_wheel_wraps() {
        let mut q = CompletionQueue::new(8);
        q.push(0, 3, 1);
        assert_eq!(drain_due(&mut q, 3), vec![1]);
        // 67 % 64 == 3: the same bucket, one revolution later.
        q.push(10, 67, 2);
        q.check(11, |slot| (slot == 2).then_some(67)).expect("wheel-resident");
        assert_eq!(q.next_time(11), Some(67));
        assert_eq!(q.pop_due(66), None);
        assert_eq!(drain_due(&mut q, 67), vec![2]);
        // Exactly one revolution out does not fit the wheel: far tier,
        // same answers.
        q.push(67, 67 + WHEEL_SPAN, 3);
        assert_eq!(q.next_time(68), Some(67 + WHEEL_SPAN));
        assert_eq!(drain_due(&mut q, 67 + WHEEL_SPAN), vec![3]);
    }

    #[test]
    fn an_event_already_due_when_pushed_pops_on_the_next_drain() {
        // A zero-latency unit schedules `t == now` after this cycle's
        // drain; the far tier pops `t <= now` one cycle later, as the
        // plain heap did.
        let mut q = CompletionQueue::new(8);
        assert_eq!(q.pop_due(7), None);
        q.push(7, 7, 4);
        q.push(7, 5, 5);
        q.check(8, |_| None).expect("neither event is on the wheel");
        assert_eq!(q.next_time(8), Some(5));
        assert_eq!(drain_due(&mut q, 8), vec![4, 5]);
    }

    #[test]
    fn purge_keeps_a_wheel_resident_head_event() {
        // An episode aborted < 64 cycles before the blocking load
        // returns: the head's event is on the wheel and must survive
        // the flush that drops every younger producer's.
        let mut q = CompletionQueue::new(16);
        let now = 1000;
        q.push(now, now + 30, 100); // the head
        q.push(now, now + 30, 101); // same bucket, squashed
        q.push(now, now + 4, 102);
        q.push(now, now + 300, 103); // far tier, squashed
        q.purge(101);
        assert_eq!(q.len(), 1);
        q.check(now + 1, |slot| (slot == 100 % 16).then_some(now + 30)).expect("head survives");
        assert_eq!(q.next_time(now + 1), Some(now + 30));
        assert_eq!(drain_due(&mut q, now + 30), vec![100 % 16]);
        assert!(q.is_empty());
    }

    /// Seeded differential against a plain binary heap: same pops in
    /// the same cycles, same `next_time`, same length, through pushes
    /// on both tiers and both sides of every boundary, clock jumps and
    /// flush purges.
    #[test]
    fn completion_queue_matches_a_plain_heap_model() {
        use vr_isa::SplitMix64;
        const OFFSETS: [u64; 11] = [0, 1, 3, 4, 12, 42, 63, 64, 65, 200, 5000];
        // At most 2 pushes per cycle, each alive at most 5000 cycles:
        // live seqs span < 16384, so no two share a slot.
        const SLOTS: usize = 1 << 14;
        let mut rng = SplitMix64::new(0xC0_4E7E);
        let mut q = CompletionQueue::new(SLOTS);
        let mut model: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        // Per slot: the due cycle of its live event (for `check`).
        let mut due: Vec<Option<u64>> = vec![None; SLOTS];
        let (mut now, mut next_seq, mut ops) = (0u64, 0u64, 0u64);
        while ops < 120_000 {
            // Advance: one cycle, or jump to the next event.
            now = match q.next_time(now + 1) {
                Some(t) if rng.flip() => t.max(now + 1),
                _ => now + 1,
            };
            let mut expect = Vec::new();
            while let Some(&Reverse((t, seq))) = model.peek() {
                if t > now {
                    break;
                }
                model.pop();
                let slot = seq as usize % SLOTS;
                due[slot] = None;
                expect.push(slot);
            }
            expect.sort_unstable();
            ops += 1 + expect.len() as u64;
            assert_eq!(drain_due(&mut q, now), expect, "pops at cycle {now}");

            for _ in 0..rng.below(3) {
                let t = now + OFFSETS[rng.below(OFFSETS.len() as u64) as usize];
                q.push(now, t, next_seq);
                model.push(Reverse((t, next_seq)));
                due[next_seq as usize % SLOTS] = Some(t);
                next_seq += 1;
                ops += 1;
            }
            if rng.chance(0.01) {
                // Flush: squash a suffix of the seqs; they re-issue.
                let live_end = next_seq - rng.below(next_seq.min(40) + 1);
                q.purge(live_end);
                model.retain(|&Reverse((_, seq))| seq < live_end);
                for seq in live_end..next_seq {
                    due[seq as usize % SLOTS] = None;
                }
                next_seq = live_end;
                ops += 1;
            }

            assert_eq!(q.len(), model.len(), "len at cycle {now}");
            assert_eq!(
                q.next_time(now + 1),
                model.peek().map(|&Reverse((t, _))| t),
                "next_time at cycle {now}"
            );
            q.check(now + 1, |slot| due[slot]).unwrap_or_else(|e| panic!("cycle {now}: {e}"));
        }
        assert!(next_seq > 10_000, "the run must push throughout");
    }

    // ---- store ring ------------------------------------------------

    fn ring_of(stores: &[(u64, u64, u8)]) -> StoreRing {
        let mut r = StoreRing::new(8);
        for &(seq, addr, bytes) in stores {
            r.push(InFlightStore { seq, addr, bytes });
        }
        r
    }

    #[test]
    fn forwarder_is_the_nearest_older_covering_store() {
        let r = ring_of(&[(10, 0x100, 8), (12, 0x100, 4), (15, 0x200, 8), (20, 0x100, 8)]);
        // Nearest older store to 0x100 is seq 12, but it only covers 4
        // bytes: an 8-byte load skips it and finds seq 10.
        assert_eq!(r.forwarder(18, 0x100, 8), Some(10));
        assert_eq!(r.forwarder(18, 0x100, 4), Some(12));
        assert_eq!(r.forwarder(18, 0x100, 1), Some(12));
        // Seq 20 is younger than the load and never considered.
        assert_eq!(r.forwarder(25, 0x100, 8), Some(20));
        // Same line, different address: no partial-overlap forwarding.
        assert_eq!(r.forwarder(18, 0x104, 4), None);
        // Nothing older than the load.
        assert_eq!(r.forwarder(10, 0x100, 8), None);
        assert_eq!(StoreRing::new(4).forwarder(5, 0x100, 8), None);
    }

    #[test]
    fn ring_pops_in_program_order_and_clears() {
        let mut r = ring_of(&[(1, 0x8, 8), (4, 0x10, 2)]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.pop_oldest().map(|s| s.seq), Some(1));
        assert_eq!(r.forwarder(9, 0x8, 8), None, "a committed store no longer forwards");
        assert_eq!(r.iter().map(|s| s.seq).collect::<Vec<_>>(), vec![4]);
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.pop_oldest(), None);
    }
}
