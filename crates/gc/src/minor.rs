//! The minor (young-generation) collection — a semantics-aware parallel
//! scavenge (paper Section 4.2.2).
//!
//! Tasks mirror the paper's decomposition of Parallel Scavenge:
//!
//! * **root-task** — traces from the root set; RDD top objects whose
//!   `MEMORY_BITS` were set by `rdd_alloc` are recognized here;
//! * **DRAM-to-young-task / NVM-to-young-task** — the split old-to-young
//!   scan walks each old space's dirty cards, finds references into the
//!   young generation, and *propagates the source object's tag* to the
//!   young target;
//! * **steal-task** — work stealing is modelled by the 16-thread access
//!   profile used to charge all GC traffic.
//!
//! Tagged survivors are *eagerly promoted* straight into the old space
//! their `MEMORY_BITS` name; untagged survivors age through the survivor
//! spaces as in the original collector. When the DRAM old space is full,
//! promotion falls back to NVM regardless of tags.

use crate::coordinator::{GcCoordinator, TRACE_CPU_NS_PER_OBJ};
use hybridmem::Phase;
use mheap::{Heap, MemTag, ObjId, OldSpaceId, RootSet, SpaceId, CARD_BYTES};
use std::collections::VecDeque;

/// A card scanned this cycle, to be re-examined after evacuation.
struct ScannedCard {
    space: OldSpaceId,
    card: usize,
    objects: Vec<ObjId>,
}

/// The minor GC's marking phase: card scan, root-task and trace. It leaves
/// the reached young objects visited in `GcCoordinator::marks` and returns
/// the scanned cards.
type MarkYoung = fn(&mut GcCoordinator, &mut Heap, &RootSet) -> Vec<ScannedCard>;
/// The post-evacuation re-examination of the scanned cards.
type CleanCards = fn(&mut GcCoordinator, &mut Heap, Vec<ScannedCard>);

/// Trace queue entries: a young object and the tag it is reached with.
type TraceQueue = VecDeque<(ObjId, MemTag)>;

impl GcCoordinator {
    /// Run one minor collection.
    pub fn minor_gc(&mut self, heap: &mut Heap, roots: &RootSet) {
        self.minor_gc_with(heap, roots, Self::mark_young, Self::clean_scanned_cards);
    }

    /// One minor collection with the given marking and card-cleaning
    /// phases; the tests run a reference copy of both through here.
    fn minor_gc_with(
        &mut self,
        heap: &mut Heap,
        roots: &RootSet,
        mark_young: MarkYoung,
        clean_scanned_cards: CleanCards,
    ) {
        let prev = heap.mem_mut().enter_phase(Phase::MinorGc);
        let pause_start = heap.mem().clock().now_ns();
        heap.observer().emit(pause_start, &obs::Event::MinorGcStart);
        self.run_verify(heap, roots, mheap::VerifyPoint::BeforeMinor);
        self.stats.minor_count += 1;
        heap.mem_mut().compute(crate::coordinator::MINOR_BASE_NS);

        let moved_before = self.stats.total_promotions() + self.stats.survivor_copies;
        let freed_before = self.stats.young_freed;

        // Snapshot the young population before anything moves.
        let young: Vec<ObjId> = heap
            .eden()
            .objects()
            .iter()
            .chain(heap.from_space().objects().iter())
            .copied()
            .collect();

        self.marks.begin(self.policy.propagate_tags());
        let scanned = mark_young(self, heap, roots);

        // --- evacuation ---------------------------------------------------
        let mut survivors: Vec<ObjId> = young
            .iter()
            .copied()
            .filter(|id| self.marks.is_visited(*id))
            .collect();
        survivors.sort_by_key(|id| heap.obj(*id).addr);
        let tenure = heap.config().tenure_threshold;
        let eager_on = self.policy.eager_promotion();
        for id in survivors {
            let (tag, age) = {
                let o = heap.obj(id);
                (o.tag, o.age)
            };
            let eager = eager_on && tag.is_tagged();
            let tenured = age + 1 >= tenure;
            if eager || tenured {
                let dest = self.policy.promotion_space(heap, tag);
                self.promote(heap, id, dest);
                if eager {
                    self.stats.eager_promotions += 1;
                } else {
                    self.stats.tenured_promotions += 1;
                }
            } else if heap.copy_to_survivor(id) {
                self.stats.survivor_copies += 1;
            } else {
                // Survivor space overflow: promote instead.
                let dest = self.policy.promotion_space(heap, tag);
                self.promote(heap, id, dest);
                self.stats.tenured_promotions += 1;
            }
        }

        // --- remembered-set maintenance ----------------------------------
        // Newly promoted objects that still reference young survivors are
        // already covered: `move_to_old` dirties the card of every
        // young-pointing *slot* as part of the move (a header-only mark
        // here used to under-dirty multi-card arrays).
        clean_scanned_cards(self, heap, scanned);

        // --- sweep --------------------------------------------------------
        for id in young {
            if !self.marks.is_visited(id) {
                heap.free(id);
                self.stats.young_freed += 1;
            }
        }
        heap.finish_minor();

        // Kingsguard-Writes: rescue write-hot objects into DRAM.
        if self.policy.write_migration() {
            self.write_rationing_pass(heap);
        }
        self.run_verify(heap, roots, mheap::VerifyPoint::AfterMinor);

        let pause_ns = heap.mem().clock().now_ns() - pause_start;
        self.minor_pauses.record(pause_ns);
        let moved = self.stats.total_promotions() + self.stats.survivor_copies - moved_before;
        let freed = self.stats.young_freed - freed_before;
        self.events.push(crate::stats::GcEvent {
            kind: crate::stats::GcKind::Minor,
            start_ns: pause_start,
            pause_ns,
            moved,
            freed,
        });
        heap.observer().emit(
            heap.mem().clock().now_ns(),
            &obs::Event::MinorGcEnd {
                pause_ns,
                moved,
                freed,
            },
        );
        heap.mem_mut().enter_phase(prev);
    }

    /// Card scan, root-task and the transitive trace with tag propagation.
    ///
    /// Every enqueue goes through `TraceMarks::enqueue`, which drops the
    /// entries that would pop as no-ops; so each object is expanded once
    /// per tag upgrade, not once per incoming reference.
    fn mark_young(&mut self, heap: &mut Heap, roots: &RootSet) -> Vec<ScannedCard> {
        let mut queue = TraceQueue::new();

        // --- DRAM-to-young-task and NVM-to-young-task ------------------
        let before = self.card_scan_counters();
        let scanned = self.scan_dirty_cards(heap, &mut queue);
        self.note_card_scan(heap, before);

        // --- root-task --------------------------------------------------
        for r in roots.iter() {
            if !heap.is_live(r) {
                continue;
            }
            let o = heap.obj(r);
            // A root object propagates its own MEMORY_BITS (set by
            // rdd_alloc on RDD top objects) to itself.
            if o.space.is_young() && self.marks.enqueue(r, o.tag) {
                queue.push_back((r, o.tag));
            }
        }

        // --- transitive trace with tag propagation ----------------------
        let propagate = self.policy.propagate_tags();
        while let Some((id, incoming)) = queue.pop_front() {
            let o = heap.obj(id);
            if !o.space.is_young() {
                continue;
            }
            let old_tag = o.tag;
            let new_tag = if propagate {
                old_tag.merge(incoming)
            } else {
                old_tag
            };
            if self.marks.visit(id) {
                heap.obj_mut(id).tag = new_tag;
                heap.read_object(id);
                heap.mem_mut().compute(TRACE_CPU_NS_PER_OBJ);
                self.enqueue_young_refs(heap, &mut queue, id, new_tag);
            } else if new_tag != old_tag {
                // Tag upgraded after the first visit: re-propagate. Tags
                // only increase (none < NVM < DRAM), so this terminates.
                heap.obj_mut(id).tag = new_tag;
                self.enqueue_young_refs(heap, &mut queue, id, new_tag);
            }
        }
        scanned
    }

    /// Enqueue `src`'s live young targets with `tag`, skipping the entries
    /// that would pop as no-ops.
    fn enqueue_young_refs(&mut self, heap: &Heap, queue: &mut TraceQueue, src: ObjId, tag: MemTag) {
        for &t in &heap.obj(src).refs {
            if heap.is_live(t) && heap.obj(t).in_young() && self.marks.enqueue(t, tag) {
                queue.push_back((t, tag));
            }
        }
    }

    /// The card-scan counters, to diff for the `CardScan` event.
    fn card_scan_counters(&self) -> (u64, u64, u64) {
        (
            self.stats.cards_scanned,
            self.stats.card_scan_bytes,
            self.stats.stuck_card_rescans,
        )
    }

    /// Emit the `CardScan` event for the scan that started at `before`.
    fn note_card_scan(&self, heap: &Heap, before: (u64, u64, u64)) {
        let (cards, bytes, stuck) = before;
        if heap.observer().enabled() && self.stats.cards_scanned > cards {
            heap.observer().emit(
                heap.mem().clock().now_ns(),
                &obs::Event::CardScan {
                    cards: self.stats.cards_scanned - cards,
                    bytes: self.stats.card_scan_bytes - bytes,
                    stuck: self.stats.stuck_card_rescans - stuck,
                },
            );
        }
    }

    /// Walk every old space's dirty cards, enqueueing young targets with
    /// the source object's tag. Returns the scanned cards for post-
    /// evacuation cleaning.
    ///
    /// Every card charges its own scan, but an object's references are
    /// enqueued on the first card it overlaps only: a multi-card array's
    /// later cards would enqueue the same entries again, all no-ops.
    fn scan_dirty_cards(&mut self, heap: &mut Heap, queue: &mut TraceQueue) -> Vec<ScannedCard> {
        let mut scanned = Vec::new();
        for old_id in heap.old_space_ids() {
            // Word-skipping cursor over the dirty bitmap: no snapshot
            // allocation, and cleaning/sticking the card under the cursor
            // never disturbs cards ahead of it.
            let mut cursor = 0usize;
            while let Some(card) = heap.card_table(old_id).next_dirty_from(cursor) {
                cursor = card + 1;
                let (start, end) = heap.card_table(old_id).card_range(card);
                let objects = overlapping_objects(heap, old_id, start.0, end.0);
                if objects.is_empty() {
                    heap.card_table_mut(old_id).clean(card);
                    continue;
                }
                let stuck = self.note_card(heap, old_id, card, &objects);
                for &id in &objects {
                    self.charge_card_object(heap, id, stuck);
                    if self.marks.expand(id) {
                        let tag = heap.obj(id).tag;
                        self.enqueue_young_refs(heap, queue, id, tag);
                    }
                }
                scanned.push(ScannedCard {
                    space: old_id,
                    card,
                    objects,
                });
            }
        }
        scanned
    }

    /// Count one scanned card, sticking it when two large arrays share it.
    /// Returns whether the card is stuck.
    fn note_card(
        &mut self,
        heap: &mut Heap,
        space: OldSpaceId,
        card: usize,
        objects: &[ObjId],
    ) -> bool {
        // Shared-card pathology (Section 4.2.3): two large arrays
        // meeting inside one card defeat card cleaning.
        let large_arrays = objects
            .iter()
            .filter(|id| {
                let o = heap.obj(**id);
                o.kind.is_array() && o.size >= self.config.large_array_bytes
            })
            .count();
        if !heap.config().card_padding && large_arrays >= 2 {
            let (start, _) = heap.card_table(space).card_range(card);
            heap.card_table_mut(space).mark_stuck(start);
        }
        self.stats.cards_scanned += 1;
        heap.card_table(space).is_stuck(card)
    }

    /// Charge scanning object `id` on one card.
    fn charge_card_object(&mut self, heap: &mut Heap, id: ObjId, stuck: bool) {
        let size = heap.obj(id).size;
        // A stuck card forces a rescan of the array's every element; a
        // clean scan touches only the card's window.
        let bytes = if stuck { size } else { size.min(CARD_BYTES) };
        heap.read_bytes(id, bytes);
        self.stats.card_scan_bytes += bytes;
        if !stuck {
            return;
        }
        self.stats.stuck_card_rescans += 1;
        // Scanning every element means examining every referenced object's
        // header to test whether it still lives in the young generation —
        // random accesses that NVM's latency punishes.
        let (n_refs, first_live) = {
            let o = heap.obj(id);
            let first_live = o.refs.iter().find(|t| heap.is_live(**t));
            (o.refs.len() as u64, first_live.map(|t| heap.obj(*t).addr))
        };
        if let Some(target_addr) = first_live {
            let header_bytes = n_refs * mheap::HEADER_BYTES;
            // Pointer chasing: no prefetcher helps, and the threads contend
            // on the same arrays.
            heap.mem_mut().access(
                target_addr,
                hybridmem::AccessKind::Read,
                header_bytes,
                hybridmem::AccessProfile {
                    threads: 16.0,
                    mlp: 1.0,
                },
            );
            self.stats.card_scan_bytes += header_bytes;
        }
    }

    /// Scanned cards stay dirty if their objects still point into the
    /// young generation (e.g. a reference to an object that merely moved
    /// to a survivor space); otherwise they are cleaned — unless stuck.
    /// Each object's answer is computed once, however many cards it spans.
    fn clean_scanned_cards(&mut self, heap: &mut Heap, scanned: Vec<ScannedCard>) {
        for sc in scanned {
            let still_young = sc
                .objects
                .iter()
                .any(|&id| self.marks.points_young(id, || points_into_young(heap, id)));
            if still_young {
                let (start, _) = heap.card_table(sc.space).card_range(sc.card);
                heap.card_table_mut(sc.space).mark_dirty(start);
            } else {
                heap.card_table_mut(sc.space).clean(sc.card);
            }
        }
    }

    /// Kingsguard-Writes: ration the DRAM old space by observed writes —
    /// objects written heavily since the last pass move to DRAM, and DRAM
    /// residents that went write-cold are demoted back to NVM. Read-mostly
    /// data (like persisted RDDs) therefore settles in NVM, which is the
    /// source of Kingsguard-Writes' overhead on Big Data workloads
    /// (Section 5.2).
    fn write_rationing_pass(&mut self, heap: &mut Heap) {
        let (Some(dram), Some(nvm)) = (heap.old_dram(), heap.old_nvm()) else {
            return;
        };
        let threshold = self.config.kw_write_threshold;
        let mut hot: Vec<ObjId> = heap
            .write_counts()
            .iter()
            .filter(|(id, n)| {
                **n >= threshold && heap.is_live(**id) && heap.obj(**id).space == SpaceId::Old(nvm)
            })
            .map(|(id, _)| *id)
            .collect();
        // The write-count table is a hash map; keep migration order
        // deterministic.
        hot.sort_unstable();
        let cold: Vec<ObjId> = heap
            .old(dram)
            .objects()
            .iter()
            .copied()
            .filter(|id| {
                heap.is_live(*id)
                    && heap.obj(*id).space == SpaceId::Old(dram)
                    && heap.write_counts().get(id).copied().unwrap_or(0) < threshold
            })
            .collect();
        let mut moved_any = false;
        for id in hot {
            if heap.move_to_old(id, dram).is_ok() {
                self.stats.write_migrations += 1;
                moved_any = true;
            }
        }
        for id in cold {
            if heap.move_to_old(id, nvm).is_ok() {
                self.stats.write_migrations += 1;
                moved_any = true;
            }
        }
        heap.clear_write_counts();
        if moved_any {
            // Migrated objects leave stale entries in their source space's
            // resident list; drop them so later collections see each object
            // exactly once.
            for space in heap.old_space_ids() {
                let live: Vec<ObjId> = heap
                    .old(space)
                    .objects()
                    .iter()
                    .copied()
                    .filter(|id| heap.is_live(*id) && heap.obj(*id).space == SpaceId::Old(space))
                    .collect();
                let used = heap.old(space).used();
                heap.retain_old(space, live, used);
            }
        }
    }
}

/// Objects of `space` whose extents intersect `[start, end)`, found by
/// binary search over the space's address-ordered resident list.
pub(crate) fn overlapping_objects(
    heap: &Heap,
    space: OldSpaceId,
    start: u64,
    end: u64,
) -> Vec<ObjId> {
    let objs = heap.old(space).objects();
    // First object whose end is past `start`.
    let lo = objs.partition_point(|id| heap.obj(*id).end().0 <= start);
    let mut out = Vec::new();
    for id in &objs[lo..] {
        let o = heap.obj(*id);
        if o.addr.0 >= end {
            break;
        }
        out.push(*id);
    }
    out
}

/// True if `id` is live and holds a reference to a live young object.
fn points_into_young(heap: &Heap, id: ObjId) -> bool {
    heap.is_live(id)
        && heap
            .obj(id)
            .refs
            .iter()
            .any(|t| heap.is_live(*t) && heap.obj(*t).in_young())
}

#[cfg(test)]
mod tests {
    //! Differential test of the linear-time scan and trace against a
    //! reference copy of the collector that expands every object's
    //! references once per card and enqueues without deduplication.

    use super::*;
    use crate::{PantheraPolicy, UnifiedPolicy};
    use hybridmem::{DeviceKind, MemorySystemConfig};
    use mheap::{HeapConfig, HeapError, ObjKind, OldGenLayout, Payload};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    impl GcCoordinator {
        /// The minor collection with the reference marking and
        /// card-cleaning phases.
        fn reference_minor_gc(&mut self, heap: &mut Heap, roots: &RootSet) {
            self.minor_gc_with(
                heap,
                roots,
                Self::reference_mark_young,
                Self::reference_clean_scanned_cards,
            );
        }

        fn reference_mark_young(&mut self, heap: &mut Heap, roots: &RootSet) -> Vec<ScannedCard> {
            let mut queue = TraceQueue::new();
            let before = self.card_scan_counters();
            let scanned = self.reference_scan_dirty_cards(heap, &mut queue);
            self.note_card_scan(heap, before);

            for r in roots.iter() {
                if !heap.is_live(r) {
                    continue;
                }
                let o = heap.obj(r);
                if o.space.is_young() {
                    queue.push_back((r, o.tag));
                }
            }

            let propagate = self.policy.propagate_tags();
            let mut visited: BTreeSet<ObjId> = BTreeSet::new();
            while let Some((id, incoming)) = queue.pop_front() {
                let o = heap.obj(id);
                if !o.space.is_young() {
                    continue;
                }
                let old_tag = o.tag;
                let new_tag = if propagate {
                    old_tag.merge(incoming)
                } else {
                    old_tag
                };
                let first = visited.insert(id);
                if first {
                    heap.obj_mut(id).tag = new_tag;
                    heap.read_object(id);
                    heap.mem_mut().compute(TRACE_CPU_NS_PER_OBJ);
                }
                if first || new_tag != old_tag {
                    heap.obj_mut(id).tag = new_tag;
                    let refs = heap.obj(id).refs.clone();
                    for t in refs {
                        if heap.is_live(t) && heap.obj(t).space.is_young() {
                            queue.push_back((t, new_tag));
                        }
                    }
                }
            }
            for id in visited {
                self.marks.visit(id);
            }
            scanned
        }

        fn reference_scan_dirty_cards(
            &mut self,
            heap: &mut Heap,
            queue: &mut TraceQueue,
        ) -> Vec<ScannedCard> {
            let mut scanned = Vec::new();
            for old_id in heap.old_space_ids() {
                let mut cursor = 0usize;
                while let Some(card) = heap.card_table(old_id).next_dirty_from(cursor) {
                    cursor = card + 1;
                    let (start, end) = heap.card_table(old_id).card_range(card);
                    let objects = overlapping_objects(heap, old_id, start.0, end.0);
                    if objects.is_empty() {
                        heap.card_table_mut(old_id).clean(card);
                        continue;
                    }
                    let large_arrays = objects
                        .iter()
                        .filter(|id| {
                            let o = heap.obj(**id);
                            o.kind.is_array() && o.size >= self.config.large_array_bytes
                        })
                        .count();
                    if !heap.config().card_padding && large_arrays >= 2 {
                        heap.card_table_mut(old_id).mark_stuck(start);
                    }
                    let stuck = heap.card_table(old_id).is_stuck(card);
                    self.stats.cards_scanned += 1;
                    for id in &objects {
                        let (size, tag, refs) = {
                            let o = heap.obj(*id);
                            (o.size, o.tag, o.refs.clone())
                        };
                        let bytes = if stuck { size } else { size.min(CARD_BYTES) };
                        heap.read_bytes(*id, bytes);
                        self.stats.card_scan_bytes += bytes;
                        if stuck {
                            self.stats.stuck_card_rescans += 1;
                            if let Some(first_live) = refs.iter().find(|t| heap.is_live(**t)) {
                                let n_refs = refs.len() as u64;
                                let target_addr = heap.obj(*first_live).addr;
                                let header_bytes = n_refs * mheap::HEADER_BYTES;
                                heap.mem_mut().access(
                                    target_addr,
                                    hybridmem::AccessKind::Read,
                                    header_bytes,
                                    hybridmem::AccessProfile {
                                        threads: 16.0,
                                        mlp: 1.0,
                                    },
                                );
                                self.stats.card_scan_bytes += header_bytes;
                            }
                        }
                        for t in refs {
                            if heap.is_live(t) && heap.obj(t).in_young() {
                                queue.push_back((t, tag));
                            }
                        }
                    }
                    scanned.push(ScannedCard {
                        space: old_id,
                        card,
                        objects,
                    });
                }
            }
            scanned
        }

        fn reference_clean_scanned_cards(&mut self, heap: &mut Heap, scanned: Vec<ScannedCard>) {
            for sc in scanned {
                let still_young = sc.objects.iter().any(|id| points_into_young(heap, *id));
                if still_young {
                    let (start, _) = heap.card_table(sc.space).card_range(sc.card);
                    heap.card_table_mut(sc.space).mark_dirty(start);
                } else {
                    heap.card_table_mut(sc.space).clean(sc.card);
                }
            }
        }
    }

    const TAGS: [MemTag; 3] = [MemTag::None, MemTag::Nvm, MemTag::Dram];

    /// One store between collections: a fresh young tuple with tag
    /// `TAGS[tag]` written into `array` at the slot `slot` per mille of
    /// its length, optionally referencing the previous store's tuple.
    #[derive(Debug, Clone)]
    struct Store {
        array: usize,
        slot_permille: usize,
        tag: usize,
        chain: bool,
    }

    #[derive(Debug, Clone)]
    struct Round {
        stores: Vec<Store>,
        /// Tags of fresh young tuples to root.
        roots: Vec<usize>,
        /// Run a major collection after the minor one.
        major: bool,
    }

    #[derive(Debug, Clone)]
    struct Spec {
        panthera: bool,
        card_padding: bool,
        /// `(slots, tag index)` per RDD array.
        arrays: Vec<(usize, usize)>,
        /// Each initial slot references the young tuple `slot / share`.
        share: usize,
        rounds: Vec<Round>,
    }

    fn spec() -> impl Strategy<Value = Spec> {
        let store = (0usize..6, 0usize..1000, 0usize..3, any::<bool>()).prop_map(
            |(array, slot_permille, tag, chain)| Store {
                array,
                slot_permille,
                tag,
                chain,
            },
        );
        let round = (
            prop::collection::vec(store, 0..80),
            prop::collection::vec(0usize..3, 0..4),
            0u8..100,
        )
            .prop_map(|(stores, roots, major)| Round {
                stores,
                roots,
                major: major < 15,
            });
        (
            any::<bool>(),
            any::<bool>(),
            prop::collection::vec((130usize..1500, 0usize..3), 2..6),
            1usize..4,
            prop::collection::vec(round, 1..6),
        )
            .prop_map(|(panthera, card_padding, arrays, share, rounds)| Spec {
                panthera,
                card_padding,
                arrays,
                share,
                rounds,
            })
    }

    /// One heap and collector; `reference` picks the collector variant.
    struct Arm {
        heap: Heap,
        gc: GcCoordinator,
        roots: RootSet,
        arrays: Vec<ObjId>,
        reference: bool,
        counter: i64,
    }

    impl Arm {
        fn new(spec: &Spec, reference: bool) -> Arm {
            const HEAP: u64 = 4_000_000;
            let (mut cfg, mem, gc) = if spec.panthera {
                (
                    HeapConfig::panthera(HEAP, 1.0 / 3.0),
                    MemorySystemConfig::with_capacities(HEAP / 3, HEAP - HEAP / 3),
                    GcCoordinator::new(Box::new(PantheraPolicy::default())),
                )
            } else {
                let mut cfg = HeapConfig::panthera(HEAP, 1.0);
                cfg.old_layout = OldGenLayout::Unified(DeviceKind::Dram);
                (
                    cfg,
                    MemorySystemConfig::with_capacities(HEAP, 0),
                    GcCoordinator::new(Box::new(UnifiedPolicy { label: "dram-only" })),
                )
            };
            cfg.card_padding = spec.card_padding;
            let mut arm = Arm {
                heap: Heap::new(cfg, mem).unwrap(),
                gc,
                roots: RootSet::new(),
                arrays: Vec::new(),
                reference,
                counter: 0,
            };
            for (rdd, &(slots, tag)) in spec.arrays.iter().enumerate() {
                let a =
                    arm.gc
                        .alloc_rdd_array(&mut arm.heap, &arm.roots, rdd as u32, slots, TAGS[tag]);
                arm.roots.push(a);
                arm.arrays.push(a);
            }
            for (i, &(slots, tag)) in spec.arrays.iter().enumerate() {
                let mut shared = None;
                for slot in 0..slots {
                    if slot % spec.share == 0 {
                        shared = Some(arm.tuple(TAGS[(tag + slot) % 3], vec![]));
                    }
                    arm.heap.push_ref(arm.arrays[i], shared.unwrap());
                }
            }
            arm
        }

        fn tuple(&mut self, tag: MemTag, refs: Vec<ObjId>) -> ObjId {
            self.counter += 1;
            match self
                .heap
                .alloc_young(ObjKind::Tuple, tag, refs, Payload::Long(self.counter))
            {
                Ok(id) => id,
                Err(HeapError::EdenFull { .. }) => panic!("test heap too small"),
                Err(e) => panic!("{e}"),
            }
        }

        fn minor(&mut self) {
            if self.reference {
                self.gc.reference_minor_gc(&mut self.heap, &self.roots);
            } else {
                self.gc.minor_gc(&mut self.heap, &self.roots);
            }
        }

        fn round(&mut self, round: &Round) {
            let mut prev: Option<ObjId> = None;
            for s in &round.stores {
                let refs = match prev {
                    Some(p) if s.chain => vec![p],
                    _ => vec![],
                };
                let t = self.tuple(TAGS[s.tag], refs);
                let array = self.arrays[s.array % self.arrays.len()];
                let len = self.heap.obj(array).refs.len();
                self.heap.set_ref(array, s.slot_permille * len / 1000, t);
                prev = Some(t);
            }
            for &tag in &round.roots {
                let refs = prev.into_iter().collect();
                let t = self.tuple(TAGS[tag], refs);
                self.roots.push(t);
            }
            self.minor();
            if round.major {
                self.gc.major_gc(&mut self.heap, &self.roots);
            }
        }
    }

    fn assert_same(a: &Arm, b: &Arm) -> Result<(), TestCaseError> {
        let (ha, hb) = (&a.heap, &b.heap);
        let live: Vec<ObjId> = ha.live_ids().collect();
        prop_assert_eq!(&live, &hb.live_ids().collect::<Vec<_>>());
        for id in live {
            let (oa, ob) = (ha.obj(id), hb.obj(id));
            prop_assert_eq!(
                (oa.space, oa.addr, oa.tag, oa.age),
                (ob.space, ob.addr, ob.tag, ob.age),
                "{}",
                id
            );
        }
        for space in ha.old_space_ids() {
            let (ca, cb) = (ha.card_table(space), hb.card_table(space));
            prop_assert_eq!(ca.len(), cb.len());
            for card in 0..ca.len() {
                prop_assert_eq!(
                    (ca.is_dirty(card), ca.is_stuck(card)),
                    (cb.is_dirty(card), cb.is_stuck(card)),
                    "space {:?} card {}",
                    space,
                    card
                );
            }
        }
        prop_assert_eq!(format!("{:?}", a.gc.stats()), format!("{:?}", b.gc.stats()));
        prop_assert_eq!(
            ha.mem().clock().now_ns().to_bits(),
            hb.mem().clock().now_ns().to_bits()
        );
        prop_assert_eq!(
            format!("{:?}", ha.mem().stats()),
            format!("{:?}", hb.mem().stats())
        );
        prop_assert_eq!(
            format!("{:?}", ha.mem().meter().windows()),
            format!("{:?}", hb.mem().meter().windows())
        );
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The linear-time collector leaves every object, card, counter,
        /// clock bit and traffic window exactly where the expand-per-card
        /// reference leaves them.
        #[test]
        fn linear_scan_matches_reference(spec in spec()) {
            let mut reference = Arm::new(&spec, true);
            let mut linear = Arm::new(&spec, false);
            reference.minor();
            linear.minor();
            assert_same(&reference, &linear)?;
            for round in &spec.rounds {
                reference.round(round);
                linear.round(round);
                assert_same(&reference, &linear)?;
            }
            // The whole heap, free list included.
            prop_assert_eq!(
                format!("{:?}", reference.heap),
                format!("{:?}", linear.heap)
            );
        }
    }
}
