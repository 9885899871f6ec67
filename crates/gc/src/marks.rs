//! Per-object trace state for one collection pass, in a dense table
//! indexed by slab id that the coordinator reuses across collections.
//!
//! Each cell carries the pass's epoch above the state flags. A cell
//! stamped by an older epoch reads as all-clear, so [`TraceMarks::begin`]
//! resets the whole table in O(1) and no pass ever walks it.

use mheap::{MemTag, ObjId};

/// Low bits of a cell that hold state flags; the epoch sits above them.
const FLAG_BITS: u32 = 8;
const FLAG_MASK: u32 = (1 << FLAG_BITS) - 1;
/// Young object reached by the trace.
const VISITED: u32 = 1;
/// Old object whose references the card scan already enqueued.
const EXPANDED: u32 = 1 << 1;
/// Old object whose "points into young" answer is cached in `POINTS_YOUNG`.
const YOUNG_KNOWN: u32 = 1 << 2;
const POINTS_YOUNG: u32 = 1 << 3;
/// Rank of the highest tag enqueued so far (0: never enqueued).
const TAG_SHIFT: u32 = 4;
const TAG_MASK: u32 = 0b11 << TAG_SHIFT;

/// Dense per-object trace state for one pass.
#[derive(Debug, Default)]
pub(crate) struct TraceMarks {
    epoch: u32,
    /// Record every enqueue at the top tag rank: without tag propagation
    /// the incoming tag is ignored, so any repeat enqueue is a no-op.
    ignore_tags: bool,
    cells: Vec<u32>,
}

impl TraceMarks {
    /// Start a new pass: every object reads as unvisited and unqueued.
    pub(crate) fn begin(&mut self, propagate_tags: bool) {
        self.epoch += 1;
        if self.epoch > u32::MAX >> FLAG_BITS {
            self.cells.fill(0);
            self.epoch = 1;
        }
        self.ignore_tags = !propagate_tags;
    }

    fn flags(&self, id: ObjId) -> u32 {
        match self.cells.get(id.0 as usize) {
            Some(&c) if c >> FLAG_BITS == self.epoch => c & FLAG_MASK,
            _ => 0,
        }
    }

    fn set_flags(&mut self, id: ObjId, flags: u32) {
        let i = id.0 as usize;
        if i >= self.cells.len() {
            self.cells.resize(i + 1, 0);
        }
        self.cells[i] = (self.epoch << FLAG_BITS) | flags;
    }

    /// Set `flag`; true if it was clear this pass.
    fn first(&mut self, id: ObjId, flag: u32) -> bool {
        let f = self.flags(id);
        if f & flag != 0 {
            return false;
        }
        self.set_flags(id, f | flag);
        true
    }

    /// True if [`TraceMarks::visit`] saw `id` this pass.
    pub(crate) fn is_visited(&self, id: ObjId) -> bool {
        self.flags(id) & VISITED != 0
    }

    /// Mark `id` visited; true the first time this pass.
    pub(crate) fn visit(&mut self, id: ObjId) -> bool {
        self.first(id, VISITED)
    }

    /// Mark an old object's references expanded; true the first time this
    /// pass.
    pub(crate) fn expand(&mut self, id: ObjId) -> bool {
        self.first(id, EXPANDED)
    }

    /// Record a trace-queue entry `(id, tag)`; false when an entry with a
    /// tag at least as high was already enqueued this pass.
    ///
    /// Skipping that entry is exact: tags merge by `max` and the queue is
    /// FIFO, so the earlier entry pops first and leaves `id` visited with a
    /// tag ≥ `tag`, and this one would find nothing to change.
    pub(crate) fn enqueue(&mut self, id: ObjId, tag: MemTag) -> bool {
        let rank = if self.ignore_tags {
            3
        } else {
            match tag {
                MemTag::None => 1,
                MemTag::Nvm => 2,
                MemTag::Dram => 3,
            }
        };
        let f = self.flags(id);
        if (f & TAG_MASK) >> TAG_SHIFT >= rank {
            return false;
        }
        self.set_flags(id, (f & !TAG_MASK) | (rank << TAG_SHIFT));
        true
    }

    /// Whether old object `id` still points into the young generation,
    /// computed by `points_young` on the first ask this pass and cached.
    pub(crate) fn points_young(&mut self, id: ObjId, points_young: impl FnOnce() -> bool) -> bool {
        let f = self.flags(id);
        if f & YOUNG_KNOWN != 0 {
            return f & POINTS_YOUNG != 0;
        }
        let yes = points_young();
        let bit = if yes { POINTS_YOUNG } else { 0 };
        self.set_flags(id, f | YOUNG_KNOWN | bit);
        yes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_clears_every_flag() {
        let mut m = TraceMarks::default();
        m.begin(true);
        assert!(m.visit(ObjId(5)));
        assert!(!m.visit(ObjId(5)));
        assert!(m.expand(ObjId(2)));
        assert!(m.enqueue(ObjId(7), MemTag::Dram));
        m.begin(true);
        assert!(!m.is_visited(ObjId(5)));
        assert!(m.expand(ObjId(2)));
        assert!(m.enqueue(ObjId(7), MemTag::None));
    }

    #[test]
    fn enqueue_skips_only_dominated_tags() {
        let mut m = TraceMarks::default();
        m.begin(true);
        let id = ObjId(3);
        assert!(m.enqueue(id, MemTag::None));
        assert!(!m.enqueue(id, MemTag::None));
        assert!(m.enqueue(id, MemTag::Nvm));
        assert!(m.enqueue(id, MemTag::Dram));
        assert!(!m.enqueue(id, MemTag::Nvm));
        // Enqueue state and visit state are independent flags.
        assert!(m.visit(id));
        assert!(!m.enqueue(id, MemTag::Dram));
    }

    #[test]
    fn without_propagation_any_repeat_is_skipped() {
        let mut m = TraceMarks::default();
        m.begin(false);
        assert!(m.enqueue(ObjId(1), MemTag::None));
        assert!(!m.enqueue(ObjId(1), MemTag::Dram));
    }

    #[test]
    fn points_young_is_computed_once() {
        let mut m = TraceMarks::default();
        m.begin(true);
        let mut calls = 0;
        for _ in 0..3 {
            assert!(m.points_young(ObjId(9), || {
                calls += 1;
                true
            }));
        }
        assert_eq!(calls, 1);
        assert!(!m.points_young(ObjId(10), || false));
        assert!(!m.points_young(ObjId(10), || unreachable!()));
    }

    #[test]
    fn epoch_wrap_clears_the_table() {
        let mut m = TraceMarks::default();
        m.begin(true);
        m.visit(ObjId(0));
        m.epoch = u32::MAX >> FLAG_BITS;
        m.begin(true);
        assert_eq!(m.epoch, 1);
        assert!(!m.is_visited(ObjId(0)));
    }
}
