//! The tag side of a set-associative cache: valid/reserved/dirty state
//! per way. Replacement decisions live in the policy (`dlp-core`); this
//! type only records what is where.

use dlp_core::policy::WayView;
use dlp_core::CacheGeometry;

/// State of one way.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Line {
    /// Holds valid data.
    pub valid: bool,
    /// Reserved by an in-flight fill (miss outstanding).
    pub reserved: bool,
    /// Modified relative to the next level (write-back caches).
    pub dirty: bool,
    /// Tag of the resident or incoming line.
    pub tag: u64,
}

/// Result of a lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lookup {
    /// Valid line present in `way`.
    Hit {
        /// Way holding the line.
        way: usize,
    },
    /// The line is currently being fetched into `way` (MSHR will merge).
    Reserved {
        /// Way reserved for the line.
        way: usize,
    },
    /// Not present.
    Miss,
}

/// Tags for a whole cache.
pub struct TagArray {
    geom: CacheGeometry,
    lines: Vec<Line>,
    /// Reusable per-set snapshot buffer so `view_set` never allocates on
    /// the access path (it is called once per miss on every L1D/L2 probe).
    view_scratch: Vec<WayView>,
}

impl TagArray {
    /// All-invalid array for the given geometry.
    pub fn new(geom: CacheGeometry) -> Self {
        TagArray {
            geom,
            lines: vec![Line::default(); geom.num_lines()],
            view_scratch: vec![WayView::invalid(); geom.assoc],
        }
    }

    /// Geometry this array was built with.
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    #[inline]
    fn idx(&self, set: usize, way: usize) -> usize {
        debug_assert!(set < self.geom.num_sets && way < self.geom.assoc);
        set * self.geom.assoc + way
    }

    /// Inspect one way.
    pub fn line(&self, set: usize, way: usize) -> Line {
        self.lines[self.idx(set, way)]
    }

    /// Search `set` for `tag`.
    pub fn lookup(&self, set: usize, tag: u64) -> Lookup {
        for way in 0..self.geom.assoc {
            let l = self.lines[self.idx(set, way)];
            if l.tag == tag {
                if l.valid {
                    return Lookup::Hit { way };
                }
                if l.reserved {
                    return Lookup::Reserved { way };
                }
            }
        }
        Lookup::Miss
    }

    /// Snapshot the set as the policy-facing [`WayView`]s.
    ///
    /// The views are written into an internal scratch buffer sized at
    /// construction, so repeated calls are allocation-free; each call
    /// overwrites the previous snapshot.
    pub fn view_set(&mut self, set: usize) -> &[WayView] {
        let base = set * self.geom.assoc;
        debug_assert!(set < self.geom.num_sets);
        for (way, view) in self.view_scratch.iter_mut().enumerate() {
            let l = self.lines[base + way];
            *view = WayView { valid: l.valid, reserved: l.reserved, tag: l.tag };
        }
        &self.view_scratch
    }

    /// Evict the current occupant of `way` (caller already told the
    /// policy) and reserve it for `tag`. Returns the evicted line, if a
    /// valid one was present.
    pub fn evict_and_reserve(&mut self, set: usize, way: usize, tag: u64) -> Option<Line> {
        let i = self.idx(set, way);
        let old = self.lines[i];
        assert!(!old.reserved, "cannot evict a reserved way");
        self.lines[i] = Line { valid: false, reserved: true, dirty: false, tag };
        old.valid.then_some(old)
    }

    /// Complete the fill of a previously reserved way.
    pub fn fill(&mut self, set: usize, way: usize, dirty: bool) {
        let i = self.idx(set, way);
        let l = &mut self.lines[i];
        assert!(l.reserved && !l.valid, "fill target must be reserved");
        l.valid = true;
        l.reserved = false;
        l.dirty = dirty;
    }

    /// Mark a resident line dirty (store hit in a write-back cache).
    pub fn mark_dirty(&mut self, set: usize, way: usize) {
        let i = self.idx(set, way);
        assert!(self.lines[i].valid);
        self.lines[i].dirty = true;
    }

    /// Invalidate a resident line, returning whether it was dirty.
    pub fn invalidate(&mut self, set: usize, way: usize) -> bool {
        let i = self.idx(set, way);
        let was_dirty = self.lines[i].dirty;
        self.lines[i] = Line::default();
        was_dirty
    }

    /// Number of valid lines (diagnostics).
    pub fn valid_count(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn array() -> TagArray {
        TagArray::new(CacheGeometry::fermi_l1d_16k())
    }

    #[test]
    fn lookup_misses_in_empty_array() {
        let t = array();
        assert_eq!(t.lookup(0, 42), Lookup::Miss);
    }

    #[test]
    fn reserve_then_fill_then_hit() {
        let mut t = array();
        assert_eq!(t.evict_and_reserve(3, 1, 42), None);
        assert_eq!(t.lookup(3, 42), Lookup::Reserved { way: 1 });
        t.fill(3, 1, false);
        assert_eq!(t.lookup(3, 42), Lookup::Hit { way: 1 });
        assert!(!t.line(3, 1).dirty);
    }

    #[test]
    fn evicting_valid_line_returns_it() {
        let mut t = array();
        t.evict_and_reserve(0, 0, 7);
        t.fill(0, 0, true);
        let old = t.evict_and_reserve(0, 0, 8).expect("line was valid");
        assert_eq!(old.tag, 7);
        assert!(old.dirty);
        assert_eq!(t.lookup(0, 7), Lookup::Miss);
    }

    #[test]
    #[should_panic(expected = "cannot evict a reserved way")]
    fn evicting_reserved_way_panics() {
        let mut t = array();
        t.evict_and_reserve(0, 0, 7);
        t.evict_and_reserve(0, 0, 8);
    }

    #[test]
    fn mark_dirty_and_invalidate() {
        let mut t = array();
        t.evict_and_reserve(1, 2, 9);
        t.fill(1, 2, false);
        t.mark_dirty(1, 2);
        assert!(t.line(1, 2).dirty);
        assert!(t.invalidate(1, 2));
        assert_eq!(t.lookup(1, 9), Lookup::Miss);
        assert_eq!(t.valid_count(), 0);
    }

    #[test]
    fn view_set_reflects_state() {
        let mut t = array();
        t.evict_and_reserve(0, 0, 5);
        t.fill(0, 0, false);
        t.evict_and_reserve(0, 1, 6);
        let v = t.view_set(0);
        assert!(v[0].valid && !v[0].reserved && v[0].tag == 5);
        assert!(!v[1].valid && v[1].reserved);
        assert!(!v[2].valid && !v[2].reserved);
    }
}
