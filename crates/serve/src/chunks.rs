//! Immutable, `Arc`-shared segment storage for delta-built snapshots.
//!
//! A [`SegmentedVec`] is a logically contiguous sequence stored as a list of
//! immutable segments, each behind its own `Arc`. Two snapshots that agree
//! on a region of the sequence share the segments covering it by reference
//! count: a delta build pushes the previous epoch's `Arc`s for unchanged
//! regions (a pointer copy) and freshly built vectors only for the dirty
//! ones. Equality, indexing and iteration are all defined on the *logical*
//! sequence — how the data is cut into segments is an implementation detail
//! two equal values are allowed to disagree on.

use std::sync::Arc;

/// A logically contiguous, immutable sequence stored as `Arc`-shared
/// segments. See the [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct SegmentedVec<T> {
    /// Non-empty segments, in logical order.
    segments: Vec<Arc<Vec<T>>>,
    /// Logical start offset of each segment, plus the total length — always
    /// `segments.len() + 1` entries, starting at 0.
    offsets: Vec<u32>,
}

impl<T> SegmentedVec<T> {
    /// The empty sequence.
    pub fn new() -> Self {
        SegmentedVec { segments: Vec::new(), offsets: vec![0] }
    }

    /// A sequence holding `values` as one segment.
    pub fn from_vec(values: Vec<T>) -> Self {
        let mut out = SegmentedVec::new();
        out.push_segment(Arc::new(values));
        out
    }

    /// Append one shared segment (empty segments are skipped, so sharing an
    /// empty region costs nothing and never fragments the store).
    pub fn push_segment(&mut self, segment: Arc<Vec<T>>) {
        if segment.is_empty() {
            return;
        }
        let next = self.len() as u32 + segment.len() as u32;
        self.segments.push(segment);
        self.offsets.push(next);
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        *self.offsets.last().expect("offsets never empty") as usize
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of segments backing the sequence.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// The backing segments, in logical order.
    pub fn segments(&self) -> &[Arc<Vec<T>>] {
        &self.segments
    }

    /// Logical start offset of segment `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= segment_count()`.
    pub fn segment_offset(&self, index: usize) -> usize {
        assert!(index < self.segment_count(), "segment {index} out of bounds");
        self.offsets[index] as usize
    }

    /// The element at logical position `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`, like slice indexing.
    pub fn get(&self, index: usize) -> &T {
        let position = self
            .offsets
            .partition_point(|&offset| offset as usize <= index)
            .checked_sub(1)
            .expect("offsets start at 0");
        let segment =
            self.segments.get(position).unwrap_or_else(|| panic!("index {index} out of bounds"));
        &segment[index - self.offsets[position] as usize]
    }

    /// Iterate the logical sequence in order.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.segments.iter().flat_map(|segment| segment.iter())
    }

    /// How many elements of `self` share backing storage with `previous`
    /// (counted over segments reused by `Arc` identity) — the numerator of
    /// the chunk-reuse ratio the delta-build metrics report.
    pub fn shared_len_with(&self, previous: &SegmentedVec<T>) -> usize {
        self.segments
            .iter()
            .filter(|segment| previous.segments.iter().any(|other| Arc::ptr_eq(segment, other)))
            .map(|segment| segment.len())
            .sum()
    }
}

/// Logical-content equality: segmentation is invisible.
impl<T: PartialEq> PartialEq for SegmentedVec<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<T> FromIterator<T> for SegmentedVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        SegmentedVec::from_vec(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn segmented(parts: &[&[u32]]) -> SegmentedVec<u32> {
        let mut out = SegmentedVec::new();
        for part in parts {
            out.push_segment(Arc::new(part.to_vec()));
        }
        out
    }

    #[test]
    fn indexing_and_iteration_cross_segment_boundaries() {
        let vec = segmented(&[&[1, 2], &[], &[3], &[4, 5, 6]]);
        assert_eq!(vec.len(), 6);
        assert_eq!(vec.segment_count(), 3, "empty segments are skipped");
        assert_eq!((0..6).map(|i| *vec.get(i)).collect::<Vec<_>>(), vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(vec.iter().copied().collect::<Vec<_>>(), vec![1, 2, 3, 4, 5, 6]);
        assert!(segmented(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        segmented(&[&[1, 2]]).get(2);
    }

    #[test]
    fn equality_ignores_segmentation() {
        assert_eq!(segmented(&[&[1, 2, 3]]), segmented(&[&[1], &[2, 3]]));
        assert_ne!(segmented(&[&[1, 2]]), segmented(&[&[1], &[3]]));
        assert_ne!(segmented(&[&[1]]), segmented(&[&[1], &[1]]));
        assert_eq!(vec![7, 8].into_iter().collect::<SegmentedVec<_>>(), segmented(&[&[7, 8]]));
    }

    #[test]
    fn shared_len_counts_reused_segments() {
        let shared = Arc::new(vec![1, 2, 3]);
        let mut a = SegmentedVec::new();
        a.push_segment(Arc::clone(&shared));
        a.push_segment(Arc::new(vec![4]));
        let mut b = SegmentedVec::new();
        b.push_segment(Arc::clone(&shared));
        b.push_segment(Arc::new(vec![4]));
        assert_eq!(b.shared_len_with(&a), 3, "equal contents don't count, shared storage does");
        assert_eq!(a.shared_len_with(&SegmentedVec::new()), 0);
    }
}
