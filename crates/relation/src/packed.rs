//! Bit-packed dense-rank code columns for the 100M-row scale path.
//!
//! A dense-rank column over cardinality `c` only ever holds codes in
//! `0..c`, so storing each code in a full `u32` wastes most of the word for
//! low-cardinality attributes. [`PackedCodes`] stores every code at a fixed
//! width of `ceil(log2(c + 1))` bits inside a flat `u64` word array: a
//! 10M-row column with 200 distinct values costs 8 bits/row instead of 32.
//!
//! The representation is append-only and random-access (`get` is O(1), a
//! code spans at most two words). Consumers that need a contiguous `&[u32]`
//! view — the whole validation hot path — go through
//! [`PackedCodes::as_slice`], which materializes an unpacked copy **lazily,
//! once**, behind a [`OnceLock`]; scale-path consumers (the level-1
//! build, the streaming benches) use [`PackedCodes::decode_range`] into a
//! caller scratch buffer instead and never pay for the copy.

use std::sync::OnceLock;

/// A code column stored at `bits` bits per entry in a flat `u64` array.
///
/// Built by [`PackedCodes::from_codes`] (from an unpacked column) or
/// incrementally via [`PackedCodes::push`]. The width is fixed per column:
/// pushes of codes that do not fit the current width panic (debug) or
/// corrupt silently (release) — callers widen by re-packing, which is what
/// [`crate::EncodedRelation`]'s copy-on-write accessor does.
#[derive(Debug)]
pub struct PackedCodes {
    /// Bits per code, `0..=32`. Width 0 means every code is 0 (cardinality
    /// ≤ 1) and no words are stored at all.
    bits: u32,
    len: usize,
    words: Vec<u64>,
    /// Lazily materialized unpacked view for `&[u32]` consumers. Cleared on
    /// mutation (only reachable through `&mut self`).
    cache: OnceLock<Vec<u32>>,
}

impl Clone for PackedCodes {
    /// Clones the packed words only — the unpacked cache is not carried
    /// over, so clones stay as small as the packed data.
    fn clone(&self) -> PackedCodes {
        PackedCodes {
            bits: self.bits,
            len: self.len,
            words: self.words.clone(),
            cache: OnceLock::new(),
        }
    }
}

impl PackedCodes {
    /// The storage width for a column of the given cardinality:
    /// `ceil(log2(cardinality + 1))` bits — enough for every code in
    /// `0..cardinality` with one spare value of headroom, 0 bits for
    /// constant/empty columns.
    pub fn bits_for(cardinality: u32) -> u32 {
        32 - cardinality.leading_zeros()
    }

    /// An empty packed column sized for the given cardinality, with room
    /// for `capacity` codes.
    pub fn with_capacity(cardinality: u32, capacity: usize) -> PackedCodes {
        let bits = PackedCodes::bits_for(cardinality);
        let words = (capacity * bits as usize).div_ceil(64);
        PackedCodes {
            bits,
            len: 0,
            words: Vec::with_capacity(words),
            cache: OnceLock::new(),
        }
    }

    /// Packs an unpacked code column at the width for `cardinality`.
    ///
    /// Every code must be `< max(cardinality, 1)` (the dense-rank
    /// invariant; debug-asserted).
    pub fn from_codes(codes: &[u32], cardinality: u32) -> PackedCodes {
        let mut packed = PackedCodes::with_capacity(cardinality, codes.len());
        for &c in codes {
            debug_assert!(u64::from(c) < u64::from(cardinality).max(1));
            packed.push(c);
        }
        packed
    }

    /// Number of codes stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the column holds no codes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bits per code (`0..=32`).
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The code at `index`. O(1): reads at most two words.
    #[inline]
    pub fn get(&self, index: usize) -> u32 {
        debug_assert!(index < self.len);
        if self.bits == 0 {
            return 0;
        }
        let bit = index * self.bits as usize;
        let (word, off) = (bit / 64, (bit % 64) as u32);
        let mut v = self.words[word] >> off;
        if off + self.bits > 64 {
            v |= self.words[word + 1] << (64 - off);
        }
        (v & self.mask()) as u32
    }

    /// Appends a code. The code must fit the column's width
    /// (debug-asserted); widen by re-packing with a larger cardinality.
    pub fn push(&mut self, code: u32) {
        debug_assert!(
            self.bits == 32 || u64::from(code) < (1u64 << self.bits),
            "code {code} does not fit {} bits",
            self.bits
        );
        // Any mutation invalidates the lazily unpacked view.
        self.cache.take();
        if self.bits == 0 {
            self.len += 1;
            return;
        }
        let bit = self.len * self.bits as usize;
        let (word, off) = (bit / 64, (bit % 64) as u32);
        if word >= self.words.len() {
            self.words.push(0);
        }
        self.words[word] |= u64::from(code) << off;
        if off + self.bits > 64 {
            self.words.push(u64::from(code) >> (64 - off));
        }
        self.len += 1;
    }

    /// Decodes `range` into `out` (cleared first). The scale path's chunked
    /// accessor: shard workers decode their row range into a reused scratch
    /// buffer instead of materializing the whole column.
    pub fn decode_range(&self, range: std::ops::Range<usize>, out: &mut Vec<u32>) {
        debug_assert!(range.end <= self.len);
        out.clear();
        out.reserve(range.len());
        if self.bits == 0 {
            out.resize(range.len(), 0);
            return;
        }
        for i in range {
            out.push(self.get(i));
        }
    }

    /// Unpacks the whole column into a fresh `Vec<u32>`.
    pub fn to_vec(&self) -> Vec<u32> {
        let mut out = Vec::new();
        self.decode_range(0..self.len, &mut out);
        out
    }

    /// A contiguous `&[u32]` view, materialized lazily on first call and
    /// cached for the lifetime of this value. This is what keeps the
    /// existing `EncodedRelation::codes()` contract intact for packed
    /// columns; it costs the full unpacked column in memory, so scale-path
    /// consumers should prefer [`PackedCodes::decode_range`].
    pub fn as_slice(&self) -> &[u32] {
        self.cache.get_or_init(|| self.to_vec())
    }

    /// Resident heap bytes: the packed words plus the unpacked cache if it
    /// has been materialized.
    pub fn memory_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
            + self
                .cache
                .get()
                .map_or(0, |v| v.capacity() * std::mem::size_of::<u32>())
    }

    #[inline]
    fn mask(&self) -> u64 {
        if self.bits >= 64 {
            u64::MAX
        } else {
            (1u64 << self.bits) - 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_for_boundaries() {
        assert_eq!(PackedCodes::bits_for(0), 0);
        assert_eq!(PackedCodes::bits_for(1), 1);
        assert_eq!(PackedCodes::bits_for(2), 2);
        assert_eq!(PackedCodes::bits_for(3), 2);
        assert_eq!(PackedCodes::bits_for(255), 8);
        assert_eq!(PackedCodes::bits_for(256), 9);
        assert_eq!(PackedCodes::bits_for(u32::MAX), 32);
    }

    #[test]
    fn roundtrip_across_word_boundaries() {
        // 31-bit codes straddle u64 word boundaries almost every entry.
        let card = (1u32 << 31) - 1;
        let codes: Vec<u32> = (0..200).map(|i| (i * 2_654_435_761u64 % u64::from(card)) as u32).collect();
        let packed = PackedCodes::from_codes(&codes, card);
        assert_eq!(packed.bits(), 31);
        assert_eq!(packed.to_vec(), codes);
        for (i, &c) in codes.iter().enumerate() {
            assert_eq!(packed.get(i), c);
        }
    }

    #[test]
    fn zero_width_column() {
        let packed = PackedCodes::from_codes(&[0, 0, 0], 1);
        assert_eq!(packed.bits(), 1);
        let constant = PackedCodes::from_codes(&[0; 5], 0);
        assert_eq!(constant.bits(), 0);
        assert_eq!(constant.to_vec(), vec![0; 5]);
        assert_eq!(constant.memory_bytes(), 0);
    }

    #[test]
    fn decode_range_matches_slice() {
        let codes: Vec<u32> = (0..100).map(|i| i % 13).collect();
        let packed = PackedCodes::from_codes(&codes, 13);
        let mut buf = Vec::new();
        packed.decode_range(7..61, &mut buf);
        assert_eq!(buf.as_slice(), &codes[7..61]);
        assert_eq!(packed.as_slice(), codes.as_slice());
        // The cache now counts toward resident bytes.
        assert!(packed.memory_bytes() >= 100 * 4);
    }

    #[test]
    fn push_invalidates_cache() {
        let mut packed = PackedCodes::from_codes(&[0, 1], 2);
        assert_eq!(packed.as_slice(), &[0, 1]);
        packed.push(1);
        assert_eq!(packed.as_slice(), &[0, 1, 1]);
        assert_eq!(packed.len(), 3);
    }
}
