//! Stimulus mixing for the SoA kernel: per-pattern bits into lane words.
//!
//! In a tile of `height` patterns with `stride` lanes each, a stimulus
//! word (a primary input, a loaded scan position or a fill bit) carries
//! bit `i` of pattern `p`'s row across `p`'s whole lane range
//! `[p * stride, (p + 1) * stride)`. The mixer works on groups of eight
//! consecutive patterns, in two steps:
//!
//! 1. **Bytes.** One byte per (bit, group) holds the group's eight bits of
//!    that row position, bit `q` for pattern `8g + q`. For packed vectors
//!    a branch-free 8×8 bit transpose of the group's row bytes yields the
//!    bytes of eight inputs at once; rows of `bool`s (scan-ins, fills)
//!    are read bit by bit.
//! 2. **Tables.** Per (group, limb) of the word the group's lanes touch, a
//!    table indexed by the byte (or by each nibble, for patterns wider
//!    than 8 lanes) holds that limb's lanes of every set pattern's
//!    range. A word is one table read and OR per (group, limb):
//!    no loop over set bits and no spread, so a tall tile's word costs
//!    about as many operations as the word has limbs plus groups.
//!
//! The tables depend only on the tile's height and stride, and groups
//! whose lanes start at the same offset within a limb share them: at most
//! eight offsets occur, so a 256-tall tile of 2-lane patterns needs four
//! tables, not 32. Each thread keeps the tables of the last shape it
//! mixed, so the fault chunks of one tile, and consecutive tiles of one
//! shape, build them once. Vector rows are gathered frame-major, one
//! byte per (frame, 8-input block, pattern), in chunks of at most
//! [`GATHER_BYTES`]: one row lookup per pattern per chunk instead of one
//! per pattern per frame, and a group's eight row bytes are one `u64`
//! load.

use std::cell::Cell;

use crate::soa::{mutated_input_source, mutated_transpose};
use crate::test::ScanTest;
use crate::word::{KernelWord, LIMB_LANES};

/// Patterns per group: the bits of one table index.
const GROUP: usize = 8;

/// Upper bound on the gathered row bytes of one chunk of frames.
const GATHER_BYTES: usize = 16 << 10;

/// Patterns of at most this many lanes fit a whole group in one limb,
/// so their tables index the whole byte. Wider patterns index each
/// nibble (4 patterns) on its own: a group spans several limbs anyway,
/// so 16-entry tables replace 256-entry ones at about the same number
/// of reads per word.
const BYTE_TABLE_STRIDE: usize = LIMB_LANES / GROUP;

/// One table read: limb `limb` of a word ORs
/// `table[offset + (byte >> shift & mask)]`, where `byte` is group
/// `group`'s byte and `shift`/`mask` pick the patterns the table covers.
#[derive(Debug, Clone, Copy)]
struct Span {
    group: usize,
    shift: u32,
    mask: u8,
    limb: usize,
    offset: usize,
}

/// Identifies one table: `members` patterns whose lanes start at bit
/// `offset` of their first limb, read at limb `limb` of those lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TableKey {
    offset: usize,
    limb: usize,
    members: usize,
}

/// The lane tables of one tile shape.
#[derive(Debug)]
struct LaneTables {
    /// The `(height, stride)` the tables hold; `None` until built.
    shape: Option<(usize, usize)>,
    /// Pattern groups of the tile: `height.div_ceil(8)`.
    groups: usize,
    /// Every (group part, limb) the tile's lanes touch, group-major.
    spans: Vec<Span>,
    /// Each distinct table and where it starts in `table`.
    keys: Vec<(TableKey, usize)>,
    /// The tables back to back; a table of `m` patterns has `2^m`
    /// entries.
    table: Vec<u64>,
}

impl LaneTables {
    const EMPTY: Self = LaneTables {
        shape: None,
        groups: 0,
        spans: Vec::new(),
        keys: Vec::new(),
        table: Vec::new(),
    };

    /// Builds the tables of a `height` × `stride` tile, unless they are
    /// the ones already held. The caller has checked that the tile fits
    /// one word.
    fn fit(&mut self, height: usize, stride: usize) {
        if self.shape == Some((height, stride)) {
            return;
        }
        self.shape = None;
        self.groups = height.div_ceil(GROUP);
        self.spans.clear();
        self.keys.clear();
        self.table.clear();
        let part = if stride <= BYTE_TABLE_STRIDE {
            GROUP
        } else {
            GROUP / 2
        };
        for group in 0..self.groups {
            for shift in (0..GROUP).step_by(part) {
                let first = group * GROUP + shift;
                let members = height.saturating_sub(first).min(part);
                if members == 0 {
                    break;
                }
                let lanes = first * stride..(first + members) * stride;
                let base = lanes.start / LIMB_LANES;
                for limb in base..lanes.end.div_ceil(LIMB_LANES) {
                    let key = TableKey {
                        offset: lanes.start % LIMB_LANES,
                        limb: limb - base,
                        members,
                    };
                    let offset = match self.keys.iter().find(|(k, _)| *k == key) {
                        Some(&(_, offset)) => offset,
                        None => self.build(key, stride),
                    };
                    self.spans.push(Span {
                        group,
                        shift: shift as u32,
                        mask: ((1u16 << members) - 1) as u8,
                        limb,
                        offset,
                    });
                }
            }
        }
        self.shape = Some((height, stride));
    }

    /// Appends the table of `key` for patterns of `stride` lanes and
    /// returns where it starts.
    fn build(&mut self, key: TableKey, stride: usize) -> usize {
        let start = self.table.len();
        self.table.push(0);
        // Doubling: the entries with bit q set are the entries below 2^q
        // plus pattern q's lanes.
        for q in 0..key.members {
            let mask = range_in_limb(key.offset + q * stride, stride, key.limb);
            let below = self.table.len();
            self.table.extend_from_within(start..below);
            // lint: panic-ok(below <= len after the extend just above)
            for entry in &mut self.table[below..] {
                *entry |= mask;
            }
        }
        self.keys.push((key, start));
        start
    }

    /// The word whose lanes cover the range of every pattern whose bit is
    /// set in `bytes` (one byte per group; a group's bits above its member
    /// count are clear).
    #[inline]
    fn word(&self, bytes: &[u8]) -> KernelWord {
        let mut w = KernelWord::ZERO;
        for s in &self.spans {
            // lint: panic-ok(one byte per group)
            let index = usize::from(bytes[s.group] >> s.shift & s.mask);
            // lint: panic-ok(an index of m bits reads the span's 2^m entries)
            w.or_limb(s.limb, self.table[s.offset + index]);
        }
        w
    }
}

/// The lanes of `[start, start + len)` that fall in limb `limb`, as bits
/// of that limb.
fn range_in_limb(start: usize, len: usize, limb: usize) -> u64 {
    let base = limb * LIMB_LANES;
    let lo = start.max(base);
    let hi = (start + len).min(base + LIMB_LANES);
    if hi <= lo {
        return 0;
    }
    let ones = match hi - lo {
        LIMB_LANES => !0,
        n => (1u64 << n) - 1,
    };
    ones << (lo - base)
}

/// Transposes an 8×8 bit matrix held one row per byte: bit `c` of byte
/// `r` moves to bit `r` of byte `c`. Three rounds swap the off-diagonal
/// 1×1, 2×2 and 4×4 blocks (Hacker's Delight, §7-3).
#[inline]
fn transpose8(mut x: u64) -> u64 {
    let t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    x ^= t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    x ^= t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^ t ^ (t << 28)
}

/// One tile's stimulus mixer: the lane tables of its shape and the
/// scratch its rows pass through.
#[derive(Debug)]
pub(crate) struct TileStimulus {
    tables: LaneTables,
    /// Row bytes of frames `first..first + frames`, zero for the padding
    /// patterns of the last group: byte `b` (inputs `8b..8b + 8`) of
    /// pattern `p`'s row at frame `first + f` is
    /// `gathered[(f * blocks + b) * padded + p]`, with `blocks` the row's
    /// bytes and `padded = 8 * groups`.
    gathered: Vec<u8>,
    first: usize,
    frames: usize,
    /// `bytes[i * groups + g]`: group `g`'s byte of row bit `i`.
    bytes: Vec<u8>,
}

thread_local! {
    /// Each thread's mixer, kept between tiles for its lane tables.
    static STIMULUS: Cell<TileStimulus> = const { Cell::new(TileStimulus::EMPTY) };
}

impl Default for TileStimulus {
    fn default() -> Self {
        TileStimulus::EMPTY
    }
}

impl TileStimulus {
    const EMPTY: Self = TileStimulus {
        tables: LaneTables::EMPTY,
        gathered: Vec::new(),
        first: 0,
        frames: 0,
        bytes: Vec::new(),
    };

    /// Runs `f` with this thread's mixer fitted to a `height` × `stride`
    /// tile. A panic inside `f` drops the mixer; the next tile starts from
    /// an empty one.
    pub(crate) fn with<R>(height: usize, stride: usize, f: impl FnOnce(&mut Self) -> R) -> R {
        let mut mixer = STIMULUS.take();
        mixer.tables.fit(height, stride);
        mixer.frames = 0;
        let out = f(&mut mixer);
        STIMULUS.set(mixer);
        out
    }

    /// Mixes rows of bits into `words`: `words[i]` carries bit `i` of row
    /// `p` across pattern `p`'s range. Rows may be shorter than `words`
    /// (their missing bits are zero).
    pub(crate) fn mix_bits<'a>(
        &mut self,
        words: &mut [KernelWord],
        rows: impl Iterator<Item = &'a [bool]>,
    ) {
        let groups = self.tables.groups;
        self.bytes.clear();
        self.bytes.resize(words.len() * groups, 0);
        for (p, row) in rows.enumerate() {
            let (group, bit) = (p / GROUP, p % GROUP);
            for (i, &set) in row.iter().enumerate().take(words.len()) {
                // lint: panic-ok(i < words.len() and group < groups size the byte matrix)
                self.bytes[i * groups + group] |= u8::from(set) << bit;
            }
        }
        for (w, bytes) in words.iter_mut().zip(self.bytes.chunks_exact(groups)) {
            *w = self.tables.word(bytes);
        }
    }

    /// Mixes the vectors of time unit `u` into primary-input words:
    /// `words[i]` carries input `i` of each test's vector across its
    /// pattern's range. The tests are the tile's (the mixer's height), at
    /// least `u + 1` units long, with one vector bit per word.
    pub(crate) fn mix_vectors(&mut self, words: &mut [KernelWord], tests: &[&ScanTest], u: usize) {
        let groups = self.tables.groups;
        let padded = groups * GROUP;
        let blocks = words.len().div_ceil(GROUP);
        if !(self.first..self.first + self.frames).contains(&u) {
            self.gather(tests, u, blocks, padded);
        }
        let frame = u - self.first;
        self.bytes.clear();
        self.bytes.resize(blocks * GROUP * groups, 0);
        for block in 0..blocks {
            let at = (frame * blocks + block) * padded;
            // lint: panic-ok(the chunk holds frames x blocks x padded bytes and frame < frames)
            let rows = &self.gathered[at..at + padded];
            for (group, members) in rows.chunks_exact(GROUP).enumerate() {
                // Byte q: pattern q's eight inputs of this block.
                let mut x = [0u8; GROUP];
                x.copy_from_slice(members);
                let x = mutated_transpose(transpose8(u64::from_le_bytes(x)));
                for (i, b) in x.to_le_bytes().into_iter().enumerate() {
                    // lint: panic-ok(block * 8 + i < blocks * 8 and group < groups size the byte matrix)
                    self.bytes[(block * GROUP + i) * groups + group] = b;
                }
            }
        }
        let inputs = words.len();
        for (i, w) in words.iter_mut().enumerate() {
            let src = mutated_input_source(i, inputs) * groups;
            *w = match self.bytes.get(src..src + groups) {
                Some(bytes) => self.tables.word(bytes),
                None => KernelWord::ZERO,
            };
        }
    }

    /// Gathers the row bytes of the chunk of frames starting at `u`, as
    /// many frames as [`GATHER_BYTES`] allows (at least one).
    fn gather(&mut self, tests: &[&ScanTest], u: usize, blocks: usize, padded: usize) {
        let len = tests.first().map_or(0, |t| t.len());
        let frames = (GATHER_BYTES / (blocks * padded).max(1)).clamp(1, (len - u).max(1));
        let row_words = blocks.div_ceil(GROUP);
        self.gathered.clear();
        self.gathered.resize(frames * blocks * padded, 0);
        for (p, test) in tests.iter().enumerate() {
            let src = test.vectors.rows_words(u..u + frames);
            let bytes = src
                .chunks_exact(row_words.max(1))
                .flat_map(|row| row.iter().flat_map(|w| w.to_le_bytes()).take(blocks));
            for (at, b) in (p..).step_by(padded).zip(bytes) {
                // lint: panic-ok(frames x blocks source bytes land below frames x blocks x padded)
                self.gathered[at] = b;
            }
        }
        self.first = u;
        self.frames = frames;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The word a tile's lanes should carry: pattern `p`'s range set
    /// exactly when `bit(p)`.
    fn expected(height: usize, stride: usize, bit: impl Fn(usize) -> bool) -> KernelWord {
        let mut w = KernelWord::ZERO;
        for p in (0..height).filter(|&p| bit(p)) {
            for lane in p * stride..(p + 1) * stride {
                w.set_lane(lane, true);
            }
        }
        w
    }

    #[test]
    fn transpose8_matches_the_definition() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let t = transpose8(x);
            for r in 0..8 {
                for c in 0..8 {
                    assert_eq!(x >> (8 * r + c) & 1, t >> (8 * c + r) & 1);
                }
            }
        }
    }

    #[test]
    fn range_in_limb_cuts_at_limb_edges() {
        assert_eq!(range_in_limb(0, 64, 0), !0);
        assert_eq!(range_in_limb(0, 64, 1), 0);
        assert_eq!(range_in_limb(60, 8, 0), 0xF << 60);
        assert_eq!(range_in_limb(60, 8, 1), 0xF);
        assert_eq!(range_in_limb(0, 512, 7), !0);
        assert_eq!(range_in_limb(130, 3, 2), 0b111 << 2);
    }

    #[test]
    fn bit_rows_set_whole_pattern_ranges_at_every_shape() {
        // Heights around the group size and the tallest tile, strides
        // whose ranges start mid-limb and straddle limbs; every pattern
        // bit pattern from a fixed xorshift.
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut mixer = TileStimulus::default();
        for height in [1, 2, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65, 128, 170, 256] {
            for stride in [2, 3, 5, 7, 8, 56, 64, 65, 100, 512] {
                if height * stride > KernelWord::LANES {
                    continue;
                }
                mixer.tables.fit(height, stride);
                let rows: Vec<Vec<bool>> = (0..height)
                    .map(|_| (0..5).map(|_| next() & 1 == 1).collect())
                    .collect();
                let mut words = vec![KernelWord::ZERO; 6];
                mixer.mix_bits(&mut words, rows.iter().map(Vec::as_slice));
                for (i, w) in words.iter().enumerate() {
                    let want = expected(height, stride, |p| rows[p].get(i) == Some(&true));
                    assert_eq!(*w, want, "height {height} stride {stride} bit {i}");
                }
            }
        }
    }

    #[test]
    fn tables_are_rebuilt_only_for_a_new_shape() {
        let mut tables = LaneTables::EMPTY;
        tables.fit(9, 56);
        let built = tables.table.as_ptr();
        tables.fit(9, 56);
        assert_eq!(tables.table.as_ptr(), built);
        // 56-lane patterns take nibble tables. Patterns 0..4 (lanes
        // 0..224) span limbs 0..4 and patterns 4..8 (224..448) limbs 3..7,
        // from offsets 0 and 32: eight 16-entry tables. Pattern 8 (lanes
        // 448..504) reads one 2-entry table.
        assert_eq!(tables.spans.len(), 4 + 4 + 1);
        assert_eq!(tables.table.len(), 8 * 16 + 2);
        tables.fit(1, 512);
        assert_eq!((tables.groups, tables.spans.len()), (1, 8));
        assert_eq!(tables.table.len(), 8 * 2);
        // 8-lane patterns fill one limb per group: one byte table serves
        // all eight groups.
        tables.fit(64, 8);
        assert_eq!((tables.groups, tables.spans.len()), (8, 8));
        assert_eq!(tables.table.len(), 256);
        // 32 groups of 16 lanes start at four offsets within a limb, so
        // they share four tables.
        tables.fit(256, 2);
        assert_eq!((tables.groups, tables.spans.len()), (32, 32));
        assert_eq!(tables.table.len(), 4 * 256);
    }
}
