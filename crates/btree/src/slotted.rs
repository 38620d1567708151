//! The slotted node page of [`PagedBTree`](crate::PagedBTree): the page
//! image is the node, read through a borrowed [`View`] and edited in
//! place — there is no decoded form.
//!
//! ```text
//! leaf:     [tag=1][n:u16][cell_start:u16][next:u64][prev:u64]   21 bytes
//! internal: [tag=2][n:u16][cell_start:u16][child0:u64]           13 bytes
//!           [slot 0][slot 1]…[slot n-1] →   free   ← cells … page end
//! leaf cell:     [klen:u16][vlen:u16][key][value]
//! internal cell: [klen:u16][key][child:u64]      (the value is the child id)
//! ```
//!
//! A slot is the `u16` page offset of its cell; slots are in key order,
//! cells in arrival order, growing down from the page end. Removing a
//! cell slides the cells below it up over the hole in the same pass, so
//! the cell area is one gap-free run and `free = cell_start − slot_end`
//! is exact — no fragmentation accounting. Every offset and length read
//! from a page is bounds-checked against the image: a hostile page is a
//! [`StoreError::Corrupt`], never a panic.

use oic_storage::paged::StoreError;
use std::cmp::Ordering;
use std::ops::Range;

const LEAF_TAG: u8 = 1;
const INT_TAG: u8 = 2;
const N_OFF: usize = 1;
const CELL_START_OFF: usize = 3;
const LINK_OFF: usize = 5;
pub(crate) const LEAF_HDR: usize = LINK_OFF + 16;
pub(crate) const INT_HDR: usize = LINK_OFF + 8;
pub(crate) const SLOT: usize = 2;
/// Bytes a leaf record costs beyond its key and value (lengths + slot).
pub(crate) const LEAF_CELL: usize = 4 + SLOT;
/// Bytes a separator costs beyond its key (length, child id, slot).
pub(crate) const INT_CELL: usize = 2 + 8 + SLOT;

pub(crate) fn corrupt(msg: impl Into<String>) -> StoreError {
    StoreError::Corrupt(msg.into())
}

fn u16_at(img: &[u8], off: usize) -> Result<usize, StoreError> {
    match img.get(off..off + 2) {
        Some(b) => Ok(usize::from(u16::from_le_bytes([b[0], b[1]]))),
        None => Err(corrupt("node field beyond the page")),
    }
}

fn put_u16(img: &mut [u8], off: usize, v: usize) {
    let v = u16::try_from(v).expect("page offsets fit u16: open() caps the page size");
    img[off..off + 2].copy_from_slice(&v.to_le_bytes());
}

/// A validated read view of one node page.
#[derive(Clone, Copy)]
pub(crate) struct View<'a> {
    img: &'a [u8],
    /// Leaf (level 1) or internal node.
    pub leaf: bool,
    /// Number of cells.
    pub n: usize,
    /// Offset of slot 0 (the header length of this node kind).
    slots: usize,
    /// Length bytes leading a cell of this node kind.
    lens: usize,
    cell_start: usize,
}

impl<'a> View<'a> {
    /// Reads the header; slot directory and cell area must both lie
    /// inside the page and not overlap.
    pub fn parse(img: &'a [u8]) -> Result<Self, StoreError> {
        let (leaf, slots, lens) = match img.first() {
            Some(&LEAF_TAG) => (true, LEAF_HDR, 4),
            Some(&INT_TAG) => (false, INT_HDR, 2),
            _ => return Err(corrupt("unknown node tag")),
        };
        let v = View {
            img,
            leaf,
            slots,
            lens,
            n: u16_at(img, N_OFF)?,
            cell_start: u16_at(img, CELL_START_OFF)?,
        };
        if v.slot_off(v.n) > v.cell_start || v.cell_start > img.len() {
            return Err(corrupt("slot directory and cell area overlap"));
        }
        Ok(v)
    }

    fn slot_off(&self, i: usize) -> usize {
        self.slots + SLOT * i
    }

    /// Bytes the cell of `key` and `val` takes here (its slot not counted).
    pub fn cell_len(&self, key: &[u8], val: &[u8]) -> usize {
        self.lens + key.len() + val.len()
    }

    /// Header link `k`: a leaf's `next` (0) and `prev` (1), an internal
    /// node's `child0` (0).
    pub fn link(&self, k: usize) -> u64 {
        let off = LINK_OFF + 8 * k;
        u64::from_le_bytes(self.img[off..off + 8].try_into().expect("8 bytes"))
    }

    /// Unused bytes between the slot directory and the cells.
    pub fn free(&self) -> usize {
        self.cell_start - self.slot_off(self.n)
    }

    /// Byte range of cell `i` and the key length inside it.
    fn span(&self, i: usize) -> Result<(Range<usize>, usize), StoreError> {
        if i >= self.n {
            return Err(corrupt("slot index beyond the node"));
        }
        let off = u16_at(self.img, self.slot_off(i))?;
        let klen = u16_at(self.img, off)?;
        let vlen = if self.leaf {
            u16_at(self.img, off + 2)?
        } else {
            8
        };
        let len = self.lens + klen + vlen;
        if off < self.cell_start || off + len > self.img.len() {
            return Err(corrupt("cell outside the cell area"));
        }
        Ok((off..off + len, klen))
    }

    /// Key and value of cell `i` (an internal cell's value is its child
    /// id, see [`child`]).
    pub fn cell(&self, i: usize) -> Result<(&'a [u8], &'a [u8]), StoreError> {
        let (span, klen) = self.span(i)?;
        let body = &self.img[span][self.lens..];
        Ok(body.split_at(klen))
    }

    /// First slot whose key is `≥ key` (`after = false`) or `> key`.
    pub fn bound(&self, key: &[u8], after: bool) -> Result<usize, StoreError> {
        let (mut lo, mut hi) = (0, self.n);
        while lo < hi {
            let mid = (lo + hi) / 2;
            let k = self.cell(mid)?.0;
            if k < key || (after && k == key) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        Ok(lo)
    }

    /// The slot `key` has or would take, and its value if present.
    pub fn find(&self, key: &[u8]) -> Result<(usize, Option<&'a [u8]>), StoreError> {
        let i = self.bound(key, false)?;
        if i < self.n {
            let (k, v) = self.cell(i)?;
            return Ok((i, (k == key).then_some(v)));
        }
        Ok((i, None))
    }

    /// Routes `key` through an internal node: the slot a separator for
    /// `key` would take, and the child under the last separator `≤ key`
    /// (`child0` when every separator is greater).
    pub fn route(&self, key: &[u8]) -> Result<(usize, u64), StoreError> {
        let idx = self.bound(key, true)?;
        let to = match idx {
            0 => self.link(0),
            _ => child(self.cell(idx - 1)?.1),
        };
        Ok((idx, to))
    }

    /// Where to split once a cell of `len` bytes joins at slot `at`: the
    /// first index, in the sequence *with* the new cell, before which lie
    /// half the bytes (slots counted), both sides nonempty. Counting the
    /// pending cell leaves ascending inserts ¾-full pages, not half-full.
    pub fn split_point(&self, at: usize, len: usize) -> Result<usize, StoreError> {
        if self.n == 0 {
            return Err(corrupt("full node without cells"));
        }
        let total = self.img.len() - self.cell_start + len + SLOT * (self.n + 1);
        let mut cum = 0;
        for j in 0..=self.n {
            cum += SLOT;
            cum += match j.cmp(&at) {
                Ordering::Less => self.span(j)?.0.len(),
                Ordering::Equal => len,
                Ordering::Greater => self.span(j - 1)?.0.len(),
            };
            if 2 * cum >= total {
                return Ok((j + 1).clamp(1, self.n));
            }
        }
        Ok(self.n)
    }

    /// What `parse` and `cell` do not already enforce: keys strictly
    /// sorted through the slots, cells disjoint and tiling the cell area
    /// exactly (so `free` is exact).
    pub fn verify(&self) -> Result<(), StoreError> {
        let mut spans = Vec::with_capacity(self.n);
        for i in 0..self.n {
            spans.push(self.span(i)?.0);
            if i > 0 && self.cell(i - 1)?.0 >= self.cell(i)?.0 {
                return Err(corrupt("keys not strictly sorted through the slots"));
            }
        }
        spans.sort_by_key(|s| s.start);
        let mut at = self.cell_start;
        for s in spans {
            if s.start != at {
                return Err(corrupt("cells overlap or leave a gap"));
            }
            at = s.end;
        }
        if at != self.img.len() {
            return Err(corrupt("cell area does not end at the page end"));
        }
        Ok(())
    }
}

/// The child id an internal cell's value holds.
pub(crate) fn child(val: &[u8]) -> u64 {
    u64::from_le_bytes(val.try_into().expect("internal cell values are 8 bytes"))
}

/// Formats `img` as an empty node with the given header links.
pub(crate) fn init(img: &mut [u8], leaf: bool, links: [u64; 2]) {
    img.fill(0);
    img[0] = if leaf { LEAF_TAG } else { INT_TAG };
    put_u16(img, CELL_START_OFF, img.len());
    set_link(img, 0, links[0]);
    if leaf {
        set_link(img, 1, links[1]);
    }
}

/// Overwrites header link `k` (see [`View::link`]).
pub(crate) fn set_link(img: &mut [u8], k: usize, id: u64) {
    img[LINK_OFF + 8 * k..LINK_OFF + 8 * (k + 1)].copy_from_slice(&id.to_le_bytes());
}

/// Inserts a cell at slot `i`: the cell is appended below the cell area
/// and the slots from `i` on shift up by one. Returns `false`, leaving
/// the page untouched, when the node has no room for it.
pub(crate) fn insert_cell(
    img: &mut [u8],
    i: usize,
    key: &[u8],
    val: &[u8],
) -> Result<bool, StoreError> {
    let v = View::parse(img)?;
    let (leaf, n, slot, slot_end) = (v.leaf, v.n, v.slot_off(i), v.slot_off(v.n));
    let (lens, len) = (v.lens, v.cell_len(key, val));
    if i > n || (!leaf && val.len() != 8) {
        return Err(corrupt("cell does not belong in this node"));
    }
    if v.free() < len + SLOT {
        return Ok(false);
    }
    let at = v.cell_start - len;
    put_u16(img, at, key.len());
    if leaf {
        put_u16(img, at + 2, val.len());
    }
    img[at + lens..at + lens + key.len()].copy_from_slice(key);
    img[at + lens + key.len()..at + len].copy_from_slice(val);
    img.copy_within(slot..slot_end, slot + SLOT);
    put_u16(img, slot, at);
    put_u16(img, N_OFF, n + 1);
    put_u16(img, CELL_START_OFF, at);
    Ok(true)
}

/// [`insert_cell`] where the caller has made sure of the room.
pub(crate) fn push_cell(
    img: &mut [u8],
    i: usize,
    key: &[u8],
    val: &[u8],
) -> Result<(), StoreError> {
    match insert_cell(img, i, key, val)? {
        true => Ok(()),
        false => Err(corrupt("no room for a cell that must fit")),
    }
}

/// Removes cell `i` and compacts in the same pass: the cells below it
/// slide up over the hole (their slots follow) and slot `i` closes.
pub(crate) fn remove_cell(img: &mut [u8], i: usize) -> Result<(), StoreError> {
    let v = View::parse(img)?;
    let (hole, _) = v.span(i)?;
    let (n, cell_start, slots) = (v.n, v.cell_start, v.slot_off(0));
    img.copy_within(cell_start..hole.start, cell_start + hole.len());
    for j in 0..n {
        let off = u16_at(img, slots + SLOT * j)?;
        if off < hole.start {
            put_u16(img, slots + SLOT * j, off + hole.len());
        }
    }
    img.copy_within(slots + SLOT * (i + 1)..slots + SLOT * n, slots + SLOT * i);
    put_u16(img, N_OFF, n - 1);
    put_u16(img, CELL_START_OFF, cell_start + hole.len());
    Ok(())
}

/// Overwrites the value of cell `i` in place; `val` must have the old
/// value's length (a size-changing replace is remove + insert).
pub(crate) fn set_value(img: &mut [u8], i: usize, val: &[u8]) -> Result<(), StoreError> {
    let v = View::parse(img)?;
    let end = v.span(i)?.0.end;
    if v.cell(i)?.1.len() != val.len() {
        return Err(corrupt("in-place replace changes the value length"));
    }
    img[end - val.len()..end].copy_from_slice(val);
    Ok(())
}

/// Formats `img` as an empty node of `src`'s kind with `links`, then
/// appends `src`'s cells `range` in order — one half of a split.
pub(crate) fn rebuild(
    img: &mut [u8],
    src: &View<'_>,
    range: Range<usize>,
    links: [u64; 2],
) -> Result<(), StoreError> {
    init(img, src.leaf, links);
    for (to, from) in range.enumerate() {
        let (key, val) = src.cell(from)?;
        push_cell(img, to, key, val)?;
    }
    Ok(())
}
