//! Rumors, paged per-node rumor sets, and the window of per-round deltas.
//!
//! Every node in an information-dissemination instance can originate one
//! rumor; rumor `i` is "the rumor whose source is node `i`".  A node's state
//! with respect to dissemination is the set of rumors it currently knows.
//!
//! # Paged rumor sets
//!
//! [`RumorSet`] stores that set as an **adaptive paged bitset**: the universe
//! is split into fixed 4096-bit pages, kept in a sorted directory of 16-byte
//! entries with four page states —
//!
//! * **empty** — the page is simply absent (no storage);
//! * **sparse** — at most `SPARSE_MAX` (5) in-page offsets, sorted, inline in
//!   the directory entry (no heap block: Roaring's "array container" at the
//!   size of the entry);
//! * **dense** — an owned 64-word block holding the page's bits;
//! * **full** — a sentinel meaning every bit of the page is set (no
//!   storage).
//!
//! A set whose every page is full additionally **saturation-collapses** to
//! the canonical full representation — no pages at all — so a node that has
//! learned everything costs a few machine words instead of `n/8` bytes.  In
//! the saturating all-to-all regime this is what breaks the dense-bitset
//! `2·n²/8` memory wall: nodes spend most of a run either nearly-empty
//! (a few sparse entries) or fully informed (zero pages).
//!
//! The representation is kept **canonical** at all times: pages are sorted
//! and unique and never empty, and a page's state is a function of its bit
//! count `ones` and capacity `cap` alone — full iff `ones == cap`, else
//! sparse iff `ones <= SPARSE_MAX`, else dense.  Sets only grow, so a page
//! only ever moves sparse → dense → full (possibly skipping a step), inside
//! the union that crosses the threshold.  Fully saturated sets are always
//! collapsed.  Structural equality is therefore semantic equality and
//! `#[derive(PartialEq)]` is sound.
//!
//! # The delta window
//!
//! [`DeltaWindow`] is the engine's only history: what each node learned in
//! each of the last few delivery phases.  An exchange delivers a peer's set
//! as of its initiation round, which is the peer's current set minus the
//! deltas it learned since ([`NewRumors::add_difference`]); a round older
//! than every snapshot still in flight is dropped.  One node's delta of one
//! phase is stored as interval runs, or as one dense layer over the id
//! window it spans when that is cheaper ([`PhaseBatches::push`]).

use std::collections::VecDeque;
use std::fmt;

use gossip_graph::NodeId;

/// Identifier of a rumor.  Rumor `i` originates at node `i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RumorId(pub u32);

impl RumorId {
    /// The rumor originating at `node`.
    pub fn of_node(node: NodeId) -> Self {
        RumorId(node.index() as u32)
    }

    /// Dense index of this rumor.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<usize> for RumorId {
    // gossip-lint: allow(panic-path): documented precondition; universe sizes are far below u32::MAX
    fn from(i: usize) -> Self {
        RumorId(u32::try_from(i).expect("rumor index exceeds u32::MAX"))
    }
}

impl fmt::Display for RumorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Who knows which rumor when a run starts — the one seeding rule every
/// simulator constructor builds its initial sets from, and every amnesiac
/// rejoin resets a node to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Seeding {
    /// All-to-all: node `i` knows exactly rumor `i`.
    AllToAll,
    /// One-to-all: the source knows its own rumor, every other node knows
    /// nothing.
    Broadcast(NodeId),
}

impl Seeding {
    /// Node `node`'s initial rumor set over a universe of `universe` rumors.
    ///
    /// # Panics
    ///
    /// Panics if a node that starts with its own rumor lies outside the
    /// universe.
    pub fn initial_set(self, universe: usize, node: NodeId) -> RumorSet {
        match self {
            Seeding::Broadcast(source) if source != node => RumorSet::empty(universe),
            _ => RumorSet::singleton(universe, RumorId::of_node(node)),
        }
    }

    /// Every node's initial rumor set in an `n`-node run (universe `n`).
    ///
    /// # Panics
    ///
    /// Panics if a broadcast source is not one of the `n` nodes.
    pub fn initial_sets(self, n: usize) -> Vec<RumorSet> {
        if let Seeding::Broadcast(source) = self {
            assert!(
                source.index() < n,
                "broadcast source {} is not one of the {n} nodes",
                source.index()
            );
        }
        (0..n)
            .map(|i| self.initial_set(n, NodeId::new(i)))
            .collect()
    }
}

/// A run of consecutive rumor ids `first, first+1, …, first+len-1`, the unit
/// in which the engine's merge path reports newly learned rumors.
pub(crate) type RumorRun = (RumorId, u32);

/// Bits per page of a [`RumorSet`].
pub(crate) const PAGE_BITS: usize = 4096;
/// 64-bit words per page.
const PAGE_WORDS: usize = PAGE_BITS / 64;
/// Most set bits a page stores inline as sorted offsets (the sparse state).
const SPARSE_MAX: usize = 5;

/// One non-empty page of a [`RumorSet`], in the canonical state its bit
/// count dictates (see the module docs).  `index` is the page number: bit
/// `i` of the universe lives in page `i / 4096`.
#[derive(Debug, Clone, PartialEq, Eq)]
enum PageEntry {
    /// Every bit of the page (up to its capacity) is set; no storage.
    Full { index: u32 },
    /// `SPARSE_MAX < ones < capacity` bits, held in an owned 64-word block.
    Dense {
        index: u32,
        ones: u16,
        words: Box<[u64; PAGE_WORDS]>,
    },
    /// `0 < len <= SPARSE_MAX` bits (and `len < capacity`): their in-page
    /// offsets `ids[..len]`, ascending; the unused slots stay 0.
    Sparse {
        index: u32,
        len: u8,
        ids: [u16; SPARSE_MAX],
    },
}

/// Bytes of one directory entry, whatever its state.
const ENTRY_BYTES: u64 = std::mem::size_of::<PageEntry>() as u64;
/// Heap bytes of a dense page's block.
const BLOCK_BYTES: u64 = (PAGE_WORDS * 8) as u64;

// A sparse page is free only while it fits the entry a dense page needs
// anyway: tag, page number, block pointer.
const _: () = assert!(ENTRY_BYTES == 16);

impl PageEntry {
    /// The page number.
    fn index(&self) -> u32 {
        match *self {
            PageEntry::Full { index }
            | PageEntry::Dense { index, .. }
            | PageEntry::Sparse { index, .. } => index,
        }
    }

    /// In-page word `w` of a page of capacity `cap` (0 past the page).
    fn word(&self, w: usize, cap: u32) -> u64 {
        match self {
            PageEntry::Full { .. } => full_page_word(cap, w),
            PageEntry::Dense { words, .. } => words.get(w).copied().unwrap_or(0),
            PageEntry::Sparse { len, ids, .. } => {
                sparse_word(ids.iter().take(usize::from(*len)), w)
            }
        }
    }
}

/// In-page word `w` of the sparse offsets `ids`.
fn sparse_word<'a>(ids: impl Iterator<Item = &'a u16>, w: usize) -> u64 {
    ids.filter(|&&i| usize::from(i) / 64 == w)
        .fold(0, |word, &i| word | 1 << (i % 64))
}

/// What a [`RumorSet`]'s pages cost — the unit of the engine's
/// deterministic rumor-set accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct PageFootprint {
    /// Dense pages (heap blocks).
    pub(crate) dense: u64,
    /// Bytes: one directory entry per sparse or dense page, plus one block
    /// per dense page.  Full entries are not charged.
    pub(crate) bytes: u64,
}

/// A set of rumors over the universe `0..universe`, stored as a sorted
/// directory of 4096-bit pages (see the module docs for the representation).
#[derive(Clone, PartialEq, Eq)]
pub struct RumorSet {
    universe: usize,
    /// Number of rumors in the set (maintained incrementally).
    len: usize,
    /// Non-empty pages, sorted by `index`.  Empty when the set is empty *or*
    /// fully saturated (`len == universe`), the canonical collapsed form.
    pages: Vec<PageEntry>,
}

/// The in-page word holding bit `w*64..` of a full page of capacity `cap`.
fn full_page_word(cap: u32, w: usize) -> u64 {
    let lo = (w * 64) as u32;
    if lo + 64 <= cap {
        !0
    } else if lo >= cap {
        0
    } else {
        (1u64 << (cap - lo)) - 1
    }
}

/// Appends the new-rumor run `first..first+len`, coalescing with the
/// previously pushed run when exactly contiguous.
fn push_new_run(out: &mut Vec<RumorRun>, first: usize, len: u32) {
    if len == 0 {
        return;
    }
    if let Some(last) = out.last_mut() {
        if last.0.index() as u64 + u64::from(last.1) == first as u64 {
            last.1 += len;
            return;
        }
    }
    out.push((RumorId(first as u32), len));
}

/// Calls `f(first, len)` for every maximal run of set bits of `bits` (a word
/// whose bit 0 is universe bit `word_base`), in ascending order.
fn word_runs(word_base: usize, mut bits: u64, mut f: impl FnMut(usize, u32)) {
    while bits != 0 {
        let tz = bits.trailing_zeros();
        let run = (bits >> tz).trailing_ones();
        f(word_base + tz as usize, run);
        if tz + run >= 64 {
            break;
        }
        bits &= !0u64 << (tz + run);
    }
}

impl RumorSet {
    /// Creates an empty rumor set over a universe of `universe` rumors.
    pub fn empty(universe: usize) -> Self {
        RumorSet {
            universe,
            len: 0,
            pages: Vec::new(),
        }
    }

    /// Creates a singleton set containing only `rumor`.
    ///
    /// # Panics
    ///
    /// Panics if `rumor` is outside the universe.
    pub fn singleton(universe: usize, rumor: RumorId) -> Self {
        let mut s = Self::empty(universe);
        s.insert(rumor);
        s
    }

    /// Size of the rumor universe.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Number of set bits the page can hold (4096 except for the last page).
    fn page_capacity(&self, page: u32) -> u32 {
        let start = page as usize * PAGE_BITS;
        debug_assert!(start < self.universe || self.universe == 0);
        (self.universe - start).min(PAGE_BITS) as u32
    }

    /// Collapses to the canonical full representation once saturated.
    fn collapse_if_full(&mut self) {
        if self.len == self.universe && !self.pages.is_empty() {
            debug_assert!(self
                .pages
                .iter()
                .all(|e| matches!(e, PageEntry::Full { .. })));
            self.pages = Vec::new();
        }
    }

    /// Number of dense pages — the set's heap blocks.  Empty, sparse and
    /// full pages hold no block; this is what [`MemStats`]'s page counters
    /// aggregate.
    ///
    /// [`MemStats`]: crate::MemStats
    pub fn live_pages(&self) -> usize {
        self.page_footprint().dense as usize
    }

    /// What the set's pages cost: its dense pages and their bytes — 16 per
    /// sparse or dense directory entry plus 512 per dense block.  The one
    /// cost function behind the engine's rumor-set counters.
    pub(crate) fn page_footprint(&self) -> PageFootprint {
        let mut cost = PageFootprint::default();
        for entry in &self.pages {
            match entry {
                PageEntry::Full { .. } => {}
                PageEntry::Sparse { .. } => cost.bytes += ENTRY_BYTES,
                PageEntry::Dense { .. } => {
                    cost.dense += 1;
                    cost.bytes += ENTRY_BYTES + BLOCK_BYTES;
                }
            }
        }
        cost
    }

    /// Fixed per-set bytes (the struct itself, pages excluded).
    pub(crate) fn base_cost_bytes() -> u64 {
        std::mem::size_of::<RumorSet>() as u64
    }

    /// Inserts a rumor; returns `true` if it was not already present.
    ///
    /// # Panics
    ///
    /// Panics if the rumor is outside the universe.
    pub fn insert(&mut self, rumor: RumorId) -> bool {
        self.union_run(rumor.index(), 1) == 1
    }

    /// Returns `true` if the set contains `rumor`.
    // gossip-lint: allow(panic-path): page/word indices derive from the rumor < universe bound
    pub fn contains(&self, rumor: RumorId) -> bool {
        let i = rumor.index();
        if i >= self.universe {
            return false;
        }
        if self.len == self.universe {
            return true;
        }
        let page = (i / PAGE_BITS) as u32;
        let bit = i % PAGE_BITS;
        match self.pages.binary_search_by_key(&page, PageEntry::index) {
            Err(_) => false,
            Ok(p) => {
                self.pages[p].word(bit / 64, self.page_capacity(page)) & (1 << (bit % 64)) != 0
            }
        }
    }

    /// Number of rumors in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns `true` if the set contains every rumor of the universe.
    pub fn is_full(&self) -> bool {
        self.len == self.universe
    }

    /// Returns `true` if every rumor of the set is also in `other` (a set
    /// over the same universe).  Walks the set's pages, stopping at the
    /// first one `other` does not cover.
    pub(crate) fn is_subset(&self, other: &RumorSet) -> bool {
        if self.is_empty() || other.is_full() {
            return true;
        }
        if self.is_full() || self.len > other.len {
            return false;
        }
        self.pages.iter().all(|entry| {
            let page = entry.index();
            let held = other.pages.binary_search_by_key(&page, PageEntry::index);
            let Some(held) = held.ok().and_then(|p| other.pages.get(p)) else {
                return false;
            };
            let cap = self.page_capacity(page);
            match (entry, held) {
                (_, PageEntry::Full { .. }) => true,
                (PageEntry::Sparse { len, ids, .. }, _) => ids
                    .iter()
                    .take(usize::from(*len))
                    .all(|&i| held.word(usize::from(i) / 64, cap) & (1 << (i % 64)) != 0),
                _ => {
                    let held = held.words(cap);
                    entry.words(cap).iter().zip(held).all(|(w, h)| w & !h == 0)
                }
            }
        })
    }

    /// Iterator over the rumors present in the set, in increasing id order.
    ///
    /// Runs in `O(pages·words + len)` — it walks the non-empty pages word by
    /// word and peels set bits — so materialising a sparse set stays cheap
    /// for large universes, and a saturation-collapsed full set iterates
    /// without touching any storage at all.
    pub fn iter(&self) -> RumorIter<'_> {
        RumorIter {
            universe: self.universe,
            full: self.universe > 0 && self.len == self.universe,
            next_id: 0,
            pages: &self.pages,
            page_pos: 0,
            cur_entry: None,
            cur_base: 0,
            cur_cap: 0,
            cur_words: 0,
            word_idx: 0,
            word: 0,
        }
    }

    /// Inserts the `len` consecutive rumors `first, …, first+len-1` and
    /// returns how many were new.
    ///
    /// One run of consecutive rumor ids is unioned in `O(len/64)` time, and
    /// a run covering a whole absent page materialises the full sentinel
    /// directly — no allocation, which is how a saturating merge fills a
    /// 131072-rumor set with 32 page flips.
    ///
    /// # Panics
    ///
    /// Panics if the run extends past the universe.
    fn insert_run(&mut self, first: RumorId, len: u32) -> u32 {
        self.union_run(first.index(), len)
    }

    /// Inserts the rumors `lo..lo+len` and returns how many were new.
    /// Shared by [`insert`](Self::insert) and [`insert_run`](Self::insert_run).
    // gossip-lint: allow(panic-path): run bounds are asserted against the universe on entry
    fn union_run(&mut self, lo: usize, len: u32) -> u32 {
        let hi = lo + len as usize;
        assert!(
            hi <= self.universe,
            "run {lo}..{hi} outside universe of size {}",
            self.universe
        );
        if len == 0 || self.len == self.universe {
            return 0;
        }
        let mut added = 0;
        for page in (lo / PAGE_BITS) as u32..=((hi - 1) / PAGE_BITS) as u32 {
            let page_start = page as usize * PAGE_BITS;
            let cap = self.page_capacity(page);
            let a = lo.max(page_start) - page_start;
            let b = (hi - page_start).min(PAGE_BITS);
            let slot = self.pages.binary_search_by_key(&page, PageEntry::index);
            added += match slot {
                Err(at) if a == 0 && b >= cap as usize => {
                    // The run covers the whole (absent) page: full sentinel,
                    // no allocation.
                    self.pages.insert(at, PageEntry::Full { index: page });
                    self.len += cap as usize;
                    cap
                }
                _ => self.union_page(page, slot, word_masks(a, b - a)),
            };
        }
        self.collapse_if_full();
        added
    }

    /// Unions the in-page word masks `masks` (`(word, bits)`, ascending
    /// words) into page `page`, whose directory search gave `slot`, and
    /// returns how many bits were new.  The page ends
    /// in its canonical state: promotion from sparse to dense or full
    /// happens here, in the union that crosses the threshold.  Adds the new
    /// bits to `len` but leaves the saturation collapse to the caller, which
    /// may still be walking later pages.
    // gossip-lint: allow(panic-path): p is the page's search or insertion slot, mask words are < PAGE_WORDS, and sparse offsets are < capacity
    fn union_page<I>(&mut self, page: u32, slot: Result<usize, usize>, masks: I) -> u32
    where
        I: Iterator<Item = (usize, u64)> + Clone,
    {
        let cap = self.page_capacity(page);
        let p = match slot {
            Ok(p) => p,
            Err(at) => {
                let empty = PageEntry::Sparse {
                    index: page,
                    len: 0,
                    ids: [0; SPARSE_MAX],
                };
                self.pages.insert(at, empty);
                at
            }
        };
        let entry = &mut self.pages[p];
        let added = match entry {
            PageEntry::Full { .. } => 0,
            PageEntry::Dense { ones, words, .. } => {
                let mut added = 0;
                for (w, bits) in masks {
                    let new = bits & !words[w];
                    words[w] |= bits;
                    added += new.count_ones();
                }
                *ones += added as u16;
                if u32::from(*ones) == cap {
                    *entry = PageEntry::Full { index: page };
                }
                added
            }
            PageEntry::Sparse { len, ids, .. } => {
                let (held, mut ids) = (usize::from(*len), *ids);
                // Collect the new offsets while they still fit inline.
                let mut added = 0;
                for (w, bits) in masks.clone() {
                    let mut new = bits & !sparse_word(ids[..held].iter(), w);
                    while new != 0 && held + (added as usize) < SPARSE_MAX {
                        ids[held + added as usize] = (w * 64) as u16 + new.trailing_zeros() as u16;
                        new &= new - 1;
                        added += 1;
                    }
                    added += new.count_ones();
                }
                let ones = held + added as usize;
                debug_assert!(ones > 0, "a union onto an absent page adds bits");
                *entry = if ones == cap as usize {
                    PageEntry::Full { index: page }
                } else if ones <= SPARSE_MAX {
                    ids[..ones].sort_unstable();
                    PageEntry::Sparse {
                        index: page,
                        len: ones as u8,
                        ids,
                    }
                } else {
                    let mut block = Box::new([0u64; PAGE_WORDS]);
                    for &i in &ids[..held] {
                        block[usize::from(i) / 64] |= 1 << (i % 64);
                    }
                    for (w, bits) in masks {
                        block[w] |= bits;
                    }
                    PageEntry::Dense {
                        index: page,
                        ones: ones as u16,
                        words: block,
                    }
                };
                added
            }
        };
        self.len += added as usize;
        added
    }

    /// Unions a raw dense word window into the set and returns how many
    /// rumors were new: `words[k]` holds universe bits `(word_lo + k)·64 ..`,
    /// so a dense delta layer is the window it spans.
    // gossip-lint: allow(panic-path): the window's page slices are bounded by the window itself
    fn union_words(&mut self, word_lo: usize, words: &[u64]) -> u32 {
        let word_hi = word_lo + words.len();
        debug_assert!(word_hi <= self.word_count(), "window past the universe");
        if self.len == self.universe || words.is_empty() {
            return 0;
        }
        let mut added = 0;
        for page in (word_lo / PAGE_WORDS) as u32..=((word_hi - 1) / PAGE_WORDS) as u32 {
            let page_lo = page as usize * PAGE_WORDS;
            // The window's words inside this page, and where they sit in it.
            let a = word_lo.max(page_lo);
            let b = word_hi.min(page_lo + PAGE_WORDS);
            let src = &words[a - word_lo..b - word_lo];
            if src.iter().all(|&w| w == 0) {
                continue;
            }
            let slot = self.pages.binary_search_by_key(&page, PageEntry::index);
            let masks = src
                .iter()
                .enumerate()
                .map(|(k, &bits)| (a - page_lo + k, bits));
            added += self.union_page(page, slot, masks);
        }
        self.collapse_if_full();
        added
    }

    /// Unions one delta batch into the set and returns how many rumors were
    /// new.
    pub(crate) fn insert_delta(&mut self, delta: Delta<'_>) -> u32 {
        match delta {
            Delta::Runs(runs) => runs
                .iter()
                .map(|&(first, len)| self.insert_run(first, len))
                .sum(),
            Delta::Words(word_lo, words) => self.union_words(word_lo, words),
        }
    }

    /// Pushes every maximal run of rumors the set does *not* hold onto
    /// `out`, in increasing id order.
    ///
    /// This is the engine's `O(pages)` "peer is saturated" merge: a peer
    /// whose snapshot is the whole universe adds exactly the complement of
    /// what the destination already knows.
    pub(crate) fn complement_runs(&self, out: &mut Vec<RumorRun>) {
        if self.len == self.universe {
            return;
        }
        let mut stored = self.pages.iter().peekable();
        for page in 0..self.universe.div_ceil(PAGE_BITS) as u32 {
            let page_start = page as usize * PAGE_BITS;
            let cap = self.page_capacity(page);
            match stored.next_if(|e| e.index() == page) {
                Some(PageEntry::Full { .. }) => {}
                Some(entry) => {
                    for w in 0..(cap as usize).div_ceil(64) {
                        let new = full_page_word(cap, w) & !entry.word(w, cap);
                        word_runs(page_start + w * 64, new, |first, len| {
                            push_new_run(out, first, len);
                        });
                    }
                }
                None => push_new_run(out, page_start, cap),
            }
        }
    }

    /// Number of 64-bit words a dense bitset over this universe needs.
    fn word_count(&self) -> usize {
        self.universe.div_ceil(64)
    }
}

/// The `(word_index, mask)` pairs of every 64-bit word overlapped by the bit
/// range `lo..lo+len`, with `mask` covering exactly the in-range bits of
/// that word.  Shared by the consecutive-run set operations so the boundary
/// arithmetic (including the `1 << 64` full-word case) lives in one place.
fn word_masks(lo: usize, len: usize) -> impl Iterator<Item = (usize, u64)> + Clone {
    let hi = lo + len;
    let words = if len == 0 {
        0..0
    } else {
        lo / 64..(hi - 1) / 64 + 1
    };
    words.map(move |w| {
        let a = lo.max(w * 64) - w * 64;
        let b = hi.min(w * 64 + 64) - w * 64;
        let mask = if b - a == 64 {
            !0u64
        } else {
            ((1u64 << (b - a)) - 1) << a
        };
        (w, mask)
    })
}

/// Sets the bits `lo..lo+len` in a raw bitset word slice (how a batch is
/// built into a dense delta layer).
// gossip-lint: allow(panic-path): callers pass lo..lo+len ranges within the word slice
fn set_words_range(words: &mut [u64], lo: usize, len: usize) {
    for (w, mask) in word_masks(lo, len) {
        words[w] |= mask;
    }
}

/// One node's acquisitions of one delivery phase, as the [`DeltaWindow`]
/// stores them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Delta<'a> {
    /// Maximal runs of consecutive ids, ascending.
    Runs(&'a [RumorRun]),
    /// The set bits of a word window whose word `k` holds universe bits
    /// `(word_lo + k)·64 ..` (`word_lo`, window).
    Words(usize, &'a [u64]),
}

impl Delta<'_> {
    /// Clears this delta's ids from `words`, the words of page `page`.
    fn clear_from_page(self, page: usize, words: &mut [u64; PAGE_WORDS]) {
        let page_lo = page * PAGE_WORDS;
        match self {
            Delta::Runs(runs) => {
                let (lo, hi) = (page * PAGE_BITS, (page + 1) * PAGE_BITS);
                let first = runs.partition_point(|&(f, len)| f.index() + len as usize <= lo);
                for &(f, len) in runs.iter().skip(first) {
                    if f.index() >= hi {
                        break;
                    }
                    let a = f.index().max(lo);
                    let b = (f.index() + len as usize).min(hi);
                    for (w, mask) in word_masks(a - lo, b - a) {
                        if let Some(word) = words.get_mut(w) {
                            *word &= !mask;
                        }
                    }
                }
            }
            Delta::Words(word_lo, window) => {
                let a = word_lo.max(page_lo);
                let b = (word_lo + window.len()).min(page_lo + PAGE_WORDS);
                let pairs = words.iter_mut().skip(a - page_lo);
                for (word, &bits) in pairs
                    .zip(window.iter().skip(a - word_lo))
                    .take(b.saturating_sub(a))
                {
                    *word &= !bits;
                }
            }
        }
    }
}

/// A batch stored as a dense layer: the bitset over the word window its
/// ids span.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Layer {
    dst: u32,
    /// Universe word index of `words[0]`.
    word_lo: u32,
    words: Box<[u64]>,
}

/// Bytes of one index entry, one per batch.
const INDEX_BYTES: u64 = std::mem::size_of::<(u32, u32)>() as u64;
/// Bytes of one interval run.
const RUN_BYTES: u64 = std::mem::size_of::<RumorRun>() as u64;

/// Bytes a dense layer holds besides its index entry: header and window.
fn layer_bytes(words: usize) -> u64 {
    (std::mem::size_of::<Layer>() + 8 * words) as u64
}

/// Storage the [`DeltaWindow`] holds, gains or releases.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct BatchFootprint {
    /// Batches (one per node and delivery phase).
    pub(crate) batches: u64,
    /// Interval runs.
    pub(crate) runs: u64,
    /// Dense layers.
    pub(crate) layers: u64,
    /// Bytes: 8 per batch's index entry, 8 per run, header and window per
    /// layer.
    pub(crate) bytes: u64,
}

impl std::ops::AddAssign for BatchFootprint {
    fn add_assign(&mut self, other: BatchFootprint) {
        self.batches += other.batches;
        self.runs += other.runs;
        self.layers += other.layers;
        self.bytes += other.bytes;
    }
}

impl std::ops::SubAssign for BatchFootprint {
    fn sub_assign(&mut self, other: BatchFootprint) {
        self.batches -= other.batches;
        self.runs -= other.runs;
        self.layers -= other.layers;
        self.bytes -= other.bytes;
    }
}

/// One delivery phase's batches, stored flat: one `(destination, end)`
/// index entry per node that learned something, ascending by destination,
/// one run vector and one layer list.  A destination's runs are
/// `runs[previous end..end]`; an empty range means its batch is the next
/// layer.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct PhaseBatches {
    index: Vec<(u32, u32)>,
    runs: Vec<RumorRun>,
    layers: Vec<Layer>,
}

impl PhaseBatches {
    /// Appends `dst`'s batch, given as the maximal runs of its new ids in
    /// increasing order (`dst` above every destination pushed so far).  The
    /// batch is stored as its runs, or as one dense layer over the word
    /// window it spans when the layer's header and window cost less than
    /// the runs.  Returns whether it became a layer.
    pub(crate) fn push(&mut self, dst: u32, batch: &[RumorRun]) -> bool {
        let (Some(&(lo, _)), Some(&(last, len))) = (batch.first(), batch.last()) else {
            return false;
        };
        let word_lo = lo.index() / 64;
        let words = (last.index() + len as usize - 1) / 64 + 1 - word_lo;
        let layer = layer_bytes(words) < RUN_BYTES * batch.len() as u64;
        if layer {
            let mut bits = vec![0u64; words].into_boxed_slice();
            for &(first, n) in batch {
                set_words_range(&mut bits, first.index() - word_lo * 64, n as usize);
            }
            self.layers.push(Layer {
                dst,
                word_lo: word_lo as u32,
                words: bits,
            });
        } else {
            self.runs.extend_from_slice(batch);
        }
        self.index.push((dst, self.runs.len() as u32));
        layer
    }

    /// Appends another phase piece whose destinations all lie above this
    /// one's (merge shards, in shard order).
    pub(crate) fn extend(&mut self, other: PhaseBatches) {
        if self.index.is_empty() {
            *self = other;
            return;
        }
        let offset = self.runs.len() as u32;
        self.index.extend(
            other
                .index
                .into_iter()
                .map(|(dst, end)| (dst, end + offset)),
        );
        self.runs.extend(other.runs);
        self.layers.extend(other.layers);
    }

    /// Every destination's batch, ascending by destination.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, Delta<'_>)> {
        let mut start = 0;
        let mut layers = self.layers.iter();
        self.index.iter().filter_map(move |&(dst, end)| {
            let runs = (start as usize)..(end as usize);
            start = end;
            if runs.is_empty() {
                layers
                    .next()
                    .map(|l| (dst, Delta::Words(l.word_lo as usize, &l.words)))
            } else {
                self.runs.get(runs).map(|runs| (dst, Delta::Runs(runs)))
            }
        })
    }

    /// `node`'s batch, if it learned anything in this phase.
    fn get(&self, node: u32) -> Option<Delta<'_>> {
        let k = self
            .index
            .binary_search_by_key(&node, |&(dst, _)| dst)
            .ok()?;
        let start = k
            .checked_sub(1)
            .and_then(|j| self.index.get(j))
            .map_or(0, |&(_, end)| end);
        let end = self.index.get(k)?.1;
        if start < end {
            return self.runs.get(start as usize..end as usize).map(Delta::Runs);
        }
        let l = self.layers.binary_search_by_key(&node, |l| l.dst).ok()?;
        let layer = self.layers.get(l)?;
        Some(Delta::Words(layer.word_lo as usize, &layer.words))
    }

    /// What the batches hold.
    pub(crate) fn footprint(&self) -> BatchFootprint {
        let batches = self.index.len() as u64;
        let runs = self.runs.len() as u64;
        BatchFootprint {
            batches,
            runs,
            layers: self.layers.len() as u64,
            bytes: INDEX_BYTES * batches
                + RUN_BYTES * runs
                + self
                    .layers
                    .iter()
                    .map(|l| layer_bytes(l.words.len()))
                    .sum::<u64>(),
        }
    }
}

/// The engine's one history structure: the batches of the latest delivery
/// phases, keyed by round.
///
/// An exchange over an edge of latency `ℓ` delivers each endpoint's set as
/// of its initiation round `r = t − ℓ`.  Sets only grow at deliveries, so
/// that snapshot is the endpoint's current set minus what it learned in
/// rounds `r + 1 ..= t − 1` — at most `max_latency − 1` rounds of batches.
/// Older rounds can never be referenced and are aged out.
#[derive(Debug, Default)]
pub(crate) struct DeltaWindow {
    /// `(round, batches)`, rounds increasing.
    rounds: VecDeque<(u64, PhaseBatches)>,
}

impl DeltaWindow {
    /// Stores round `round`'s batches (after every stored round).
    pub(crate) fn push(&mut self, round: u64, batches: PhaseBatches) {
        if !batches.index.is_empty() {
            self.rounds.push_back((round, batches));
        }
    }

    /// Drops every round at or before `floor` and returns what it held.
    pub(crate) fn age_out(&mut self, floor: u64) -> BatchFootprint {
        let mut freed = BatchFootprint::default();
        while self
            .rounds
            .front()
            .is_some_and(|&(round, _)| round <= floor)
        {
            if let Some((_, batches)) = self.rounds.pop_front() {
                freed += batches.footprint();
            }
        }
        freed
    }

    /// `node`'s batches of the rounds after `since`, newest first.
    pub(crate) fn deltas_since(&self, node: u32, since: u64) -> impl Iterator<Item = Delta<'_>> {
        self.rounds
            .iter()
            .rev()
            .take_while(move |&&(round, _)| round > since)
            .filter_map(move |(_, batches)| batches.get(node))
    }
}

/// One destination's new rumors, gathered over its merge tasks: a bitset
/// over the universe (sized on first use) and the pages holding set bits.
/// Adding a rumor twice changes nothing, so the batch depends on neither
/// the order nor the overlap of the destination's tasks.
#[derive(Debug, Default)]
pub(crate) struct NewRumors {
    words: Vec<u64>,
    /// Per page: whether it is listed in `pages`.
    touched: Vec<bool>,
    /// Pages that may hold set bits, unsorted.
    pages: Vec<u32>,
}

impl PageEntry {
    /// The page's words, for a page of capacity `cap`.
    fn words(&self, cap: u32) -> [u64; PAGE_WORDS] {
        match self {
            PageEntry::Full { .. } => std::array::from_fn(|w| full_page_word(cap, w)),
            PageEntry::Dense { words, .. } => **words,
            PageEntry::Sparse { len, ids, .. } => {
                let mut out = [0; PAGE_WORDS];
                for &i in ids.iter().take(usize::from(*len)) {
                    if let Some(word) = out.get_mut(usize::from(i) / 64) {
                        *word |= 1 << (i % 64);
                    }
                }
                out
            }
        }
    }
}

impl NewRumors {
    /// Adds the rumors of `src` that are in none of the deltas `minus` and
    /// not in `dst`: a snapshot of `src` — its current set minus what it
    /// learned since — less what `dst` already knows.  Costs `O(src pages)`
    /// word operations plus the deltas' runs.
    pub(crate) fn add_difference(&mut self, src: &RumorSet, minus: &[Delta<'_>], dst: &RumorSet) {
        if dst.is_full() {
            return;
        }
        if self.words.len() != src.word_count() {
            // First use: a run's universe never changes.
            self.words = vec![0; src.word_count()];
            self.touched = vec![false; src.universe.div_ceil(PAGE_BITS)];
        }
        let mut add_page = |entry: &PageEntry| {
            let page = entry.index();
            let cap = src.page_capacity(page);
            let mut words = entry.words(cap);
            let held = dst.pages.binary_search_by_key(&page, PageEntry::index);
            match held.ok().and_then(|p| dst.pages.get(p)) {
                Some(PageEntry::Full { .. }) => return,
                Some(held) => {
                    for (w, h) in words.iter_mut().zip(held.words(cap)) {
                        *w &= !h;
                    }
                }
                None => {}
            }
            for delta in minus {
                delta.clear_from_page(page as usize, &mut words);
            }
            let mut any = 0;
            let acc = self.words.iter_mut().skip(page as usize * PAGE_WORDS);
            for (a, w) in acc.zip(words) {
                *a |= w;
                any |= w;
            }
            if let Some(listed) = self.touched.get_mut(page as usize).filter(|_| any != 0) {
                if !*listed {
                    *listed = true;
                    self.pages.push(page);
                }
            }
        };
        if src.is_full() {
            for index in 0..src.universe.div_ceil(PAGE_BITS) as u32 {
                add_page(&PageEntry::Full { index });
            }
        } else {
            src.pages.iter().for_each(add_page);
        }
    }

    /// Moves the gathered rumors onto `out` as maximal runs in increasing
    /// id order, leaving the accumulator empty for the next destination.
    pub(crate) fn drain_runs(&mut self, out: &mut Vec<RumorRun>) {
        self.pages.sort_unstable();
        for &page in &self.pages {
            let page_lo = page as usize * PAGE_WORDS;
            let words = self.words.iter_mut().enumerate().skip(page_lo);
            for (w, bits) in words.take(PAGE_WORDS) {
                word_runs(w * 64, std::mem::take(bits), |first, len| {
                    push_new_run(out, first, len);
                });
            }
            if let Some(listed) = self.touched.get_mut(page as usize) {
                *listed = false;
            }
        }
        self.pages.clear();
    }
}

/// Iterator over the rumors of a [`RumorSet`], in increasing id order.
///
/// Produced by [`RumorSet::iter`].
#[derive(Debug, Clone)]
pub struct RumorIter<'a> {
    universe: usize,
    /// Saturation-collapsed full set: iterate ids directly, no storage.
    full: bool,
    next_id: usize,
    pages: &'a [PageEntry],
    /// Index of the next page to load.
    page_pos: usize,
    cur_entry: Option<&'a PageEntry>,
    cur_base: usize,
    cur_cap: u32,
    cur_words: usize,
    word_idx: usize,
    word: u64,
}

impl Iterator for RumorIter<'_> {
    type Item = RumorId;

    fn next(&mut self) -> Option<RumorId> {
        if self.full {
            if self.next_id < self.universe {
                let r = RumorId(self.next_id as u32);
                self.next_id += 1;
                return Some(r);
            }
            return None;
        }
        loop {
            if self.word != 0 {
                let bit = self.word.trailing_zeros();
                self.word &= self.word - 1;
                return Some(RumorId((self.cur_base + self.word_idx * 64) as u32 + bit));
            }
            if let Some(entry) = self.cur_entry {
                self.word_idx += 1;
                if self.word_idx < self.cur_words {
                    self.word = entry.word(self.word_idx, self.cur_cap);
                    continue;
                }
                self.cur_entry = None;
            }
            let entry = self.pages.get(self.page_pos)?;
            self.page_pos += 1;
            self.cur_base = entry.index() as usize * PAGE_BITS;
            self.cur_cap = (self.universe - self.cur_base).min(PAGE_BITS) as u32;
            self.cur_words = (self.cur_cap as usize).div_ceil(64);
            self.word_idx = 0;
            self.word = entry.word(0, self.cur_cap);
            self.cur_entry = Some(entry);
        }
    }
}

impl fmt::Debug for RumorSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RumorSet({}/{}: ", self.len(), self.universe)?;
        f.debug_set().entries(self.iter().map(|r| r.0)).finish()?;
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    /// Exhaustive semantic mirror: a `RumorSet` must behave exactly like a
    /// plain boolean vector.
    fn assert_matches_naive(set: &RumorSet, naive: &[bool]) {
        assert_eq!(set.universe(), naive.len());
        assert_eq!(set.len(), naive.iter().filter(|&&b| b).count());
        let got: Vec<usize> = set.iter().map(RumorId::index).collect();
        let expected: Vec<usize> = (0..naive.len()).filter(|&i| naive[i]).collect();
        assert_eq!(got, expected);
        for (i, &want) in naive.iter().enumerate() {
            assert_eq!(set.contains(RumorId::from(i)), want, "bit {i}");
        }
    }

    #[test]
    fn singleton_and_membership() {
        let s = RumorSet::singleton(10, RumorId(3));
        assert!(s.contains(RumorId(3)));
        assert!(!s.contains(RumorId(4)));
        assert!(!s.contains(RumorId(99)));
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
        assert!(!s.is_full());
    }

    #[test]
    fn insert_reports_novelty() {
        let mut s = RumorSet::empty(5);
        assert!(s.insert(RumorId(2)));
        assert!(!s.insert(RumorId(2)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn full_set_detection() {
        let mut s = RumorSet::empty(3);
        for i in 0..3 {
            s.insert(RumorId(i));
        }
        assert!(s.is_full());
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            vec![RumorId(0), RumorId(1), RumorId(2)]
        );
        // Saturation collapse: a full set holds no pages at all.
        assert_eq!(s.live_pages(), 0);
    }

    #[test]
    fn empty_universe_is_trivially_full() {
        let s = RumorSet::empty(0);
        assert!(s.is_empty());
        assert!(s.is_full());
        assert!(s.iter().next().is_none());
    }

    #[test]
    fn rumor_of_node_matches_index() {
        assert_eq!(RumorId::of_node(NodeId::new(5)), RumorId(5));
        assert_eq!(RumorId::from(9usize).index(), 9);
        assert_eq!(format!("{}", RumorId(4)), "r4");
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn insert_out_of_universe_panics() {
        let mut s = RumorSet::empty(4);
        s.insert(RumorId(4));
    }

    #[test]
    fn iter_walks_pages_in_order() {
        // Rumors spread across multiple pages, including word and page edges.
        let ids = [0usize, 1, 63, 64, 4095, 4096, 8191, 8192, 9000];
        let mut s = RumorSet::empty(9001);
        for &i in &ids {
            s.insert(RumorId::from(i));
        }
        let got: Vec<usize> = s.iter().map(RumorId::index).collect();
        assert_eq!(got, ids);
        assert!(RumorSet::empty(0).iter().next().is_none());
        assert!(RumorSet::empty(100).iter().next().is_none());
        // Pages 0, 1 and 2 hold 5, 2 and 2 ids: three sparse entries, no
        // blocks.  A sixth id on page 0 promotes it to dense.
        assert_eq!(s.live_pages(), 0);
        assert_eq!(s.page_footprint().bytes, 3 * ENTRY_BYTES);
        s.insert(RumorId(100));
        assert_eq!(s.live_pages(), 1);
        assert_eq!(s.page_footprint().bytes, 3 * ENTRY_BYTES + BLOCK_BYTES);
    }

    #[test]
    fn debug_representation_is_nonempty() {
        let s = RumorSet::singleton(4, RumorId(1));
        let repr = format!("{s:?}");
        assert!(repr.contains("RumorSet"));
        assert!(repr.contains('1'));
    }

    /// The maximal runs of the ids `after` holds and `before` does not,
    /// gathered the way merge phase A gathers a destination's batch.
    fn new_runs(before: &RumorSet, after: &RumorSet) -> Vec<RumorRun> {
        let mut acc = NewRumors::default();
        acc.add_difference(after, &[], before);
        let mut out = Vec::new();
        acc.drain_runs(&mut out);
        out
    }

    #[test]
    fn insert_run_matches_individual_inserts() {
        let mut a = RumorSet::empty(200);
        a.insert(RumorId(70));
        a.insert(RumorId(128));
        let before = a.clone();
        let mut b = a.clone();

        assert_eq!(a.insert_run(RumorId(60), 80), 78, "70 and 128 were held");
        for i in 60..140u32 {
            b.insert(RumorId(i));
        }
        assert_eq!(a, b);
        assert_eq!(
            new_runs(&before, &a),
            vec![(RumorId(60), 10), (RumorId(71), 57), (RumorId(129), 11)],
            "maximal runs of the ids that were not already present"
        );

        // Zero-length runs are a no-op.
        assert_eq!(a.insert_run(RumorId(0), 0), 0);
        assert_eq!(a, b);
    }

    #[test]
    fn insert_run_crossing_pages_matches_individual_inserts() {
        let mut a = RumorSet::empty(3 * PAGE_BITS + 100);
        a.insert(RumorId(5000));
        let before = a.clone();
        let mut b = a.clone();
        // Spans pages 0..=3 (the last one partial).
        let added = a.insert_run(RumorId(100), (3 * PAGE_BITS + 100 - 100 - 7) as u32);
        let mut naive = vec![false; 3 * PAGE_BITS + 100];
        naive[5000] = true;
        for (i, slot) in naive
            .iter_mut()
            .enumerate()
            .take(3 * PAGE_BITS + 100 - 7)
            .skip(100)
        {
            *slot = true;
            b.insert(RumorId::from(i));
        }
        assert_eq!(a, b);
        assert_matches_naive(&a, &naive);
        // The new ids are exactly the inserted range minus the old bit.
        let expanded: Vec<usize> = new_runs(&before, &a)
            .iter()
            .flat_map(|&(f, l)| f.index()..f.index() + l as usize)
            .collect();
        let expected: Vec<usize> = (100..3 * PAGE_BITS + 100 - 7)
            .filter(|&i| i != 5000)
            .collect();
        assert_eq!(expanded, expected);
        assert_eq!(added as usize, expected.len());
        // Whole interior pages became sentinel pages, not allocations.
        assert!(a.live_pages() <= 2, "only boundary pages may stay dense");
    }

    #[test]
    fn full_page_runs_do_not_allocate() {
        let mut s = RumorSet::empty(2 * PAGE_BITS);
        assert_eq!(s.insert_run(RumorId(0), PAGE_BITS as u32), PAGE_BITS as u32);
        assert_eq!(s.live_pages(), 0, "a whole-page run is a sentinel page");
        assert_eq!(s.len(), PAGE_BITS);
        s.insert_run(RumorId(PAGE_BITS as u32), PAGE_BITS as u32);
        assert!(s.is_full());
        assert_eq!(s.live_pages(), 0, "full sets collapse to zero pages");
    }

    #[test]
    fn equality_is_canonical_across_construction_orders() {
        // The same contents must compare equal no matter how they were built:
        // bit-by-bit or by run.
        let n = PAGE_BITS + 10;
        let mut by_bits = RumorSet::empty(n);
        for i in 0..n {
            by_bits.insert(RumorId::from(i));
        }
        let mut by_run = RumorSet::empty(n);
        by_run.insert_run(RumorId(0), n as u32);
        assert_eq!(by_bits, by_run);
        assert!(by_bits.is_full());
        assert_eq!(by_bits.live_pages(), 0);

        let mut partial_bits = RumorSet::empty(n);
        for i in 0..PAGE_BITS {
            partial_bits.insert(RumorId::from(i));
        }
        let mut partial_run = RumorSet::empty(n);
        partial_run.insert_run(RumorId(0), PAGE_BITS as u32);
        assert_eq!(partial_bits, partial_run, "full page == sentinel page");
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn insert_run_past_universe_panics() {
        let mut s = RumorSet::empty(10);
        s.insert_run(RumorId(8), 3);
    }

    #[test]
    fn union_words_collects_exactly_the_new_runs() {
        let n = PAGE_BITS + 130;
        let mut dst = RumorSet::singleton(n, RumorId(5));
        let before = dst.clone();
        let mut window = vec![0u64; n.div_ceil(64)];
        set_words_range(&mut window, 0, 2); // 0, 1
        set_words_range(&mut window, 5, 1); // already known
        set_words_range(&mut window, 64, 1); // 64
        set_words_range(&mut window, PAGE_BITS + 129, 1); // second page
        assert_eq!(dst.union_words(0, &window), 4);
        assert_eq!(
            new_runs(&before, &dst),
            vec![
                (RumorId(0), 2),
                (RumorId(64), 1),
                (RumorId(PAGE_BITS as u32 + 129), 1)
            ]
        );
        assert_eq!(dst.len(), 5);
        assert_eq!(dst.union_words(0, &window), 0, "second union adds nothing");
    }

    #[test]
    fn windowed_union_matches_individual_inserts() {
        // A 5-word window straddling the page 0/1 boundary, unioned into a
        // set holding a bit of one page: the other page is absent, so both
        // the fresh-page and the existing-page paths see a window offset.
        let n = 2 * PAGE_BITS + 100;
        let word_lo = PAGE_WORDS - 2;
        let ids = [
            PAGE_BITS - 128,
            PAGE_BITS - 1,
            PAGE_BITS,
            PAGE_BITS + 5,
            PAGE_BITS + 190,
        ];
        let mut window = vec![0u64; 5];
        for &i in &ids {
            window[i / 64 - word_lo] |= 1 << (i % 64);
        }
        for held in [PAGE_BITS - 128, PAGE_BITS + 5] {
            let mut set = RumorSet::singleton(n, RumorId::from(held));
            let before = set.clone();
            let mut naive = set.clone();
            assert_eq!(set.union_words(word_lo, &window), 4);
            for &i in &ids {
                naive.insert(RumorId::from(i));
            }
            assert_eq!(set, naive);
            let expanded: Vec<usize> = new_runs(&before, &set)
                .iter()
                .flat_map(|&(f, l)| f.index()..f.index() + l as usize)
                .collect();
            let expected: Vec<usize> = ids.iter().copied().filter(|&i| i != held).collect();
            assert_eq!(expanded, expected, "new runs, holding {held}");
        }
    }

    #[test]
    fn complement_runs_emit_the_missing_ids_and_fill_the_set() {
        let n = PAGE_BITS + 50;
        let mut s = RumorSet::empty(n);
        s.insert(RumorId(3));
        s.insert_run(RumorId(0), PAGE_BITS as u32); // page 0 full
        s.insert(RumorId(PAGE_BITS as u32 + 10));
        let mut missing = Vec::new();
        s.complement_runs(&mut missing);
        let expanded: Vec<usize> = missing
            .iter()
            .flat_map(|&(f, l)| f.index()..f.index() + l as usize)
            .collect();
        let expected: Vec<usize> = (PAGE_BITS..n).filter(|&i| i != PAGE_BITS + 10).collect();
        assert_eq!(expanded, expected);
        assert_eq!(
            s.insert_delta(Delta::Runs(&missing)) as usize,
            expected.len()
        );
        assert!(s.is_full());
        assert_eq!(s.live_pages(), 0);
        missing.clear();
        s.complement_runs(&mut missing);
        assert!(missing.is_empty(), "a full set misses nothing");
    }

    #[test]
    fn set_words_range_sets_exactly_the_range() {
        let mut words = vec![0u64; 4];
        set_words_range(&mut words, 60, 10); // spans the 0/1 word boundary
        set_words_range(&mut words, 128, 64); // a full word
        set_words_range(&mut words, 0, 0); // no-op
        let mut expected = vec![0u64; 4];
        for i in 60..70 {
            expected[i / 64] |= 1 << (i % 64);
        }
        for i in 128..192 {
            expected[i / 64] |= 1 << (i % 64);
        }
        assert_eq!(words, expected);
    }

    /// A batch of consecutive ids is stored as its maximal runs: one 8-byte
    /// run per stretch, plus the batch's index entry.
    #[test]
    fn log_coalesces_consecutive_ids_into_runs() {
        let mut learned = RumorSet::empty(100);
        for i in [7u32, 8, 9, 10, 3, 4, 42] {
            learned.insert(RumorId(i));
        }
        let batch = new_runs(&RumorSet::empty(100), &learned);
        assert_eq!(
            batch,
            vec![(RumorId(3), 2), (RumorId(7), 4), (RumorId(42), 1)]
        );
        let mut phase = PhaseBatches::default();
        assert!(
            !phase.push(5, &batch),
            "three runs are cheaper than a layer"
        );
        let held = phase.footprint();
        assert_eq!((held.batches, held.runs, held.layers), (1, 3, 0));
        assert_eq!(held.bytes, INDEX_BYTES + 3 * RUN_BYTES);
        assert_eq!(phase.get(5), Some(Delta::Runs(&batch)));
        assert_eq!(phase.get(4), None);
        assert!(!phase.push(6, &[]), "an empty batch is not stored");
        assert_eq!(phase.footprint(), held);
    }

    #[test]
    fn log_stores_fragmented_batches_as_dense_layers() {
        // Every third id of 0..300: 100 one-id runs (800 bytes) against a
        // 5-word window (40 bytes) plus the layer's header.
        let fragmented: Vec<RumorRun> = (0..300).step_by(3).map(|i| (RumorId(i), 1)).collect();
        let compact = [(RumorId(400), 64)];
        let mut phase = PhaseBatches::default();
        assert!(!phase.push(1, &compact), "one run is cheaper than a layer");
        assert!(phase.push(2, &fragmented));
        assert!(!phase.push(9, &compact));
        let held = phase.footprint();
        assert_eq!((held.batches, held.runs, held.layers), (3, 2, 1));
        assert_eq!(held.bytes, 3 * INDEX_BYTES + 2 * RUN_BYTES + layer_bytes(5));
        // The layer reads back as the set of its ids; the batches around it
        // as their runs.
        let Some(Delta::Words(word_lo, words)) = phase.get(2) else {
            panic!("node 2's batch is a layer");
        };
        let mut set = RumorSet::empty(500);
        assert_eq!(set.union_words(word_lo, words), 100);
        let ids: Vec<u32> = set.iter().map(|r| r.0).collect();
        assert_eq!(ids, (0..300).step_by(3).collect::<Vec<u32>>());
        let all: Vec<(u32, Delta<'_>)> = phase.iter().collect();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0], (1, Delta::Runs(&compact)));
        assert_eq!(all[1], (2, Delta::Words(word_lo, words)));
        assert_eq!(all[2], (9, Delta::Runs(&compact)));
        // The break-even point inside one word: four runs cost what the
        // layer's header and word cost, five cost more.
        let runs = |k: u32| (0..k).map(|i| (RumorId(2 * i), 1)).collect::<Vec<_>>();
        assert_eq!(layer_bytes(1), 4 * RUN_BYTES);
        assert!(!PhaseBatches::default().push(0, &runs(4)));
        assert!(PhaseBatches::default().push(0, &runs(5)));
    }

    /// `deltas_since` yields a node's batches of exactly the rounds after
    /// the given one, newest first, for every starting round.
    #[test]
    fn log_segments_cover_arbitrary_ranges() {
        let mut window = DeltaWindow::default();
        for (round, first) in [(2u64, 10u32), (3, 50), (5, 90)] {
            let mut phase = PhaseBatches::default();
            phase.push(0, &[(RumorId(first), 3)]);
            phase.push(1, &[(RumorId(first + 100), 1)]);
            window.push(round, phase);
        }
        // An empty phase is not stored.
        window.push(6, PhaseBatches::default());
        let firsts = |node: u32, since: u64| -> Vec<u32> {
            window
                .deltas_since(node, since)
                .map(|d| match d {
                    Delta::Runs(runs) => runs[0].0 .0,
                    Delta::Words(..) => panic!("single runs stay runs"),
                })
                .collect()
        };
        assert_eq!(firsts(0, 0), vec![90, 50, 10]);
        assert_eq!(firsts(0, 2), vec![90, 50]);
        assert_eq!(firsts(0, 4), vec![90]);
        assert_eq!(firsts(1, 3), vec![190]);
        assert_eq!(firsts(0, 5), Vec::<u32>::new());
        assert_eq!(firsts(7, 0), Vec::<u32>::new(), "a node with no batch");
    }

    /// A batch gathered from a nearly full set compresses to the runs
    /// between its holes.
    #[test]
    fn log_from_set_compresses_dense_sets() {
        let mut set = RumorSet::empty(1000);
        for i in (0..1000).filter(|&i| i != 500) {
            set.insert(RumorId(i));
        }
        let batch = new_runs(&RumorSet::empty(1000), &set);
        assert_eq!(batch, vec![(RumorId(0), 500), (RumorId(501), 499)]);
        let mut phase = PhaseBatches::default();
        assert!(!phase.push(0, &batch));
        assert_eq!(phase.footprint().bytes, INDEX_BYTES + 2 * RUN_BYTES);
    }

    /// Aging out every round frees everything the window held; rounds
    /// stored afterwards are read at their absolute round numbers.
    #[test]
    fn log_truncate_all_frees_everything_and_keeps_positions() {
        let mut window = DeltaWindow::default();
        let mut held = BatchFootprint::default();
        for round in 1..=3u64 {
            let mut phase = PhaseBatches::default();
            let batch: Vec<RumorRun> = (0..100).map(|i| (RumorId(2 * i), 1)).collect();
            phase.push(round as u32, &batch);
            held += phase.footprint();
            window.push(round, phase);
        }
        assert_eq!(window.age_out(u64::MAX), held);
        assert_eq!(window.age_out(u64::MAX), BatchFootprint::default());
        let mut phase = PhaseBatches::default();
        phase.push(7, &[(RumorId(500), 3)]);
        window.push(40, phase);
        assert_eq!(window.deltas_since(7, 39).count(), 1);
        assert_eq!(window.deltas_since(7, 40).count(), 0);
        assert_eq!(window.age_out(39), BatchFootprint::default());
    }

    /// Aging out drops whole rounds — their index entries, runs and layers —
    /// and returns exactly what they held; the rounds kept stay addressed by
    /// their absolute round numbers.
    #[test]
    fn log_truncation_reclaims_whole_runs_and_keeps_positions_absolute() {
        let fragmented: Vec<RumorRun> = (0..300).step_by(3).map(|i| (RumorId(i), 1)).collect();
        let mut window = DeltaWindow::default();
        let mut pushed = Vec::new();
        for round in 1..=4u64 {
            let mut phase = PhaseBatches::default();
            phase.push(0, &[(RumorId(round as u32 * 1000), 2)]);
            if round == 2 {
                phase.push(3, &fragmented);
            }
            pushed.push(phase.footprint());
            window.push(round, phase);
        }
        assert_eq!(window.age_out(0), BatchFootprint::default());
        let freed = window.age_out(2);
        let mut want = pushed[0];
        want += pushed[1];
        assert_eq!(freed, want);
        assert_eq!((freed.batches, freed.runs, freed.layers), (3, 2, 1));
        assert_eq!(
            window.deltas_since(0, 0).count(),
            2,
            "rounds 3 and 4 remain"
        );
        assert_eq!(window.deltas_since(3, 0).count(), 0);
        assert_eq!(
            window.deltas_since(0, 3).collect::<Vec<_>>(),
            vec![Delta::Runs(&[(RumorId(4000), 2)])]
        );
        let mut rest = pushed[2];
        rest += pushed[3];
        assert_eq!(window.age_out(u64::MAX), rest);
        assert_eq!(window.deltas_since(0, 0).count(), 0);
    }

    /// A destination's batch is the union of what its tasks add, whatever
    /// their order or overlap: the accumulator dedups across tasks, and its
    /// runs are maximal even where tasks split a stretch of ids.  Each task
    /// subtracts its own source's deltas.
    #[test]
    fn coalescing_a_destinations_tasks_changes_no_batch() {
        let n = PAGE_BITS + 200;
        let far = PAGE_BITS as u32 + 7;
        let dst = RumorSet::singleton(n, RumorId(12));
        let mut a = RumorSet::empty(n);
        a.insert_run(RumorId(10), 5); // 10..15; dst holds 12
        a.insert(RumorId(far));
        let mut b = RumorSet::empty(n);
        b.insert_run(RumorId(14), 6); // 14..20: overlaps a's run and extends it
        b.insert(RumorId(far));
        let batch = |tasks: &[(&RumorSet, &[Delta<'_>])]| {
            let mut acc = NewRumors::default();
            for &(src, minus) in tasks {
                acc.add_difference(src, minus, &dst);
            }
            let mut out = Vec::new();
            acc.drain_runs(&mut out);
            out
        };
        let want = vec![(RumorId(10), 2), (RumorId(13), 7), (RumorId(far), 1)];
        assert_eq!(batch(&[(&a, &[]), (&b, &[])]), want);
        assert_eq!(batch(&[(&b, &[]), (&a, &[]), (&b, &[])]), want);
        // A snapshot of `b` from before it learned 14..17 adds only 17..20;
        // `a` still adds 14.
        let since = [Delta::Runs(&[(RumorId(14), 3)])];
        assert_eq!(
            batch(&[(&b, &since), (&a, &[])]),
            vec![
                (RumorId(10), 2),
                (RumorId(13), 2),
                (RumorId(17), 3),
                (RumorId(far), 1)
            ]
        );
        // Draining leaves the accumulator empty for the next destination.
        let mut acc = NewRumors::default();
        acc.add_difference(&a, &[], &dst);
        acc.drain_runs(&mut Vec::new());
        let mut out = Vec::new();
        acc.drain_runs(&mut out);
        assert!(out.is_empty());
        // A full destination learns nothing; a full source adds the rest.
        let mut full = RumorSet::empty(n);
        full.insert_run(RumorId(0), n as u32);
        acc.add_difference(&a, &[], &full);
        acc.drain_runs(&mut out);
        assert!(out.is_empty());
        acc.add_difference(&full, &[], &dst);
        acc.drain_runs(&mut out);
        let mut missing = Vec::new();
        dst.complement_runs(&mut missing);
        assert_eq!(out, missing);
    }

    /// A random set of ids not yet `used` (a node learns each rumor once):
    /// sparse runs, or a fragmented window (possibly crossing the first
    /// page boundary).
    fn random_batch(rng: &mut SmallRng, used: &mut [bool]) -> BTreeSet<usize> {
        let universe = used.len();
        let mut ids = BTreeSet::new();
        let kind = rng.gen_range(0..3u32);
        if kind == 0 {
            for _ in 0..rng.gen_range(1..4u32) {
                let a = rng.gen_range(0..universe);
                ids.extend(a..(a + rng.gen_range(1..20usize)).min(universe));
            }
        } else {
            let w = rng.gen_range(64..1024usize).min(universe);
            let a = if kind == 2 && universe > PAGE_BITS + w {
                PAGE_BITS - w / 2
            } else {
                rng.gen_range(0..=universe - w)
            };
            ids.extend((a..a + w).filter(|_| rng.gen_bool(0.3)));
        }
        ids.retain(|&i| !used[i]);
        for &i in &ids {
            used[i] = true;
        }
        ids
    }

    /// The maximal runs of the ascending ids `ids`.
    fn runs_of(ids: impl IntoIterator<Item = usize>) -> Vec<RumorRun> {
        let mut runs = Vec::new();
        for i in ids {
            push_new_run(&mut runs, i, 1);
        }
        runs
    }

    /// A set's page cost recounted from its contents alone: every page that
    /// is neither empty nor full costs an entry, and a block past
    /// `SPARSE_MAX` ids; a saturated set costs nothing.
    fn recount(model: &[bool]) -> PageFootprint {
        let mut cost = PageFootprint::default();
        if model.iter().all(|&b| b) {
            return cost;
        }
        for page in model.chunks(PAGE_BITS) {
            let ones = page.iter().filter(|&&b| b).count();
            if ones > 0 && ones < page.len() {
                cost.bytes += ENTRY_BYTES;
                if ones > SPARSE_MAX {
                    cost.dense += 1;
                    cost.bytes += BLOCK_BYTES;
                }
            }
        }
        cost
    }

    /// One round of the window model: per node, the ids it learned.
    struct ModelRound {
        round: u64,
        ids: Vec<BTreeSet<u32>>,
        held: BatchFootprint,
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The delta window against a naive list of per-round batches: no
        /// batch costs more than its runs, a batch is a layer exactly when
        /// that is cheaper, aging out returns what the aged rounds held,
        /// `deltas_since` yields exactly the batches of the later rounds,
        /// and a node's current set minus them is its set as of that round.
        #[test]
        fn layered_log_matches_naive_batches(seed in 0u64..1 << 32, universe in 1usize..9000) {
            const NODES: usize = 4;
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut used = vec![vec![false; universe]; NODES];
            let mut sets = vec![RumorSet::empty(universe); NODES];
            let mut model: Vec<ModelRound> = Vec::new();
            let mut window = DeltaWindow::default();
            let mut floor = 0u64;
            for round in 1..rng.gen_range(2..24u64) {
                let mut phase = PhaseBatches::default();
                let mut ids = vec![BTreeSet::new(); NODES];
                for node in 0..NODES {
                    if rng.gen_bool(0.3) {
                        continue;
                    }
                    let learned = random_batch(&mut rng, &mut used[node]);
                    let batch = runs_of(learned.iter().copied());
                    let as_runs = INDEX_BYTES + RUN_BYTES * batch.len() as u64;
                    let before = phase.footprint().bytes;
                    let layer = phase.push(node as u32, &batch);
                    let added = phase.footprint().bytes - before;
                    prop_assert!(batch.is_empty() || added <= as_runs, "dearer than runs");
                    prop_assert_eq!(layer, !batch.is_empty() && added < as_runs);
                    for &(first, len) in &batch {
                        sets[node].insert_run(first, len);
                    }
                    ids[node] = learned.iter().map(|&i| i as u32).collect();
                }
                let held = phase.footprint();
                window.push(round, phase);
                model.push(ModelRound { round, ids, held });
                if rng.gen_bool(0.3) {
                    let to = rng.gen_range(floor..=round);
                    let mut want = BatchFootprint::default();
                    for m in model.iter().filter(|m| m.round > floor && m.round <= to) {
                        want += m.held;
                    }
                    prop_assert_eq!(window.age_out(to), want);
                    floor = to;
                }
                for (node, set) in sets.iter().enumerate() {
                    for since in floor..=round {
                        let deltas: Vec<Delta<'_>> = window.deltas_since(node as u32, since).collect();
                        let mut later = RumorSet::empty(universe);
                        for &delta in &deltas {
                            later.insert_delta(delta);
                        }
                        let ids_of = |keep: &dyn Fn(u64) -> bool| -> BTreeSet<u32> {
                            model
                                .iter()
                                .filter(|m| keep(m.round))
                                .flat_map(|m| m.ids[node].iter().copied())
                                .collect()
                        };
                        let want_later = ids_of(&|r| r > since);
                        prop_assert_eq!(later.iter().map(|r| r.0).collect::<BTreeSet<u32>>(), want_later);
                        let mut acc = NewRumors::default();
                        acc.add_difference(set, &deltas, &RumorSet::empty(universe));
                        let mut snapshot = Vec::new();
                        acc.drain_runs(&mut snapshot);
                        let want_snapshot = ids_of(&|r| r <= since);
                        prop_assert_eq!(snapshot, runs_of(want_snapshot.iter().map(|&i| i as usize)));
                    }
                }
            }
        }

        /// `RumorSet` against a `Vec<bool>` model over random sequences of
        /// `insert`, `insert_run`, windowed `union_words` and complement
        /// fills, biased towards the few-id pages that stay sparse and
        /// towards short last pages (capacity <= `SPARSE_MAX`), which go
        /// straight from sparse to full.  After every step the contents,
        /// `len`, the reported count of new ids, the new runs phase A would
        /// gather and the page cost match; at the end, two other
        /// construction orders compare `==`, and `is_subset` holds exactly
        /// when a step added nothing.
        #[test]
        fn rumor_set_matches_bool_model(seed in 0u64..1 << 32, universe in 1usize..9000) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let universe = if rng.gen_bool(0.3) {
                universe / PAGE_BITS * PAGE_BITS + rng.gen_range(1..=SPARSE_MAX)
            } else {
                universe
            };
            let words = universe.div_ceil(64);
            let mut set = RumorSet::empty(universe);
            let mut model = vec![false; universe];
            for _ in 0..rng.gen_range(1..60u32) {
                let before = model.clone();
                let before_set = set.clone();
                let added = match rng.gen_range(0..16u32) {
                    0..=5 => {
                        let i = rng.gen_range(0..universe);
                        model[i] = true;
                        u32::from(set.insert(RumorId::from(i)))
                    }
                    6..=9 => {
                        let first = rng.gen_range(0..universe);
                        let max: usize = if rng.gen_bool(0.8) { 4 } else { 5000 };
                        let len = rng.gen_range(1..=max).min(universe - first);
                        model[first..first + len].fill(true);
                        set.insert_run(RumorId::from(first), len as u32)
                    }
                    10..=14 => {
                        let word_lo = rng.gen_range(0..words);
                        let span = if rng.gen_bool(0.8) { 3 } else { words };
                        let len = rng.gen_range(1..=span.min(words - word_lo));
                        let density = [0.002, 0.02, 0.3, 1.0][rng.gen_range(0..4usize)];
                        let mut window = vec![0u64; len];
                        for k in 0..len * 64 {
                            let i = word_lo * 64 + k;
                            if i < universe && rng.gen_bool(density) {
                                window[k / 64] |= 1 << (k % 64);
                                model[i] = true;
                            }
                        }
                        set.union_words(word_lo, &window)
                    }
                    _ if rng.gen_bool(0.3) => {
                        let mut missing = Vec::new();
                        set.complement_runs(&mut missing);
                        prop_assert_eq!(&missing, &runs_of((0..universe).filter(|&i| !model[i])));
                        model.fill(true);
                        set.insert_delta(Delta::Runs(&missing))
                    }
                    _ => 0,
                };
                let fresh: Vec<usize> = (0..universe).filter(|&i| model[i] && !before[i]).collect();
                prop_assert_eq!(added as usize, fresh.len());
                prop_assert!(before_set.is_subset(&set));
                prop_assert_eq!(set.is_subset(&before_set), fresh.is_empty());
                prop_assert_eq!(new_runs(&before_set, &set), runs_of(fresh));
                let ids: Vec<usize> = (0..universe).filter(|&i| model[i]).collect();
                prop_assert_eq!(set.len(), ids.len());
                prop_assert_eq!(set.iter().map(RumorId::index).collect::<Vec<_>>(), ids);
                let cost = recount(&model);
                prop_assert_eq!(set.page_footprint(), cost);
                prop_assert_eq!(set.live_pages() as u64, cost.dense);
            }
            assert_matches_naive(&set, &model);
            let mut backwards = RumorSet::empty(universe);
            for i in (0..universe).rev().filter(|&i| model[i]) {
                backwards.insert(RumorId::from(i));
            }
            prop_assert_eq!(&backwards, &set);
            let mut bitset = vec![0u64; words];
            for i in (0..universe).filter(|&i| model[i]) {
                set_words_range(&mut bitset, i, 1);
            }
            let mut at_once = RumorSet::empty(universe);
            at_once.union_words(0, &bitset);
            prop_assert_eq!(&at_once, &set);
        }
    }
}
