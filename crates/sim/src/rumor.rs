//! Rumors, paged per-node rumor sets, and compressed acquisition logs.
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
        self.union_run(rumor.index(), 1, |_, _| {}) == 1
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

    /// Inserts the `len` consecutive rumors `first, …, first+len-1`, pushing
    /// every *maximal run* of rumors that was not already present onto
    /// `out_new` in increasing id order.
    ///
    /// This is the word-level workhorse of the engine's interval-log merge:
    /// one run of consecutive rumor ids is unioned in `O(len/64 + new runs)`
    /// time, and a run covering a whole absent page materialises the full
    /// sentinel directly — no allocation, which is how a saturating merge
    /// fills a 131072-rumor set with 32 page flips.
    ///
    /// # Panics
    ///
    /// Panics if the run extends past the universe.
    pub(crate) fn insert_run(&mut self, first: RumorId, len: u32, out_new: &mut Vec<RumorRun>) {
        self.union_run(first.index(), len, |first, len| {
            push_new_run(out_new, first, len);
        });
    }

    /// Inserts the rumors `lo..lo+len`, calls `on_new(first, len)` for every
    /// maximal run of them that was not already present, in increasing id
    /// order, and returns how many were new.  Shared by
    /// [`insert`](Self::insert) and [`insert_run`](Self::insert_run).
    // gossip-lint: allow(panic-path): run bounds are asserted against the universe on entry
    fn union_run(&mut self, lo: usize, len: u32, mut on_new: impl FnMut(usize, u32)) -> u32 {
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
                    on_new(page_start, cap);
                    cap
                }
                _ => self.union_page(page, slot, word_masks(a, b - a), &mut on_new),
            };
        }
        self.collapse_if_full();
        added
    }

    /// Unions the in-page word masks `masks` (`(word, bits)`, ascending
    /// words) into page `page`, whose directory search gave `slot`; calls
    /// `on_new(first, len)` for every maximal run of newly set bits, in
    /// increasing id order, and returns how many there were.  The page ends
    /// in its canonical state: promotion from sparse to dense or full
    /// happens here, in the union that crosses the threshold.  Adds the new
    /// bits to `len` but leaves the saturation collapse to the caller, which
    /// may still be walking later pages.
    // gossip-lint: allow(panic-path): p is the page's search or insertion slot, mask words are < PAGE_WORDS, and sparse offsets are < capacity
    fn union_page<I>(
        &mut self,
        page: u32,
        slot: Result<usize, usize>,
        masks: I,
        mut on_new: impl FnMut(usize, u32),
    ) -> u32
    where
        I: Iterator<Item = (usize, u64)> + Clone,
    {
        let page_start = page as usize * PAGE_BITS;
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
                    word_runs(page_start + w * 64, new, &mut on_new);
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
                    word_runs(page_start + w * 64, new, &mut on_new);
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

    /// Unions a raw dense word window into the set: `words[k]` holds
    /// universe bits `(word_lo + k)·64 ..`, so a whole-universe bitset (the
    /// engine's delayed shadows) is the window at `word_lo = 0` and a dense
    /// log layer is the window it spans.  Pushes every maximal run of newly
    /// inserted rumors onto `out_new` in increasing id order.
    // gossip-lint: allow(panic-path): the window's page slices are bounded by the window itself
    pub(crate) fn union_words_collect_new_runs(
        &mut self,
        word_lo: usize,
        words: &[u64],
        out_new: &mut Vec<RumorRun>,
    ) {
        let word_hi = word_lo + words.len();
        debug_assert!(word_hi <= self.word_count(), "window past the universe");
        if self.len == self.universe || words.is_empty() {
            return;
        }
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
            self.union_page(page, slot, masks, |first, len| {
                push_new_run(out_new, first, len);
            });
        }
        self.collapse_if_full();
    }

    /// Fills the set to the full universe, pushing every maximal run of
    /// newly inserted rumors onto `out_new` in increasing id order, and
    /// collapses to the canonical (page-free) full representation.
    ///
    /// This is the engine's `O(pages)` "peer is saturated" merge: unioning a
    /// saturation-collapsed peer needs no shadow words and no log replay —
    /// the complement of what `self` already knows *is* the delta.
    pub(crate) fn insert_all(&mut self, out_new: &mut Vec<RumorRun>) {
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
                            push_new_run(out_new, first, len);
                        });
                    }
                }
                None => push_new_run(out_new, page_start, cap),
            }
        }
        self.pages = Vec::new();
        self.len = self.universe;
    }

    /// Number of 64-bit words a dense shadow bitset over this universe needs.
    pub(crate) fn word_count(&self) -> usize {
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

/// Sets the bits `lo..lo+len` in a raw bitset word slice (the engine uses
/// this to replay consecutive log runs into a delayed shadow, and the log to
/// build a dense layer).
// gossip-lint: allow(panic-path): callers pass lo..lo+len ranges within the word slice
pub(crate) fn set_words_range(words: &mut [u64], lo: usize, len: usize) {
    for (w, mask) in word_masks(lo, len) {
        words[w] |= mask;
    }
}

/// ORs the word window `words` (word `k` holds universe bits
/// `(word_lo + k)·64 ..`) into the whole-universe bitset `dst` — how a dense
/// log layer is replayed into a delayed shadow.
pub(crate) fn or_words(dst: &mut [u64], word_lo: usize, words: &[u64]) {
    for (d, &w) in dst.iter_mut().skip(word_lo).zip(words) {
        *d |= w;
    }
}

/// Every maximal run of set bits in the word window `words` (word `k` holds
/// universe bits `(word_lo + k)·64 ..`), in increasing id order.
fn window_runs(word_lo: usize, words: &[u64]) -> Vec<RumorRun> {
    let mut runs = Vec::new();
    for (k, &bits) in words.iter().enumerate() {
        word_runs((word_lo + k) * 64, bits, |first, len| {
            push_new_run(&mut runs, first, len);
        });
    }
    runs
}

/// One entry of an [`AcquisitionLog`]'s index: the entries at positions
/// `start .. next entry's start` hold the consecutive rumor ids
/// `first, first + 1, …` — or, when `first` is [`LAYER_MARK`], they are the
/// log's next dense [`Layer`].  The length is implicit in the neighbor entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    /// Absolute log position of the run's first entry.
    start: u32,
    /// Rumor id of the run's first entry, or [`LAYER_MARK`].
    first: u32,
}

/// The [`Run::first`] of an index entry that opens a dense layer.  No run
/// starts at this id: a log holds one position per rumor of its universe and
/// positions are `u32`s, so every rumor id is below `u32::MAX`.
const LAYER_MARK: u32 = u32::MAX;

/// Bytes of one index entry: an interval run, or a dense layer's marker.
const RUN_BYTES: u64 = std::mem::size_of::<Run>() as u64;

/// A dense layer of an [`AcquisitionLog`]: one append batch stored as a
/// bitset over the word window its ids span.  Its entries form a set; its
/// positions hold them in increasing id order.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Layer {
    /// Absolute log position of the layer's first entry (its marker's `start`).
    start: u32,
    /// Universe word index of `words[0]`.
    word_lo: u32,
    words: Box<[u64]>,
}

/// Bytes a dense layer holds besides its index marker: header and window.
fn layer_bytes(words: usize) -> u64 {
    (std::mem::size_of::<Layer>() + 8 * words) as u64
}

/// One batch of acquisitions in the form an [`AcquisitionLog`] stores it
/// ([`AcquisitionLog::encode_batch`]).
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum EncodedBatch<'a> {
    /// As interval runs, appended as [`AcquisitionLog::push_run`] would.
    Runs(&'a [RumorRun]),
    /// As one dense layer.
    Layer(DenseBatch),
}

/// A batch encoded as a dense layer, not yet appended: the bitset over the
/// word window its ids span, and how many ids it holds.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct DenseBatch {
    word_lo: u32,
    words: Box<[u64]>,
    len: u32,
}

/// Storage an [`AcquisitionLog`] holds, gains or releases.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct LogFootprint {
    /// Interval runs.
    pub(crate) runs: u64,
    /// Dense layers.
    pub(crate) layers: u64,
    /// Bytes: 8 per interval run, plus marker, header and window per layer.
    pub(crate) bytes: u64,
}

impl std::ops::AddAssign for LogFootprint {
    fn add_assign(&mut self, other: LogFootprint) {
        self.runs += other.runs;
        self.layers += other.layers;
        self.bytes += other.bytes;
    }
}

/// One piece of an [`AcquisitionLog`] read
/// ([`for_each_chunk`](AcquisitionLog::for_each_chunk)).
#[derive(Debug, Clone, Copy)]
pub(crate) enum LogChunk<'a> {
    /// The consecutive rumor ids `first, first + 1, …` (`first`, length).
    Run(RumorId, u32),
    /// A whole dense layer: the set bits of a word window whose word `k`
    /// holds universe bits `(word_lo + k)·64 ..` (`word_lo`, window).
    Words(usize, &'a [u64]),
}

/// A compressed, truncatable acquisition log.
///
/// Conceptually this is an append-only sequence of [`RumorId`]s — the rumors
/// a node learned, batch by batch — addressed by *absolute position*.  Three
/// things make it cheap at scale:
///
/// * **Interval runs.**  Maximal stretches of *consecutive* rumor ids are
///   stored as a single 8-byte run.  Acquisition orders in dissemination
///   workloads are bursty (a merge copies its peer's runs, so runs propagate
///   and grow), and on structured families — star hubs relaying
///   `leaf 1, leaf 2, …`, clique all-to-all — whole logs collapse to a
///   handful of runs.
/// * **Dense layers.**  `append` stores a whole batch (in the engine:
///   everything a node learned in one delivery phase).  A batch that would
///   fragment into many runs over a narrow id window — the expander
///   all-to-all endgame, where a node learns half the universe in scattered
///   ids — is stored instead as one bitset over the words it spans plus a
///   small header, whichever is cheaper.  Order inside a batch is
///   unobservable to the engine, so a layer keeps its batch as a set: its
///   positions hold its ids in increasing order, and a read at batch
///   boundaries gets the whole window at once.
/// * **Prefix truncation.**  `truncate_below` drops runs and layers that lie
///   entirely below a position; reads below the truncation frontier are a
///   contract violation (the engine serves them from a delayed bitset shadow
///   instead).  Positions stay absolute across truncation, so snapshots and
///   watermarks taken earlier remain valid.  `truncate_all` is the
///   saturation-collapse variant: it drops *everything* and releases the
///   log's storage outright.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct AcquisitionLog {
    /// The index: interval runs and layer markers, in position order.
    runs: Vec<Run>,
    /// The dense layers of the retained markers, in position order.
    layers: Vec<Layer>,
    /// Index into `runs` of the first retained entry (earlier entries are
    /// dropped lazily and compacted away once they dominate the vector).
    /// A `u32`, so that it shares one word with `len` (one log per node).
    head: u32,
    /// Total number of entries ever appended (`==` the owning node's rumor count).
    len: u32,
}

/// End position of entry `i` of the index slice `live` in a log of `len`
/// entries: the next entry's start.
fn entry_end(live: &[Run], i: usize, len: u32) -> u32 {
    live.get(i + 1).map_or(len, |r| r.start)
}

impl AcquisitionLog {
    /// Creates an empty log.
    pub(crate) fn new() -> Self {
        AcquisitionLog {
            runs: Vec::new(),
            layers: Vec::new(),
            head: 0,
            len: 0,
        }
    }

    /// Creates a log seeded with the rumors of `set` in increasing id order
    /// (the canonical initial-state order; consecutive ids coalesce into runs).
    pub(crate) fn from_set(set: &RumorSet) -> Self {
        let mut log = AcquisitionLog::new();
        for rumor in set.iter() {
            log.push(rumor);
        }
        log
    }

    /// Total number of entries ever appended (including truncated ones).
    #[allow(clippy::len_without_is_empty)]
    pub(crate) fn len(&self) -> u32 {
        self.len
    }

    /// The retained index entries.
    fn live(&self) -> &[Run] {
        self.runs.get(self.head as usize..).unwrap_or_default()
    }

    /// Absolute position of the first retained entry (`len()` when nothing
    /// is retained): reads below this position panic in debug builds.
    pub(crate) fn front(&self) -> u32 {
        self.live().first().map_or(self.len, |r| r.start)
    }

    /// The storage currently retained — the log's live memory.
    pub(crate) fn footprint(&self) -> LogFootprint {
        let entries = self.live().len() as u64;
        let layers = self.layers.len() as u64;
        LogFootprint {
            runs: entries - layers,
            layers,
            bytes: RUN_BYTES * entries
                + self
                    .layers
                    .iter()
                    .map(|l| layer_bytes(l.words.len()))
                    .sum::<u64>(),
        }
    }

    /// The rumor id that would extend the last retained entry, if it is an
    /// interval run.
    fn run_tail(&self) -> Option<u64> {
        let last = self.live().last()?;
        (last.first != LAYER_MARK).then(|| u64::from(last.first) + u64::from(self.len - last.start))
    }

    /// Appends one entry.  Returns `true` if the entry started a new run
    /// (`false` when it extended the last run — extensions are free, the run
    /// length is implicit).
    pub(crate) fn push(&mut self, rumor: RumorId) -> bool {
        self.push_run(rumor, 1)
    }

    /// Appends `len` consecutive entries `first, first+1, …` as one batch.
    /// Returns `true` if the batch started a new run (`false` when it
    /// extended the last run).  `len == 0` is a no-op returning `false`.
    pub(crate) fn push_run(&mut self, first: RumorId, len: u32) -> bool {
        if len == 0 {
            return false;
        }
        let starts = self.run_tail() != Some(u64::from(first.0));
        if starts {
            self.runs.push(Run {
                start: self.len,
                first: first.0,
            });
        }
        self.len += len;
        starts
    }

    /// Chooses how this log would store one batch of acquisitions, given as
    /// runs of distinct rumor ids, without changing the log: as the interval
    /// runs [`push_run`](Self::push_run) would create, or as one dense layer
    /// over the word window `[min/64, max/64]` it spans when that costs less
    /// by more than one run — the margin pays for the run the next batch can
    /// no longer extend across the layer, so no batch ever costs more than
    /// as runs.  [`append`](Self::append) stores the result.
    ///
    /// Splitting a run of the batch into id-adjacent pieces, or coalescing
    /// such pieces, changes neither the choice nor the stored log.
    pub(crate) fn encode_batch<'a>(&self, batch: &'a [RumorRun]) -> EncodedBatch<'a> {
        let mut tail = self.run_tail();
        let (mut runs, mut lo, mut hi, mut len) = (0u64, usize::MAX, 0usize, 0u32);
        for &(first, n) in batch.iter().filter(|&&(_, n)| n > 0) {
            if tail != Some(u64::from(first.0)) {
                runs += 1;
            }
            tail = Some(u64::from(first.0) + u64::from(n));
            lo = lo.min(first.index());
            hi = hi.max(first.index() + n as usize);
            len += n;
        }
        if len == 0 {
            return EncodedBatch::Runs(batch);
        }
        let word_lo = lo / 64;
        let words = (hi - 1) / 64 + 1 - word_lo;
        let layer_cost = RUN_BYTES + layer_bytes(words);
        if layer_cost + RUN_BYTES >= RUN_BYTES * runs {
            return EncodedBatch::Runs(batch);
        }
        let mut bits = vec![0u64; words].into_boxed_slice();
        for &(first, n) in batch {
            set_words_range(&mut bits, first.index() - word_lo * 64, n as usize);
        }
        debug_assert_eq!(
            bits.iter().map(|w| w.count_ones()).sum::<u32>(),
            len,
            "a batch holds distinct ids"
        );
        EncodedBatch::Layer(DenseBatch {
            word_lo: word_lo as u32,
            words: bits,
            len,
        })
    }

    /// Appends one encoded batch ([`encode_batch`](Self::encode_batch)) and
    /// returns the storage it added.
    pub(crate) fn append(&mut self, batch: EncodedBatch<'_>) -> LogFootprint {
        match batch {
            EncodedBatch::Runs(runs) => {
                let mut started = 0u64;
                for &(first, n) in runs {
                    started += u64::from(self.push_run(first, n));
                }
                LogFootprint {
                    runs: started,
                    layers: 0,
                    bytes: RUN_BYTES * started,
                }
            }
            EncodedBatch::Layer(DenseBatch {
                word_lo,
                words,
                len,
            }) => {
                let bytes = RUN_BYTES + layer_bytes(words.len());
                self.runs.push(Run {
                    start: self.len,
                    first: LAYER_MARK,
                });
                self.layers.push(Layer {
                    start: self.len,
                    word_lo,
                    words,
                });
                self.len += len;
                LogFootprint {
                    runs: 0,
                    layers: 1,
                    bytes,
                }
            }
        }
    }

    /// Bytes of the retained runs and layers that lie entirely below `pos`
    /// — exactly what [`truncate_below`](Self::truncate_below) would reclaim.
    pub(crate) fn bytes_entirely_below(&self, pos: u32) -> u64 {
        let live = self.live();
        let mut k = live.partition_point(|r| r.start < pos);
        // The k-th entry (index k-1) starts below `pos` but may extend past it.
        if k > 0 && entry_end(live, k - 1, self.len) > pos {
            k -= 1;
        }
        // The layers among those k entries are the ones starting before the next.
        let cut = live.get(k).map_or(u32::MAX, |r| r.start);
        let layers = self.layers.iter().take_while(|l| l.start < cut);
        RUN_BYTES * k as u64 + layers.map(|l| layer_bytes(l.words.len())).sum::<u64>()
    }

    /// Drops every run and layer lying entirely below `pos` and returns the
    /// storage reclaimed.  An entry straddling `pos` is kept whole, so
    /// positions `>= pos` always stay readable.
    pub(crate) fn truncate_below(&mut self, pos: u32) -> LogFootprint {
        let live = self.live();
        let dropped = (0..live.len())
            .take_while(|&i| entry_end(live, i, self.len) <= pos)
            .count();
        let layers = live
            .iter()
            .take(dropped)
            .filter(|r| r.first == LAYER_MARK)
            .count();
        let freed = LogFootprint {
            runs: (dropped - layers) as u64,
            layers: layers as u64,
            bytes: RUN_BYTES * dropped as u64
                + self
                    .layers
                    .drain(..layers)
                    .map(|l| layer_bytes(l.words.len()))
                    .sum::<u64>(),
        };
        self.head += dropped as u32;
        // Compact once dropped entries dominate, and release oversized
        // capacity so truncation frees real memory, not just indices.
        let head = self.head as usize;
        if head > 32 && head * 2 >= self.runs.len() {
            self.runs.drain(..head);
            self.head = 0;
            if self.runs.capacity() > 4 * self.runs.len().max(8) {
                self.runs.shrink_to(2 * self.runs.len().max(8));
            }
        }
        freed
    }

    /// Drops every retained run and layer and releases the log's storage,
    /// returning what was reclaimed.  The saturation-collapse path: once a
    /// node's rumor set is full and every possibly-outstanding snapshot of it
    /// covers the whole universe, the log's history can never be read again.
    /// Positions stay absolute — appends after collapse continue at `len()`.
    pub(crate) fn truncate_all(&mut self) -> LogFootprint {
        let freed = self.footprint();
        self.runs = Vec::new();
        self.layers = Vec::new();
        self.head = 0;
        freed
    }

    /// Calls `f` for the pieces covering positions `from..to`, in position
    /// order: one [`LogChunk::Run`] per stretch of an interval run, one
    /// [`LogChunk::Words`] per dense layer read whole.  A layer that `from`
    /// or `to` cuts is read in increasing id order as runs instead; reads at
    /// batch boundaries never cut one.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `from` lies below the truncation frontier or
    /// `to` past the end.
    pub(crate) fn for_each_chunk(&self, from: u32, to: u32, mut f: impl FnMut(LogChunk<'_>)) {
        if from >= to {
            return;
        }
        debug_assert!(
            from >= self.front(),
            "reading truncated log positions ({from} < front {})",
            self.front()
        );
        debug_assert!(to <= self.len, "reading past the log ({to} > {})", self.len);
        let live = self.live();
        let mut i = live.partition_point(|r| r.start <= from).saturating_sub(1);
        // Layers are in marker order: start at the first one at or after entry `i`.
        let at = live.get(i).map_or(self.len, |r| r.start);
        let mut next_layer = self.layers.partition_point(|l| l.start < at);
        while let Some(&run) = live.get(i) {
            if run.start >= to {
                break;
            }
            let end = entry_end(live, i, self.len);
            let (s, e) = (run.start.max(from), end.min(to));
            if run.first != LAYER_MARK {
                f(LogChunk::Run(RumorId(run.first + (s - run.start)), e - s));
            } else if let Some(layer) = self.layers.get(next_layer) {
                next_layer += 1;
                debug_assert_eq!(layer.start, run.start, "layers follow their markers");
                let word_lo = layer.word_lo as usize;
                if (s, e) == (run.start, end) {
                    f(LogChunk::Words(word_lo, &layer.words));
                } else {
                    let (mut skip, mut take) = (s - run.start, e - s);
                    for (first, len) in window_runs(word_lo, &layer.words) {
                        let n = len.saturating_sub(skip).min(take);
                        if n > 0 {
                            f(LogChunk::Run(RumorId(first.0 + skip), n));
                            take -= n;
                        }
                        skip = skip.saturating_sub(len);
                    }
                }
            }
            i += 1;
        }
    }

    /// Calls `f(first_rumor, segment_len)` for consecutive-id segments
    /// covering positions `from..to`, in position order (a dense layer's
    /// entries in increasing id order).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `from` lies below the truncation frontier or
    /// `to` past the end.
    #[cfg(test)]
    pub(crate) fn for_each_segment(&self, from: u32, to: u32, mut f: impl FnMut(RumorId, u32)) {
        self.for_each_chunk(from, to, |chunk| match chunk {
            LogChunk::Run(first, len) => f(first, len),
            LogChunk::Words(word_lo, words) => {
                for (first, len) in window_runs(word_lo, words) {
                    f(first, len);
                }
            }
        });
    }

    /// The entry at absolute position `pos` (for tests).
    ///
    /// # Panics
    ///
    /// Panics if `pos` is truncated or out of range.
    #[cfg(test)]
    pub(crate) fn get(&self, pos: u32) -> RumorId {
        assert!(
            pos >= self.front() && pos < self.len,
            "position out of range"
        );
        let mut entry = RumorId(0);
        self.for_each_segment(pos, pos + 1, |first, _| entry = first);
        entry
    }
}

#[cfg(test)]
impl Default for AcquisitionLog {
    fn default() -> Self {
        AcquisitionLog::new()
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
            if self.page_pos >= self.pages.len() {
                return None;
            }
            let entry = &self.pages[self.page_pos];
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

    #[test]
    fn insert_run_matches_individual_inserts() {
        let mut a = RumorSet::empty(200);
        a.insert(RumorId(70));
        a.insert(RumorId(128));
        let mut b = a.clone();

        let mut new = Vec::new();
        a.insert_run(RumorId(60), 80, &mut new);
        for i in 60..140u32 {
            b.insert(RumorId(i));
        }
        assert_eq!(a, b);
        assert_eq!(
            new,
            vec![(RumorId(60), 10), (RumorId(71), 57), (RumorId(129), 11)],
            "maximal runs of the ids that were not already present"
        );

        // Zero-length runs are a no-op.
        new.clear();
        a.insert_run(RumorId(0), 0, &mut new);
        assert!(new.is_empty());
    }

    #[test]
    fn insert_run_crossing_pages_matches_individual_inserts() {
        let mut a = RumorSet::empty(3 * PAGE_BITS + 100);
        a.insert(RumorId(5000));
        let mut b = a.clone();
        let mut runs = Vec::new();
        // Spans pages 0..=3 (the last one partial).
        a.insert_run(
            RumorId(100),
            (3 * PAGE_BITS + 100 - 100 - 7) as u32,
            &mut runs,
        );
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
        // The new runs tile exactly the inserted range minus the old bit.
        let expanded: Vec<usize> = runs
            .iter()
            .flat_map(|&(f, l)| f.index()..f.index() + l as usize)
            .collect();
        let expected: Vec<usize> = (100..3 * PAGE_BITS + 100 - 7)
            .filter(|&i| i != 5000)
            .collect();
        assert_eq!(expanded, expected);
        // Whole interior pages became sentinel pages, not allocations.
        assert!(a.live_pages() <= 2, "only boundary pages may stay dense");
    }

    #[test]
    fn full_page_runs_do_not_allocate() {
        let mut s = RumorSet::empty(2 * PAGE_BITS);
        let mut runs = Vec::new();
        s.insert_run(RumorId(0), PAGE_BITS as u32, &mut runs);
        assert_eq!(s.live_pages(), 0, "a whole-page run is a sentinel page");
        assert_eq!(s.len(), PAGE_BITS);
        assert_eq!(runs, vec![(RumorId(0), PAGE_BITS as u32)]);
        s.insert_run(RumorId(PAGE_BITS as u32), PAGE_BITS as u32, &mut runs);
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
        by_run.insert_run(RumorId(0), n as u32, &mut Vec::new());
        assert_eq!(by_bits, by_run);
        assert!(by_bits.is_full());
        assert_eq!(by_bits.live_pages(), 0);

        let mut partial_bits = RumorSet::empty(n);
        for i in 0..PAGE_BITS {
            partial_bits.insert(RumorId::from(i));
        }
        let mut partial_run = RumorSet::empty(n);
        partial_run.insert_run(RumorId(0), PAGE_BITS as u32, &mut Vec::new());
        assert_eq!(partial_bits, partial_run, "full page == sentinel page");
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn insert_run_past_universe_panics() {
        let mut s = RumorSet::empty(10);
        s.insert_run(RumorId(8), 3, &mut Vec::new());
    }

    #[test]
    fn union_words_collects_exactly_the_new_runs() {
        let n = PAGE_BITS + 130;
        let mut dst = RumorSet::singleton(n, RumorId(5));
        let mut shadow = vec![0u64; n.div_ceil(64)];
        set_words_range(&mut shadow, 0, 2); // 0, 1
        set_words_range(&mut shadow, 5, 1); // already known
        set_words_range(&mut shadow, 64, 1); // 64
        set_words_range(&mut shadow, PAGE_BITS + 129, 1); // second page
        let mut new = Vec::new();
        dst.union_words_collect_new_runs(0, &shadow, &mut new);
        assert_eq!(
            new,
            vec![
                (RumorId(0), 2),
                (RumorId(64), 1),
                (RumorId(PAGE_BITS as u32 + 129), 1)
            ]
        );
        assert_eq!(dst.len(), 5);
        new.clear();
        dst.union_words_collect_new_runs(0, &shadow, &mut new);
        assert!(new.is_empty(), "second union adds nothing");
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
            let mut naive = set.clone();
            let mut new = Vec::new();
            set.union_words_collect_new_runs(word_lo, &window, &mut new);
            for &i in &ids {
                naive.insert(RumorId::from(i));
            }
            assert_eq!(set, naive);
            let expanded: Vec<usize> = new
                .iter()
                .flat_map(|&(f, l)| f.index()..f.index() + l as usize)
                .collect();
            let expected: Vec<usize> = ids.iter().copied().filter(|&i| i != held).collect();
            assert_eq!(expanded, expected, "new runs, holding {held}");
        }
    }

    #[test]
    fn insert_all_emits_the_complement_and_collapses() {
        let n = PAGE_BITS + 50;
        let mut s = RumorSet::empty(n);
        s.insert(RumorId(3));
        s.insert_run(RumorId(0), PAGE_BITS as u32, &mut Vec::new()); // page 0 full
        s.insert(RumorId(PAGE_BITS as u32 + 10));
        let mut new = Vec::new();
        s.insert_all(&mut new);
        assert!(s.is_full());
        assert_eq!(s.live_pages(), 0);
        let expanded: Vec<usize> = new
            .iter()
            .flat_map(|&(f, l)| f.index()..f.index() + l as usize)
            .collect();
        let expected: Vec<usize> = (PAGE_BITS..n).filter(|&i| i != PAGE_BITS + 10).collect();
        assert_eq!(expanded, expected);
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

    #[test]
    fn log_coalesces_consecutive_ids_into_runs() {
        let mut log = AcquisitionLog::new();
        for i in [7u32, 8, 9, 10, 3, 4, 42] {
            log.push(RumorId(i));
        }
        assert_eq!(log.len(), 7);
        assert_eq!(log.footprint().runs, 3, "7..=10, 3..=4, 42");
        let entries: Vec<u32> = (0..7).map(|p| log.get(p).0).collect();
        assert_eq!(entries, vec![7, 8, 9, 10, 3, 4, 42]);
    }

    #[test]
    fn log_push_run_extends_and_starts_runs_like_pushes() {
        let mut by_push = AcquisitionLog::new();
        let mut by_run = AcquisitionLog::new();
        // (first, len) batches, some contiguous with the previous one.
        for &(first, len) in &[(10u32, 3u32), (13, 4), (50, 2), (52, 1), (0, 5)] {
            for k in 0..len {
                by_push.push(RumorId(first + k));
            }
            by_run.push_run(RumorId(first), len);
        }
        assert_eq!(by_push, by_run);
        assert_eq!(by_run.footprint().runs, 3, "10..=16, 50..=52, 0..=4");
        assert!(!by_run.push_run(RumorId(99), 0), "empty batch is a no-op");
        assert_eq!(by_push.len(), by_run.len());
    }

    #[test]
    fn log_from_set_compresses_dense_sets() {
        let mut set = RumorSet::empty(1000);
        for i in 0..1000 {
            if i != 500 {
                set.insert(RumorId(i));
            }
        }
        let log = AcquisitionLog::from_set(&set);
        assert_eq!(log.len(), 999);
        assert_eq!(log.footprint().runs, 2, "0..500 and 501..1000");
        assert_eq!(log.get(0), RumorId(0));
        assert_eq!(log.get(500), RumorId(501));
    }

    #[test]
    fn log_segments_cover_arbitrary_ranges() {
        let mut log = AcquisitionLog::new();
        for i in [10u32, 11, 12, 50, 51, 90] {
            log.push(RumorId(i));
        }
        let collect = |from, to| {
            let mut out = Vec::new();
            log.for_each_segment(from, to, |first, len| out.push((first.0, len)));
            out
        };
        assert_eq!(collect(0, 6), vec![(10, 3), (50, 2), (90, 1)]);
        assert_eq!(collect(1, 5), vec![(11, 2), (50, 2)]);
        assert_eq!(collect(4, 4), vec![]);
        assert_eq!(collect(5, 6), vec![(90, 1)]);
    }

    #[test]
    fn log_truncation_reclaims_whole_runs_and_keeps_positions_absolute() {
        let mut log = AcquisitionLog::new();
        for i in [10u32, 11, 12, 50, 51, 90] {
            log.push(RumorId(i));
        }
        assert_eq!(log.bytes_entirely_below(3), 8);
        assert_eq!(log.bytes_entirely_below(4), 8, "run 50..52 straddles pos 4");
        assert_eq!(log.bytes_entirely_below(5), 16);
        assert_eq!(log.bytes_entirely_below(6), 24);

        assert_eq!(log.truncate_below(4).runs, 1);
        assert_eq!(log.front(), 3, "straddling run kept whole");
        assert_eq!(log.footprint().runs, 2);
        // Absolute positions survive truncation.
        assert_eq!(log.get(4), RumorId(51));
        let mut out = Vec::new();
        log.for_each_segment(4, 6, |first, len| out.push((first.0, len)));
        assert_eq!(out, vec![(51, 1), (90, 1)]);

        assert_eq!(log.truncate_below(6).runs, 2);
        assert_eq!(log.footprint().runs, 0);
        assert_eq!(log.front(), 6);
        // Appending after full truncation starts a fresh run.
        assert!(log.push(RumorId(91)));
        assert_eq!(log.get(6), RumorId(91));
        assert_eq!(log.len(), 7);
    }

    #[test]
    fn log_truncate_all_frees_everything_and_keeps_positions() {
        let mut log = AcquisitionLog::new();
        for i in 0..100u32 {
            log.push(RumorId(2 * i)); // 100 singleton runs
        }
        assert_eq!(log.truncate_all().runs, 100);
        assert_eq!(log.footprint().runs, 0);
        assert_eq!(log.front(), 100);
        assert_eq!(log.len(), 100);
        // Appends continue at the absolute position after the collapse.
        assert!(log.push_run(RumorId(500), 3));
        assert_eq!(log.get(100), RumorId(500));
        assert_eq!(log.get(102), RumorId(502));
        assert_eq!(log.truncate_all().bytes, 8);
        assert_eq!(log.front(), 103);
    }

    #[test]
    fn log_compaction_frees_dropped_runs() {
        let mut log = AcquisitionLog::new();
        // 200 singleton runs (even ids never coalesce).
        for i in 0..200u32 {
            log.push(RumorId(2 * i));
        }
        assert_eq!(log.footprint().runs, 200);
        let dropped = log.truncate_below(150);
        assert_eq!((dropped.runs, dropped.bytes), (150, 150 * 8));
        assert_eq!(log.footprint().runs, 50);
        // Internal compaction must not disturb reads.
        assert_eq!(log.get(150), RumorId(300));
        assert_eq!(log.get(199), RumorId(398));
        assert_eq!(AcquisitionLog::default().len(), 0);
    }

    #[test]
    fn log_stores_fragmented_batches_as_dense_layers() {
        let mut log = AcquisitionLog::new();
        log.push(RumorId(7));
        // Every third id of 0..300: 100 one-entry runs (800 bytes) against a
        // 5-word window (40 bytes) plus the layer's marker and header.
        let batch: Vec<RumorRun> = (0..300).step_by(3).map(|i| (RumorId(i), 1)).collect();
        assert!(matches!(log.encode_batch(&batch), EncodedBatch::Layer(_)));
        let added = log.append(log.encode_batch(&batch));
        assert_eq!((added.runs, added.layers), (0, 1));
        assert_eq!(added.bytes, RUN_BYTES + layer_bytes(5));
        assert_eq!(log.footprint().bytes, RUN_BYTES + added.bytes);
        assert_eq!(log.footprint().runs, 1, "the layer is not a run");
        // A whole-layer read yields its ids; a cut read, ascending ids.
        let mut ids = Vec::new();
        log.for_each_segment(1, 101, |first, len| ids.extend(first.0..first.0 + len));
        assert_eq!(ids, (0..300).step_by(3).collect::<Vec<u32>>());
        assert_eq!(log.get(3), RumorId(6));
        // A run after a layer never extends across it, not even with the id
        // right after the layer's last one.
        assert!(log.push_run(RumorId(298), 2));
        // A compact batch stays a run: one run is cheaper than any layer.
        let compact = [(RumorId(400), 64)];
        assert_eq!(log.encode_batch(&compact), EncodedBatch::Runs(&compact));
        let added = log.append(log.encode_batch(&compact));
        assert_eq!((added.runs, added.layers, added.bytes), (1, 0, RUN_BYTES));
        let below = log.bytes_entirely_below(101);
        assert_eq!(below, 2 * RUN_BYTES + layer_bytes(5));
        let freed = log.truncate_below(101);
        assert_eq!((freed.runs, freed.layers, freed.bytes), (1, 1, below));
        assert_eq!(log.truncate_all().runs, 2);
    }

    /// Encodes and appends the per-task new runs `tasks` to two copies of
    /// `log`: as their concatenation, and coalesced into maximal runs (as
    /// the engine's per-destination buffer collects them).  Asserts that
    /// both give the same form, footprint and log; returns the log, the
    /// footprint and whether the batch became a layer.
    fn append_concatenated_and_coalesced(
        log: &AcquisitionLog,
        tasks: &[Vec<RumorRun>],
    ) -> (AcquisitionLog, LogFootprint, bool) {
        let concatenated = tasks.concat();
        let mut coalesced = Vec::new();
        for &(first, len) in &concatenated {
            push_new_run(&mut coalesced, first.index(), len);
        }
        let (mut a, mut b) = (log.clone(), log.clone());
        let (form_a, form_b) = (a.encode_batch(&concatenated), b.encode_batch(&coalesced));
        let layer = match (&form_a, &form_b) {
            (EncodedBatch::Runs(_), EncodedBatch::Runs(_)) => false,
            (EncodedBatch::Layer(x), EncodedBatch::Layer(y)) => {
                assert_eq!(x, y);
                true
            }
            forms => panic!("coalescing changed the form: {forms:?}"),
        };
        let (added_a, added_b) = (a.append(form_a), b.append(form_b));
        assert_eq!(added_a, added_b);
        assert_eq!(a, b);
        (a, added_a, layer)
    }

    #[test]
    fn coalescing_a_destinations_tasks_changes_no_batch() {
        let mut log = AcquisitionLog::new();
        log.push_run(RumorId(10), 5);
        // Tail-extending first run, and a run split across two tasks.
        let tasks = vec![
            vec![(RumorId(15), 3)],
            vec![(RumorId(18), 2), (RumorId(30), 1)],
        ];
        let (log, added, layer) = append_concatenated_and_coalesced(&log, &tasks);
        assert!(!layer);
        assert_eq!((added.runs, added.bytes), (1, RUN_BYTES));
        assert_eq!(
            (log.len(), log.get(9), log.get(10)),
            (11, RumorId(19), RumorId(30))
        );
        // A layer batch whose middle run straddles the task boundary.
        let mut first: Vec<RumorRun> = (0..150).step_by(3).map(|i| (RumorId(i), 1)).collect();
        first.push((RumorId(200), 1));
        let mut second = vec![(RumorId(201), 2)];
        second.extend((210..400).step_by(3).map(|i| (RumorId(i), 1)));
        let (log, added, layer) = append_concatenated_and_coalesced(&log, &[first, second]);
        assert!(layer);
        assert_eq!((added.runs, added.layers), (0, 1));
        assert_eq!(log.len(), 11 + 50 + 3 + 64);
        // An empty batch (every task learned nothing) adds nothing.
        let (after, added, layer) = append_concatenated_and_coalesced(&log, &[vec![], vec![]]);
        assert!(!layer);
        assert_eq!(added, LogFootprint::default());
        assert_eq!(after, log);
    }

    /// One random append batch of ids not yet `used` (a node learns each
    /// rumor once), as runs in merge-task order: sparse runs, a fragmented
    /// window (possibly crossing the first page boundary), or a run
    /// continuing the previous batch's last run.  Runs may be split into
    /// adjacent pieces, as consecutive merge tasks of one round produce.
    fn random_batch(
        rng: &mut SmallRng,
        used: &mut [bool],
        prev_end: Option<usize>,
    ) -> Vec<RumorRun> {
        let universe = used.len();
        let mut ids = BTreeSet::new();
        let kind = rng.gen_range(0..4u32);
        match kind {
            0 => {
                for _ in 0..rng.gen_range(1..4u32) {
                    let a = rng.gen_range(0..universe);
                    ids.extend(a..(a + rng.gen_range(1..20usize)).min(universe));
                }
            }
            1 | 2 => {
                let w = rng.gen_range(64..1024usize).min(universe);
                let a = if kind == 2 && universe > PAGE_BITS + w {
                    PAGE_BITS - w / 2
                } else {
                    rng.gen_range(0..=universe - w)
                };
                ids.extend((a..a + w).filter(|_| rng.gen_bool(0.3)));
            }
            _ => {
                if let Some(e) = prev_end {
                    ids.extend(e..(e + rng.gen_range(1..10usize)).min(universe));
                }
            }
        }
        ids.retain(|&i| !used[i]);
        let mut runs = Vec::new();
        for &i in &ids {
            used[i] = true;
            push_new_run(&mut runs, i, 1);
        }
        if kind != 3 && !runs.is_empty() {
            let k = rng.gen_range(0..runs.len());
            runs.rotate_left(k);
        }
        let mut pieces = Vec::new();
        for (first, len) in runs {
            let cut = if len > 1 && rng.gen_bool(0.25) {
                rng.gen_range(1..len)
            } else {
                len
            };
            pieces.push((first, cut));
            if cut < len {
                pieces.push((RumorId(first.0 + cut), len - cut));
            }
        }
        pieces
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The layered log against a naive list of batches: no append costs
        /// more than its runs, footprints add up, truncation reclaims
        /// exactly what `bytes_entirely_below` promised, and every read
        /// between still-readable batch boundaries yields exactly the ids of
        /// the batches in between.
        #[test]
        fn layered_log_matches_naive_batches(seed in 0u64..1 << 32, universe in 1usize..9000) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut used = vec![false; universe];
            let mut log = AcquisitionLog::new();
            let mut batches: Vec<BTreeSet<u32>> = Vec::new();
            // Batch k starts at bounds[k]; reads start at bounds[floor..].
            let mut bounds = vec![0u32];
            let mut floor = 0usize;
            let mut prev_end = None;
            for _ in 0..rng.gen_range(1..40u32) {
                let batch = random_batch(&mut rng, &mut used, prev_end);
                let mut runs_only = log.clone();
                let created = batch.iter().filter(|&&(f, n)| runs_only.push_run(f, n)).count();
                let mut held = log.footprint();
                let mut coalesced = Vec::new();
                for &(f, n) in &batch {
                    push_new_run(&mut coalesced, f.index(), n);
                }
                let mut via_coalesced = log.clone();
                let coalesced_added = via_coalesced.append(via_coalesced.encode_batch(&coalesced));
                let added = log.append(log.encode_batch(&batch));
                prop_assert_eq!(added, coalesced_added);
                prop_assert_eq!(&log, &via_coalesced);
                prop_assert!(added.bytes <= RUN_BYTES * created as u64, "dearer than runs");
                held += added;
                prop_assert_eq!(log.footprint(), held);
                prop_assert_eq!(log.len(), runs_only.len());
                prev_end = batch.last().map(|&(f, n)| f.index() + n as usize);
                batches.push(batch.iter().flat_map(|&(f, n)| f.0..f.0 + n).collect());
                bounds.push(log.len());
                if rng.gen_bool(0.2) {
                    let k = rng.gen_range(floor..bounds.len());
                    let reclaimable = log.bytes_entirely_below(bounds[k]);
                    let freed = log.truncate_below(bounds[k]);
                    prop_assert_eq!(freed.bytes, reclaimable);
                    let mut total = log.footprint();
                    total += freed;
                    prop_assert_eq!(total, held);
                    prop_assert!(log.front() <= bounds[k]);
                    floor = k;
                } else if rng.gen_bool(0.05) {
                    prop_assert_eq!(log.truncate_all(), held);
                    prop_assert_eq!(log.footprint(), LogFootprint::default());
                    floor = bounds.len() - 1;
                }
            }
            for i in floor..bounds.len() {
                for j in i..bounds.len() {
                    let mut got = Vec::new();
                    log.for_each_segment(bounds[i], bounds[j], |f, n| got.extend(f.0..f.0 + n));
                    prop_assert_eq!(got.len(), (bounds[j] - bounds[i]) as usize);
                    let want: BTreeSet<u32> = batches[i..j].iter().flatten().copied().collect();
                    prop_assert_eq!(got.into_iter().collect::<BTreeSet<u32>>(), want);
                }
            }
            for (k, batch) in batches.iter().enumerate().skip(floor) {
                for pos in bounds[k]..bounds[k + 1] {
                    prop_assert!(batch.contains(&log.get(pos).0));
                }
            }
        }

        /// `RumorSet` against a `Vec<bool>` model over random sequences of
        /// `insert`, `insert_run`, windowed `union_words_collect_new_runs`
        /// and `insert_all`, biased towards the few-id pages that stay
        /// sparse and towards short last pages (capacity <= `SPARSE_MAX`),
        /// which go straight from sparse to full.  After every step the
        /// contents, `len`, the emitted new runs and the page cost match;
        /// at the end, two other construction orders compare `==`.
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
                let mut new = Vec::new();
                match rng.gen_range(0..16u32) {
                    0..=5 => {
                        // `insert` reports novelty, not runs: its run is
                        // the id itself when it was new.
                        let i = rng.gen_range(0..universe);
                        if set.insert(RumorId::from(i)) {
                            new.push((RumorId::from(i), 1));
                        }
                        model[i] = true;
                    }
                    6..=9 => {
                        let first = rng.gen_range(0..universe);
                        let max: usize = if rng.gen_bool(0.8) { 4 } else { 5000 };
                        let len = rng.gen_range(1..=max).min(universe - first);
                        set.insert_run(RumorId::from(first), len as u32, &mut new);
                        model[first..first + len].fill(true);
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
                        set.union_words_collect_new_runs(word_lo, &window, &mut new);
                    }
                    _ if rng.gen_bool(0.3) => {
                        set.insert_all(&mut new);
                        model.fill(true);
                    }
                    _ => {}
                }
                let fresh = (0..universe).filter(|&i| model[i] && !before[i]);
                prop_assert_eq!(new, runs_of(fresh));
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
            at_once.union_words_collect_new_runs(0, &bitset, &mut Vec::new());
            prop_assert_eq!(&at_once, &set);
        }
    }
}
