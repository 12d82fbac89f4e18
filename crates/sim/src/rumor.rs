//! Rumors, paged per-node rumor sets, and the window of per-round deltas.
//!
//! Every node in an information-dissemination instance can originate one
//! rumor; rumor `i` is "the rumor whose source is node `i`".  A node's state
//! with respect to dissemination is the set of rumors it currently knows.
//!
//! # Paged rumor sets
//!
//! [`RumorSet`] stores that set in one of two forms.  A set of at most
//! `SPARSE_MAX` (5) rumors keeps their ids **inline** in its 32-byte header,
//! ascending, and owns no heap at all.  Every other set is an **adaptive
//! paged bitset**: the universe is split into fixed 4096-bit pages, kept in
//! a sorted, exact-length directory of 16-byte entries with four page
//! states —
//!
//! * **empty** — the page is simply absent (no storage);
//! * **sparse** — at most `SPARSE_MAX` in-page offsets, sorted, inline in
//!   the directory entry (no heap block: Roaring's "array container" at the
//!   size of the entry);
//! * **dense** — an owned block holding the page's bits: 64 words, or, on
//!   the universe's last page when it holds `cap < 4096` bits, the smallest
//!   of 8, 16, 32 or 64 words that holds its `⌈cap/64⌉`, so a 1024-id
//!   universe's page owns 16 words;
//! * **full** — a sentinel meaning every bit of the page is set (no
//!   storage).
//!
//! A set whose every page is full additionally **saturation-collapses** to
//! the canonical full representation — an empty directory — so a node that
//! has learned everything costs its header instead of `n/8` bytes.  In the
//! saturating all-to-all regime this is what breaks the dense-bitset
//! `2·n²/8` memory wall: nodes spend most of a run either nearly empty
//! (a few inline ids) or fully informed (no pages).  Membership, subset and
//! complement reads and iteration use an inline set's ids directly; merge
//! phase A and the move to pages read them as the sparse entries of their
//! pages, built on the stack, through the page code.
//!
//! The representation is kept **canonical** at all times: a full set is
//! the empty directory; any other set of at most `SPARSE_MAX` ids is
//! inline, its unused slots 0; every other set's pages are sorted and
//! unique and never empty, and a page's state is a function of its bit
//! count `ones` and capacity `cap` alone — full iff `ones == cap`, else
//! sparse iff `ones <= SPARSE_MAX`, else dense.  Sets only grow, so a set
//! only leaves the inline form, and a page only ever moves sparse → dense
//! → full (possibly skipping a step), inside the union that crosses the
//! threshold.  Structural equality is therefore semantic equality and
//! `#[derive(PartialEq)]` is sound.
//!
//! # The delta window
//!
//! [`DeltaWindow`] is the engine's only history: what each node learned in
//! each of the last few delivery phases.  An exchange delivers a peer's set
//! as of its initiation round, which is the peer's current set minus the
//! deltas it learned since ([`NewRumors::add_difference`]); a round older
//! than every snapshot still in flight is dropped, and a phase that no
//! flight in the calendar can read is never stored.  One node's delta of
//! one phase is stored in the cheapest of three forms
//! ([`PhaseBatches::push`]): interval runs, sorted 16-bit offsets from a
//! base id, or the dense word window it spans.  A phase keeps all of its
//! batches in one flat array of 16-bit slots, read in place.  A phase that
//! is never stored may also hold fill entries ([`Batch::Fill`]): a
//! destination that learns every id it lacks, recorded with no ids.

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
/// Page number of id `i`: `i >> PAGE_SHIFT`.
const PAGE_SHIFT: u32 = PAGE_BITS.trailing_zeros();
/// 64-bit words per page.
const PAGE_WORDS: usize = PAGE_BITS / 64;
/// Page number of word `w`: `w >> PAGE_WORD_SHIFT`.
const PAGE_WORD_SHIFT: u32 = PAGE_WORDS.trailing_zeros();
/// Most ids a set keeps inline in its header, and most set bits a page
/// stores inline in its entry as sorted offsets (the sparse state).
const SPARSE_MAX: usize = 5;

/// One non-empty page of a [`RumorSet`], in the canonical state its bit
/// count dictates (see the module docs).  `index` is the page number: bit
/// `i` of the universe lives in page `i / 4096`.
#[derive(Debug, Clone, PartialEq, Eq)]
enum PageEntry {
    /// Every bit of the page (up to its capacity) is set; no storage.
    Full { index: u32 },
    /// `SPARSE_MAX < ones < capacity` bits, held in an owned 64-word block:
    /// a 4096-bit page, or a short last page of more than 2048 bits.
    Dense {
        index: u32,
        ones: u16,
        words: Box<[u64; PAGE_WORDS]>,
    },
    /// As `Dense`, on a short last page of 1025 to 2048 bits: 32 words.
    Dense32 {
        index: u32,
        ones: u16,
        words: Box<[u64; 32]>,
    },
    /// As `Dense`, on a short last page of 513 to 1024 bits: 16 words.
    Dense16 {
        index: u32,
        ones: u16,
        words: Box<[u64; 16]>,
    },
    /// As `Dense`, on a short last page of at most 512 bits: 8 words.
    Dense8 {
        index: u32,
        ones: u16,
        words: Box<[u64; 8]>,
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

// A sparse page is free only while it fits the entry a dense page needs
// anyway: tag, page number, block pointer.
const _: () = assert!(ENTRY_BYTES == 16);
// Every node holds one set: universe and length as `u32`, and the inline
// ids or the directory's pointer and length.
const _: () = assert!(std::mem::size_of::<RumorSet>() == 32);

impl PageEntry {
    /// The page number.
    fn index(&self) -> u32 {
        match *self {
            PageEntry::Full { index }
            | PageEntry::Dense { index, .. }
            | PageEntry::Dense32 { index, .. }
            | PageEntry::Dense16 { index, .. }
            | PageEntry::Dense8 { index, .. }
            | PageEntry::Sparse { index, .. } => index,
        }
    }

    /// A dense page of capacity `cap` holding `ones` bits, whose block `fill`
    /// writes.  The block is the smallest of 8, 16, 32 or 64 words that
    /// holds the page's `⌈cap/64⌉`: a fixed-size array behind a thin
    /// pointer, so the entry stays 16 bytes and a word is one load away.
    fn dense(index: u32, cap: u32, ones: u16, fill: impl FnOnce(&mut [u64])) -> PageEntry {
        let mut page = match (cap as usize).div_ceil(64) {
            ..=8 => PageEntry::Dense8 {
                index,
                ones,
                words: Box::new([0; 8]),
            },
            9..=16 => PageEntry::Dense16 {
                index,
                ones,
                words: Box::new([0; 16]),
            },
            17..=32 => PageEntry::Dense32 {
                index,
                ones,
                words: Box::new([0; 32]),
            },
            _ => PageEntry::Dense {
                index,
                ones,
                words: Box::new([0; PAGE_WORDS]),
            },
        };
        if let Some((_, block)) = page.block_mut() {
            fill(block);
        }
        page
    }

    /// A dense page's block; empty for a full or sparse page.
    fn block(&self) -> &[u64] {
        match self {
            PageEntry::Full { .. } | PageEntry::Sparse { .. } => &[],
            PageEntry::Dense { words, .. } => words.as_slice(),
            PageEntry::Dense32 { words, .. } => words.as_slice(),
            PageEntry::Dense16 { words, .. } => words.as_slice(),
            PageEntry::Dense8 { words, .. } => words.as_slice(),
        }
    }

    /// A dense page's bit count and block.
    fn block_mut(&mut self) -> Option<(&mut u16, &mut [u64])> {
        match self {
            PageEntry::Full { .. } | PageEntry::Sparse { .. } => None,
            PageEntry::Dense { ones, words, .. } => Some((ones, words.as_mut_slice())),
            PageEntry::Dense32 { ones, words, .. } => Some((ones, words.as_mut_slice())),
            PageEntry::Dense16 { ones, words, .. } => Some((ones, words.as_mut_slice())),
            PageEntry::Dense8 { ones, words, .. } => Some((ones, words.as_mut_slice())),
        }
    }

    /// ORs the in-page word masks `masks` into a dense page's block and
    /// returns how many bits were new; the page becomes the full sentinel
    /// once it holds all `cap` bits.
    fn union_block(&mut self, cap: u32, masks: impl Iterator<Item = (usize, u64)>) -> u32 {
        let index = self.index();
        let Some((ones, words)) = self.block_mut() else {
            return 0;
        };
        let mut added = 0;
        for (w, bits) in masks {
            if let Some(word) = words.get_mut(w) {
                added += (bits & !*word).count_ones();
                *word |= bits;
            }
        }
        *ones += added as u16;
        if u32::from(*ones) == cap {
            *self = PageEntry::Full { index };
        }
        added
    }

    /// In-page word `w` of a page of capacity `cap` (0 past the page).
    fn word(&self, w: usize, cap: u32) -> u64 {
        match self {
            PageEntry::Full { .. } => full_page_word(cap, w),
            PageEntry::Dense { words, .. } => words.get(w).copied().unwrap_or(0),
            PageEntry::Sparse { len, ids, .. } => {
                sparse_word(ids.iter().take(usize::from(*len)), w)
            }
            short => short.block().get(w).copied().unwrap_or(0),
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
    /// Bytes: one directory entry per sparse or dense page, plus the bytes of
    /// each dense page's block.  Full entries are not charged, and neither
    /// is an inline set, which lives in its header.
    pub(crate) bytes: u64,
}

/// A set of rumors over the universe `0..universe`: at most `SPARSE_MAX`
/// ids inline, or a sorted directory of 4096-bit pages (see the module docs
/// for the representation).
#[derive(Clone, PartialEq, Eq)]
pub struct RumorSet {
    universe: u32,
    /// Number of rumors in the set (maintained incrementally).
    len: u32,
    store: Store,
}

/// Where a [`RumorSet`] keeps its ids.
#[derive(Clone, PartialEq, Eq)]
enum Store {
    /// A set of `len <= SPARSE_MAX` ids that is not full: the ids
    /// `[..len]`, ascending; the unused slots stay 0.
    Ids([u32; SPARSE_MAX]),
    /// Every other set: its non-empty pages, sorted by `index`, in a
    /// directory of exactly their number.  Empty when the set is full
    /// (`len == universe`), the canonical collapsed form.
    Pages(Box<[PageEntry]>),
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

/// The set bits of `word` as ascending ids: bit `k` is id `first + k`.
fn ones(first: u32, mut word: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros();
            word &= word - 1;
            first + bit
        })
    })
}

/// The pages of an inline set's ascending ids `ids` in a universe of
/// `universe` rumors, ascending: a sparse entry per page they touch, or the
/// full sentinel for a short last page they fill — the canonical page form
/// of those ids.
fn inline_entries(ids: &[u32], universe: usize) -> impl Iterator<Item = PageEntry> + '_ {
    let mut rest = ids;
    std::iter::from_fn(move || {
        let &first = rest.first()?;
        let index = first >> PAGE_SHIFT;
        let on_page = rest
            .iter()
            .take_while(|&&i| i >> PAGE_SHIFT == index)
            .count();
        let (page, tail) = rest.split_at_checked(on_page)?;
        rest = tail;
        let base = index << PAGE_SHIFT;
        if on_page == (universe - base as usize).min(PAGE_BITS) {
            return Some(PageEntry::Full { index });
        }
        let mut offsets = [0; SPARSE_MAX];
        for (offset, &i) in offsets.iter_mut().zip(page) {
            *offset = (i - base) as u16;
        }
        Some(PageEntry::Sparse {
            index,
            len: on_page as u8,
            ids: offsets,
        })
    })
}

impl RumorSet {
    /// Creates an empty rumor set over a universe of `universe` rumors.
    ///
    /// # Panics
    ///
    /// Panics if `universe` exceeds `u32::MAX`, past which a [`RumorId`]
    /// cannot name every rumor.
    // gossip-lint: allow(panic-path): on the delivery path (rejoin_node via Seeding::initial_set) the universe is an existing set's universe(), a widened u32
    pub fn empty(universe: usize) -> Self {
        assert!(
            universe <= u32::MAX as usize,
            "universe of {universe} rumors exceeds u32::MAX"
        );
        // An empty universe's empty set is also full: the empty directory.
        let store = if universe == 0 {
            Store::Pages(Box::default())
        } else {
            Store::Ids([0; SPARSE_MAX])
        };
        RumorSet {
            universe: universe as u32,
            len: 0,
            store,
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
        self.universe as usize
    }

    /// Number of set bits the page can hold (4096 except for the last page).
    fn page_capacity(&self, page: u32) -> u32 {
        let start = page as usize * PAGE_BITS;
        debug_assert!(start < self.universe() || self.universe == 0);
        (self.universe() - start).min(PAGE_BITS) as u32
    }

    /// An inline set's ids, ascending; empty for a paged set.
    fn inline_ids(&self) -> &[u32] {
        match &self.store {
            Store::Ids(ids) => ids.get(..self.len as usize).unwrap_or_default(),
            Store::Pages(_) => &[],
        }
    }

    /// Opens the set's pages for a union that may insert pages: the stored
    /// directory, or an inline set's ids as their page entries, as one
    /// `Vec` that [`put_pages`](Self::put_pages) stores back.
    fn take_pages(&mut self) -> Vec<PageEntry> {
        if let Store::Pages(pages) = &mut self.store {
            return std::mem::take(pages).into_vec();
        }
        inline_entries(self.inline_ids(), self.universe()).collect()
    }

    /// Ends a union that went through [`take_pages`](Self::take_pages): adds
    /// its `added` new ids to `len` and stores `pages` at their exact
    /// length, or the empty directory once the set is full (saturation
    /// collapse).  Returns `added`.
    fn put_pages(&mut self, pages: Vec<PageEntry>, added: u32) -> u32 {
        self.len += added;
        self.store = Store::Pages(if self.is_full() {
            debug_assert!(pages.iter().all(|e| matches!(e, PageEntry::Full { .. })));
            Box::default()
        } else {
            pages.into_boxed_slice()
        });
        added
    }

    /// Unions the ascending ids `new` into an inline set when the union
    /// stays inline — at most `SPARSE_MAX` ids — or fills the set, which
    /// collapses.  Returns how many ids were new; `None`, with the set
    /// untouched, when the set is paged or the union outgrows it.
    fn union_inline(&mut self, new: impl Iterator<Item = u32>) -> Option<u32> {
        let Store::Ids(mut ids) = self.store else {
            return None;
        };
        let held = self.len as usize;
        let mut len = held;
        for id in new {
            if !ids.iter().take(held).any(|&h| h == id) {
                *ids.get_mut(len)? = id;
                len += 1;
            }
        }
        if let Some(grown) = ids.get_mut(..len) {
            grown.sort_unstable();
        }
        self.len = len as u32;
        self.store = if self.is_full() {
            Store::Pages(Box::default())
        } else {
            Store::Ids(ids)
        };
        Some((len - held) as u32)
    }

    /// What the set's pages cost: its dense pages and their bytes — 16 per
    /// sparse or dense directory entry plus 8 per word of each dense block:
    /// 512 for a 4096-bit page, less for a short last page (see
    /// [`PageEntry::dense`]).  An inline set costs nothing.  The one cost
    /// function behind the engine's rumor-set counters.
    pub(crate) fn page_footprint(&self) -> PageFootprint {
        let mut cost = PageFootprint::default();
        let Store::Pages(pages) = &self.store else {
            return cost;
        };
        for entry in pages
            .iter()
            .filter(|e| !matches!(e, PageEntry::Full { .. }))
        {
            let block = 8 * entry.block().len() as u64;
            cost.dense += u64::from(block > 0);
            cost.bytes += ENTRY_BYTES + block;
        }
        cost
    }

    /// Fixed per-set bytes, the header: 32.  It holds an inline set's ids,
    /// or a paged set's directory pointer and length.
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
        if i >= self.universe() {
            return false;
        }
        if self.len == self.universe {
            return true;
        }
        let Store::Pages(pages) = &self.store else {
            return self.inline_ids().contains(&rumor.0);
        };
        let page = (i / PAGE_BITS) as u32;
        let bit = i % PAGE_BITS;
        match pages.binary_search_by_key(&page, PageEntry::index) {
            Err(_) => false,
            Ok(p) => pages[p].word(bit / 64, self.page_capacity(page)) & (1 << (bit % 64)) != 0,
        }
    }

    /// Number of rumors in the set.
    pub fn len(&self) -> usize {
        self.len as usize
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
    /// over the same universe).  An inline set asks `other` for each of its
    /// ids; a paged set walks its pages, stopping at the first one `other`
    /// does not cover.
    pub(crate) fn is_subset(&self, other: &RumorSet) -> bool {
        if self.is_empty() || other.is_full() {
            return true;
        }
        if self.is_full() || self.len > other.len {
            return false;
        }
        // A paged set here holds more than `SPARSE_MAX` ids, so `other`,
        // holding at least as many, is paged too.
        let (Store::Pages(mine), Store::Pages(theirs)) = (&self.store, &other.store) else {
            return self
                .inline_ids()
                .iter()
                .all(|&i| other.contains(RumorId(i)));
        };
        mine.iter().all(|entry| {
            let page = entry.index();
            let held = theirs.binary_search_by_key(&page, PageEntry::index);
            let Some(held) = held.ok().and_then(|p| theirs.get(p)) else {
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
    /// for large universes; an inline set yields its ids, and a
    /// saturation-collapsed full set iterates without touching any storage
    /// at all.
    pub fn iter(&self) -> impl Iterator<Item = RumorId> + '_ {
        let universe = self.universe();
        // A saturation-collapsed full set holds no pages: count its ids.
        let full = if self.is_full() {
            0..self.universe
        } else {
            0..0
        };
        let stored: &[PageEntry] = match &self.store {
            Store::Pages(pages) => pages,
            Store::Ids(_) => &[],
        };
        let paged = stored.iter().flat_map(move |entry| {
            let base = entry.index() as usize * PAGE_BITS;
            let cap = (universe - base).min(PAGE_BITS) as u32;
            (0..(cap as usize).div_ceil(64))
                .flat_map(move |w| ones((base + w * 64) as u32, entry.word(w, cap)))
        });
        full.chain(self.inline_ids().iter().copied())
            .chain(paged)
            .map(RumorId)
    }

    /// Inserts the rumors `lo..lo+len` and returns how many were new.
    ///
    /// # Panics
    ///
    /// Panics if the run extends past the universe.
    fn union_run(&mut self, lo: usize, len: u32) -> u32 {
        self.union_runs(std::iter::once((RumorId(lo as u32), len)))
    }

    /// Inserts every run of `runs` and returns how many rumors were new.
    ///
    /// One run of consecutive rumor ids is unioned in `O(len/64)` time, and
    /// a run covering a whole absent page materialises the full sentinel
    /// directly — no block, which is how a saturating merge fills a
    /// 131072-rumor set with 32 page flips.  The directory is opened and
    /// stored back once for the whole batch.
    ///
    /// # Panics
    ///
    /// Panics if a run extends past the universe.
    // gossip-lint: allow(panic-path): run bounds are asserted against the universe on entry
    fn union_runs(&mut self, runs: impl Iterator<Item = RumorRun> + Clone) -> u32 {
        for (first, len) in runs.clone() {
            let (lo, hi) = (first.index(), first.index() + len as usize);
            assert!(
                hi <= self.universe(),
                "run {lo}..{hi} outside universe of size {}",
                self.universe
            );
        }
        if self.len == self.universe {
            return 0;
        }
        let ids = runs.clone().flat_map(|(first, len)| first.0..first.0 + len);
        if let Some(added) = self.union_inline(ids) {
            return added;
        }
        let mut pages = self.take_pages();
        let mut added = 0;
        for (first, len) in runs.filter(|&(_, len)| len > 0) {
            let (lo, hi) = (first.index(), first.index() + len as usize);
            for page in (lo / PAGE_BITS) as u32..=((hi - 1) / PAGE_BITS) as u32 {
                let page_start = page as usize * PAGE_BITS;
                let cap = self.page_capacity(page);
                let a = lo.max(page_start) - page_start;
                let b = (hi - page_start).min(PAGE_BITS);
                let slot = pages.binary_search_by_key(&page, PageEntry::index);
                added += match slot {
                    Err(at) if a == 0 && b >= cap as usize => {
                        // The run covers the whole (absent) page: full
                        // sentinel, no block.
                        pages.insert(at, PageEntry::Full { index: page });
                        cap
                    }
                    _ => union_page(&mut pages, page, cap, slot, word_masks(a, b - a)),
                };
            }
        }
        self.put_pages(pages, added)
    }

    /// Unions word masks into the set and returns how many rumors were new:
    /// `(w, bits)` sets the `bits` of universe word `w` (ids `w·64 ..`),
    /// in ascending `w`, a word possibly more than once.  The masks are read
    /// once: a dense page takes its masks as they come, and any other
    /// page's masks are gathered on the stack first, since its union needs
    /// them twice.  The directory is opened and stored back once, and each
    /// page touched is searched once.
    fn union_masks(&mut self, masks: impl Iterator<Item = (usize, u64)> + Clone) -> u32 {
        if self.len == self.universe {
            return 0;
        }
        let ids = masks
            .clone()
            .flat_map(|(w, bits)| ones((w * 64) as u32, bits));
        if let Some(added) = self.union_inline(ids) {
            return added;
        }
        let mut pages = self.take_pages();
        let mut added = 0;
        let mut masks = masks.filter(|&(_, bits)| bits != 0).peekable();
        while let Some(&(w, _)) = masks.peek() {
            let page = w >> PAGE_WORD_SHIFT;
            let page_lo = page << PAGE_WORD_SHIFT;
            let on_page =
                std::iter::from_fn(|| masks.next_if(|&(w, _)| w >> PAGE_WORD_SHIFT == page))
                    .map(|(w, bits)| (w - page_lo, bits));
            let (page, cap) = (page as u32, self.page_capacity(page as u32));
            let slot = pages.binary_search_by_key(&page, PageEntry::index);
            match slot.ok().and_then(|p| pages.get_mut(p)) {
                Some(entry) if !entry.block().is_empty() => {
                    added += entry.union_block(cap, on_page);
                }
                Some(PageEntry::Full { .. }) => on_page.for_each(drop),
                _ => {
                    let mut block = [0u64; PAGE_WORDS];
                    let (mut lo, mut hi) = (PAGE_WORDS, 0);
                    for (k, bits) in on_page {
                        if let Some(word) = block.get_mut(k) {
                            *word |= bits;
                        }
                        (lo, hi) = (lo.min(k), hi.max(k + 1));
                    }
                    let gathered = block.get(lo..hi).unwrap_or_default().iter().copied();
                    added += union_page(&mut pages, page, cap, slot, (lo..).zip(gathered));
                }
            }
        }
        self.put_pages(pages, added)
    }

    /// Unions one delta batch — ids the set lacks, in any stored form — into
    /// the set and returns how many rumors were new.  A batch that holds
    /// every id the set misses fills it straight to the full form, with no
    /// directory opened.
    pub(crate) fn insert_delta(&mut self, delta: Delta<'_>) -> u32 {
        let count = delta.id_count();
        if count > 0 && count == u64::from(self.universe - self.len) {
            debug_assert!(
                if count <= u64::from(self.len) {
                    delta.ids().all(|i| !self.contains(RumorId(i)))
                } else {
                    self.iter().all(|r| !delta.holds(r.0))
                },
                "a batch holds only ids the set lacks"
            );
            return self.saturate();
        }
        match delta {
            Delta::Runs(runs) => self.union_runs(runs.iter().map(|&slots| run_of(slots))),
            Delta::Ids(base, offsets) => self.union_masks(id_masks(base, offsets)),
            Delta::Words(word_lo, words) => {
                self.union_masks((word_lo..).zip(words.iter().map(|&slots| unquad(slots))))
            }
        }
    }

    /// Fills the set to the full form, with no directory opened, and
    /// returns how many rumors were new: the union of a fill entry
    /// ([`Batch::Fill`]).
    pub(crate) fn saturate(&mut self) -> u32 {
        let added = self.universe - self.len;
        self.len = self.universe;
        self.store = Store::Pages(Box::default());
        added
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
        let Store::Pages(pages) = &self.store else {
            // An inline set misses the runs between its ids.
            let mut next = 0;
            for i in self.inline_ids().iter().copied().chain([self.universe]) {
                push_new_run(out, next as usize, i - next);
                next = i + 1;
            }
            return;
        };
        let mut stored = pages.iter().peekable();
        for page in 0..self.universe().div_ceil(PAGE_BITS) as u32 {
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
        self.universe().div_ceil(64)
    }
}

/// Unions the in-page word masks `masks` (`(word, bits)`, ascending words)
/// into page `page` of capacity `cap`, whose search in the directory
/// `pages` gave `slot`, and returns how many bits were new.  The page ends
/// in its canonical state: promotion from sparse to dense or full happens
/// here, in the union that crosses the threshold.  The caller adds the new
/// bits to the set's `len` and collapses a saturated set once it has walked
/// every page.
// gossip-lint: allow(panic-path): p is the page's search or insertion slot, mask words are below the page's ⌈cap/64⌉, which a new block holds, and sparse offsets are < capacity
fn union_page<I>(
    pages: &mut Vec<PageEntry>,
    page: u32,
    cap: u32,
    slot: Result<usize, usize>,
    masks: I,
) -> u32
where
    I: Iterator<Item = (usize, u64)> + Clone,
{
    let p = match slot {
        Ok(p) => p,
        Err(at) => {
            let empty = PageEntry::Sparse {
                index: page,
                len: 0,
                ids: [0; SPARSE_MAX],
            };
            pages.insert(at, empty);
            at
        }
    };
    let entry = &mut pages[p];
    match entry {
        PageEntry::Full { .. } => 0,
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
                PageEntry::dense(page, cap, ones as u16, |block| {
                    for &i in &ids[..held] {
                        block[usize::from(i) / 64] |= 1 << (i % 64);
                    }
                    for (w, bits) in masks {
                        block[w] |= bits;
                    }
                })
            };
            added
        }
        dense => dense.union_block(cap, masks),
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

/// The four 16-bit slots that store `v`, least significant first.
fn quad(v: u64) -> [u16; 4] {
    [
        v as u16,
        (v >> 16) as u16,
        (v >> 32) as u16,
        (v >> 48) as u16,
    ]
}

/// The `u64` stored in four 16-bit slots.
fn unquad([a, b, c, d]: [u16; 4]) -> u64 {
    u64::from(a) | u64::from(b) << 16 | u64::from(c) << 32 | u64::from(d) << 48
}

/// The run stored in four 16-bit slots: its first id in the low half.
fn run_of(slots: [u16; 4]) -> RumorRun {
    let v = unquad(slots);
    (RumorId(v as u32), (v >> 32) as u32)
}

/// The word masks of the ascending ids `base + offset`, one per id: its
/// universe word and its bit there.
fn id_masks(base: u32, offsets: &[u16]) -> impl Iterator<Item = (usize, u64)> + Clone + '_ {
    offsets.iter().map(move |&o| {
        let id = base as usize + usize::from(o);
        (id / 64, 1 << (id % 64))
    })
}

/// The `u32` stored in a batch's first two slots, and the slots after it.
fn split_head(slots: &[u16]) -> Option<(u32, &[u16])> {
    let (&[lo, hi], rest) = slots.split_first_chunk()?;
    Some((u32::from(lo) | u32::from(hi) << 16, rest))
}

/// One node's acquisitions of one delivery phase, as the [`DeltaWindow`]
/// stores them: in the 16-bit slots of [`PhaseBatches`], read in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Delta<'a> {
    /// Maximal runs of consecutive ids, ascending; a run is the `u64`
    /// `first | len << 32` in four slots.
    Runs(&'a [[u16; 4]]),
    /// The ids `base + offset` of ascending offsets (`base`, offsets).
    Ids(u32, &'a [u16]),
    /// The set bits of a word window whose word `k`, in four slots, holds
    /// universe bits `(word_lo + k)·64 ..` (`word_lo`, window).
    Words(usize, &'a [[u16; 4]]),
}

impl<'a> Delta<'a> {
    /// Number of ids.
    fn id_count(self) -> u64 {
        match self {
            Delta::Runs(runs) => runs.iter().map(|&r| u64::from(run_of(r).1)).sum(),
            Delta::Ids(_, offsets) => offsets.len() as u64,
            Delta::Words(_, words) => words
                .iter()
                .map(|&w| u64::from(unquad(w).count_ones()))
                .sum(),
        }
    }

    /// The ids, ascending.
    fn ids(self) -> impl Iterator<Item = u32> + 'a {
        let (runs, (base, offsets), (word_lo, words)): (&[_], (u32, &[_]), (usize, &[_])) =
            match self {
                Delta::Runs(runs) => (runs, (0, &[]), (0, &[])),
                Delta::Ids(base, offsets) => (&[], (base, offsets), (0, &[])),
                Delta::Words(word_lo, words) => (&[], (0, &[]), (word_lo, words)),
            };
        let runs = runs.iter().flat_map(|&r| {
            let (first, len) = run_of(r);
            first.0..first.0 + len
        });
        let listed = offsets.iter().map(move |&o| base + u32::from(o));
        let dense = (word_lo..)
            .zip(words)
            .flat_map(|(w, &bits)| ones((w * 64) as u32, unquad(bits)));
        runs.chain(listed).chain(dense)
    }

    /// Whether the batch holds id `i`.
    fn holds(self, i: u32) -> bool {
        match self {
            Delta::Runs(runs) => {
                let after = runs.partition_point(|&r| run_of(r).0 .0 <= i);
                after
                    .checked_sub(1)
                    .and_then(|k| runs.get(k))
                    .is_some_and(|&r| i - run_of(r).0 .0 < run_of(r).1)
            }
            Delta::Ids(base, offsets) => i
                .checked_sub(base)
                .and_then(|o| u16::try_from(o).ok())
                .is_some_and(|o| offsets.binary_search(&o).is_ok()),
            Delta::Words(word_lo, words) => (i as usize / 64)
                .checked_sub(word_lo)
                .and_then(|k| words.get(k))
                .is_some_and(|&w| unquad(w) & 1 << (i % 64) != 0),
        }
    }

    /// Clears this delta's ids from `words`, the words of page `page`.
    fn clear_from_page(self, page: usize, words: &mut [u64; PAGE_WORDS]) {
        let (lo, hi) = (page * PAGE_BITS, (page + 1) * PAGE_BITS);
        match self {
            Delta::Runs(runs) => {
                let first = runs.partition_point(|&r| {
                    let (f, len) = run_of(r);
                    f.index() + len as usize <= lo
                });
                for (f, len) in runs.iter().skip(first).map(|&r| run_of(r)) {
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
            Delta::Ids(base, offsets) => {
                let base = base as usize;
                let from = offsets.partition_point(|&o| base + usize::from(o) < lo);
                for id in offsets.iter().skip(from).map(|&o| base + usize::from(o)) {
                    if id >= hi {
                        break;
                    }
                    if let Some(word) = words.get_mut((id - lo) / 64) {
                        *word &= !(1 << (id % 64));
                    }
                }
            }
            Delta::Words(word_lo, window) => {
                let page_lo = page * PAGE_WORDS;
                let a = word_lo.max(page_lo);
                let b = (word_lo + window.len()).min(page_lo + PAGE_WORDS);
                let pairs = words.iter_mut().skip(a - page_lo);
                for (word, &bits) in pairs
                    .zip(window.iter().skip(a - word_lo))
                    .take(b.saturating_sub(a))
                {
                    *word &= !unquad(bits);
                }
            }
        }
    }
}

/// How [`PhaseBatches`] stores one batch: whichever form costs the fewest
/// 16-bit slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Form {
    /// The maximal runs: 4 slots (8 bytes) per run.
    Runs = 0,
    /// A sorted list of 16-bit offsets from a `u32` base id, allowed when
    /// the ids span at most 65,536: 2 slots for the base, 1 per id.
    Ids = 1,
    /// The dense word window the ids span: 2 slots for its first word's
    /// index, 4 per word.
    Words = 2,
}

/// An index entry's form tag, the [`Form`]'s discriminant or
/// [`FILL_TAG`], sits above its slot end.
const FORM_SHIFT: u32 = 30;
/// The tag of a fill entry ([`Batch::Fill`]): the spare tag above the
/// three forms', with no slots.
const FILL_TAG: u32 = 3;
/// Slots of a stored `u32`: an id list's base, a word window's first word.
const HEAD_SLOTS: usize = 2;
/// Slots of a stored `u64`: a run, a dense word.
const QUAD_SLOTS: usize = 4;
/// Bytes of one index entry, one per batch.
const INDEX_BYTES: u64 = std::mem::size_of::<(u32, u32)>() as u64;
/// Bytes of one slot.
const SLOT_BYTES: u64 = std::mem::size_of::<u16>() as u64;

/// One index entry of [`PhaseBatches`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Batch<'a> {
    /// A batch of ids the destination lacks, in its stored form.
    Delta(Delta<'a>),
    /// Every id the destination lacks, stored as no ids.  Only a phase
    /// that no flight can read holds one, so the window never stores it.
    Fill,
}

/// Storage the [`DeltaWindow`] holds, gains or releases.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct BatchFootprint {
    /// Batches (one per node and delivery phase).
    pub(crate) batches: u64,
    /// Interval runs.
    pub(crate) runs: u64,
    /// Batches stored as dense word windows.
    pub(crate) layers: u64,
    /// Bytes: 8 per batch's index entry, 2 per slot.
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

/// One delivery phase's batches, stored flat: one index entry per node
/// that learned something, ascending by destination, and one array of
/// 16-bit slots holding every batch in its [`Form`].  An entry is
/// `(destination, form << 30 | end)`: its batch is `slots[previous
/// end..end]`, so one lookup finds it.  A fill entry ([`Batch::Fill`])
/// takes the tag [`FILL_TAG`] and no slots.  A phase holds fewer than 2^30
/// slots (2 GiB).
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct PhaseBatches {
    index: Vec<(u32, u32)>,
    slots: Vec<u16>,
}

impl PhaseBatches {
    /// Appends `dst`'s batch, given as the maximal runs of its new ids in
    /// increasing order (`dst` above every destination pushed so far), in
    /// the form that takes the fewest slots — runs on a tie, then the id
    /// list.  Returns the form, or `None` for an empty batch, which is not
    /// stored.
    pub(crate) fn push(&mut self, dst: u32, batch: &[RumorRun]) -> Option<Form> {
        let (&(lo, _), &(last, len)) = (batch.first()?, batch.last()?);
        let (lo, hi) = (lo.index(), last.index() + len as usize);
        let ids: usize = batch.iter().map(|&(_, len)| len as usize).sum();
        let (word_lo, words) = (lo / 64, (hi - 1) / 64 + 1 - lo / 64);
        let as_runs = QUAD_SLOTS * batch.len();
        let as_ids = if hi - lo <= 1 << 16 {
            HEAD_SLOTS + ids
        } else {
            usize::MAX
        };
        let as_words = HEAD_SLOTS + QUAD_SLOTS * words;
        let (form, slots) = if as_runs <= as_ids.min(as_words) {
            (Form::Runs, as_runs)
        } else if as_ids <= as_words {
            (Form::Ids, as_ids)
        } else {
            (Form::Words, as_words)
        };
        // Grow to a power of two: the slot array starts at whatever the
        // first batches take, and doubling from there can leave half the
        // last block unused.
        let need = self.slots.len() + slots;
        if need > self.slots.capacity() {
            self.slots
                .reserve_exact(need.next_power_of_two() - self.slots.len());
        }
        match form {
            Form::Runs => {
                let runs = batch
                    .iter()
                    .map(|&(f, n)| u64::from(f.0) | u64::from(n) << 32);
                self.slots.extend(runs.flat_map(quad));
            }
            Form::Ids => {
                self.slots.extend([lo as u16, (lo >> 16) as u16]);
                let offsets = batch
                    .iter()
                    .flat_map(|&(f, n)| f.0..f.0 + n)
                    .map(|i| (i as usize - lo) as u16);
                self.slots.extend(offsets);
            }
            Form::Words => {
                self.slots.extend([word_lo as u16, (word_lo >> 16) as u16]);
                let start = self.slots.len();
                self.slots.resize(start + QUAD_SLOTS * words, 0);
                let (window, _) = self
                    .slots
                    .get_mut(start..)
                    .unwrap_or_default()
                    .as_chunks_mut();
                for &(f, n) in batch {
                    for (w, mask) in word_masks(f.index() - word_lo * 64, n as usize) {
                        if let Some(word) = window.get_mut(w) {
                            *word = quad(unquad(*word) | mask);
                        }
                    }
                }
            }
        }
        debug_assert!(
            self.slots.len() < 1 << FORM_SHIFT,
            "a phase past 2^30 slots"
        );
        self.index
            .push((dst, ((form as u32) << FORM_SHIFT) | self.slots.len() as u32));
        Some(form)
    }

    /// Appends a fill entry for `dst` (above every destination pushed so
    /// far): it learns every id it lacks.  Only a phase that no flight can
    /// read may hold one.
    pub(crate) fn push_fill(&mut self, dst: u32) {
        self.index
            .push((dst, FILL_TAG << FORM_SHIFT | self.slots.len() as u32));
    }

    /// Appends another phase piece whose destinations all lie above this
    /// one's (merge shards, in shard order).
    pub(crate) fn extend(&mut self, other: PhaseBatches) {
        if self.index.is_empty() {
            *self = other;
            return;
        }
        let offset = self.slots.len() as u32;
        self.index.extend(
            other
                .index
                .into_iter()
                .map(|(dst, entry)| (dst, entry + offset)),
        );
        self.slots.extend(other.slots);
    }

    /// The batch of index entry `entry`, whose slots start at `start`.
    fn batch(&self, start: u32, entry: u32) -> Option<Batch<'_>> {
        let end = entry & ((1 << FORM_SHIFT) - 1);
        let slots = self.slots.get(start as usize..end as usize)?;
        // The tag is the form's discriminant, or the fill tag.
        Some(match entry >> FORM_SHIFT {
            0 => Batch::Delta(Delta::Runs(slots.as_chunks().0)),
            1 => {
                let (base, offsets) = split_head(slots)?;
                Batch::Delta(Delta::Ids(base, offsets))
            }
            2 => {
                let (word_lo, words) = split_head(slots)?;
                Batch::Delta(Delta::Words(word_lo as usize, words.as_chunks().0))
            }
            _ => Batch::Fill,
        })
    }

    /// Every destination's batch, ascending by destination.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, Batch<'_>)> {
        let mut start = 0;
        self.index.iter().filter_map(move |&(dst, entry)| {
            let batch = self.batch(start, entry);
            start = entry & ((1 << FORM_SHIFT) - 1);
            Some((dst, batch?))
        })
    }

    /// `node`'s batch, if it learned anything in this phase; the window
    /// never stores a fill entry, so a stored phase has a batch for every
    /// node it lists.
    fn get(&self, node: u32) -> Option<Delta<'_>> {
        let k = self
            .index
            .binary_search_by_key(&node, |&(dst, _)| dst)
            .ok()?;
        let start = k
            .checked_sub(1)
            .and_then(|j| self.index.get(j))
            .map_or(0, |&(_, entry)| entry & ((1 << FORM_SHIFT) - 1));
        match self.batch(start, self.index.get(k)?.1)? {
            Batch::Delta(delta) => Some(delta),
            Batch::Fill => None,
        }
    }

    /// What the batches hold.
    pub(crate) fn footprint(&self) -> BatchFootprint {
        let batches = self.index.len() as u64;
        let mut held = BatchFootprint {
            batches,
            bytes: INDEX_BYTES * batches + SLOT_BYTES * self.slots.len() as u64,
            ..BatchFootprint::default()
        };
        for (_, batch) in self.iter() {
            match batch {
                Batch::Delta(Delta::Runs(runs)) => held.runs += runs.len() as u64,
                Batch::Delta(Delta::Words(..)) => held.layers += 1,
                Batch::Delta(Delta::Ids(..)) | Batch::Fill => {}
            }
        }
        held
    }
}

/// The engine's one history structure: the batches of the latest delivery
/// phases, keyed by round.
///
/// An exchange over an edge of latency `ℓ` delivers each endpoint's set as
/// of its initiation round `r = t − ℓ`.  Sets only grow at deliveries, so
/// that snapshot is the endpoint's current set minus what it learned in
/// rounds `r + 1 ..= t − 1` — at most `max_latency − 1` rounds of batches.
/// Older rounds can never be referenced and are aged out; and once no
/// flight is left in the calendar, no round is read again, so the engine
/// empties the window and stores no round.
#[derive(Debug, Default)]
pub(crate) struct DeltaWindow {
    /// `(round, batches)`, rounds increasing.
    rounds: VecDeque<(u64, PhaseBatches)>,
}

impl DeltaWindow {
    /// Stores round `round`'s batches (after every stored round).  A round
    /// that a flight can read holds no fill entry: the ids are what the
    /// flight subtracts.
    pub(crate) fn push(&mut self, round: u64, mut batches: PhaseBatches) {
        debug_assert!(
            batches.iter().all(|(_, batch)| batch != Batch::Fill),
            "a stored round holds a fill entry"
        );
        if !batches.index.is_empty() {
            batches.index.shrink_to_fit();
            batches.slots.shrink_to_fit();
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
            short => {
                let mut out = [0; PAGE_WORDS];
                for (o, &w) in out.iter_mut().zip(short.block()) {
                    *o = w;
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
            self.touched = vec![false; src.universe().div_ceil(PAGE_BITS)];
        }
        let mut add_page = |entry: &PageEntry| {
            let page = entry.index();
            let cap = src.page_capacity(page);
            let mut words = entry.words(cap);
            let held = match &dst.store {
                Store::Pages(pages) => {
                    let held = pages.binary_search_by_key(&page, PageEntry::index);
                    held.ok().and_then(|p| pages.get(p))
                }
                Store::Ids(_) => {
                    // An inline set's ids on this page, cleared directly.
                    let base = page << PAGE_SHIFT;
                    for &i in dst
                        .inline_ids()
                        .iter()
                        .filter(|&&i| i >> PAGE_SHIFT == page)
                    {
                        let bit = (i - base) as usize;
                        if let Some(w) = words.get_mut(bit / 64) {
                            *w &= !(1 << (bit % 64));
                        }
                    }
                    None
                }
            };
            match held {
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
        match &src.store {
            _ if src.is_full() => {
                for index in 0..src.universe().div_ceil(PAGE_BITS) as u32 {
                    add_page(&PageEntry::Full { index });
                }
            }
            Store::Pages(pages) => pages.iter().for_each(add_page),
            Store::Ids(_) => {
                inline_entries(src.inline_ids(), src.universe()).for_each(|entry| add_page(&entry))
            }
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

    /// Sets the bits `lo..lo+len` in a raw bitset word slice.
    fn set_words_range(words: &mut [u64], lo: usize, len: usize) {
        for (w, mask) in word_masks(lo, len) {
            words[w] |= mask;
        }
    }

    /// Unions the set bits of a word window — `words[k]` holds universe
    /// bits `(word_lo + k)·64 ..` — into `set`.
    fn union_window(set: &mut RumorSet, word_lo: usize, words: &[u64]) -> u32 {
        set.union_masks((word_lo..).zip(words.iter().copied()))
    }

    /// `runs` stored as node 0's batch of a phase, in the form `push` picks.
    fn stored(runs: &[RumorRun]) -> PhaseBatches {
        let mut phase = PhaseBatches::default();
        phase.push(0, runs);
        phase
    }

    /// Unions the batch `runs`, ids `set` lacks, into `set` in its stored
    /// form.
    fn insert_batch(set: &mut RumorSet, runs: &[RumorRun]) -> u32 {
        stored(runs)
            .get(0)
            .map_or(0, |delta| set.insert_delta(delta))
    }

    /// Bytes of one stored run.
    const RUN_BYTES: u64 = QUAD_SLOTS as u64 * SLOT_BYTES;

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
        assert_eq!(s.page_footprint().dense, 0);
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
        assert_eq!(s.page_footprint().dense, 0);
        assert_eq!(s.page_footprint().bytes, 3 * ENTRY_BYTES);
        s.insert(RumorId(100));
        assert_eq!(s.page_footprint().dense, 1);
        assert_eq!(s.page_footprint().bytes, 3 * ENTRY_BYTES + 512);
    }

    /// What a dense page is charged: its 16-byte entry plus its block.  A
    /// 4096-bit page's block is 64 words; a short last page's block is the
    /// smallest of 8, 16, 32 or 64 words that holds it.
    #[test]
    fn a_dense_page_is_charged_its_entry_and_its_block() {
        let dense_at = |universe: usize, pages: usize| {
            let mut s = RumorSet::empty(universe);
            for page in 0..pages {
                for i in (0..14).step_by(2) {
                    s.insert(RumorId::from(page * PAGE_BITS + i));
                }
            }
            s.page_footprint()
        };
        // A 1024-id universe is one short page: a block of 16 words.
        let churn = dense_at(1024, 1);
        assert_eq!(churn.dense, 1);
        assert_eq!(churn.bytes, 16 + 128);
        assert_eq!(dense_at(1025, 1).bytes, 16 + 256);
        assert_eq!(dense_at(2048, 1).bytes, 16 + 256);
        assert_eq!(dense_at(2049, 1).bytes, 16 + 512);
        // A 2^17-id universe is 32 whole pages of 16 + 512 bytes each.
        let star = dense_at(131072, 32);
        assert_eq!(star.dense, 32);
        assert_eq!(star.bytes, 32 * (16 + 512));
        // A last page of 70 bits needs 2 words and gets the smallest block,
        // 8; the page before it gets all 64.
        assert_eq!(dense_at(PAGE_BITS + 70, 2).bytes, 16 + 512 + 16 + 64);
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
    fn union_run_matches_individual_inserts() {
        let mut a = RumorSet::empty(200);
        a.insert(RumorId(70));
        a.insert(RumorId(128));
        let before = a.clone();
        let mut b = a.clone();

        assert_eq!(a.union_run(60, 80), 78, "70 and 128 were held");
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
        assert_eq!(a.union_run(0, 0), 0);
        assert_eq!(a, b);
    }

    #[test]
    fn union_run_crossing_pages_matches_individual_inserts() {
        let mut a = RumorSet::empty(3 * PAGE_BITS + 100);
        a.insert(RumorId(5000));
        let before = a.clone();
        let mut b = a.clone();
        // Spans pages 0..=3 (the last one partial).
        let added = a.union_run(100, (3 * PAGE_BITS + 100 - 100 - 7) as u32);
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
        assert!(
            a.page_footprint().dense <= 2,
            "only boundary pages may stay dense"
        );
    }

    #[test]
    fn full_page_runs_do_not_allocate() {
        let mut s = RumorSet::empty(2 * PAGE_BITS);
        assert_eq!(s.union_run(0, PAGE_BITS as u32), PAGE_BITS as u32);
        assert_eq!(
            s.page_footprint().dense,
            0,
            "a whole-page run is a sentinel page"
        );
        assert_eq!(s.len(), PAGE_BITS);
        s.union_run(PAGE_BITS, PAGE_BITS as u32);
        assert!(s.is_full());
        assert_eq!(
            s.page_footprint().dense,
            0,
            "full sets collapse to zero pages"
        );
    }

    /// Every order of the ids `ids`.
    fn orders(ids: &[u32]) -> Vec<Vec<u32>> {
        if ids.is_empty() {
            return vec![Vec::new()];
        }
        (0..ids.len())
            .flat_map(|k| {
                let mut rest = ids.to_vec();
                let first = rest.remove(k);
                orders(&rest).into_iter().map(move |mut order| {
                    order.insert(0, first);
                    order
                })
            })
            .collect()
    }

    /// A set of at most `SPARSE_MAX` ids lives inline in its header on a
    /// 2^17-id universe: it has no page cost, and it equals the same ids
    /// unioned as runs whatever order they were inserted in.  A sixth id
    /// moves the set to pages: six ids on two pages cost two entries.
    #[test]
    fn sets_of_at_most_five_ids_stay_inline() {
        let n = 1 << 17;
        let ids = [4097u32, 5, 131_071, 6, 4];
        for k in 0..=SPARSE_MAX {
            let mut sorted = ids[..k].to_vec();
            sorted.sort_unstable();
            let mut by_runs = RumorSet::empty(n);
            for (first, len) in runs_of(sorted.iter().map(|&i| i as usize)) {
                by_runs.union_run(first.index(), len);
            }
            assert_eq!(by_runs.len(), k);
            for order in orders(&ids[..k]) {
                let mut set = RumorSet::empty(n);
                for &i in &order {
                    set.insert(RumorId(i));
                }
                assert!(matches!(set.store, Store::Ids(_)), "{order:?}");
                assert_eq!(set.page_footprint(), PageFootprint::default());
                assert_eq!(set, by_runs, "{order:?}");
            }
        }
        let mut six = RumorSet::empty(n);
        for i in [4, 5, 6, 7, 4096, 4097] {
            six.insert(RumorId(i));
        }
        let cost = six.page_footprint();
        assert_eq!((cost.dense, cost.bytes), (0, 2 * ENTRY_BYTES));
        assert_eq!(six.iter().count(), 6);
        // Inline ids that fill a short last page become its full sentinel
        // when the set moves to pages, as a union of all six at once gives.
        let n = PAGE_BITS + 3;
        let mut tail_first = RumorSet::empty(n);
        tail_first.union_run(PAGE_BITS, 3);
        assert!(matches!(tail_first.store, Store::Ids(_)));
        tail_first.union_run(0, 3);
        let mut words = vec![0; n.div_ceil(64)];
        set_words_range(&mut words, 0, 3);
        set_words_range(&mut words, PAGE_BITS, 3);
        let mut at_once = RumorSet::empty(n);
        union_window(&mut at_once, 0, &words);
        assert_eq!(tail_first, at_once);
        assert_eq!(tail_first.page_footprint().bytes, ENTRY_BYTES);
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
        by_run.union_run(0, n as u32);
        assert_eq!(by_bits, by_run);
        assert!(by_bits.is_full());
        assert_eq!(by_bits.page_footprint().dense, 0);

        let mut partial_bits = RumorSet::empty(n);
        for i in 0..PAGE_BITS {
            partial_bits.insert(RumorId::from(i));
        }
        let mut partial_run = RumorSet::empty(n);
        partial_run.union_run(0, PAGE_BITS as u32);
        assert_eq!(partial_bits, partial_run, "full page == sentinel page");
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn union_run_past_universe_panics() {
        let mut s = RumorSet::empty(10);
        s.union_run(8, 3);
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
        assert_eq!(union_window(&mut dst, 0, &window), 4);
        assert_eq!(
            new_runs(&before, &dst),
            vec![
                (RumorId(0), 2),
                (RumorId(64), 1),
                (RumorId(PAGE_BITS as u32 + 129), 1)
            ]
        );
        assert_eq!(dst.len(), 5);
        assert_eq!(
            union_window(&mut dst, 0, &window),
            0,
            "second union adds nothing"
        );
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
            assert_eq!(union_window(&mut set, word_lo, &window), 4);
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
        s.union_run(0, PAGE_BITS as u32); // page 0 full
        s.insert(RumorId(PAGE_BITS as u32 + 10));
        let mut missing = Vec::new();
        s.complement_runs(&mut missing);
        let expanded: Vec<usize> = missing
            .iter()
            .flat_map(|&(f, l)| f.index()..f.index() + l as usize)
            .collect();
        let expected: Vec<usize> = (PAGE_BITS..n).filter(|&i| i != PAGE_BITS + 10).collect();
        assert_eq!(expanded, expected);
        assert_eq!(insert_batch(&mut s, &missing) as usize, expected.len());
        assert!(s.is_full());
        assert_eq!(s.page_footprint().dense, 0);
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
    fn phase_batches_store_consecutive_ids_as_runs() {
        let mut learned = RumorSet::empty(2000);
        learned.union_run(3, 200);
        learned.union_run(1000, 300);
        let batch = new_runs(&RumorSet::empty(2000), &learned);
        assert_eq!(batch, vec![(RumorId(3), 200), (RumorId(1000), 300)]);
        let mut phase = PhaseBatches::default();
        assert_eq!(phase.push(5, &batch), Some(Form::Runs));
        let held = phase.footprint();
        assert_eq!((held.batches, held.runs, held.layers), (1, 2, 0));
        assert_eq!(held.bytes, INDEX_BYTES + 2 * RUN_BYTES);
        let Some(Delta::Runs(runs)) = phase.get(5) else {
            panic!("node 5's batch is runs");
        };
        assert_eq!(runs.iter().map(|&r| run_of(r)).collect::<Vec<_>>(), batch);
        assert_eq!(phase.get(4), None);
        assert_eq!(phase.push(6, &[]), None, "an empty batch is not stored");
        assert_eq!(phase.footprint(), held);
    }

    /// Each batch takes the form with the fewest slots: a fragmented batch
    /// becomes the dense window it spans, a scattered one the list of its
    /// 16-bit offsets, and a scattered one spanning more than 65,536 ids
    /// stays runs.  Every form reads back as its ids, in place.
    #[test]
    fn phase_batches_store_fragmented_batches_as_dense_layers() {
        // Every third id of 0..300: 100 runs (400 slots) or offsets (102)
        // against a 5-word window (22).
        let fragmented: Vec<RumorRun> = (0..300).step_by(3).map(|i| (RumorId(i), 1)).collect();
        // Every 100th id of 0..10000: 100 runs (400 slots) or a 157-word
        // window (630) against 100 offsets and a base (102).
        let scattered: Vec<RumorRun> = (0..10_000).step_by(100).map(|i| (RumorId(i), 1)).collect();
        // Two ids 70,000 apart, past what a 16-bit offset reaches.
        let wide = [(RumorId(0), 1), (RumorId(70_000), 1)];
        let compact = [(RumorId(400), 64)];
        let mut phase = PhaseBatches::default();
        assert_eq!(phase.push(1, &compact), Some(Form::Runs));
        assert_eq!(phase.push(2, &fragmented), Some(Form::Words));
        assert_eq!(phase.push(3, &scattered), Some(Form::Ids));
        assert_eq!(phase.push(4, &wide), Some(Form::Runs));
        assert_eq!(phase.push(9, &compact), Some(Form::Runs));
        let held = phase.footprint();
        assert_eq!((held.batches, held.runs, held.layers), (5, 4, 1));
        let slots = 4 * QUAD_SLOTS + (HEAD_SLOTS + 5 * QUAD_SLOTS) + (HEAD_SLOTS + 100);
        assert_eq!(held.bytes, 5 * INDEX_BYTES + SLOT_BYTES * slots as u64);
        let want = [&compact[..], &fragmented, &scattered, &wide, &compact];
        assert_eq!(phase.iter().count(), want.len());
        for ((dst, batch), want) in phase.iter().zip(want) {
            let Batch::Delta(delta) = batch else {
                panic!("node {dst}'s batch is a fill entry");
            };
            assert_eq!(delta.ids().collect::<Vec<_>>(), ids_of(want), "node {dst}");
            assert_eq!(phase.get(dst), Some(delta));
            assert_eq!(delta.id_count(), ids_of(want).len() as u64);
        }
        let Some(Delta::Ids(0, offsets)) = phase.get(3) else {
            panic!("node 3's batch is an id list from 0");
        };
        assert_eq!(offsets.len(), 100);
        // Inside one word, a base and one slot per id cost no more than a
        // base and the word up to four ids (the list wins the tie), and
        // less than a run each; a fifth id tips it to the word.  A run of
        // four ids costs what its four offsets do, and stays a run.
        let runs = |k: u32| (0..k).map(|i| (RumorId(2 * i), 1)).collect::<Vec<_>>();
        for k in 1..=4 {
            assert_eq!(PhaseBatches::default().push(0, &runs(k)), Some(Form::Ids));
        }
        assert_eq!(PhaseBatches::default().push(0, &runs(5)), Some(Form::Words));
        let four = [(RumorId(0), 4), (RumorId(70), 2)];
        assert_eq!(
            PhaseBatches::default().push(0, &four[..1]),
            Some(Form::Runs)
        );
        assert_eq!(PhaseBatches::default().push(0, &four), Some(Form::Runs));
    }

    /// The ids of the runs `runs`, ascending.
    fn ids_of(runs: &[RumorRun]) -> Vec<u32> {
        runs.iter().flat_map(|&(f, n)| f.0..f.0 + n).collect()
    }

    /// Slots of `batch` in each form, as `PhaseBatches::push` may store it:
    /// runs, the id list (when its ids span at most 65,536) and the word
    /// window.
    fn slot_costs(batch: &[RumorRun]) -> (usize, Option<usize>, usize) {
        let ids = ids_of(batch);
        let (lo, hi) = (ids[0] as usize, *ids.last().unwrap() as usize + 1);
        let words = (hi - 1) / 64 - lo / 64 + 1;
        let list = (hi - lo <= 1 << 16).then_some(HEAD_SLOTS + ids.len());
        (
            QUAD_SLOTS * batch.len(),
            list,
            HEAD_SLOTS + QUAD_SLOTS * words,
        )
    }

    /// What a batch cost in the window before it had flat forms: its index
    /// entry plus its 8-byte runs, or a boxed dense layer — a 24-byte
    /// header and its word window — when that cost less.
    fn runs_or_boxed_layer_bytes(batch: &[RumorRun]) -> u64 {
        let (runs, _, words) = slot_costs(batch);
        let (runs, layer) = (2 * runs as u64, 24 + 8 * ((words - HEAD_SLOTS) / 4) as u64);
        INDEX_BYTES + runs.min(layer)
    }

    /// The cost rule: every batch takes the form with the fewest slots, and
    /// no stored batch costs more than its runs or its boxed dense layer,
    /// whichever cost less.  Batches are random scattered ids, fragmented
    /// windows and runs, over universes on both sides of 2^16.
    #[test]
    fn no_batch_costs_more_than_its_runs_or_a_boxed_layer() {
        let mut rng = SmallRng::seed_from_u64(41);
        let mut seen = BTreeSet::new();
        for _ in 0..2000 {
            let universe = rng.gen_range(1..1usize << 18);
            let mut used = vec![false; universe];
            let batch = runs_of(random_batch(&mut rng, &mut used));
            let mut phase = PhaseBatches::default();
            let Some(form) = phase.push(0, &batch) else {
                continue;
            };
            let bytes = phase.footprint().bytes;
            assert!(bytes <= runs_or_boxed_layer_bytes(&batch), "{batch:?}");
            let (runs, list, words) = slot_costs(&batch);
            let fewest = runs.min(list.unwrap_or(usize::MAX)).min(words);
            assert_eq!(bytes, INDEX_BYTES + SLOT_BYTES * fewest as u64);
            assert!(list.is_some() || form != Form::Ids, "{batch:?}");
            seen.insert(format!("{form:?}"));
        }
        assert_eq!(seen.len(), 3, "every form is drawn: {seen:?}");
    }

    /// A batch that holds every id a set misses fills the set straight to
    /// the full form, in each stored form; one that holds fewer goes
    /// through the union.
    #[test]
    fn a_batch_of_every_missing_id_fills_the_set() {
        let fill = |universe: usize, held: &[u32], form: Form| {
            let mut set = RumorSet::empty(universe);
            for &i in held {
                set.insert(RumorId(i));
            }
            let mut missing = Vec::new();
            set.complement_runs(&mut missing);
            let mut phase = PhaseBatches::default();
            assert_eq!(phase.push(0, &missing), Some(form));
            let delta = phase.get(0).unwrap();
            assert_eq!(delta.id_count() as usize, universe - held.len());
            // One id short of the complement still unions.
            let mut short = set.clone();
            let (last, len) = *missing.last().unwrap();
            let mut fewer = missing.clone();
            *fewer.last_mut().unwrap() = (last, len - 1);
            fewer.retain(|&(_, len)| len > 0);
            assert_eq!(
                insert_batch(&mut short, &fewer) as u64,
                delta.id_count() - 1
            );
            assert_eq!(short.len(), universe - 1);
            assert_eq!(set.insert_delta(delta) as u64, delta.id_count());
            let mut full = RumorSet::empty(universe);
            full.union_run(0, universe as u32);
            assert_eq!(set, full);
            assert_eq!(set.page_footprint(), PageFootprint::default());
        };
        // The star's leaf: one id of 2^17 misses two runs.
        fill(1 << 17, &[77], Form::Runs);
        // Three scattered holes in a 1000-id set: an id list.
        let holes = [3, 500, 900];
        let held: Vec<u32> = (0..1000).filter(|i| !holes.contains(i)).collect();
        fill(1000, &held, Form::Ids);
        // Every third id held of 300: the other 200 as a 5-word window.
        let thirds: Vec<u32> = (0..300).step_by(3).collect();
        fill(300, &thirds, Form::Words);
    }

    /// A fill entry costs one index entry and no slot, reads back as a
    /// fill (and as no stored batch), survives concatenation, and unions
    /// into its destination as the full set.
    #[test]
    fn a_fill_entry_costs_one_index_entry_and_fills_the_set() {
        let batch = [(RumorId(3), 200), (RumorId(1000), 300)];
        let mut phase = PhaseBatches::default();
        phase.push(1, &batch);
        let runs_only = phase.footprint();
        phase.push_fill(4);
        let mut tail = PhaseBatches::default();
        tail.push_fill(9);
        phase.extend(tail);
        let held = phase.footprint();
        assert_eq!((held.batches, held.runs, held.layers), (3, 2, 0));
        assert_eq!(held.bytes, runs_only.bytes + 2 * INDEX_BYTES);
        let entries: Vec<_> = phase.iter().collect();
        assert!(matches!(entries[0], (1, Batch::Delta(Delta::Runs(_)))));
        assert_eq!(entries[1..], [(4, Batch::Fill), (9, Batch::Fill)]);
        assert_eq!((phase.get(4), phase.get(9)), (None, None));
        let mut set = RumorSet::singleton(1 << 17, RumorId(77));
        set.insert(RumorId(0));
        assert_eq!(set.saturate(), (1 << 17) - 2);
        let mut full = RumorSet::empty(1 << 17);
        full.union_run(0, 1 << 17);
        assert_eq!(set, full);
        assert_eq!(set.page_footprint(), PageFootprint::default());
        assert_eq!(set.saturate(), 0, "a full set learns nothing");
    }

    /// `deltas_since` yields a node's batches of exactly the rounds after
    /// the given one, newest first, for every starting round.
    #[test]
    fn delta_window_yields_exactly_the_later_rounds_batches() {
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
                .filter_map(|d| d.ids().next())
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
    fn nearly_full_set_batches_as_the_runs_between_its_holes() {
        let mut set = RumorSet::empty(1000);
        for i in (0..1000).filter(|&i| i != 500) {
            set.insert(RumorId(i));
        }
        let batch = new_runs(&RumorSet::empty(1000), &set);
        assert_eq!(batch, vec![(RumorId(0), 500), (RumorId(501), 499)]);
        let mut phase = PhaseBatches::default();
        assert_eq!(phase.push(0, &batch), Some(Form::Runs));
        assert_eq!(phase.footprint().bytes, INDEX_BYTES + 2 * RUN_BYTES);
    }

    /// Aging out every round frees everything the window held; rounds
    /// stored afterwards are read at their absolute round numbers.
    #[test]
    fn delta_window_aging_out_everything_frees_all_and_keeps_rounds_absolute() {
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
    fn delta_window_ages_out_whole_rounds_and_keeps_rounds_absolute() {
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
        let later: Vec<Vec<u32>> = window
            .deltas_since(0, 3)
            .map(|d| d.ids().collect())
            .collect();
        assert_eq!(later, vec![vec![4000, 4001]]);
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
        a.union_run(10, 5); // 10..15; dst holds 12
        a.insert(RumorId(far));
        let mut b = RumorSet::empty(n);
        b.union_run(14, 6); // 14..20: overlaps a's run and extends it
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
        let earlier = stored(&[(RumorId(14), 3)]);
        let since = [earlier.get(0).unwrap()];
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
        full.union_run(0, n as u32);
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
    /// sparse runs, up to 40 ids scattered over a random span (past 65,536
    /// ids in a large universe), or a fragmented window (possibly crossing
    /// the first page boundary).
    fn random_batch(rng: &mut SmallRng, used: &mut [bool]) -> BTreeSet<usize> {
        let universe = used.len();
        let mut ids = BTreeSet::new();
        let kind = rng.gen_range(0..4u32);
        if kind == 0 {
            for _ in 0..rng.gen_range(1..4u32) {
                let a = rng.gen_range(0..universe);
                ids.extend(a..(a + rng.gen_range(1..20usize)).min(universe));
            }
        } else if kind == 3 {
            let span = rng.gen_range(1..=universe);
            let a = rng.gen_range(0..=universe - span);
            for _ in 0..rng.gen_range(1..40u32) {
                ids.insert(a + rng.gen_range(0..span));
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

    /// A set's page cost recounted from its contents alone: a saturated
    /// set, or one of at most `SPARSE_MAX` ids (inline), costs nothing;
    /// otherwise every page that is neither empty nor full costs an entry,
    /// and a block past `SPARSE_MAX` ids — its `⌈cap/64⌉` words rounded up
    /// to 8, 16, 32 or 64.
    fn recount(model: &[bool]) -> PageFootprint {
        let mut cost = PageFootprint::default();
        if model.iter().all(|&b| b) || model.iter().filter(|&&b| b).count() <= SPARSE_MAX {
            return cost;
        }
        for page in model.chunks(PAGE_BITS) {
            let ones = page.iter().filter(|&&b| b).count();
            if ones > 0 && ones < page.len() {
                cost.bytes += ENTRY_BYTES;
                if ones > SPARSE_MAX {
                    cost.dense += 1;
                    cost.bytes += 8 * page.len().div_ceil(64).next_power_of_two().max(8) as u64;
                }
            }
        }
        cost
    }

    /// A universe of whole pages, then a last page of 1..=`SPARSE_MAX` bits
    /// (it goes straight from sparse to full) or of 6..=4095 bits (it goes
    /// dense in a block of 8 to 64 words), biased towards one-word pages
    /// and word edges.
    fn universe_with_tail(rng: &mut SmallRng, universe: usize) -> usize {
        let whole = universe / PAGE_BITS * PAGE_BITS;
        match rng.gen_range(0..8u32) {
            0 | 1 => whole + rng.gen_range(1..=SPARSE_MAX),
            2 => whole + rng.gen_range(SPARSE_MAX + 1..=64),
            3 => whole + 64 * rng.gen_range(1..PAGE_WORDS) - 1 + rng.gen_range(0..3usize),
            _ if universe > whole && universe - whole > SPARSE_MAX => universe,
            _ => whole + rng.gen_range(SPARSE_MAX + 1..PAGE_BITS),
        }
    }

    /// One round of the window model: per node, the ids it learned.
    struct ModelRound {
        round: u64,
        ids: Vec<BTreeSet<u32>>,
        held: BatchFootprint,
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The delta window against a naive list of per-round batches, on
        /// universes below 9000 ids and, in one case of eight, above 2^16:
        /// each batch takes the form with the fewest slots (an id list only
        /// within 65,536 ids) and costs no more than its runs or a boxed
        /// layer, aging out returns what the aged rounds held,
        /// `deltas_since` yields exactly the batches of the later rounds,
        /// and a node's current set minus them is its set as of that round.
        #[test]
        fn delta_window_matches_naive_batches(seed in 0u64..1 << 32, universe in 1usize..9000) {
            const NODES: usize = 4;
            let mut rng = SmallRng::seed_from_u64(seed);
            let universe = if rng.gen_bool(0.125) {
                universe_with_tail(&mut rng, (1 << 16) + 8 * universe)
            } else {
                universe_with_tail(&mut rng, universe)
            };
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
                    let before = phase.footprint().bytes;
                    let form = phase.push(node as u32, &batch);
                    let added = phase.footprint().bytes - before;
                    if let Some(form) = form {
                        prop_assert!(added <= runs_or_boxed_layer_bytes(&batch), "dearer than before");
                        let (runs, list, words) = slot_costs(&batch);
                        let fewest = runs.min(list.unwrap_or(usize::MAX)).min(words);
                        prop_assert_eq!(added, INDEX_BYTES + SLOT_BYTES * fewest as u64);
                        prop_assert!(list.is_some() || form != Form::Ids, "an id list past 65,536");
                    } else {
                        prop_assert!(batch.is_empty());
                    }
                    for &(first, len) in &batch {
                        sets[node].union_run(first.index(), len);
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
        /// `insert`, `union_run`, windowed word-mask unions, batches of
        /// missing ids in their stored form and complement fills, biased towards the few-id pages that stay sparse and
        /// towards short last pages: of capacity <= `SPARSE_MAX`, which go
        /// straight from sparse to full, and of 6..=4095 bits, which go
        /// dense in a block sized to them.  Each case also draws such a
        /// sequence on a universe of 1 to `SPARSE_MAX` ids, which a small
        /// set fills, and adds 0 to 7 single ids to a universe of two pages
        /// and a tail, across the inline boundary; `check_against_model`
        /// says what is checked.
        #[test]
        fn rumor_set_matches_bool_model(seed in 0u64..1 << 32, universe in 1usize..9000) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mixed = universe_with_tail(&mut rng, universe);
            let steps = rng.gen_range(1..60u32);
            check_against_model(&mut rng, mixed, steps, false);
            let tiny = rng.gen_range(1..=SPARSE_MAX);
            let steps = rng.gen_range(1..60u32);
            check_against_model(&mut rng, tiny, steps, false);
            let multi_page = universe_with_tail(&mut rng, 2 * PAGE_BITS + universe % PAGE_BITS);
            let steps = rng.gen_range(0..=7u32);
            check_against_model(&mut rng, multi_page, steps, true);
        }
    }

    /// Runs `steps` random steps on a set over `universe` and its
    /// `Vec<bool>` model: single-id inserts (`insert`, one-id `union_run`,
    /// a one-bit word mask) when `single`, otherwise the mix of
    /// `rumor_set_matches_bool_model`.  After every step the contents,
    /// `len`, the reported count of new ids, the new runs phase A would
    /// gather and the page cost match; at the end, two other construction
    /// orders compare `==`, and `is_subset` holds exactly when a step added
    /// nothing.
    fn check_against_model(rng: &mut SmallRng, universe: usize, steps: u32, single: bool) {
        let words = universe.div_ceil(64);
        let mut set = RumorSet::empty(universe);
        let mut model = vec![false; universe];
        for _ in 0..steps {
            let before = model.clone();
            let before_set = set.clone();
            let added = if single {
                let i = rng.gen_range(0..universe);
                model[i] = true;
                match rng.gen_range(0..3u32) {
                    0 => u32::from(set.insert(RumorId::from(i))),
                    1 => set.union_run(i, 1),
                    _ => union_window(&mut set, i / 64, &[1 << (i % 64)]),
                }
            } else {
                match rng.gen_range(0..18u32) {
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
                        set.union_run(first, len as u32)
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
                        union_window(&mut set, word_lo, &window)
                    }
                    15 | 16 => {
                        // Ids the set lacks, over a random span, as a
                        // batch in the form `push` picks for it.
                        let span = rng.gen_range(1..=universe);
                        let a = rng.gen_range(0..=universe - span);
                        let density = [0.002, 0.05, 0.5, 1.0][rng.gen_range(0..4usize)];
                        let fresh: Vec<usize> = (a..a + span)
                            .filter(|&i| !model[i] && rng.gen_bool(density))
                            .collect();
                        for &i in &fresh {
                            model[i] = true;
                        }
                        insert_batch(&mut set, &runs_of(fresh))
                    }
                    _ if rng.gen_bool(0.3) => {
                        let mut missing = Vec::new();
                        set.complement_runs(&mut missing);
                        assert_eq!(&missing, &runs_of((0..universe).filter(|&i| !model[i])));
                        model.fill(true);
                        insert_batch(&mut set, &missing)
                    }
                    _ => 0,
                }
            };
            let fresh: Vec<usize> = (0..universe).filter(|&i| model[i] && !before[i]).collect();
            assert_eq!(added as usize, fresh.len());
            assert!(before_set.is_subset(&set));
            assert_eq!(set.is_subset(&before_set), fresh.is_empty());
            assert_eq!(new_runs(&before_set, &set), runs_of(fresh));
            let ids: Vec<usize> = (0..universe).filter(|&i| model[i]).collect();
            assert_eq!(set.len(), ids.len());
            assert_eq!(set.iter().map(RumorId::index).collect::<Vec<_>>(), ids);
            assert_eq!(set.page_footprint(), recount(&model));
        }
        assert_matches_naive(&set, &model);
        let mut backwards = RumorSet::empty(universe);
        for i in (0..universe).rev().filter(|&i| model[i]) {
            backwards.insert(RumorId::from(i));
        }
        assert_eq!(&backwards, &set);
        let mut bitset = vec![0u64; words];
        for i in (0..universe).filter(|&i| model[i]) {
            set_words_range(&mut bitset, i, 1);
        }
        let mut at_once = RumorSet::empty(universe);
        union_window(&mut at_once, 0, &bitset);
        assert_eq!(&at_once, &set);
    }
}
