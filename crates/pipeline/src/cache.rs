//! A set-associative L1 cache model with LRU replacement.

use crate::CacheConfig;

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheAccess {
    /// `true` on a hit.
    pub hit: bool,
    /// Latency in cycles (hit or miss latency from the config).
    pub latency: u64,
}

/// The MRU filter's "no line yet": wider than any line number, so every
/// `u32` line — `u32::MAX` included — is a real one.
pub(crate) const NO_LINE: u64 = u64::MAX;

/// One way of a set: its tag (the line number with the set index removed)
/// and its LRU age, packed so a set's ways sit side by side.
#[derive(Debug, Clone, Copy, Default)]
struct Way {
    tag: u32,
    /// Tick of the last access (smaller = less recently used).
    age: u32,
}

/// Timing-only set-associative cache with true-LRU replacement.
///
/// The cache tracks tags, not data — the interpreter provides values; the
/// cache only decides hit/miss latency, which feeds the pipeline's dataflow
/// timing (loads) and fetch stalls (instruction fetch).
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// `log2(line_words)` — both geometry parameters are asserted powers of
    /// two, so the per-access line/set/tag math is shift/mask only.
    line_shift: u32,
    /// `sets - 1`.
    set_mask: u32,
    /// `log2(sets)`.
    set_shift: u32,
    /// `sets × assoc` ways, set by set.
    ways: Vec<Way>,
    /// Valid ways per set. A miss fills the first invalid way and nothing
    /// ever invalidates one, so a set's valid ways are always a prefix of
    /// it: this count is the whole validity state, and every tag value —
    /// `u32::MAX` included — stays a real tag.
    filled: Vec<u32>,
    /// Line number of the most recent access ([`NO_LINE`] = none): a one-line
    /// MRU filter. Sequential fetch streams touch the same line `line_words`
    /// times in a row, and only an intervening access — which would update
    /// this filter — could evict it, so a repeat access can skip the way
    /// scan entirely.
    last_line: u64,
    /// Entry index (`set * assoc + way`) of `last_line`, valid only when
    /// the previous access hit or filled it.
    last_entry: usize,
    tick: u32,
    accesses: u64,
    misses: u64,
}

impl Cache {
    /// Creates an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid (see [`CacheConfig::validate`]).
    pub fn new(cfg: CacheConfig) -> Cache {
        if let Err(e) = cfg.validate() {
            panic!("invalid cache config: {e}");
        }
        Cache {
            line_shift: cfg.line_words.trailing_zeros(),
            set_mask: cfg.sets - 1,
            set_shift: cfg.sets.trailing_zeros(),
            ways: vec![Way::default(); (cfg.sets * cfg.assoc) as usize],
            filled: vec![0; cfg.sets as usize],
            cfg,
            last_line: NO_LINE,
            last_entry: 0,
            tick: 0,
            accesses: 0,
            misses: 0,
        }
    }

    /// Accesses the word at `addr`, filling the line on a miss.
    #[inline]
    pub fn access(&mut self, addr: u32) -> CacheAccess {
        self.accesses += 1;
        self.tick = self.tick.wrapping_add(1);
        let line = addr >> self.line_shift;
        if u64::from(line) == self.last_line {
            // Repeat access to the most recent line: it cannot have been
            // evicted (only another access could do that, and it would have
            // replaced the filter), so refresh its age and hit.
            self.ways[self.last_entry].age = self.tick;
            return CacheAccess {
                hit: true,
                latency: self.cfg.hit_latency,
            };
        }
        self.lookup(line)
    }

    /// The way scan and fill of an access to a line other than the most
    /// recent one, kept out of line so the repeat-line path inlines.
    #[inline(never)]
    fn lookup(&mut self, line: u32) -> CacheAccess {
        self.last_line = u64::from(line);
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.set_shift;
        let assoc = self.cfg.assoc as usize;
        let base = set * assoc;
        let filled = &mut self.filled[set];
        let ways = &mut self.ways[base..base + assoc];

        if let Some(w) = ways[..*filled as usize].iter().position(|w| w.tag == tag) {
            ways[w].age = self.tick;
            self.last_entry = base + w;
            return CacheAccess {
                hit: true,
                latency: self.cfg.hit_latency,
            };
        }
        // Miss: fill the first invalid way, else the least-recently-used
        // one (the first of equal ages).
        self.misses += 1;
        let victim = if (*filled as usize) < assoc {
            *filled += 1;
            *filled as usize - 1
        } else {
            let mut best = 0;
            for w in 1..assoc {
                if ways[w].age < ways[best].age {
                    best = w;
                }
            }
            best
        };
        ways[victim] = Way {
            tag,
            age: self.tick,
        };
        self.last_entry = base + victim;
        CacheAccess {
            hit: false,
            latency: self.cfg.miss_latency,
        }
    }

    /// Line number holding `addr` (for callers that batch repeat accesses).
    #[inline]
    pub fn line_of(&self, addr: u32) -> u32 {
        addr >> self.line_shift
    }

    /// Accounts `n` repeat accesses to the line of the most recent
    /// [`access`](Cache::access) in one step. Exactly equivalent to calling
    /// `access` `n` times with addresses on that line — each such call would
    /// take the one-line MRU fast path, and only the final age store
    /// survives — but without paying the per-call counter updates.
    ///
    /// The caller must guarantee no intervening access to a different line
    /// (in the pipeline, fetch is the I-cache's only client, so a
    /// sequential-run batcher in the fetch loop satisfies this).
    #[inline]
    pub fn repeat_hits(&mut self, n: u64) {
        debug_assert!(self.last_line != NO_LINE, "repeat before any access");
        self.accesses += n;
        self.tick = self.tick.wrapping_add(n as u32);
        self.ways[self.last_entry].age = self.tick;
    }

    /// Total accesses so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss rate in `[0, 1]` (`NaN` before any access).
    pub fn miss_rate(&self) -> f64 {
        self.misses as f64 / self.accesses as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tiny(assoc: u32) -> Cache {
        Cache::new(CacheConfig {
            sets: 4,
            assoc,
            line_words: 4,
            hit_latency: 2,
            miss_latency: 20,
        })
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = tiny(2);
        let a = c.access(0x100);
        assert!(!a.hit);
        assert_eq!(a.latency, 20);
        let b = c.access(0x100);
        assert!(b.hit);
        assert_eq!(b.latency, 2);
    }

    #[test]
    fn spatial_locality_within_a_line() {
        let mut c = tiny(2);
        c.access(0x100);
        assert!(c.access(0x101).hit, "same 4-word line");
        assert!(c.access(0x103).hit);
        assert!(!c.access(0x104).hit, "next line misses");
    }

    #[test]
    fn lru_evicts_the_oldest_way() {
        let mut c = tiny(2);
        // Set index = (addr/4) & 3. Use addresses mapping to set 0:
        // lines 0, 4, 8 (addresses 0, 64, 128 in words... line=addr/4).
        let l0 = 0u32; // line 0 -> set 0
        let l1 = 16u32; // line 4 -> set 0
        let l2 = 32u32; // line 8 -> set 0
        c.access(l0);
        c.access(l1);
        c.access(l0); // refresh l0; l1 is now LRU
        c.access(l2); // evicts l1
        assert!(c.access(l0).hit);
        assert!(!c.access(l1).hit, "l1 was evicted");
    }

    #[test]
    fn conflict_misses_in_direct_mapped() {
        let mut c = tiny(1);
        c.access(0);
        c.access(16); // same set, different tag
        assert!(!c.access(0).hit, "direct-mapped conflict");
    }

    #[test]
    fn stats_accumulate() {
        let mut c = tiny(2);
        c.access(0);
        c.access(0);
        c.access(64);
        assert_eq!(c.accesses(), 3);
        assert_eq!(c.misses(), 2);
        assert!((c.miss_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn paper_caches_construct() {
        let _ = Cache::new(CacheConfig::paper_icache());
        let _ = Cache::new(CacheConfig::paper_dcache());
    }

    /// A naive true-LRU cache: per set, the resident `(tag, last use)`
    /// pairs in fill order.
    struct Model {
        cfg: CacheConfig,
        sets: Vec<Vec<(u32, u32)>>,
        tick: u32,
        last: Option<(usize, u32)>,
    }

    impl Model {
        fn new(cfg: CacheConfig) -> Model {
            Model {
                cfg,
                sets: vec![Vec::new(); cfg.sets as usize],
                tick: 0,
                last: None,
            }
        }

        fn access(&mut self, addr: u32) -> bool {
            self.tick = self.tick.wrapping_add(1);
            let line = addr / self.cfg.line_words;
            let (set, tag) = ((line % self.cfg.sets) as usize, line / self.cfg.sets);
            self.last = Some((set, tag));
            let ways = &mut self.sets[set];
            if let Some(w) = ways.iter_mut().find(|w| w.0 == tag) {
                w.1 = self.tick;
                return true;
            }
            if ways.len() < self.cfg.assoc as usize {
                ways.push((tag, self.tick));
            } else {
                // The first of the least recently used ways.
                let oldest = ways.iter().map(|w| w.1).min().expect("a full set");
                let victim = ways.iter().position(|w| w.1 == oldest).expect("oldest way");
                ways[victim] = (tag, self.tick);
            }
            false
        }

        fn repeat_hits(&mut self, n: u32) {
            self.tick = self.tick.wrapping_add(n);
            let (set, tag) = self.last.expect("an access before repeats");
            let way = self.sets[set].iter_mut().find(|w| w.0 == tag);
            way.expect("the last line is resident").1 = self.tick;
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Access(u32),
        Repeat(u32),
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        prop::collection::vec(
            prop_oneof![
                6 => (0u32..96).prop_map(Op::Access),
                // The top of the address space: tags up to `u32::MAX`.
                2 => (0u32..8).prop_map(|a| Op::Access(u32::MAX - a)),
                1 => (1u32..5).prop_map(Op::Repeat),
            ],
            0..300,
        )
    }

    proptest! {
        /// The packed-way cache hits, misses and evicts exactly like a
        /// naive per-set LRU list, over small geometries that force
        /// conflicts, the all-ones tag included.
        #[test]
        fn cache_matches_a_naive_lru_model(
            ops in ops(),
            sets_log in 0u32..3,
            assoc in 1u32..5,
            line_log in 0u32..3,
        ) {
            let cfg = CacheConfig {
                sets: 1 << sets_log,
                assoc,
                line_words: 1 << line_log,
                hit_latency: 2,
                miss_latency: 20,
            };
            let mut cache = Cache::new(cfg);
            let mut model = Model::new(cfg);
            let mut misses = 0u64;
            for op in &ops {
                match *op {
                    Op::Access(addr) => {
                        let hit = model.access(addr);
                        misses += u64::from(!hit);
                        let got = cache.access(addr);
                        prop_assert_eq!(got.hit, hit, "{:?} at {}", cfg, addr);
                        prop_assert_eq!(got.latency, if hit { 2 } else { 20 });
                    }
                    Op::Repeat(n) => {
                        if model.last.is_some() {
                            model.repeat_hits(n);
                            cache.repeat_hits(u64::from(n));
                        }
                    }
                }
            }
            prop_assert_eq!(cache.misses(), misses);
        }
    }

    /// With one set and one-word lines the tag is the whole address, so
    /// `u32::MAX` is a real tag: it must miss cold and hit warm.
    #[test]
    fn the_all_ones_tag_is_a_real_tag() {
        let mut c = Cache::new(CacheConfig {
            sets: 1,
            assoc: 2,
            line_words: 1,
            hit_latency: 1,
            miss_latency: 10,
        });
        assert!(!c.access(u32::MAX).hit, "cold");
        assert!(c.access(u32::MAX).hit, "warm");
        // And through the way scan, not only the repeat-line filter.
        assert!(!c.access(0).hit);
        assert!(c.access(u32::MAX).hit);
        assert_eq!((c.accesses(), c.misses()), (4, 2));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        let _ = Cache::new(CacheConfig {
            sets: 3,
            assoc: 1,
            line_words: 4,
            hit_latency: 1,
            miss_latency: 10,
        });
    }
}
