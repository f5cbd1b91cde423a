//! Bloom-filtered semijoin shuffle: membership filters that suppress
//! non-matching `Assert`/`Req` traffic *before* the exact shuffle.
//!
//! The paper's cost model (§3.3) is dominated by bytes shuffled from
//! mappers to reducers, and the semijoin request/assert exchange only
//! needs *membership*: a request whose join key no conditional fact
//! asserts can never produce output, and an assert whose key no guard
//! fact requests is never read. This module adds a two-stage filtered
//! shuffle mode:
//!
//! 1. **build** — before the map phase proper, the job's mapper runs
//!    once over the input in collect-only mode and each side's distinct
//!    join keys are summarized as a compact [`SplitBlockBloom`] filter
//!    per assert group. The filters are broadcast artifacts: their bytes
//!    are metered like any other communication
//!    ([`crate::JobStats::filter_bytes`]) and priced by the cost model's
//!    transfer constant.
//! 2. **probe** — during the real map phase every candidate `Req` is
//!    tested against the *assert* filter of its group and every `Assert`
//!    against the union-of-requests filter, and messages whose keys
//!    cannot match are suppressed.
//!
//! Bloom filters have no false negatives, so a message that could pair
//! with the other side always survives — answers are **byte-identical**
//! with filtering on or off (the workspace equivalence suite proves it).
//! False positives only cost a few extra exact messages; the observed
//! rate is reported in [`crate::JobStats`].
//!
//! Filtering is sound per *assert group*: both sides hash the same
//! salted key tuples ([`crate::hash::hash_tuple`]), and group indices
//! mirror the reducer's routing table, so an `S`-assert can never
//! satisfy a `T`-request that happens to share a key value.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

use gumbo_common::Tuple;

use crate::hash::hash_tuple;
use crate::message::Message;

/// Deterministic seed mixed into every filter hash, so filter contents
/// are reproducible across runs and thread counts.
const FILTER_SEED: u64 = 0x6f5b_b100_0f11_7e25;

/// Default filter density when the mode spelling omits `:BITS_PER_KEY`.
pub const DEFAULT_BITS_PER_KEY: u32 = 10;

/// Accepted density range; spellings outside it are clamped.
pub const MIN_BITS_PER_KEY: u32 = 6;
pub const MAX_BITS_PER_KEY: u32 = 32;

/// Whether (and how) jobs run the two-stage filtered shuffle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShuffleFilterMode {
    /// No filtering (the historical behaviour).
    #[default]
    Off,
    /// Filter every job that declares a [`FilterSpec`], at the given
    /// density.
    Bloom {
        /// Filter bits allocated per distinct key.
        bits_per_key: u32,
    },
    /// Filter a job only when the planner predicted a net byte win
    /// ([`FilterSpec::auto_profitable`]); jobs without a prediction run
    /// unfiltered.
    Auto {
        /// Filter bits allocated per distinct key.
        bits_per_key: u32,
    },
}

impl ShuffleFilterMode {
    /// Parse a CLI spelling: `off`, `bloom`, `bloom:BITS`, `auto`, or
    /// `auto:BITS`. Densities are clamped to
    /// [`MIN_BITS_PER_KEY`]..=[`MAX_BITS_PER_KEY`].
    pub fn parse(s: &str) -> Option<ShuffleFilterMode> {
        let clamp = |b: u32| b.clamp(MIN_BITS_PER_KEY, MAX_BITS_PER_KEY);
        match s {
            "off" => Some(ShuffleFilterMode::Off),
            "bloom" => Some(ShuffleFilterMode::Bloom {
                bits_per_key: DEFAULT_BITS_PER_KEY,
            }),
            "auto" => Some(ShuffleFilterMode::Auto {
                bits_per_key: DEFAULT_BITS_PER_KEY,
            }),
            _ => {
                if let Some(bits) = s.strip_prefix("bloom:") {
                    let bits: u32 = bits.parse().ok()?;
                    Some(ShuffleFilterMode::Bloom {
                        bits_per_key: clamp(bits),
                    })
                } else if let Some(bits) = s.strip_prefix("auto:") {
                    let bits: u32 = bits.parse().ok()?;
                    Some(ShuffleFilterMode::Auto {
                        bits_per_key: clamp(bits),
                    })
                } else {
                    None
                }
            }
        }
    }

    /// The CLI spelling of this mode.
    pub fn label(&self) -> String {
        match self {
            ShuffleFilterMode::Off => "off".to_string(),
            ShuffleFilterMode::Bloom { bits_per_key } => format!("bloom:{bits_per_key}"),
            ShuffleFilterMode::Auto { bits_per_key } => format!("auto:{bits_per_key}"),
        }
    }

    /// The configured filter density, when filtering can engage.
    pub fn bits_per_key(&self) -> Option<u32> {
        match self {
            ShuffleFilterMode::Off => None,
            ShuffleFilterMode::Bloom { bits_per_key }
            | ShuffleFilterMode::Auto { bits_per_key } => Some(*bits_per_key),
        }
    }
}

/// How a job's messages map onto filterable semijoin sides. Attached to
/// [`crate::Job`]s by the MSJ builder; jobs without a spec (EVAL,
/// 1-ROUND, ad-hoc jobs) always run unfiltered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterSpec {
    /// Local `Req` condition index → assert group index (the mirror of
    /// the reducer's routing table).
    pub req_group: Vec<u32>,
    /// Number of assert groups (shared conditional streams).
    pub groups: usize,
    /// Planner verdict for `auto` mode: `Some(true)` when the predicted
    /// suppressed bytes exceed the filter broadcast bytes, `Some(false)`
    /// when not, `None` when no prediction was possible (no estimator,
    /// or missing statistics).
    pub auto_profitable: Option<bool>,
}

impl FilterSpec {
    /// A spec with no planner verdict yet.
    pub fn new(req_group: Vec<u32>, groups: usize) -> FilterSpec {
        FilterSpec {
            req_group,
            groups,
            auto_profitable: None,
        }
    }
}

/// Number of bytes a filter over `keys` distinct keys occupies at the
/// given density (whole 32-byte blocks, at least one).
pub fn filter_bytes_for(keys: u64, bits_per_key: u32) -> u64 {
    let bits = keys.saturating_mul(u64::from(bits_per_key));
    bits.div_ceil(BLOCK_BITS).max(1) * BLOCK_BYTES
}

const BLOCK_BYTES: u64 = 32;
const BLOCK_BITS: u64 = BLOCK_BYTES * 8;
/// Bits set per key (one per 32-bit lane of a block).
const PROBE_BITS: u32 = 8;

/// Per-lane odd multipliers (the split-block construction of Putze et
/// al., as used by Parquet/Arrow): each selects one bit in its lane.
const SALT: [u32; 8] = [
    0x47b6_137b,
    0x4497_4d91,
    0x8824_ad5b,
    0xa2b7_289d,
    0x7054_95c7,
    0x2df1_424b,
    0x9efc_4947,
    0x5c6b_fb31,
];

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seedable split-block Bloom filter: 256-bit blocks of eight 32-bit
/// lanes, one probe bit per lane. One cache line per membership test,
/// no false negatives ever, false-positive rate governed by
/// `bits_per_key`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitBlockBloom {
    /// Eight consecutive `u32` lanes per block.
    words: Vec<u32>,
    seed: u64,
}

impl SplitBlockBloom {
    /// A filter sized for `keys` distinct keys at `bits_per_key` density.
    pub fn with_capacity(keys: u64, bits_per_key: u32) -> SplitBlockBloom {
        SplitBlockBloom::seeded(keys, bits_per_key, FILTER_SEED)
    }

    /// [`SplitBlockBloom::with_capacity`] with an explicit hash seed.
    pub fn seeded(keys: u64, bits_per_key: u32, seed: u64) -> SplitBlockBloom {
        let blocks = filter_bytes_for(keys, bits_per_key) / BLOCK_BYTES;
        SplitBlockBloom {
            words: vec![0u32; (blocks * 8) as usize],
            seed,
        }
    }

    fn place(&self, raw: u64) -> (usize, u32) {
        let h = splitmix64(raw ^ self.seed);
        let blocks = (self.words.len() / 8) as u64;
        let block = (((h >> 32) * blocks) >> 32) as usize;
        (block * 8, h as u32)
    }

    /// Insert a pre-hashed key.
    pub fn insert(&mut self, raw: u64) {
        let (base, x) = self.place(raw);
        for (lane, salt) in SALT.iter().enumerate() {
            let bit = x.wrapping_mul(*salt) >> 27;
            self.words[base + lane] |= 1u32 << bit;
        }
    }

    /// Membership test for a pre-hashed key: `false` means *definitely
    /// absent*; `true` means present or false positive.
    pub fn contains(&self, raw: u64) -> bool {
        let (base, x) = self.place(raw);
        SALT.iter().enumerate().all(|(lane, salt)| {
            let bit = x.wrapping_mul(*salt) >> 27;
            self.words[base + lane] & (1u32 << bit) != 0
        })
    }

    /// Size of the broadcast artifact, in bytes.
    pub fn byte_size(&self) -> u64 {
        self.words.len() as u64 * 4
    }

    /// Predicted false-positive rate after inserting `keys` distinct
    /// keys: the classic `(1 − e^{−kn/m})^k` approximation with `k = 8`
    /// probe bits (split-block filters run slightly above it at low
    /// densities, which is why observed rates are compared against
    /// *twice* this target).
    pub fn predicted_fp_rate(&self, keys: u64) -> f64 {
        let m = self.words.len() as f64 * 32.0;
        if m <= 0.0 {
            return 1.0;
        }
        let k = f64::from(PROBE_BITS);
        (1.0 - (-k * keys as f64 / m).exp()).powi(PROBE_BITS as i32)
    }
}

/// Predicted false-positive rate of a filter sized by
/// [`filter_bytes_for`] — the planner-side mirror of
/// [`SplitBlockBloom::predicted_fp_rate`].
pub fn predicted_fp_rate_for(keys: u64, bits_per_key: u32) -> f64 {
    let m = filter_bytes_for(keys, bits_per_key) as f64 * 8.0;
    let k = f64::from(PROBE_BITS);
    (1.0 - (-k * keys as f64 / m).exp()).powi(PROBE_BITS as i32)
}

/// Deterministic observations of one filtered job, folded into
/// [`crate::JobStats`] at commit time. All counts are sums over the
/// job's emitted messages, so they are identical at every thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FilterStats {
    /// Unscaled bytes of the broadcast filter artifacts (both
    /// directions, all assert groups).
    pub filter_bytes: u64,
    /// Candidate messages dropped because their key cannot match.
    pub suppressed_messages: u64,
    /// Candidate messages tested against a filter.
    pub filter_probes: u64,
    /// Probes that passed the filter but whose key is absent from the
    /// other side's exact key set (the messages filtering *could* have
    /// saved but did not).
    pub filter_false_positives: u64,
}

/// Per-map-task probe counters, absorbed into the shared [`JobFilters`]
/// atomics when the task finishes (so concurrent tasks never race on
/// per-task telemetry).
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeTally {
    /// Messages tested.
    pub probes: u64,
    /// Messages dropped.
    pub suppressed: u64,
    /// Filter passes that the exact key sets contradict.
    pub false_positives: u64,
}

/// Collects each side's distinct keys during the build stage (the
/// collect-only mapper pass), then seals into [`JobFilters`].
pub struct FilterCollector {
    req_group: Vec<u32>,
    assert_keys: Vec<HashSet<u64>>,
    req_keys: Vec<HashSet<u64>>,
}

impl FilterCollector {
    /// An empty collector for a job's filter spec.
    pub fn new(spec: &FilterSpec) -> FilterCollector {
        FilterCollector {
            req_group: spec.req_group.clone(),
            assert_keys: vec![HashSet::new(); spec.groups],
            req_keys: vec![HashSet::new(); spec.groups],
        }
    }

    /// Record one emitted pair from the collect-only mapper pass.
    pub fn observe(&mut self, key: &Tuple, value: &Message) {
        match value {
            Message::Assert { cond } => {
                if let Some(set) = self.assert_keys.get_mut(*cond as usize) {
                    set.insert(hash_tuple(key));
                }
            }
            Message::Req { cond, .. } => {
                let group = self.req_group.get(*cond as usize).copied();
                if let Some(set) = group.and_then(|g| self.req_keys.get_mut(g as usize)) {
                    set.insert(hash_tuple(key));
                }
            }
            _ => {}
        }
    }

    /// Build the per-group Bloom filters at the given density.
    pub fn seal(self, bits_per_key: u32) -> JobFilters {
        let bloom_of = |keys: &HashSet<u64>| {
            let mut bloom = SplitBlockBloom::with_capacity(keys.len() as u64, bits_per_key);
            for &h in keys {
                bloom.insert(h);
            }
            bloom
        };
        let assert_bloom: Vec<SplitBlockBloom> = self.assert_keys.iter().map(bloom_of).collect();
        let req_bloom: Vec<SplitBlockBloom> = self.req_keys.iter().map(bloom_of).collect();
        let filter_bytes = assert_bloom
            .iter()
            .chain(&req_bloom)
            .map(SplitBlockBloom::byte_size)
            .sum();
        JobFilters {
            req_group: self.req_group,
            assert_exact: self.assert_keys,
            req_exact: self.req_keys,
            assert_bloom,
            req_bloom,
            filter_bytes,
            suppressed: AtomicU64::new(0),
            probes: AtomicU64::new(0),
            false_positives: AtomicU64::new(0),
        }
    }
}

/// The sealed filters of one job: per-assert-group Bloom filters in both
/// directions, the exact key sets (kept to count false positives), and
/// the shared probe counters. Immutable after sealing, so map tasks on
/// any number of threads probe it concurrently.
pub struct JobFilters {
    req_group: Vec<u32>,
    assert_exact: Vec<HashSet<u64>>,
    req_exact: Vec<HashSet<u64>>,
    assert_bloom: Vec<SplitBlockBloom>,
    req_bloom: Vec<SplitBlockBloom>,
    filter_bytes: u64,
    suppressed: AtomicU64,
    probes: AtomicU64,
    false_positives: AtomicU64,
}

impl JobFilters {
    /// Should this emitted pair survive the filter? `Req` keys probe the
    /// assert filter of their group, `Assert` keys probe the request
    /// filter; everything else always passes. No false negatives: a key
    /// present on the other side always survives.
    pub fn keep(&self, key: &Tuple, value: &Message, tally: &mut ProbeTally) -> bool {
        let (bloom, exact) = match value {
            Message::Req { cond, .. } => {
                let Some(&group) = self.req_group.get(*cond as usize) else {
                    return true;
                };
                (
                    &self.assert_bloom[group as usize],
                    &self.assert_exact[group as usize],
                )
            }
            Message::Assert { cond } => {
                let Some(bloom) = self.req_bloom.get(*cond as usize) else {
                    return true;
                };
                (bloom, &self.req_exact[*cond as usize])
            }
            _ => return true,
        };
        tally.probes += 1;
        let h = hash_tuple(key);
        if bloom.contains(h) {
            if !exact.contains(&h) {
                tally.false_positives += 1;
            }
            true
        } else {
            tally.suppressed += 1;
            false
        }
    }

    /// Fold one finished task's counters into the shared totals.
    pub fn absorb(&self, tally: ProbeTally) {
        self.probes.fetch_add(tally.probes, Ordering::Relaxed);
        self.suppressed
            .fetch_add(tally.suppressed, Ordering::Relaxed);
        self.false_positives
            .fetch_add(tally.false_positives, Ordering::Relaxed);
    }

    /// Total broadcast bytes of the filter artifacts (unscaled).
    pub fn filter_bytes(&self) -> u64 {
        self.filter_bytes
    }

    /// Number of distinct keys summarized across all filters.
    pub fn distinct_keys(&self) -> u64 {
        self.assert_exact
            .iter()
            .chain(&self.req_exact)
            .map(|s| s.len() as u64)
            .sum()
    }

    /// Snapshot the observation counters.
    pub fn stats(&self) -> FilterStats {
        FilterStats {
            filter_bytes: self.filter_bytes,
            suppressed_messages: self.suppressed.load(Ordering::Relaxed),
            filter_probes: self.probes.load(Ordering::Relaxed),
            filter_false_positives: self.false_positives.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Payload;

    #[test]
    fn mode_parses_cli_spellings() {
        assert_eq!(
            ShuffleFilterMode::parse("off"),
            Some(ShuffleFilterMode::Off)
        );
        assert_eq!(
            ShuffleFilterMode::parse("bloom"),
            Some(ShuffleFilterMode::Bloom { bits_per_key: 10 })
        );
        assert_eq!(
            ShuffleFilterMode::parse("bloom:16"),
            Some(ShuffleFilterMode::Bloom { bits_per_key: 16 })
        );
        assert_eq!(
            ShuffleFilterMode::parse("auto:8"),
            Some(ShuffleFilterMode::Auto { bits_per_key: 8 })
        );
        // Densities clamp instead of failing.
        assert_eq!(
            ShuffleFilterMode::parse("bloom:2"),
            Some(ShuffleFilterMode::Bloom { bits_per_key: 6 })
        );
        assert_eq!(
            ShuffleFilterMode::parse("bloom:99"),
            Some(ShuffleFilterMode::Bloom { bits_per_key: 32 })
        );
        assert_eq!(ShuffleFilterMode::parse("cuckoo"), None);
        assert_eq!(ShuffleFilterMode::parse("bloom:x"), None);
    }

    #[test]
    fn mode_labels_round_trip() {
        for mode in [
            ShuffleFilterMode::Off,
            ShuffleFilterMode::Bloom { bits_per_key: 10 },
            ShuffleFilterMode::Bloom { bits_per_key: 16 },
            ShuffleFilterMode::Auto { bits_per_key: 12 },
        ] {
            assert_eq!(ShuffleFilterMode::parse(&mode.label()), Some(mode));
        }
    }

    #[test]
    fn bloom_has_no_false_negatives() {
        let mut bloom = SplitBlockBloom::with_capacity(1000, 10);
        for i in 0..1000u64 {
            bloom.insert(splitmix64(i));
        }
        for i in 0..1000u64 {
            assert!(bloom.contains(splitmix64(i)), "key {i} lost");
        }
    }

    #[test]
    fn bloom_rejects_most_absent_keys() {
        let mut bloom = SplitBlockBloom::with_capacity(1000, 10);
        for i in 0..1000u64 {
            bloom.insert(splitmix64(i));
        }
        let fp = (1000..11_000u64)
            .filter(|&i| bloom.contains(splitmix64(i)))
            .count();
        // ~1% target at 10 bits/key; anything under 4% proves rejection.
        assert!(fp < 400, "false positives: {fp}/10000");
    }

    #[test]
    fn empty_bloom_contains_nothing() {
        let bloom = SplitBlockBloom::with_capacity(0, 10);
        assert!(bloom.byte_size() >= 32);
        assert!((0..100u64).all(|i| !bloom.contains(splitmix64(i))));
    }

    #[test]
    fn filter_sizes_are_whole_blocks() {
        assert_eq!(filter_bytes_for(0, 10), 32);
        assert_eq!(filter_bytes_for(1, 10), 32);
        assert_eq!(filter_bytes_for(26, 10), 64); // 260 bits -> 2 blocks
        let bloom = SplitBlockBloom::with_capacity(26, 10);
        assert_eq!(bloom.byte_size(), 64);
    }

    fn spec() -> FilterSpec {
        // Two semi-joins sharing assert group 0, a third in group 1.
        FilterSpec::new(vec![0, 0, 1], 2)
    }

    fn filters(assert_keys: &[(u32, i64)], req_keys: &[(u32, i64)]) -> JobFilters {
        let mut c = FilterCollector::new(&spec());
        for &(group, k) in assert_keys {
            c.observe(&Tuple::from_ints(&[k]), &Message::Assert { cond: group });
        }
        for &(cond, k) in req_keys {
            c.observe(
                &Tuple::from_ints(&[k]),
                &Message::Req {
                    cond,
                    payload: Payload::Ref { guard: 0, id: 0 },
                },
            );
        }
        c.seal(10)
    }

    #[test]
    fn matching_keys_always_survive() {
        let f = filters(&[(0, 1), (0, 2), (1, 3)], &[(0, 1), (1, 2), (2, 3)]);
        let mut tally = ProbeTally::default();
        // Req cond 0 (group 0) with key 1: asserted in group 0.
        assert!(f.keep(
            &Tuple::from_ints(&[1]),
            &Message::Req {
                cond: 0,
                payload: Payload::Ref { guard: 0, id: 0 }
            },
            &mut tally,
        ));
        // Assert group 0 with key 2: requested (cond 1 -> group 0).
        assert!(f.keep(
            &Tuple::from_ints(&[2]),
            &Message::Assert { cond: 0 },
            &mut tally,
        ));
        assert_eq!(tally.suppressed, 0);
        assert_eq!(tally.probes, 2);
    }

    #[test]
    fn unmatched_keys_are_suppressed() {
        let f = filters(&[(0, 1)], &[(0, 5)]);
        let mut tally = ProbeTally::default();
        // Req key 99: no group-0 assert has it.
        assert!(!f.keep(
            &Tuple::from_ints(&[99]),
            &Message::Req {
                cond: 0,
                payload: Payload::Ref { guard: 0, id: 0 }
            },
            &mut tally,
        ));
        // Assert group 1 key 1: no cond-2 request has it.
        assert!(!f.keep(
            &Tuple::from_ints(&[1]),
            &Message::Assert { cond: 1 },
            &mut tally,
        ));
        assert_eq!(tally.suppressed, 2);
    }

    #[test]
    fn groups_do_not_leak() {
        // Key 7 asserted only in group 1 must not satisfy a group-0 request.
        let f = filters(&[(1, 7)], &[(0, 7), (2, 7)]);
        let mut tally = ProbeTally::default();
        assert!(!f.keep(
            &Tuple::from_ints(&[7]),
            &Message::Req {
                cond: 0,
                payload: Payload::Ref { guard: 0, id: 0 }
            },
            &mut tally,
        ));
        // Cond 2 routes to group 1, where key 7 is asserted.
        assert!(f.keep(
            &Tuple::from_ints(&[7]),
            &Message::Req {
                cond: 2,
                payload: Payload::Ref { guard: 0, id: 0 }
            },
            &mut tally,
        ));
    }

    #[test]
    fn non_semijoin_messages_pass_unprobed() {
        let f = filters(&[], &[]);
        let mut tally = ProbeTally::default();
        assert!(f.keep(
            &Tuple::from_ints(&[1]),
            &Message::Tag { rel: 0 },
            &mut tally,
        ));
        assert!(f.keep(
            &Tuple::from_ints(&[1]),
            &Message::GuardTuple {
                guard: 0,
                tuple: Tuple::from_ints(&[1, 2]),
            },
            &mut tally,
        ));
        assert_eq!(tally.probes, 0);
    }

    #[test]
    fn stats_snapshot_counts_absorbed_tallies() {
        let f = filters(&[(0, 1)], &[(0, 1)]);
        f.absorb(ProbeTally {
            probes: 10,
            suppressed: 4,
            false_positives: 1,
        });
        f.absorb(ProbeTally {
            probes: 5,
            suppressed: 2,
            false_positives: 0,
        });
        let s = f.stats();
        assert_eq!(s.filter_probes, 15);
        assert_eq!(s.suppressed_messages, 6);
        assert_eq!(s.filter_false_positives, 1);
        assert!(s.filter_bytes >= 32 * 4); // two groups x two directions
    }

    #[test]
    fn predicted_fp_rate_tracks_density() {
        let sparse = predicted_fp_rate_for(1000, 16);
        let dense = predicted_fp_rate_for(1000, 6);
        assert!(sparse < dense);
        assert!(sparse > 0.0 && dense < 1.0);
    }
}
