//! TANE — minimal functional-dependency discovery (Huhtala et al., 1998).
//!
//! The FD-only ancestor of FASTOD: a level-wise sweep of the set lattice with
//! stripped partitions, RHS⁺ candidate sets and the error-rate validity test
//! `X → A ⟺ e(Π*_X) = e(Π*_{XA})`. FASTOD subsumes this machinery (its
//! constancy fragment *is* FD discovery); keeping an independent TANE lets
//! Exp-4 measure the incremental cost of order semantics and lets tests
//! cross-check the two FD outputs.
//!
//! Deviation from the original: TANE's superkey node deletion (with its
//! special key-output step) is not implemented — nodes are deleted only when
//! their candidate set empties. This changes running time slightly on
//! key-heavy data, never the output.

use fastod::{CancelToken, DiscoveryStats, LevelStats, PassError};
use fastod_partition::{ProductScratch, StrippedPartition};
use fastod_relation::{AttrSet, EncodedRelation};
use fastod_theory::{CanonicalOd, OdSet};
use std::collections::HashMap;
use std::time::Instant;

/// Configuration for [`Tane`].
#[derive(Clone, Default)]
pub struct TaneConfig {
    /// Stop after this lattice level; `None` = unbounded.
    pub max_level: Option<usize>,
    /// Cooperative cancellation token.
    pub cancel: CancelToken,
}

/// Result of a TANE run: the minimal FDs (as canonical constancy ODs,
/// `X: [] ↦ A ⟺ X → A` by Theorem 2) plus statistics.
#[derive(Clone, Debug, Default)]
pub struct TaneResult {
    /// Minimal FDs, represented as constancy ODs.
    pub fds: OdSet,
    /// Per-level statistics.
    pub stats: DiscoveryStats,
}

struct Node {
    partition: StrippedPartition,
    cc: AttrSet,
}

type Level = HashMap<u64, Node>;

/// The TANE discovery algorithm.
pub struct Tane {
    config: TaneConfig,
}

impl Tane {
    /// Creates a TANE instance.
    pub fn new(config: TaneConfig) -> Tane {
        Tane { config }
    }

    /// Runs FD discovery; panics on cancellation (see [`Tane::try_discover`]).
    pub fn discover(&self, enc: &EncodedRelation) -> TaneResult {
        self.try_discover(enc).expect("discovery cancelled")
    }

    /// Runs FD discovery with cancellation support.
    pub fn try_discover(&self, enc: &EncodedRelation) -> Result<TaneResult, PassError> {
        let start = Instant::now();
        let n_attrs = enc.n_attrs();
        let mut result = TaneResult::default();
        if n_attrs == 0 {
            result.stats.total_time = start.elapsed();
            return Ok(result);
        }
        let mut scratch = ProductScratch::new();

        // Level 0: {} with C⁺({}) = R.
        let mut prev: Level = HashMap::new();
        prev.insert(
            AttrSet::EMPTY.bits(),
            Node {
                partition: StrippedPartition::unit(enc.n_rows()),
                cc: AttrSet::full(n_attrs),
            },
        );
        // Level 1.
        let mut current: Level = (0..n_attrs)
            .map(|a| {
                (
                    AttrSet::singleton(a).bits(),
                    Node {
                        partition: StrippedPartition::from_codes(
                            enc.codes(a),
                            enc.cardinality(a),
                        ),
                        cc: AttrSet::EMPTY,
                    },
                )
            })
            .collect();
        let mut l = 1usize;

        while !current.is_empty() {
            let level_start = Instant::now();
            let mut lstats = LevelStats {
                level: l,
                nodes: current.len(),
                ..Default::default()
            };
            let mut keys: Vec<u64> = current.keys().copied().collect();
            keys.sort_unstable();

            // Candidate sets: C⁺(X) = ∩_{A∈X} C⁺(X\A).
            for &bits in &keys {
                let x = AttrSet::from_bits(bits);
                let mut cc = AttrSet::full(n_attrs);
                for (_, parent) in x.parents() {
                    cc = cc.intersect(prev[&parent.bits()].cc);
                }
                current.get_mut(&bits).expect("node").cc = cc;
            }

            // FD checks.
            for &bits in &keys {
                self.config.cancel.check()?;
                let x = AttrSet::from_bits(bits);
                let candidates: Vec<_> = x.intersect(current[&bits].cc).to_vec();
                for a in candidates {
                    let parent_set = x.without(a);
                    let parent = &prev[&parent_set.bits()].partition;
                    let valid = if parent.is_superkey() {
                        lstats.fd_checks_key_pruned += 1;
                        true
                    } else {
                        lstats.fd_checks += 1;
                        parent.error() == current[&bits].partition.error()
                    };
                    if valid {
                        result.fds.insert(CanonicalOd::constancy(parent_set, a));
                        lstats.fds_found += 1;
                        let node = current.get_mut(&bits).expect("node");
                        node.cc = node.cc.without(a).intersect(x);
                    }
                }
            }

            // Prune: delete nodes with empty candidate sets.
            if l >= 2 {
                let before = current.len();
                current.retain(|_, node| !node.cc.is_empty());
                lstats.pruned_nodes = before - current.len();
            }

            // Next level via prefix blocks (shared Apriori shape).
            let reached_cap = self.config.max_level.is_some_and(|cap| l >= cap);
            let next: Level = if reached_cap {
                HashMap::new()
            } else {
                self.next_level(&current, &mut scratch)?
            };
            lstats.time = level_start.elapsed();
            result.stats.levels.push(lstats);
            prev = std::mem::take(&mut current);
            current = next;
            l += 1;
        }
        result.stats.total_time = start.elapsed();
        Ok(result)
    }

    fn next_level(&self, level: &Level, scratch: &mut ProductScratch) -> Result<Level, PassError> {
        let mut blocks: HashMap<u64, Vec<AttrSet>> = HashMap::new();
        for &bits in level.keys() {
            let set = AttrSet::from_bits(bits);
            let largest = 63 - bits.leading_zeros() as usize;
            blocks.entry(set.without(largest).bits()).or_default().push(set);
        }
        let mut next = Level::new();
        for members in blocks.values_mut() {
            members.sort_unstable();
            for i in 0..members.len() {
                self.config.cancel.check()?;
                for j in (i + 1)..members.len() {
                    let x = members[i].union(members[j]);
                    if !x.parents().all(|(_, sub)| level.contains_key(&sub.bits())) {
                        continue;
                    }
                    let partition = level[&members[i].bits()]
                        .partition
                        .product(&level[&members[j].bits()].partition, scratch);
                    next.insert(
                        x.bits(),
                        Node {
                            partition,
                            cc: AttrSet::EMPTY,
                        },
                    );
                }
            }
        }
        Ok(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastod::{DiscoveryConfig, Fastod};
    use fastod_relation::RelationBuilder;
    use fastod_theory::validate::canonical_od_holds_naive;

    fn employee() -> EncodedRelation {
        RelationBuilder::new()
            .column_i64("id", vec![10, 11, 12, 10, 11, 12])
            .column_i64("yr", vec![16, 16, 16, 15, 15, 15])
            .column_str("posit", vec!["secr", "mngr", "direct", "secr", "mngr", "direct"])
            .column_i64("bin", vec![1, 2, 3, 1, 2, 3])
            .column_f64("sal", vec![5.0, 8.0, 10.0, 4.5, 6.0, 8.0])
            .build()
            .unwrap()
            .encode()
    }

    #[test]
    fn finds_known_fds() {
        let enc = employee();
        let r = Tane::new(TaneConfig::default()).discover(&enc);
        // posit → bin (and vice versa): minimal FDs.
        assert!(r.fds.contains(&CanonicalOd::constancy(AttrSet::singleton(2), 3)));
        assert!(r.fds.contains(&CanonicalOd::constancy(AttrSet::singleton(3), 2)));
        for fd in r.fds.iter() {
            assert!(canonical_od_holds_naive(&enc, fd), "{fd}");
        }
    }

    #[test]
    fn matches_fastod_fd_fragment() {
        // Exp-4's invariant: "the number of FDs detected by TANE and FASTOD
        // is the same" — in fact the sets coincide.
        let enc = employee();
        let tane = Tane::new(TaneConfig::default()).discover(&enc);
        let fastod = Fastod::new(DiscoveryConfig::default()).discover(&enc);
        let mut tane_fds = tane.fds.sorted();
        let mut fastod_fds: Vec<_> = fastod.ods.constancies().copied().collect();
        fastod_fds.sort();
        tane_fds.sort();
        assert_eq!(tane_fds, fastod_fds);
    }

    #[test]
    fn constant_column() {
        let enc = RelationBuilder::new()
            .column_i64("k", vec![1, 2, 3])
            .column_i64("c", vec![9, 9, 9])
            .build()
            .unwrap()
            .encode();
        let r = Tane::new(TaneConfig::default()).discover(&enc);
        assert!(r.fds.contains(&CanonicalOd::constancy(AttrSet::EMPTY, 1)));
        // {k} → c is non-minimal (c already constant).
        assert!(!r.fds.contains(&CanonicalOd::constancy(AttrSet::singleton(0), 1)));
    }

    #[test]
    fn key_column_determines_everything() {
        let enc = RelationBuilder::new()
            .column_i64("key", vec![4, 3, 2, 1])
            .column_i64("v", vec![7, 7, 8, 8])
            .build()
            .unwrap()
            .encode();
        let r = Tane::new(TaneConfig::default()).discover(&enc);
        assert!(r.fds.contains(&CanonicalOd::constancy(AttrSet::singleton(0), 1)));
        assert!(!r.fds.contains(&CanonicalOd::constancy(AttrSet::singleton(1), 0)));
    }

    #[test]
    fn max_level_and_cancel() {
        let enc = employee();
        let r = Tane::new(TaneConfig {
            max_level: Some(1),
            ..Default::default()
        })
        .discover(&enc);
        assert!(r.stats.max_level() <= 1);
        let cancelled = Tane::new(TaneConfig {
            cancel: CancelToken::with_timeout(std::time::Duration::ZERO),
            ..Default::default()
        })
        .try_discover(&enc);
        assert!(matches!(cancelled, Err(PassError::Cancelled)));
    }

    #[test]
    fn empty_relation() {
        let enc = RelationBuilder::new()
            .column_i64("a", vec![])
            .build()
            .unwrap()
            .encode();
        let r = Tane::new(TaneConfig::default()).discover(&enc);
        assert_eq!(r.fds.len(), 1); // vacuous constant
    }
}
