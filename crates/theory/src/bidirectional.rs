//! Bidirectional order compatibility — the paper's §7 future-work item
//! ("we plan to extend our OD discovery framework to bidirectional ODs"),
//! after Szlichta et al., PVLDB 2013.
//!
//! A bidirectional order specification mixes ascending and descending
//! attributes (`ORDER BY a ASC, b DESC`). For the canonical OCD fragment
//! this reduces to a *polarity* per attribute pair: within each context
//! class, `A` and `B` are compatible either in the **same** direction
//! (`A↑ ~ B↑ ⟺ A↓ ~ B↓`) or in **opposite** directions
//! (`A↑ ~ B↓ ⟺ A↓ ~ B↑`) — flipping both sides of a swap pair maps one
//! violation onto the other, so only the relative polarity matters.
//! Opposite-polarity validation is same-polarity validation with one
//! attribute's dense ranks reversed.

use crate::canonical::CanonicalOd;
use crate::validate::build_partition;
use fastod_partition::{tau_scan, SortedColumn, StrippedPartition, SwapScratch};
use fastod_relation::{AttrId, AttrSet, EncodedRelation};

/// Relative sort polarity of an attribute pair.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Polarity {
    /// Both ascending (equivalently both descending) — the unidirectional
    /// case the core algorithm discovers.
    Same,
    /// One ascending, one descending.
    Opposite,
}

/// A bidirectional order-compatibility OD `X: A (~) B` with a relative
/// polarity. Stored with `a < b`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct BidiOcd {
    /// Context set `X`.
    pub context: AttrSet,
    /// Smaller attribute of the pair.
    pub a: AttrId,
    /// Larger attribute of the pair.
    pub b: AttrId,
    /// Relative polarity.
    pub polarity: Polarity,
}

impl BidiOcd {
    /// Creates a bidirectional OCD, normalizing the pair order (polarity is
    /// symmetric, so swapping operands preserves it).
    pub fn new(context: AttrSet, a: AttrId, b: AttrId, polarity: Polarity) -> BidiOcd {
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        BidiOcd { context, a, b, polarity }
    }

    /// Trivial iff the unidirectional counterpart is trivial.
    pub fn is_trivial(&self) -> bool {
        CanonicalOd::order_compat(self.context, self.a, self.b).is_trivial()
    }

    /// Renders with attribute names, e.g. `{yr}: sal ~ depth(desc)`.
    pub fn display(&self, names: &[String]) -> String {
        let name = |a: AttrId| names.get(a).map(String::as_str).unwrap_or("?");
        let suffix = match self.polarity {
            Polarity::Same => "",
            Polarity::Opposite => "(desc)",
        };
        format!(
            "{}: {} ~ {}{}",
            self.context.display(names),
            name(self.a),
            name(self.b),
            suffix
        )
    }
}

/// Reverses dense-rank codes (`code' = card − 1 − code`), turning ascending
/// order into descending order while preserving equalities.
fn reversed_codes(codes: &[u32], cardinality: u32) -> Vec<u32> {
    codes.iter().map(|&c| cardinality - 1 - c).collect()
}

/// Validates a bidirectional OCD against an instance.
pub fn bidi_ocd_holds(enc: &EncodedRelation, od: &BidiOcd) -> bool {
    if od.is_trivial() {
        return true;
    }
    let ctx = build_partition(enc, od.context);
    bidi_ocd_holds_with(enc, od, &ctx)
}

/// Validation against a pre-built context partition (for discovery loops).
pub fn bidi_ocd_holds_with(
    enc: &EncodedRelation,
    od: &BidiOcd,
    ctx: &StrippedPartition,
) -> bool {
    let codes_a = enc.codes(od.a);
    let tau_a = SortedColumn::build(codes_a, enc.cardinality(od.a));
    let mut scratch = SwapScratch::new();
    let swap = match od.polarity {
        Polarity::Same => tau_scan(ctx, &tau_a, enc.codes(od.b), &mut scratch, None),
        Polarity::Opposite => {
            let rev_b = reversed_codes(enc.codes(od.b), enc.cardinality(od.b));
            tau_scan(ctx, &tau_a, &rev_b, &mut scratch, None)
        }
    };
    swap.is_none()
}

/// Exhaustively discovers minimal bidirectional OCDs with context size up to
/// `max_context`, pruned by the same rules the core algorithm uses:
///
/// * Augmentation-II — skip contexts with a valid subset-context witness of
///   the same pair & polarity;
/// * Propagate — skip pairs where either operand is constant in a subset
///   context (supplied via `constancies`, e.g. the FD fragment of a prior
///   exact discovery run).
///
/// A prototype of the §7 extension: exponential in `max_context`, intended
/// for narrow relations or small context caps.
pub fn discover_bidirectional(
    enc: &EncodedRelation,
    constancies: &[CanonicalOd],
    max_context: usize,
) -> Vec<BidiOcd> {
    let n = enc.n_attrs();
    let all = AttrSet::full(n);
    let mut found: Vec<BidiOcd> = Vec::new();
    let mut contexts: Vec<AttrSet> = all.subsets().filter(|s| s.len() <= max_context).collect();
    contexts.sort_by_key(|s| (s.len(), s.bits())); // small contexts first

    let constant_within = |ctx: AttrSet, attr: AttrId| {
        constancies.iter().any(|od| {
            matches!(od, CanonicalOd::Constancy { context, rhs }
                if *rhs == attr && context.is_subset_of(ctx))
        })
    };

    for &ctx in &contexts {
        let partition = build_partition(enc, ctx);
        for a in 0..n {
            for b in (a + 1)..n {
                if ctx.contains(a) || ctx.contains(b) {
                    continue; // trivial (Normalization)
                }
                if constant_within(ctx, a) || constant_within(ctx, b) {
                    continue; // Propagate: implied by a constancy OD
                }
                for polarity in [Polarity::Same, Polarity::Opposite] {
                    let od = BidiOcd::new(ctx, a, b, polarity);
                    // Augmentation-II minimality: any subset-context witness
                    // with the same pair/polarity implies this one.
                    let implied = found.iter().any(|f| {
                        f.a == a && f.b == b && f.polarity == polarity
                            && f.context.is_subset_of(ctx)
                    });
                    if implied {
                        continue;
                    }
                    if bidi_ocd_holds_with(enc, &od, &partition) {
                        found.push(od);
                    }
                }
            }
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::canonical_od_holds;
    use fastod_relation::RelationBuilder;

    /// price ascends while rank descends (opposite polarity), and `grp`
    /// provides a context.
    fn table() -> EncodedRelation {
        RelationBuilder::new()
            .column_i64("grp", vec![0, 0, 0, 1, 1, 1])
            .column_i64("price", vec![10, 20, 30, 5, 15, 25])
            // rank is the exact reversal of price order: highest price ⇒
            // rank 1, lowest price ⇒ rank 6.
            .column_i64("rank", vec![5, 3, 1, 6, 4, 2])
            .column_i64("noise", vec![2, 9, 4, 7, 1, 8])
            .build()
            .unwrap()
            .encode()
    }

    const GRP: usize = 0;
    const PRICE: usize = 1;
    const RANK: usize = 2;

    #[test]
    fn opposite_polarity_detected() {
        let enc = table();
        // price ↑ vs rank ↓ compatible globally; same polarity is not.
        assert!(bidi_ocd_holds(
            &enc,
            &BidiOcd::new(AttrSet::EMPTY, PRICE, RANK, Polarity::Opposite)
        ));
        assert!(!bidi_ocd_holds(
            &enc,
            &BidiOcd::new(AttrSet::EMPTY, PRICE, RANK, Polarity::Same)
        ));
    }

    #[test]
    fn same_polarity_agrees_with_unidirectional_validator() {
        let enc = table();
        for a in 0..enc.n_attrs() {
            for b in (a + 1)..enc.n_attrs() {
                for ctx in [AttrSet::EMPTY, AttrSet::singleton(GRP)] {
                    if ctx.contains(a) || ctx.contains(b) {
                        continue;
                    }
                    let bidi = BidiOcd::new(ctx, a, b, Polarity::Same);
                    let uni = CanonicalOd::order_compat(ctx, a, b);
                    assert_eq!(
                        bidi_ocd_holds(&enc, &bidi),
                        canonical_od_holds(&enc, &uni),
                        "{a} ~ {b} in {ctx:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn polarity_is_symmetric_in_operands() {
        let enc = table();
        let ab = BidiOcd::new(AttrSet::EMPTY, PRICE, RANK, Polarity::Opposite);
        let ba = BidiOcd::new(AttrSet::EMPTY, RANK, PRICE, Polarity::Opposite);
        assert_eq!(ab, ba);
        assert!(bidi_ocd_holds(&enc, &ab));
    }

    #[test]
    fn reversal_preserves_equalities() {
        let codes = vec![0, 2, 1, 2, 0];
        let rev = reversed_codes(&codes, 3);
        assert_eq!(rev, vec![2, 0, 1, 0, 2]);
        // Equal codes stay equal, strict order flips.
        assert_eq!(codes[1], codes[3]);
        assert_eq!(rev[1], rev[3]);
        assert!(codes[0] < codes[2] && rev[0] > rev[2]);
    }

    #[test]
    fn discovery_finds_both_polarities_minimally() {
        let enc = table();
        let found = discover_bidirectional(&enc, &[], 1);
        // Global opposite-polarity price~rank present.
        assert!(found.contains(&BidiOcd::new(AttrSet::EMPTY, PRICE, RANK, Polarity::Opposite)));
        // And it is minimal: the {grp} context version must NOT be listed.
        assert!(!found.contains(&BidiOcd::new(
            AttrSet::singleton(GRP),
            PRICE,
            RANK,
            Polarity::Opposite
        )));
        // noise is incompatible with everything globally in both polarities
        // but may gain contextual compatibilities; everything reported holds.
        for od in &found {
            assert!(bidi_ocd_holds(&enc, od), "{od:?}");
            assert!(!od.is_trivial());
        }
    }

    #[test]
    fn discovery_respects_propagate_pruning() {
        // With a constant column, pairs touching it are implied (Propagate)
        // and must be pruned when the constancy is supplied.
        let enc = RelationBuilder::new()
            .column_i64("c", vec![7, 7, 7])
            .column_i64("x", vec![1, 2, 3])
            .build()
            .unwrap()
            .encode();
        let constancy = CanonicalOd::constancy(AttrSet::EMPTY, 0);
        let with_hint = discover_bidirectional(&enc, &[constancy], 1);
        assert!(with_hint.iter().all(|od| od.a != 0 && od.b != 0));
        let without_hint = discover_bidirectional(&enc, &[], 1);
        assert!(without_hint.iter().any(|od| od.a == 0));
    }

    #[test]
    fn context_cap_respected() {
        let enc = table();
        let found = discover_bidirectional(&enc, &[], 0);
        assert!(found.iter().all(|od| od.context.is_empty()));
    }

    #[test]
    fn display_notation() {
        let names: Vec<String> = ["g", "p", "r"].iter().map(|s| s.to_string()).collect();
        let od = BidiOcd::new(AttrSet::singleton(0), 1, 2, Polarity::Opposite);
        assert_eq!(od.display(&names), "{g}: p ~ r(desc)");
        let od = BidiOcd::new(AttrSet::EMPTY, 1, 2, Polarity::Same);
        assert_eq!(od.display(&names), "{}: p ~ r");
    }
}
