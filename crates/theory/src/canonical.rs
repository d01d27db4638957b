//! Set-based canonical ODs (paper §3.1, Definition 6).
//!
//! Every list-based OD maps (Theorem 5) to a conjunction of just two shapes:
//!
//! * **constancy** `X: [] ↦ A` — attribute `A` is constant within every
//!   equivalence class of context `X` (the FD fragment: equivalent to the FD
//!   `X → A` by Theorem 2);
//! * **order compatibility** `X: A ~ B` — no swap between `A` and `B` within
//!   any class of `X` (the OCD fragment).

use fastod_partition::OdCodes;
use fastod_relation::{AttrId, AttrSet, EncodedRelation};
use std::collections::HashSet;
use std::fmt;

/// A canonical OD in context `X` (Definition 6).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum CanonicalOd {
    /// `X: [] ↦ A` — `A` is constant within each `X`-class.
    Constancy {
        /// The context set `X`.
        context: AttrSet,
        /// The constant attribute `A`.
        rhs: AttrId,
    },
    /// `X: A ~ B` — `A` and `B` are order compatible within each `X`-class.
    /// Stored with `a < b` (order compatibility is symmetric, Commutativity
    /// axiom; the paper likewise stores the unordered pair `{A,B}`).
    OrderCompat {
        /// The context set `X`.
        context: AttrSet,
        /// Smaller attribute of the pair.
        a: AttrId,
        /// Larger attribute of the pair.
        b: AttrId,
    },
}

impl CanonicalOd {
    /// Creates `context: [] ↦ rhs`.
    pub fn constancy(context: AttrSet, rhs: AttrId) -> CanonicalOd {
        CanonicalOd::Constancy { context, rhs }
    }

    /// Creates `context: a ~ b`, normalizing the pair order.
    pub fn order_compat(context: AttrSet, a: AttrId, b: AttrId) -> CanonicalOd {
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        CanonicalOd::OrderCompat { context, a, b }
    }

    /// The context set `X`.
    pub fn context(&self) -> AttrSet {
        match *self {
            CanonicalOd::Constancy { context, .. } => context,
            CanonicalOd::OrderCompat { context, .. } => context,
        }
    }

    /// The code columns of `enc` that the partition kernels read for this
    /// OD: `A`'s for `X: [] ↦ A`, `A`'s and `B`'s for `X: A ~ B`.
    pub fn codes<'e>(&self, enc: &'e EncodedRelation) -> OdCodes<'e> {
        match *self {
            CanonicalOd::Constancy { rhs, .. } => OdCodes::Constancy(enc.codes(rhs)),
            CanonicalOd::OrderCompat { a, b, .. } => OdCodes::Order(enc.codes(a), enc.codes(b)),
        }
    }

    /// Whether this is a constancy (FD-fragment) OD.
    pub fn is_constancy(&self) -> bool {
        matches!(self, CanonicalOd::Constancy { .. })
    }

    /// Whether this is an order-compatibility OD.
    pub fn is_order_compat(&self) -> bool {
        matches!(self, CanonicalOd::OrderCompat { .. })
    }

    /// Triviality (§4.1): `X: [] ↦ A` is trivial iff `A ∈ X` (Reflexivity);
    /// `X: A ~ B` is trivial iff `A ∈ X`, `B ∈ X` (Normalization, Lemma 4) or
    /// `A = B` (Identity). Trivial ODs hold on every instance.
    pub fn is_trivial(&self) -> bool {
        match *self {
            CanonicalOd::Constancy { context, rhs } => context.contains(rhs),
            CanonicalOd::OrderCompat { context, a, b } => {
                a == b || context.contains(a) || context.contains(b)
            }
        }
    }

    /// All attributes mentioned (context plus operands).
    pub fn attrs(&self) -> AttrSet {
        match *self {
            CanonicalOd::Constancy { context, rhs } => context.with(rhs),
            CanonicalOd::OrderCompat { context, a, b } => context.with(a).with(b),
        }
    }

    /// Renders with attribute names, e.g. `{year}: [] -> bin` or
    /// `{year}: bin ~ sal`.
    pub fn display(&self, names: &[String]) -> String {
        let name = |a: AttrId| names.get(a).map(String::as_str).unwrap_or("?").to_string();
        match *self {
            CanonicalOd::Constancy { context, rhs } => {
                format!("{}: [] -> {}", context.display(names), name(rhs))
            }
            CanonicalOd::OrderCompat { context, a, b } => {
                format!("{}: {} ~ {}", context.display(names), name(a), name(b))
            }
        }
    }
}

impl fmt::Display for CanonicalOd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CanonicalOd::Constancy { context, rhs } => {
                write!(f, "{context:?}: [] -> {rhs}")
            }
            CanonicalOd::OrderCompat { context, a, b } => {
                write!(f, "{context:?}: {a} ~ {b}")
            }
        }
    }
}

/// A collection of canonical ODs with O(1) membership — the `M` produced by
/// discovery algorithms.
#[derive(Clone, Default, Debug)]
pub struct OdSet {
    ods: Vec<CanonicalOd>,
    index: HashSet<CanonicalOd>,
}

impl OdSet {
    /// Creates an empty set.
    pub fn new() -> OdSet {
        OdSet::default()
    }

    /// Inserts an OD; returns `false` if it was already present.
    pub fn insert(&mut self, od: CanonicalOd) -> bool {
        if self.index.insert(od) {
            self.ods.push(od);
            true
        } else {
            false
        }
    }

    /// Membership test.
    pub fn contains(&self, od: &CanonicalOd) -> bool {
        self.index.contains(od)
    }

    /// Number of ODs.
    pub fn len(&self) -> usize {
        self.ods.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.ods.is_empty()
    }

    /// Iterates in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &CanonicalOd> {
        self.ods.iter()
    }

    /// The constancy (FD-fragment) ODs.
    pub fn constancies(&self) -> impl Iterator<Item = &CanonicalOd> {
        self.ods.iter().filter(|od| od.is_constancy())
    }

    /// The order-compatibility ODs.
    pub fn order_compats(&self) -> impl Iterator<Item = &CanonicalOd> {
        self.ods.iter().filter(|od| od.is_order_compat())
    }

    /// Count of constancy ODs — the "#FDs" the paper reports.
    pub fn n_constancies(&self) -> usize {
        self.constancies().count()
    }

    /// Count of order-compatibility ODs — the "#OCDs" the paper reports.
    pub fn n_order_compats(&self) -> usize {
        self.order_compats().count()
    }

    /// The ODs sorted by (level, kind, context, operands) for stable output.
    pub fn sorted(&self) -> Vec<CanonicalOd> {
        let mut v = self.ods.clone();
        v.sort_by_key(|od| {
            (
                od.context().len(),
                od.is_order_compat(),
                od.context().bits(),
                match *od {
                    CanonicalOd::Constancy { rhs, .. } => (rhs, 0),
                    CanonicalOd::OrderCompat { a, b, .. } => (a, b),
                },
            )
        });
        v
    }

    /// Removes and returns ODs failing the predicate.
    pub fn retain(&mut self, mut f: impl FnMut(&CanonicalOd) -> bool) {
        self.ods.retain(|od| {
            let keep = f(od);
            if !keep {
                self.index.remove(od);
            }
            keep
        });
    }

    /// Renders all ODs line by line with attribute names.
    pub fn display(&self, names: &[String]) -> String {
        let mut out = String::new();
        for od in self.sorted() {
            out.push_str(&od.display(names));
            out.push('\n');
        }
        out
    }
}

impl FromIterator<CanonicalOd> for OdSet {
    fn from_iter<T: IntoIterator<Item = CanonicalOd>>(iter: T) -> OdSet {
        let mut set = OdSet::new();
        for od in iter {
            set.insert(od);
        }
        set
    }
}

impl<'a> IntoIterator for &'a OdSet {
    type Item = &'a CanonicalOd;
    type IntoIter = std::slice::Iter<'a, CanonicalOd>;
    fn into_iter(self) -> Self::IntoIter {
        self.ods.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_compat_normalizes_pair() {
        let od1 = CanonicalOd::order_compat(AttrSet::EMPTY, 3, 1);
        let od2 = CanonicalOd::order_compat(AttrSet::EMPTY, 1, 3);
        assert_eq!(od1, od2);
        if let CanonicalOd::OrderCompat { a, b, .. } = od1 {
            assert!(a < b);
        } else {
            panic!("wrong variant");
        }
    }

    #[test]
    fn triviality_rules() {
        let ctx = AttrSet::from_iter([0, 1]);
        // A ∈ X → trivial constancy (Reflexivity).
        assert!(CanonicalOd::constancy(ctx, 0).is_trivial());
        assert!(!CanonicalOd::constancy(ctx, 2).is_trivial());
        // A = B → trivial (Identity).
        assert!(CanonicalOd::order_compat(ctx, 2, 2).is_trivial());
        // A ∈ X → trivial (Normalization / Lemma 4).
        assert!(CanonicalOd::order_compat(ctx, 1, 2).is_trivial());
        assert!(!CanonicalOd::order_compat(ctx, 2, 3).is_trivial());
        // Empty-context constants are non-trivial — ORDER misses these.
        assert!(!CanonicalOd::constancy(AttrSet::EMPTY, 0).is_trivial());
    }

    #[test]
    fn attrs_collects_everything() {
        let od = CanonicalOd::order_compat(AttrSet::singleton(0), 2, 4);
        assert_eq!(od.attrs(), AttrSet::from_iter([0, 2, 4]));
    }

    #[test]
    fn odset_insert_dedup_counts() {
        let mut m = OdSet::new();
        assert!(m.insert(CanonicalOd::constancy(AttrSet::EMPTY, 1)));
        assert!(!m.insert(CanonicalOd::constancy(AttrSet::EMPTY, 1)));
        assert!(m.insert(CanonicalOd::order_compat(AttrSet::EMPTY, 0, 2)));
        // Commutativity: the flipped pair is the same OD.
        assert!(!m.insert(CanonicalOd::order_compat(AttrSet::EMPTY, 2, 0)));
        assert_eq!(m.len(), 2);
        assert_eq!(m.n_constancies(), 1);
        assert_eq!(m.n_order_compats(), 1);
        assert!(m.contains(&CanonicalOd::constancy(AttrSet::EMPTY, 1)));
    }

    #[test]
    fn sorted_orders_by_level_first() {
        let mut m = OdSet::new();
        m.insert(CanonicalOd::constancy(AttrSet::from_iter([0, 1]), 2));
        m.insert(CanonicalOd::constancy(AttrSet::EMPTY, 5));
        m.insert(CanonicalOd::order_compat(AttrSet::EMPTY, 1, 2));
        let sorted = m.sorted();
        assert_eq!(sorted[0], CanonicalOd::constancy(AttrSet::EMPTY, 5));
        assert_eq!(sorted[1], CanonicalOd::order_compat(AttrSet::EMPTY, 1, 2));
        assert_eq!(sorted[2].context().len(), 2);
    }

    #[test]
    fn display_with_names() {
        let names: Vec<String> = ["year", "bin", "sal"].iter().map(|s| s.to_string()).collect();
        let c = CanonicalOd::constancy(AttrSet::singleton(0), 1);
        assert_eq!(c.display(&names), "{year}: [] -> bin");
        let oc = CanonicalOd::order_compat(AttrSet::singleton(0), 2, 1);
        assert_eq!(oc.display(&names), "{year}: bin ~ sal");
    }

    #[test]
    fn retain_keeps_index_consistent() {
        let mut m: OdSet = [
            CanonicalOd::constancy(AttrSet::EMPTY, 0),
            CanonicalOd::constancy(AttrSet::EMPTY, 1),
        ]
        .into_iter()
        .collect();
        m.retain(|od| matches!(od, CanonicalOd::Constancy { rhs: 0, .. }));
        assert_eq!(m.len(), 1);
        assert!(!m.contains(&CanonicalOd::constancy(AttrSet::EMPTY, 1)));
    }
}
