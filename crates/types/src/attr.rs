//! Nested attributes (Definition 3.2).
//!
//! The set `NA(U, L)` of nested attributes over a universe `U` and labels
//! `L` is the smallest set with
//!
//! * `λ ∈ NA`,
//! * `U ⊆ NA`,
//! * `L(N1, …, Nk) ∈ NA` for `L ∈ L`, `N1, …, Nk ∈ NA`, `k ≥ 1`
//!   (record-valued attributes), and
//! * `L[N] ∈ NA` for `L ∈ L`, `N ∈ NA` (list-valued attributes).

use crate::error::TypeError;

/// A nested attribute (Definition 3.2).
///
/// Use the smart constructors [`NestedAttr::flat`], [`NestedAttr::record`]
/// and [`NestedAttr::list`] — `record` enforces the `k ≥ 1` arity
/// requirement. `NestedAttr::Null` is the null attribute `λ`.
///
/// ```
/// use nalist_types::NestedAttr as A;
///
/// // Pubcrawl(Person, Visit[Drink(Beer, Pub)])
/// let n = A::record("Pubcrawl", vec![
///     A::flat("Person"),
///     A::list("Visit", A::record("Drink", vec![A::flat("Beer"), A::flat("Pub")]).unwrap()),
/// ]).unwrap();
/// assert_eq!(n.to_string(), "Pubcrawl(Person, Visit[Drink(Beer, Pub)])");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NestedAttr {
    /// The null attribute `λ` with `dom(λ) = {ok}`.
    Null,
    /// A flat attribute `A ∈ U`.
    Flat(String),
    /// A record-valued attribute `L(N1, …, Nk)`, `k ≥ 1`.
    Record(String, Vec<NestedAttr>),
    /// A list-valued attribute `L[N]`.
    List(String, Box<NestedAttr>),
}

impl NestedAttr {
    /// Creates a flat attribute `A`.
    pub fn flat(name: impl Into<String>) -> Self {
        NestedAttr::Flat(name.into())
    }

    /// Creates a record-valued attribute `L(N1, …, Nk)`.
    ///
    /// Fails with [`TypeError::EmptyRecord`] if `children` is empty
    /// (Definition 3.2 requires `k ≥ 1`).
    pub fn record(label: impl Into<String>, children: Vec<NestedAttr>) -> Result<Self, TypeError> {
        let label = label.into();
        if children.is_empty() {
            return Err(TypeError::EmptyRecord { label });
        }
        Ok(NestedAttr::Record(label, children))
    }

    /// Creates a list-valued attribute `L[N]`.
    pub fn list(label: impl Into<String>, inner: NestedAttr) -> Self {
        NestedAttr::List(label.into(), Box::new(inner))
    }

    /// Is this a flat attribute?
    pub fn is_flat(&self) -> bool {
        matches!(self, NestedAttr::Flat(_))
    }

    /// Checks the structural invariant `k ≥ 1` recursively (useful after
    /// manual enum construction).
    pub fn validate(&self) -> Result<(), TypeError> {
        match self {
            NestedAttr::Null | NestedAttr::Flat(_) => Ok(()),
            NestedAttr::Record(l, children) => {
                if children.is_empty() {
                    return Err(TypeError::EmptyRecord { label: l.clone() });
                }
                children.iter().try_for_each(NestedAttr::validate)
            }
            NestedAttr::List(_, inner) => inner.validate(),
        }
    }

    /// The bottom element `λ_N` of `Sub(N)` (Definition 3.7):
    /// `λ_{L(N1,…,Nk)} = L(λ_{N1}, …, λ_{Nk})`, and `λ_N = λ` whenever `N`
    /// is not record-valued.
    pub fn bottom(&self) -> NestedAttr {
        match self {
            NestedAttr::Record(l, children) => {
                NestedAttr::Record(l.clone(), children.iter().map(NestedAttr::bottom).collect())
            }
            _ => NestedAttr::Null,
        }
    }

    /// Is this attribute the bottom `λ_M` of *some* `Sub(M)` — i.e. `λ` or
    /// a record of bottoms?
    ///
    /// Bottoms carry no information: their domains are singletons.
    pub fn is_bottom(&self) -> bool {
        match self {
            NestedAttr::Null => true,
            NestedAttr::Flat(_) | NestedAttr::List(..) => false,
            NestedAttr::Record(_, children) => children.iter().all(NestedAttr::is_bottom),
        }
    }

    /// Total number of syntax-tree nodes (counting `λ`, flats, records and
    /// lists).
    pub fn node_count(&self) -> usize {
        match self {
            NestedAttr::Null | NestedAttr::Flat(_) => 1,
            NestedAttr::Record(_, children) => {
                1 + children.iter().map(NestedAttr::node_count).sum::<usize>()
            }
            NestedAttr::List(_, inner) => 1 + inner.node_count(),
        }
    }

    /// Nesting depth (a flat attribute or `λ` has depth 0).
    pub fn depth(&self) -> usize {
        match self {
            NestedAttr::Null | NestedAttr::Flat(_) => 0,
            NestedAttr::Record(_, children) => {
                1 + children.iter().map(NestedAttr::depth).max().unwrap_or(0)
            }
            NestedAttr::List(_, inner) => 1 + inner.depth(),
        }
    }

    /// Number of flat-attribute leaves.
    pub fn flat_leaf_count(&self) -> usize {
        match self {
            NestedAttr::Null => 0,
            NestedAttr::Flat(_) => 1,
            NestedAttr::Record(_, children) => {
                children.iter().map(NestedAttr::flat_leaf_count).sum()
            }
            NestedAttr::List(_, inner) => inner.flat_leaf_count(),
        }
    }

    /// Number of list nodes.
    pub fn list_node_count(&self) -> usize {
        match self {
            NestedAttr::Null | NestedAttr::Flat(_) => 0,
            NestedAttr::Record(_, children) => {
                children.iter().map(NestedAttr::list_node_count).sum()
            }
            NestedAttr::List(_, inner) => 1 + inner.list_node_count(),
        }
    }

    /// `|N| = |SubB(N)|`, the paper's size measure for complexity analysis
    /// (Section 6): the number of basis attributes, which equals the number
    /// of flat leaves plus the number of list nodes.
    pub fn basis_size(&self) -> usize {
        match self {
            NestedAttr::Null => 0,
            NestedAttr::Flat(_) => 1,
            NestedAttr::Record(_, children) => children.iter().map(NestedAttr::basis_size).sum(),
            NestedAttr::List(_, inner) => 1 + inner.basis_size(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pubcrawl() -> NestedAttr {
        NestedAttr::record(
            "Pubcrawl",
            vec![
                NestedAttr::flat("Person"),
                NestedAttr::list(
                    "Visit",
                    NestedAttr::record(
                        "Drink",
                        vec![NestedAttr::flat("Beer"), NestedAttr::flat("Pub")],
                    )
                    .unwrap(),
                ),
            ],
        )
        .unwrap()
    }

    #[test]
    fn record_requires_children() {
        assert!(matches!(
            NestedAttr::record("L", vec![]),
            Err(TypeError::EmptyRecord { .. })
        ));
    }

    #[test]
    fn validate_catches_manual_empty_record() {
        let bad = NestedAttr::List("L".into(), Box::new(NestedAttr::Record("M".into(), vec![])));
        assert!(bad.validate().is_err());
        assert!(pubcrawl().validate().is_ok());
    }

    #[test]
    fn bottom_of_record_keeps_shape() {
        let n = pubcrawl();
        let b = n.bottom();
        // Pubcrawl(λ, λ) — record keeps arity, components bottom out.
        match &b {
            NestedAttr::Record(l, ch) => {
                assert_eq!(l, "Pubcrawl");
                assert_eq!(ch.len(), 2);
                assert_eq!(ch[0], NestedAttr::Null);
                // list component bottoms to λ, not to Visit[…]
                assert_eq!(ch[1], NestedAttr::Null);
            }
            _ => panic!("expected record"),
        }
        assert!(b.is_bottom());
        assert!(!n.is_bottom());
    }

    #[test]
    fn bottom_of_non_record_is_null() {
        assert_eq!(NestedAttr::flat("A").bottom(), NestedAttr::Null);
        assert_eq!(
            NestedAttr::list("L", NestedAttr::flat("A")).bottom(),
            NestedAttr::Null
        );
        assert_eq!(NestedAttr::Null.bottom(), NestedAttr::Null);
    }

    #[test]
    fn counts() {
        let n = pubcrawl();
        assert_eq!(n.flat_leaf_count(), 3);
        assert_eq!(n.list_node_count(), 1);
        assert_eq!(n.basis_size(), 4);
        assert_eq!(n.depth(), 3);
        assert_eq!(n.node_count(), 6);
    }

    #[test]
    fn nested_bottom_record_is_bottom() {
        // L(M(λ), λ) is a bottom.
        let x = NestedAttr::Record(
            "L".into(),
            vec![
                NestedAttr::Record("M".into(), vec![NestedAttr::Null]),
                NestedAttr::Null,
            ],
        );
        assert!(x.is_bottom());
    }
}
