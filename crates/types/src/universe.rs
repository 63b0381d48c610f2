//! Universes of flat attributes and labels (Definition 3.1).
//!
//! A *universe* is a finite set `U` of flat attribute names together with a
//! domain `dom(A)` for every `A ∈ U`. Nested attributes additionally draw
//! on a set `L` of labels with `U ∩ L = ∅` and `λ ∉ U ∪ L`
//! (Definition 3.2). [`Universe`] tracks both name sets, enforces
//! disjointness, and records a [`DomainKind`] per flat attribute so that
//! value conformance can be checked.

use std::collections::BTreeMap;

use crate::attr::NestedAttr;
use crate::error::TypeError;
use crate::value::BaseValue;

/// The kind of base domain assigned to a flat attribute.
///
/// The paper leaves domains abstract ("sets of values"); for a concrete
/// library we provide the usual scalar kinds plus [`DomainKind::Any`] for
/// untyped use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DomainKind {
    /// Any base value is admissible.
    #[default]
    Any,
    /// Unicode strings.
    Text,
    /// 64-bit signed integers.
    Integer,
    /// Booleans.
    Boolean,
}

impl DomainKind {
    /// Does the given base value belong to this domain?
    pub fn admits(self, v: &BaseValue) -> bool {
        matches!(
            (self, v),
            (DomainKind::Any, _)
                | (DomainKind::Text, BaseValue::Str(_))
                | (DomainKind::Integer, BaseValue::Int(_))
                | (DomainKind::Boolean, BaseValue::Bool(_))
        )
    }
}

/// A universe `U` of flat attributes with domains, plus the label set `L`
/// (Definitions 3.1 and 3.2).
///
/// The reserved name `λ` (spelled `"λ"` or `"lambda"`) may be used for
/// neither flat attributes nor labels.
///
/// ```
/// use nalist_types::universe::{DomainKind, Universe};
///
/// let mut u = Universe::new();
/// u.add_flat("Person", DomainKind::Text).unwrap();
/// u.add_flat("Beer", DomainKind::Text).unwrap();
/// u.add_label("Pubcrawl").unwrap();
/// u.add_label("Visit").unwrap();
/// assert!(u.is_flat("Person"));
/// assert!(u.is_label("Visit"));
/// assert!(u.add_label("Person").is_err()); // U ∩ L = ∅
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Universe {
    flats: BTreeMap<String, DomainKind>,
    labels: BTreeMap<String, ()>,
}

/// Names reserved for the null attribute `λ`.
pub const LAMBDA_NAMES: [&str; 2] = ["λ", "lambda"];

fn is_reserved(name: &str) -> bool {
    LAMBDA_NAMES.contains(&name)
}

impl Universe {
    /// Creates an empty universe.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a flat attribute `A ∈ U` with the given domain kind.
    ///
    /// Fails if the name is reserved or already used as a label.
    pub fn add_flat(&mut self, name: &str, dom: DomainKind) -> Result<(), TypeError> {
        if is_reserved(name) || self.labels.contains_key(name) {
            return Err(TypeError::NameClash {
                name: name.to_owned(),
            });
        }
        self.flats.insert(name.to_owned(), dom);
        Ok(())
    }

    /// Adds a label `L ∈ L`.
    ///
    /// Fails if the name is reserved or already used as a flat attribute.
    pub fn add_label(&mut self, name: &str) -> Result<(), TypeError> {
        if is_reserved(name) || self.flats.contains_key(name) {
            return Err(TypeError::NameClash {
                name: name.to_owned(),
            });
        }
        self.labels.insert(name.to_owned(), ());
        Ok(())
    }

    /// Is `name` a registered flat attribute?
    pub fn is_flat(&self, name: &str) -> bool {
        self.flats.contains_key(name)
    }

    /// Is `name` a registered label?
    pub fn is_label(&self, name: &str) -> bool {
        self.labels.contains_key(name)
    }

    /// Domain kind of a flat attribute, if registered.
    pub fn domain_of(&self, name: &str) -> Option<DomainKind> {
        self.flats.get(name).copied()
    }

    /// Iterates over the flat attribute names in `U` (sorted).
    pub fn flats(&self) -> impl Iterator<Item = &str> {
        self.flats.keys().map(String::as_str)
    }

    /// Iterates over the label names in `L` (sorted).
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.labels.keys().map(String::as_str)
    }

    /// Builds a universe by collecting every flat attribute and label that
    /// occurs in `attr` (all flat attributes get [`DomainKind::Any`]).
    ///
    /// Fails with [`TypeError::NameClash`] if some name occurs both as a
    /// flat attribute and as a label inside `attr`.
    pub fn from_attr(attr: &NestedAttr) -> Result<Self, TypeError> {
        let mut u = Universe::new();
        collect(attr, &mut u)?;
        Ok(u)
    }

    /// Checks that `attr` only uses names registered in this universe, with
    /// flat attributes used as flats and labels used as labels.
    pub fn admits_attr(&self, attr: &NestedAttr) -> Result<(), TypeError> {
        match attr {
            NestedAttr::Null => Ok(()),
            NestedAttr::Flat(a) => {
                if self.is_flat(a) {
                    Ok(())
                } else {
                    Err(TypeError::NameClash { name: a.clone() })
                }
            }
            NestedAttr::Record(l, children) => {
                if !self.is_label(l) {
                    return Err(TypeError::NameClash { name: l.clone() });
                }
                children.iter().try_for_each(|c| self.admits_attr(c))
            }
            NestedAttr::List(l, inner) => {
                if !self.is_label(l) {
                    return Err(TypeError::NameClash { name: l.clone() });
                }
                self.admits_attr(inner)
            }
        }
    }
}

fn collect(attr: &NestedAttr, u: &mut Universe) -> Result<(), TypeError> {
    match attr {
        NestedAttr::Null => Ok(()),
        NestedAttr::Flat(a) => u.add_flat(a, DomainKind::Any),
        NestedAttr::Record(l, children) => {
            u.add_label(l)?;
            children.iter().try_for_each(|c| collect(c, u))
        }
        NestedAttr::List(l, inner) => {
            u.add_label(l)?;
            collect(inner, u)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::NestedAttr as A;

    #[test]
    fn disjointness_enforced() {
        let mut u = Universe::new();
        u.add_flat("X", DomainKind::Any).unwrap();
        assert_eq!(
            u.add_label("X"),
            Err(TypeError::NameClash { name: "X".into() })
        );
        u.add_label("L").unwrap();
        assert_eq!(
            u.add_flat("L", DomainKind::Any),
            Err(TypeError::NameClash { name: "L".into() })
        );
    }

    #[test]
    fn lambda_reserved() {
        let mut u = Universe::new();
        assert!(u.add_flat("λ", DomainKind::Any).is_err());
        assert!(u.add_label("lambda").is_err());
    }

    #[test]
    fn domain_kinds_admit() {
        assert!(DomainKind::Text.admits(&BaseValue::Str("x".into())));
        assert!(!DomainKind::Text.admits(&BaseValue::Int(3)));
        assert!(DomainKind::Integer.admits(&BaseValue::Int(3)));
        assert!(DomainKind::Boolean.admits(&BaseValue::Bool(true)));
        assert!(DomainKind::Any.admits(&BaseValue::Bool(false)));
    }

    #[test]
    fn from_attr_collects_names() {
        // Pubcrawl(Person, Visit[Drink(Beer, Pub)])
        let n = A::record(
            "Pubcrawl",
            vec![
                A::flat("Person"),
                A::list(
                    "Visit",
                    A::record("Drink", vec![A::flat("Beer"), A::flat("Pub")]).unwrap(),
                ),
            ],
        )
        .unwrap();
        let u = Universe::from_attr(&n).unwrap();
        assert!(u.is_flat("Person") && u.is_flat("Beer") && u.is_flat("Pub"));
        assert!(u.is_label("Pubcrawl") && u.is_label("Visit") && u.is_label("Drink"));
        assert_eq!(u.flats().count(), 3);
        assert_eq!(u.labels().count(), 3);
        u.admits_attr(&n).unwrap();
    }

    #[test]
    fn from_attr_detects_clash() {
        // name "X" used both as label and flat attribute
        let n = A::record("X", vec![A::flat("X")]).unwrap();
        assert!(Universe::from_attr(&n).is_err());
    }

    #[test]
    fn admits_attr_rejects_unknown() {
        let u = Universe::new();
        assert!(u.admits_attr(&A::flat("A")).is_err());
        assert!(u.admits_attr(&A::Null).is_ok());
    }
}
