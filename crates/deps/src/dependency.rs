//! Functional and multi-valued dependencies on a nested attribute
//! (Definition 4.1) and their triviality characterisation (Lemma 4.3).

use std::fmt;

use nalist_algebra::{Algebra, AtomSet};
use nalist_types::attr::NestedAttr;
use nalist_types::error::{ParseError, TypeError};
use nalist_types::parser::{parse_dependency_atoms_with, DepKind, ParseLimits};
use nalist_types::subattr::from_atoms;

/// A dependency `X → Y` (FD) or `X ↠ Y` (MVD) with tree-level sides.
///
/// Use [`Dependency::compile`] to obtain the atom-set form used by the
/// engines.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Dependency {
    /// FD or MVD.
    pub kind: DepKind,
    /// Left-hand side `X` (canonical subattribute of the ambient `N`).
    pub lhs: NestedAttr,
    /// Right-hand side `Y`.
    pub rhs: NestedAttr,
}

impl Dependency {
    /// Creates an FD `X → Y`.
    pub fn fd(lhs: NestedAttr, rhs: NestedAttr) -> Self {
        Dependency {
            kind: DepKind::Fd,
            lhs,
            rhs,
        }
    }

    /// Creates an MVD `X ↠ Y`.
    pub fn mvd(lhs: NestedAttr, rhs: NestedAttr) -> Self {
        Dependency {
            kind: DepKind::Mvd,
            lhs,
            rhs,
        }
    }

    /// Parses `"X -> Y"` / `"X ->> Y"` (or `→`/`↠`) with both sides in the
    /// abbreviated notation, resolved against the ambient attribute `n`.
    pub fn parse(n: &NestedAttr, src: &str) -> Result<Self, ParseError> {
        Dependency::parse_with(n, src, ParseLimits::default())
    }

    /// [`Dependency::parse`] with explicit [`ParseLimits`]: the atoms
    /// [`parse_dependency_atoms_with`] emits for each side, built into
    /// trees by [`from_atoms`].
    pub fn parse_with(n: &NestedAttr, src: &str, limits: ParseLimits) -> Result<Self, ParseError> {
        let (mut x, mut y) = (Vec::new(), Vec::new());
        let kind = parse_dependency_atoms_with(n, src, limits, |a| x.push(a), |a| y.push(a))?;
        Ok(Dependency {
            kind,
            lhs: from_atoms(n, x),
            rhs: from_atoms(n, y),
        })
    }

    /// Compiles the sides into atom sets over `alg`.
    pub fn compile(&self, alg: &Algebra) -> Result<CompiledDep, TypeError> {
        Ok(CompiledDep {
            kind: self.kind,
            lhs: alg.from_attr(&self.lhs)?,
            rhs: alg.from_attr(&self.rhs)?,
        })
    }

    /// Is the dependency trivial — satisfied by *every* finite
    /// `r ⊆ dom(N)` (Lemma 4.3)? FDs: `Y ≤ X`. MVDs: `Y ≤ X` or
    /// `X ⊔ Y = N`.
    pub fn is_trivial(&self, alg: &Algebra) -> Result<bool, TypeError> {
        let c = self.compile(alg)?;
        Ok(match self.kind {
            DepKind::Fd => alg.fd_trivial(&c.lhs, &c.rhs),
            DepKind::Mvd => alg.mvd_trivial(&c.lhs, &c.rhs),
        })
    }

    /// Renders in abbreviated notation relative to the ambient `n`.
    pub fn display_in(&self, n: &NestedAttr) -> String {
        let arrow = match self.kind {
            DepKind::Fd => "->",
            DepKind::Mvd => "->>",
        };
        format!(
            "{} {} {}",
            nalist_types::display::abbreviate(&self.lhs, n),
            arrow,
            nalist_types::display::abbreviate(&self.rhs, n)
        )
    }
}

impl fmt::Display for Dependency {
    /// Canonical (unabbreviated) rendering.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let arrow = match self.kind {
            DepKind::Fd => "->",
            DepKind::Mvd => "->>",
        };
        write!(f, "{} {} {}", self.lhs, arrow, self.rhs)
    }
}

/// A dependency with sides compiled to downward-closed atom sets.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CompiledDep {
    /// FD or MVD.
    pub kind: DepKind,
    /// `SubB(X)`.
    pub lhs: AtomSet,
    /// `SubB(Y)`.
    pub rhs: AtomSet,
}

impl CompiledDep {
    /// Creates a compiled FD.
    pub fn fd(lhs: AtomSet, rhs: AtomSet) -> Self {
        CompiledDep {
            kind: DepKind::Fd,
            lhs,
            rhs,
        }
    }

    /// Creates a compiled MVD.
    pub fn mvd(lhs: AtomSet, rhs: AtomSet) -> Self {
        CompiledDep {
            kind: DepKind::Mvd,
            lhs,
            rhs,
        }
    }

    /// Parses `"X -> Y"` / `"X ->> Y"` (or `→`/`↠`) straight to its
    /// compiled form over `alg`: [`Dependency::parse_with`] followed by
    /// [`Dependency::compile`], with the same [`ParseError`] for every text
    /// that fails, but no tree built. The text is read once, with names
    /// borrowed from it, and each side is decided by the parser's one
    /// counting pass and emitted as atoms
    /// ([`nalist_types::parser::parse_dependency_atoms_with`]).
    ///
    /// ```
    /// use nalist_algebra::Algebra;
    /// use nalist_deps::{CompiledDep, Dependency};
    /// use nalist_types::parser::{parse_attr, ParseLimits};
    ///
    /// let n = parse_attr("Pubcrawl(Person, Visit[Drink(Beer, Pub)])").unwrap();
    /// let alg = Algebra::new(&n);
    /// let src = "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])";
    /// let c = CompiledDep::parse(&alg, src, ParseLimits::default()).unwrap();
    /// assert_eq!(c, Dependency::parse(&n, src).unwrap().compile(&alg).unwrap());
    /// assert_eq!(c.render(&alg), src);
    /// ```
    pub fn parse(alg: &Algebra, src: &str, limits: ParseLimits) -> Result<Self, ParseError> {
        let mut lhs = AtomSet::empty(alg.atom_count());
        let mut rhs = lhs.clone();
        let kind = parse_dependency_atoms_with(
            alg.attr(),
            src,
            limits,
            |a| lhs.insert(a),
            |a| rhs.insert(a),
        )?;
        Ok(CompiledDep { kind, lhs, rhs })
    }

    /// Converts back to tree-level form.
    pub fn decompile(&self, alg: &Algebra) -> Dependency {
        Dependency {
            kind: self.kind,
            lhs: alg.to_attr(&self.lhs),
            rhs: alg.to_attr(&self.rhs),
        }
    }

    /// Is the compiled dependency trivial (Lemma 4.3)?
    pub fn is_trivial(&self, alg: &Algebra) -> bool {
        match self.kind {
            DepKind::Fd => alg.fd_trivial(&self.lhs, &self.rhs),
            DepKind::Mvd => alg.mvd_trivial(&self.lhs, &self.rhs),
        }
    }

    /// Renders in abbreviated notation.
    pub fn render(&self, alg: &Algebra) -> String {
        let mut out = String::new();
        alg.render_into(&self.lhs, &mut out);
        out.push_str(match self.kind {
            DepKind::Fd => " -> ",
            DepKind::Mvd => " ->> ",
        });
        alg.render_into(&self.rhs, &mut out);
        out
    }
}

/// Parses a whole set `Σ` of dependencies, one per line (blank lines and
/// `#` comments ignored).
pub fn parse_sigma(n: &NestedAttr, src: &str) -> Result<Vec<Dependency>, ParseError> {
    parse_sigma_with(n, src, ParseLimits::default())
}

/// [`parse_sigma`] with explicit [`ParseLimits`].
pub fn parse_sigma_with(
    n: &NestedAttr,
    src: &str,
    limits: ParseLimits,
) -> Result<Vec<Dependency>, ParseError> {
    src.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| Dependency::parse_with(n, l, limits))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nalist_types::parser::parse_attr;

    fn pubcrawl() -> NestedAttr {
        parse_attr("Pubcrawl(Person, Visit[Drink(Beer, Pub)])").unwrap()
    }

    #[test]
    fn parse_and_display_round_trip() {
        let n = pubcrawl();
        let d = Dependency::parse(&n, "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])").unwrap();
        assert_eq!(d.kind, DepKind::Mvd);
        assert_eq!(
            d.display_in(&n),
            "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])"
        );
        let d2 = Dependency::parse(&n, &d.display_in(&n)).unwrap();
        assert_eq!(d, d2);
    }

    #[test]
    fn compile_round_trip() {
        let n = pubcrawl();
        let alg = Algebra::new(&n);
        let d = Dependency::parse(&n, "Pubcrawl(Person) -> Pubcrawl(Visit[λ])").unwrap();
        let c = d.compile(&alg).unwrap();
        assert_eq!(c.decompile(&alg), d);
        assert_eq!(c.render(&alg), "Pubcrawl(Person) -> Pubcrawl(Visit[λ])");
    }

    #[test]
    fn triviality() {
        let n = pubcrawl();
        let alg = Algebra::new(&n);
        // Y ≤ X
        let t1 = Dependency::parse(&n, "Pubcrawl(Person, Visit[λ]) -> Pubcrawl(Person)").unwrap();
        assert!(t1.is_trivial(&alg).unwrap());
        // X ⊔ Y = N makes MVDs trivial
        let t2 = Dependency::parse(&n, "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Beer, Pub)])")
            .unwrap();
        assert!(t2.is_trivial(&alg).unwrap());
        // but not this one: Y ∪ X misses Beer
        let nt = Dependency::parse(&n, "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])").unwrap();
        assert!(!nt.is_trivial(&alg).unwrap());
        // and the corresponding FD is non-trivial too
        let ntf = Dependency::parse(&n, "Pubcrawl(Person) -> Pubcrawl(Visit[λ])").unwrap();
        assert!(!ntf.is_trivial(&alg).unwrap());
    }

    #[test]
    fn parse_sigma_lines() {
        let n = pubcrawl();
        let sigma = parse_sigma(
            &n,
            "# comment\n\
             Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])\n\
             \n\
             Pubcrawl(Person) -> Pubcrawl(Visit[λ])\n",
        )
        .unwrap();
        assert_eq!(sigma.len(), 2);
        assert_eq!(sigma[0].kind, DepKind::Mvd);
        assert_eq!(sigma[1].kind, DepKind::Fd);
    }

    #[test]
    fn ordering_for_sets() {
        let n = pubcrawl();
        let d1 = Dependency::parse(&n, "Pubcrawl(Person) -> Pubcrawl(Visit[λ])").unwrap();
        let d2 = Dependency::parse(&n, "Pubcrawl(Person) ->> Pubcrawl(Visit[λ])").unwrap();
        let mut set = std::collections::BTreeSet::new();
        set.insert(d1.clone());
        set.insert(d2);
        set.insert(d1);
        assert_eq!(set.len(), 2);
    }
}
