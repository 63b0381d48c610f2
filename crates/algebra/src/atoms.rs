//! Atoms: the basis attributes `SubB(N)` of a nested attribute
//! (Definition 4.7), realised as positions in the attribute tree.
//!
//! `SubB(N)` — the smallest set of subattributes whose joins generate all
//! of `Sub(N)` — consists of exactly one *atom* per
//!
//! * flat-attribute leaf of `N` (e.g. `A(B)`, `A(C[D(E)])`), and
//! * list node of `N` (the subattribute keeping that list but bottoming
//!   out its content, e.g. `A(C[λ])`, `A(C[D(F[λ])])`),
//!
//! ordered by `b(p) ≤ b(q)` iff the list node `p` is an ancestor of the
//! position `q`. Under this view, `Sub(N)` is isomorphic to the lattice of
//! downward-closed atom sets — the representation used by the whole
//! engine (see [`crate::subset`]).
//!
//! [`Algebra`] is built once per ambient attribute `N` and precomputes,
//! for every atom `a`,
//!
//! * `below(a)` = `SubB(b(a))` — `a` plus its list-node ancestors,
//! * `above(a)` = all atoms `q` with `b(a) ≤ b(q)` — `a` plus every atom
//!   inside `a`'s content subtree, and
//! * whether `a` is *maximal* in `SubB(N)` (Definition 4.7).

use std::fmt;

use nalist_guard::{Budget, ResourceExhausted};
use nalist_types::attr::NestedAttr;
use nalist_types::error::TypeError;

use crate::bitset::{AtomSet, WidthClass};
use crate::notation::{flatten, SchemaNode};

/// Typed error for atom sets that cannot belong to an [`Algebra`]'s
/// universe — the public-boundary check that lets every kernel below it
/// assume capacity agreement with only a `debug_assert!`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgebraError {
    /// The set was built for a different universe size than the
    /// algebra's `|SubB(N)|`, so its storage width class may differ and
    /// no lattice operation against the algebra's masks is meaningful.
    CapacityMismatch {
        /// The capacity the foreign set was built with.
        have: usize,
        /// The algebra's atom count.
        want: usize,
    },
    /// A set bit lies at or above the capacity — an atom outside the
    /// universe, which only words read from outside (a snapshot) can
    /// carry.
    AtomOutOfRange {
        /// The offending bit's index.
        atom: usize,
        /// The capacity the words were read for.
        capacity: usize,
    },
}

impl fmt::Display for AlgebraError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlgebraError::CapacityMismatch { have, want } => write!(
                f,
                "atom set capacity {have} does not match the algebra's {want} atoms"
            ),
            AlgebraError::AtomOutOfRange { atom, capacity } => {
                write!(f, "bit {atom} is set in a set of capacity {capacity}")
            }
        }
    }
}

impl std::error::Error for AlgebraError {}

/// Identifier of an atom (basis attribute) within an [`Algebra`];
/// atoms are numbered in depth-first pre-order of the attribute tree.
pub type AtomId = usize;

/// Whether an atom is a flat leaf or a list node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AtomKind {
    /// A flat-attribute leaf.
    FlatLeaf,
    /// A list node (its basis attribute bottoms out the list content).
    ListNode,
}

/// Per-atom precomputed data.
#[derive(Debug, Clone)]
pub struct AtomInfo {
    /// Leaf or list node.
    pub kind: AtomKind,
    /// The name at this position (flat attribute name or list label).
    pub name: String,
    /// `SubB(b(a))`: this atom plus its list-node ancestors.
    pub below: AtomSet,
    /// All atoms `q` with `b(a) ≤ b(q)`: this atom plus all atoms in its
    /// content subtree (only list nodes have a non-trivial subtree).
    pub above: AtomSet,
    /// Is `b(a)` maximal in `SubB(N)` (no basis attribute strictly above)?
    pub maximal: bool,
}

/// The Brouwerian algebra `Sub(N)` of a fixed nested attribute `N`,
/// realised on bitsets of atoms (Theorem 3.9).
///
/// ```
/// use nalist_algebra::Algebra;
/// use nalist_types::parser::parse_attr;
///
/// // Example 4.8 of the paper
/// let n = parse_attr("A'(B, C[D(E, F[G])])").unwrap();
/// let alg = Algebra::new(&n);
/// assert_eq!(alg.atom_count(), 5);          // |SubB(N)|
/// assert_eq!(alg.maximal_atom_ids().count(), 3); // |MaxB(N)|
/// ```
#[derive(Debug, Clone)]
pub struct Algebra {
    attr: NestedAttr,
    atoms: Vec<AtomInfo>,
    max_mask: AtomSet,
    /// Storage width class of every set in this universe — selected once
    /// here, at construction, so the whole engine dispatches into one
    /// kernel family (see `crate::bitset::WidthClass`).
    width: WidthClass,
    /// `N` flattened in pre-order, which [`Algebra::render`] walks.
    pub(crate) schema: Vec<SchemaNode>,
}

impl Algebra {
    /// Builds the algebra for the ambient attribute `n`.
    pub fn new(n: &NestedAttr) -> Self {
        Algebra::try_new(n, &Budget::unlimited(), nalist_obs::noop())
            .expect("unlimited budget cannot be exhausted")
    }

    /// Builds the algebra for `n` under a resource [`Budget`], reporting
    /// to `rec`.
    ///
    /// Construction is the memory hot spot of the whole stack: the
    /// per-atom `below`/`above` masks occupy `O(atoms²)` bits, so an
    /// adversarial schema with hundreds of thousands of atoms would OOM
    /// long before any reasoning starts. The budget's `max_atoms` cap is
    /// checked before the masks are allocated, three fuel units are
    /// charged per atom, and the deadline is sampled along the way.
    ///
    /// An enabled recorder sees construction as an `algebra::atoms` span
    /// (enter payload: basis size estimate, exit payload: atoms
    /// allocated) and an `atoms_allocated` counter bump.
    pub fn try_new(
        n: &NestedAttr,
        budget: &Budget,
        rec: &dyn nalist_obs::Recorder,
    ) -> Result<Self, ResourceExhausted> {
        if !rec.enabled() {
            return Algebra::build(n, budget);
        }
        let token = rec.enter(nalist_obs::site::ATOMS, n.basis_size() as u64);
        let result = Algebra::build(n, budget);
        let allocated = result.as_ref().map_or(0, |a| a.atom_count() as u64);
        rec.add(nalist_obs::Counter::AtomsAllocated, allocated);
        rec.exit(token, allocated);
        result
    }

    fn build(n: &NestedAttr, budget: &Budget) -> Result<Self, ResourceExhausted> {
        budget.failpoint("algebra::atoms")?;
        let mut collected: Vec<(AtomKind, String, Vec<AtomId>)> = Vec::new();
        collect_atoms(n, &mut Vec::new(), &mut collected);
        let count = collected.len();
        budget.check_atoms(count)?;
        let mut atoms: Vec<AtomInfo> = Vec::with_capacity(count);
        for (id, (kind, name, ancestors)) in collected.iter().enumerate() {
            budget.charge(1)?;
            let mut below = AtomSet::empty(count);
            below.insert(id);
            for &p in ancestors {
                below.insert(p);
            }
            atoms.push(AtomInfo {
                kind: *kind,
                name: name.clone(),
                below,
                above: AtomSet::empty(count),
                maximal: false,
            });
        }
        // above masks: every atom contributes itself to all its ancestors
        for (id, (_, _, ancestors)) in collected.iter().enumerate() {
            budget.charge(1)?;
            atoms[id].above.insert(id);
            for &p in ancestors {
                atoms[p].above.insert(id);
            }
        }
        let mut max_mask = AtomSet::empty(count);
        for (id, a) in atoms.iter_mut().enumerate() {
            a.maximal = a.above.count() == 1;
            if a.maximal {
                max_mask.insert(id);
            }
        }
        budget.check_deadline()?;
        // construction is priced at three fuel units per atom
        budget.charge(count as u64)?;
        Ok(Algebra {
            attr: n.clone(),
            atoms,
            max_mask,
            width: WidthClass::for_capacity(count),
            schema: flatten(n),
        })
    }

    /// The ambient attribute `N`.
    pub fn attr(&self) -> &NestedAttr {
        &self.attr
    }

    /// `|N| = |SubB(N)|`, the paper's size measure.
    pub fn atom_count(&self) -> usize {
        self.atoms.len()
    }

    /// Per-atom data.
    #[inline]
    pub fn atom(&self, id: AtomId) -> &AtomInfo {
        &self.atoms[id]
    }

    /// All atoms.
    pub fn atoms(&self) -> &[AtomInfo] {
        &self.atoms
    }

    /// The storage width class shared by every atom set of this
    /// universe, selected once at construction.
    pub fn width_class(&self) -> WidthClass {
        self.width
    }

    /// Checks that `set` belongs to this universe (same capacity, hence
    /// the same width class) — the typed public-boundary guard behind
    /// which all bitset kernels run with `debug_assert!` only.
    pub fn check_capacity(&self, set: &AtomSet) -> Result<(), AlgebraError> {
        if set.capacity() == self.atom_count() {
            Ok(())
        } else {
            Err(AlgebraError::CapacityMismatch {
                have: set.capacity(),
                want: self.atom_count(),
            })
        }
    }

    /// Mask of the maximal atoms `MaxB(N)`.
    pub fn max_mask(&self) -> &AtomSet {
        &self.max_mask
    }

    /// Ids of the maximal atoms.
    pub fn maximal_atom_ids(&self) -> impl Iterator<Item = AtomId> + '_ {
        self.max_mask.iter()
    }

    /// Converts a downward-closed atom set back into the canonical
    /// subattribute tree of `N` it denotes (`X = ⊔ SubB(X)`).
    pub fn to_attr(&self, set: &AtomSet) -> NestedAttr {
        debug_assert!(
            self.is_downward_closed(set),
            "atom set must be downward closed"
        );
        nalist_types::subattr::from_atoms(&self.attr, set.iter())
    }

    /// Converts a subattribute `x ≤ N` into its atom set `SubB(x)`.
    ///
    /// Fails with [`TypeError::NotSubattribute`] if `x ≰ N`.
    pub fn from_attr(&self, x: &NestedAttr) -> Result<AtomSet, TypeError> {
        let mut set = AtomSet::empty(self.atom_count());
        let mut cursor = 0;
        if from_attr_walk(&self.attr, x, &mut cursor, &mut set) {
            Ok(set)
        } else {
            Err(TypeError::NotSubattribute {
                sub: x.to_string(),
                sup: self.attr.to_string(),
            })
        }
    }

    /// Is the set downward closed (a valid element of `Sub(N)`)?
    pub fn is_downward_closed(&self, set: &AtomSet) -> bool {
        set.iter().all(|a| self.atoms[a].below.is_subset(set))
    }

    /// Downward closure: the least element of `Sub(N)` containing `set`.
    pub fn downward_closure(&self, set: &AtomSet) -> AtomSet {
        let mut out = AtomSet::empty(self.atom_count());
        for a in set.iter() {
            out.union_with(&self.atoms[a].below);
        }
        out
    }
}

fn collect_atoms(
    n: &NestedAttr,
    list_ancestors: &mut Vec<AtomId>,
    out: &mut Vec<(AtomKind, String, Vec<AtomId>)>,
) {
    match n {
        NestedAttr::Null => {}
        NestedAttr::Flat(name) => {
            out.push((AtomKind::FlatLeaf, name.clone(), list_ancestors.clone()));
        }
        NestedAttr::Record(_, children) => {
            for c in children {
                collect_atoms(c, list_ancestors, out);
            }
        }
        NestedAttr::List(label, inner) => {
            let id = out.len();
            out.push((AtomKind::ListNode, label.clone(), list_ancestors.clone()));
            list_ancestors.push(id);
            collect_atoms(inner, list_ancestors, out);
            list_ancestors.pop();
        }
    }
}

fn from_attr_walk(n: &NestedAttr, x: &NestedAttr, cursor: &mut usize, set: &mut AtomSet) -> bool {
    match (n, x) {
        (NestedAttr::Null, NestedAttr::Null) => true,
        (NestedAttr::Flat(a), NestedAttr::Flat(b)) if a == b => {
            set.insert(*cursor);
            *cursor += 1;
            true
        }
        (NestedAttr::Flat(_), NestedAttr::Null) => {
            *cursor += 1;
            true
        }
        (NestedAttr::Record(l, ncs), NestedAttr::Record(k, xcs))
            if l == k && ncs.len() == xcs.len() =>
        {
            ncs.iter()
                .zip(xcs)
                .all(|(nc, xc)| from_attr_walk(nc, xc, cursor, set))
        }
        (NestedAttr::List(l, ni), NestedAttr::List(k, xi)) if l == k => {
            set.insert(*cursor);
            *cursor += 1;
            from_attr_walk(ni, xi, cursor, set)
        }
        (NestedAttr::List(_, ni), NestedAttr::Null) => {
            *cursor += 1 + ni.basis_size();
            true
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nalist_types::parser::{parse_attr, parse_subattr_of};

    fn ex48() -> (NestedAttr, Algebra) {
        let n = parse_attr("A'(B, C[D(E, F[G])])").unwrap();
        let alg = Algebra::new(&n);
        (n, alg)
    }

    #[test]
    fn atom_enumeration_example_48() {
        let (_, alg) = ex48();
        // atoms in pre-order: B(leaf), C(list), E(leaf), F(list), G(leaf)
        assert_eq!(alg.atom_count(), 5);
        let kinds: Vec<_> = alg.atoms().iter().map(|a| a.kind).collect();
        assert_eq!(
            kinds,
            vec![
                AtomKind::FlatLeaf,
                AtomKind::ListNode,
                AtomKind::FlatLeaf,
                AtomKind::ListNode,
                AtomKind::FlatLeaf
            ]
        );
        let names: Vec<_> = alg.atoms().iter().map(|a| a.name.as_str()).collect();
        assert_eq!(names, vec!["B", "C", "E", "F", "G"]);
    }

    #[test]
    fn basis_attributes_match_paper_example_48() {
        // SubB(N) = {A(B), A(C[λ]), A(C[D(F[λ])]), A(C[D(E)]), A(C[D(F[G])])}
        let (n, alg) = ex48();
        let rendered: Vec<String> = alg
            .atoms()
            .iter()
            .map(|a| nalist_types::display::abbreviate(&alg.to_attr(&a.below), &n))
            .collect();
        assert_eq!(
            rendered,
            vec![
                "A'(B)",
                "A'(C[λ])",
                "A'(C[D(E)])",
                "A'(C[D(F[λ])])",
                "A'(C[D(F[G])])"
            ]
        );
    }

    #[test]
    fn maximality_example_48() {
        let (_, alg) = ex48();
        // maximal: B, E, G (leaves); non-maximal: C, F (lists with content atoms)
        let maximal: Vec<bool> = alg.atoms().iter().map(|a| a.maximal).collect();
        assert_eq!(maximal, vec![true, false, true, false, true]);
        assert_eq!(alg.max_mask().count(), 3);
    }

    #[test]
    fn below_and_above_masks() {
        let (_, alg) = ex48();
        // atom ids: 0=B, 1=C, 2=E, 3=F, 4=G
        assert_eq!(alg.atom(0).below, AtomSet::from_indices(5, [0]));
        assert_eq!(alg.atom(2).below, AtomSet::from_indices(5, [1, 2]));
        assert_eq!(alg.atom(4).below, AtomSet::from_indices(5, [1, 3, 4]));
        assert_eq!(alg.atom(1).above, AtomSet::from_indices(5, [1, 2, 3, 4]));
        assert_eq!(alg.atom(3).above, AtomSet::from_indices(5, [3, 4]));
        assert_eq!(alg.atom(0).above, AtomSet::from_indices(5, [0]));
    }

    #[test]
    fn round_trip_from_attr_to_attr() {
        let (n, alg) = ex48();
        for s in [
            "A'(B)",
            "A'(C[λ])",
            "A'(C[D(E)])",
            "A'(B, C[D(E, F[λ])])",
            "λ",
            "A'(B, C[D(E, F[G])])",
        ] {
            let x = parse_subattr_of(&n, s).unwrap();
            let set = alg.from_attr(&x).unwrap();
            assert!(alg.is_downward_closed(&set), "{s}");
            assert_eq!(alg.to_attr(&set), x, "{s}");
        }
    }

    #[test]
    fn from_attr_rejects_non_subattribute() {
        let (_, alg) = ex48();
        assert!(alg.from_attr(&NestedAttr::flat("Z")).is_err());
        let other = parse_attr("A'(B)").unwrap(); // wrong arity record
        assert!(alg.from_attr(&other).is_err());
        // λ where N has a record: its only spelling in Sub(N) is the
        // record of λs, so every accepted tree is the canonical one
        assert!(alg.from_attr(&NestedAttr::Null).is_err());
    }

    #[test]
    fn downward_closure_adds_list_ancestors() {
        let (_, alg) = ex48();
        // {G} closes to {C, F, G}
        let s = AtomSet::from_indices(5, [4]);
        assert!(!alg.is_downward_closed(&s));
        assert_eq!(
            alg.downward_closure(&s),
            AtomSet::from_indices(5, [1, 3, 4])
        );
    }

    #[test]
    fn lambda_inside_top_level_list() {
        // N = K[L(M[N'(A, B)], C)] — Example 4.12's attribute
        let n = parse_attr("K[L(M[N'(A, B)], C)]").unwrap();
        let alg = Algebra::new(&n);
        // atoms: K(list), M(list), A, B, C
        assert_eq!(alg.atom_count(), 5);
        assert_eq!(alg.atom(0).kind, AtomKind::ListNode);
        assert_eq!(alg.atom(0).name, "K");
        // b(K) = K[λ]
        assert_eq!(
            nalist_types::display::abbreviate(&alg.to_attr(&alg.atom(0).below), &n),
            "K[λ]"
        );
        // everything is above the root list atom
        assert_eq!(alg.atom(0).above.count(), 5);
    }

    #[test]
    fn empty_algebra_for_lambda() {
        let alg = Algebra::new(&NestedAttr::Null);
        assert_eq!(alg.atom_count(), 0);
        assert_eq!(alg.to_attr(&AtomSet::empty(0)), NestedAttr::Null);
    }

    #[test]
    fn try_new_enforces_atom_cap() {
        let n = parse_attr("A'(B, C[D(E, F[G])])").unwrap(); // 5 atoms
        let ok = Budget::unlimited().with_max_atoms(5);
        assert!(Algebra::try_new(&n, &ok, nalist_obs::noop()).is_ok());
        let too_small = Budget::unlimited().with_max_atoms(4);
        let err = Algebra::try_new(&n, &too_small, nalist_obs::noop()).unwrap_err();
        assert_eq!(err.kind, nalist_guard::ResourceKind::Atoms);
        assert_eq!(err.spent, 5);
        assert_eq!(err.limit, 4);
    }

    #[test]
    fn try_new_charges_fuel() {
        let n = parse_attr("A'(B, C[D(E, F[G])])").unwrap();
        let starved = Budget::unlimited().with_fuel(3);
        let err = Algebra::try_new(&n, &starved, nalist_obs::noop()).unwrap_err();
        assert_eq!(err.kind, nalist_guard::ResourceKind::Fuel);
        // Result agrees with the unlimited build when the budget suffices.
        let roomy = Budget::unlimited().with_fuel(10_000);
        let alg = Algebra::try_new(&n, &roomy, nalist_obs::noop()).unwrap();
        assert_eq!(alg.atom_count(), Algebra::new(&n).atom_count());
    }

    #[test]
    fn try_new_failpoint_fires() {
        let n = parse_attr("L(A)").unwrap();
        let b = Budget::unlimited().with_failpoint(nalist_guard::FailPoint::every(
            "algebra::atoms",
            nalist_guard::FailAction::ExhaustFuel,
        ));
        assert!(Algebra::try_new(&n, &b, nalist_obs::noop()).is_err());
    }

    #[test]
    fn observed_build_counts_atoms_and_matches_unobserved() {
        let n = parse_attr("A'(B, C[D(E, F[G])])").unwrap();
        let rec = nalist_obs::MetricsRecorder::new();
        let alg = Algebra::try_new(&n, &Budget::unlimited(), &rec).unwrap();
        let unobserved = Algebra::try_new(&n, &Budget::unlimited(), nalist_obs::noop()).unwrap();
        assert_eq!(alg.atom_count(), unobserved.atom_count());
        assert_eq!(rec.counter(nalist_obs::Counter::AtomsAllocated), 5);
        let snap = rec.snapshot();
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].site, nalist_obs::site::ATOMS);
        assert_eq!(snap.spans[0].payload_out, 5);
    }

    #[test]
    fn width_class_and_capacity_check() {
        let (_, alg) = ex48();
        assert_eq!(alg.width_class(), WidthClass::W2);
        assert!(alg.check_capacity(&AtomSet::empty(5)).is_ok());
        let err = alg.check_capacity(&AtomSet::empty(6)).unwrap_err();
        assert_eq!(err, AlgebraError::CapacityMismatch { have: 6, want: 5 });
        assert!(err.to_string().contains("capacity 6"));
    }

    #[test]
    fn basis_size_agrees() {
        let n = parse_attr("L1(L2[L3[L4(A, B, C)]], L5[L6(D, E)], L7(F, L8[L9(G, L10[H])], I))")
            .unwrap();
        let alg = Algebra::new(&n);
        assert_eq!(alg.atom_count(), n.basis_size());
        assert_eq!(alg.atom_count(), 14);
    }
}
