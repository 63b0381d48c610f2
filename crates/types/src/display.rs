//! Rendering of nested attributes, including the paper's `λ`-omission
//! abbreviation convention (Section 3.3).
//!
//! Two notations are provided:
//!
//! * the **canonical** notation via [`std::fmt::Display`]: every record
//!   component is printed, `λ` included — e.g.
//!   `L1(A, λ, L2[L3(λ, λ)])`;
//! * the **abbreviated** notation via [`abbreviate`]: components that are
//!   the bottom `λ_{N_j}` of their position are omitted, a record that is
//!   entirely bottom collapses to `λ`, and a list whose content is the
//!   bottom of the content type prints as `L[λ]` — e.g. the same attribute
//!   prints as `L1(A, L2[λ])`. Following the paper, the abbreviation is
//!   only used when it is unambiguous: `L(A, λ) ≤ L(A, A)` is *not*
//!   abbreviated to `L(A)` "since this may also refer to `L(λ, A)`";
//!   instead the full form is printed.
//!
//! The intermediate [`Loose`] representation (an abbreviated attribute
//! whose record components are a subsequence of the context's components)
//! is shared with the parser, which resolves user-written abbreviated
//! forms back into canonical subattributes. One counting pass decides a
//! term; its first resolution is then emitted either as a tree
//! ([`first_resolution`]) or as the atoms of `SubB` in pre-order
//! ([`first_resolution_atoms`]).

use std::fmt;
use std::iter::Peekable;

use crate::attr::NestedAttr;
use crate::subattr::is_subattr;

impl fmt::Display for NestedAttr {
    /// Canonical (unabbreviated) paper notation; `λ` is printed for the
    /// null attribute.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NestedAttr::Null => write!(f, "λ"),
            NestedAttr::Flat(a) => write!(f, "{a}"),
            NestedAttr::Record(l, children) => {
                write!(f, "{l}(")?;
                for (i, c) in children.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, ")")
            }
            NestedAttr::List(l, inner) => write!(f, "{l}[{inner}]"),
        }
    }
}

/// An *abbreviated* nested attribute: record components are a subsequence
/// of the components of the context attribute, `λ` stands for an omitted
/// bottom. Names are borrowed: from the text the parser read, or from the
/// tree [`to_loose`] abbreviates. Resolved against a context attribute by
/// [`first_resolution`], with [`count_resolutions`] and [`resolutions`] as
/// the reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Loose<'a> {
    /// `λ` — resolves to the bottom `λ_N` of the context.
    Lambda,
    /// A flat attribute name.
    Flat(&'a str),
    /// `L(d1, …, dm)` where the `di` match a subsequence of the context's
    /// components (omitted components are bottom).
    Record(&'a str, Vec<Loose<'a>>),
    /// `L[d]`.
    List(&'a str, Box<Loose<'a>>),
}

impl fmt::Display for Loose<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Loose::Lambda => write!(f, "λ"),
            Loose::Flat(a) => write!(f, "{a}"),
            Loose::Record(l, ds) => {
                write!(f, "{l}(")?;
                for (i, d) in ds.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{d}")?;
                }
                write!(f, ")")
            }
            Loose::List(l, d) => write!(f, "{l}[{d}]"),
        }
    }
}

/// Maximally abbreviated loose form of `x ≤ n` (may be ambiguous; see
/// [`loose_unambiguous`]).
pub fn to_loose<'a>(x: &'a NestedAttr, n: &NestedAttr) -> Loose<'a> {
    debug_assert!(is_subattr(x, n), "to_loose requires x ≤ n");
    if x.is_bottom() {
        return Loose::Lambda;
    }
    match (x, n) {
        (NestedAttr::Flat(a), _) => Loose::Flat(a),
        (NestedAttr::Record(l, xcs), NestedAttr::Record(_, ncs)) => {
            let kept: Vec<Loose> = xcs
                .iter()
                .zip(ncs)
                .filter(|(xc, nc)| **xc != nc.bottom())
                .map(|(xc, nc)| to_loose(xc, nc))
                .collect();
            Loose::Record(l, kept)
        }
        (NestedAttr::List(l, xi), NestedAttr::List(_, ni)) => {
            if **xi == ni.bottom() {
                Loose::List(l, Box::new(Loose::Lambda))
            } else {
                Loose::List(l, Box::new(to_loose(xi, ni)))
            }
        }
        _ => unreachable!("x ≤ n guarantees matching shapes for non-bottom x"),
    }
}

/// Counts the subattributes of `n` whose abbreviated form matches `d`
/// (saturating at `u64::MAX`).
pub fn count_resolutions(d: &Loose<'_>, n: &NestedAttr) -> u64 {
    count_into(d, n, &mut Tape::new()).0
}

/// Resolves `d` against `n` with one counting pass and one walk down the
/// assignment DP. Returns the saturating [`count_resolutions`] and, when
/// it is non-zero, the first element of [`resolutions`] — the resolution
/// itself when the count is 1 — without building any other.
///
/// The walk prefers matching over skipping at every cell, which is the
/// order [`resolutions`] enumerates in. When the count is 1 the choice is
/// forced anyway: `f[i][j] = skip + here = 1` leaves exactly one of the
/// two with a completion.
///
/// ```
/// use nalist_types::display::{first_resolution, Loose};
/// use nalist_types::parser::parse_attr;
///
/// let n = parse_attr("L(A, A)").unwrap();
/// let d = Loose::Record("L", vec![Loose::Flat("A")]);
/// let (count, first) = first_resolution(&d, &n);
/// assert_eq!(count, 2);
/// assert_eq!(first.unwrap().to_string(), "L(A, λ)");
/// ```
pub fn first_resolution(d: &Loose<'_>, n: &NestedAttr) -> (u64, Option<NestedAttr>) {
    resolve_with(&mut Tape::new(), d, n, |paths, at| {
        first_on_path(d, n, paths, at)
    })
}

/// [`first_resolution`] with the atom emitter: returns the same count
/// and, when it is non-zero, hands `atom` the atoms of `SubB` of the
/// first resolution — one per flat and list node it keeps, numbered in
/// pre-order of `n` as `nalist_algebra` numbers them — in ascending
/// order, without building the tree.
///
/// ```
/// use nalist_types::display::{first_resolution_atoms, Loose};
/// use nalist_types::parser::parse_attr;
///
/// // atoms of A'(B, C[D(E, F[G])]): B 0, C 1, E 2, F 3, G 4
/// let n = parse_attr("A'(B, C[D(E, F[G])])").unwrap();
/// let d = Loose::Record("A'", vec![Loose::List("C", Box::new(Loose::Record(
///     "D", vec![Loose::List("F", Box::new(Loose::Lambda))],
/// )))]);
/// let mut atoms = Vec::new();
/// assert_eq!(first_resolution_atoms(&d, &n, |a| atoms.push(a)), 1);
/// assert_eq!(atoms, [1, 3]);
/// ```
pub fn first_resolution_atoms(d: &Loose<'_>, n: &NestedAttr, atom: impl FnMut(usize)) -> u64 {
    first_resolution_atoms_in(&mut Tape::new(), d, n, atom)
}

/// [`first_resolution_atoms`] in the working memory `tape`, which one
/// caller can lend to several terms in turn.
pub(crate) fn first_resolution_atoms_in(
    tape: &mut Tape,
    d: &Loose<'_>,
    n: &NestedAttr,
    mut atom: impl FnMut(usize),
) -> u64 {
    let (count, _) = resolve_with(tape, d, n, |paths, at| {
        atoms_on_path(d, n, paths, at, &mut 0, &mut atom);
    });
    count
}

/// The counting pass, then `emit` on the paths it recorded when the
/// count is non-zero: the one place a term is decided, whichever form
/// its resolution is emitted in. Leaves `tape` empty.
fn resolve_with<T>(
    tape: &mut Tape,
    d: &Loose<'_>,
    n: &NestedAttr,
    emit: impl FnOnce(&[usize], usize) -> T,
) -> (u64, Option<T>) {
    let (count, at) = count_into(d, n, tape);
    let first = (count > 0).then(|| emit(&tape.paths, at));
    tape.paths.clear();
    (count, first)
}

/// Path offset of a pair that records no path (λ, a flat name, a
/// mismatch).
const LEAF: usize = usize::MAX;

/// Working memory of the counting pass.
pub(crate) struct Tape {
    /// The assignment tables of the record pairs being counted, as a
    /// stack: a pair pushes its table, its components push theirs above
    /// it, and each pops its own before returning.
    tables: Vec<Cell>,
    /// The first path of every record pair counted with a resolution:
    /// for each loose component, the context position it matches and
    /// the offset of that pair's own path.
    paths: Vec<usize>,
}

/// One cell `(i, j)` of a record pair's assignment table.
#[derive(Debug, Clone, Copy, Default)]
struct Cell {
    /// `f[i][j]`: the ways to match `ds[i..]` against `ns[j..]`.
    ways: u64,
    /// The resolutions of `(ds[i], ns[j])`, counted only when
    /// `f[i+1][j+1] > 0` (zero otherwise).
    count: u64,
    /// Where that pair's first path is recorded.
    path: usize,
}

impl Tape {
    /// Room for the tables and paths of a few nested records, so that
    /// most terms are counted without growing either.
    pub(crate) fn new() -> Self {
        Tape {
            tables: Vec::with_capacity(64),
            paths: Vec::with_capacity(32),
        }
    }
}

/// A record pair's assignment table of `m` loose over `k` context
/// components. Only the band `0 ≤ j − i ≤ k − m` can be non-zero, so it
/// is stored row-major over `i ≤ m`, `s = j − i < w = k − m + 1`.
struct Table<'t> {
    cells: &'t [Cell],
    w: usize,
}

impl Table<'_> {
    fn cell(&self, i: usize, j: usize) -> Option<&Cell> {
        let s = j.checked_sub(i).filter(|&s| s < self.w)?;
        self.cells.get(i * self.w + s)
    }

    /// `f[i][j]`, zero outside the band.
    fn ways(&self, i: usize, j: usize) -> u64 {
        self.cell(i, j).map_or(0, |c| c.ways)
    }
}

/// The counting pass. Evaluates every `(loose, context)` pair once and
/// returns its saturating resolution count plus the offset of its first
/// path in `tape.paths` ([`LEAF`] when it records none; a list pair
/// shares its content's path).
fn count_into(d: &Loose<'_>, n: &NestedAttr, tape: &mut Tape) -> (u64, usize) {
    match (d, n) {
        (Loose::Lambda, _) => (1, LEAF), // resolves to bottom(n)
        (Loose::Flat(a), NestedAttr::Flat(b)) => (u64::from(*a == b), LEAF),
        (Loose::Record(l, ds), NestedAttr::Record(k, ns)) if l == k && ds.len() <= ns.len() => {
            let (at, w) = push_table(ds, ns, tape);
            let table = Table {
                cells: &tape.tables[at..],
                w,
            };
            let count = table.ways(0, 0);
            let path = tape.paths.len();
            if count > 0 {
                // the first path: match wherever the match has a completion
                // (a cell's count is zero where f[i+1][j+1] is)
                let mut i = 0;
                for j in 0..ns.len() {
                    if let Some(cell) = table.cell(i, j).filter(|c| c.count > 0) {
                        tape.paths.extend([j, cell.path]);
                        i += 1;
                    }
                }
            }
            tape.tables.truncate(at);
            (count, if count > 0 { path } else { LEAF })
        }
        (Loose::List(l, di), NestedAttr::List(k, ni)) if l == k => count_into(di, ni, tape),
        _ => (0, LEAF),
    }
}

/// Pushes the assignment table of `ds` over `ns` (`m ≤ k`) onto
/// `tape.tables`; returns its offset and band width. The recurrence is
/// `f[i][j] = f[i][j+1] + count(ds[i], ns[j]) · f[i+1][j+1]` with
/// `f[m][j] = 1` (the remaining positions become bottoms), saturating.
/// A component pair is counted only where `f[i+1][j+1] > 0`, and one
/// without resolutions gives back the paths it recorded, so the paths
/// kept are those of pairs that can lie on an assignment.
fn push_table(ds: &[Loose<'_>], ns: &[NestedAttr], tape: &mut Tape) -> (usize, usize) {
    let (m, w) = (ds.len(), ns.len() - ds.len() + 1);
    let at = tape.tables.len();
    tape.tables.resize(at + (m + 1) * w, Cell::default());
    for s in 0..w {
        tape.tables[at + m * w + s].ways = 1;
    }
    for i in (0..m).rev() {
        for s in (0..w).rev() {
            let ix = at + i * w + s;
            let next = tape.tables[ix + w].ways;
            if next > 0 {
                let mark = tape.paths.len();
                let (count, path) = count_into(&ds[i], &ns[i + s], tape);
                if count == 0 {
                    tape.paths.truncate(mark); // no assignment runs through it
                }
                tape.tables[ix].count = count;
                tape.tables[ix].path = path;
            }
            let skip = if s + 1 < w {
                tape.tables[ix + 1].ways
            } else {
                0
            };
            let here = tape.tables[ix].count.saturating_mul(next);
            tape.tables[ix].ways = skip.saturating_add(here);
        }
    }
    (at, w)
}

/// Builds the first resolution of a pair with a non-zero count from the
/// paths the counting pass recorded.
fn first_on_path(d: &Loose<'_>, n: &NestedAttr, paths: &[usize], at: usize) -> NestedAttr {
    match (d, n) {
        (Loose::Lambda, _) => n.bottom(),
        (Loose::Flat(_), _) => n.clone(),
        (Loose::Record(_, ds), NestedAttr::Record(l, ns)) => {
            let mut matched = matches_on_path(ds, paths, at);
            let components = ns
                .iter()
                .enumerate()
                .map(|(j, nj)| match matched.next_if(|(step, _)| step[0] == j) {
                    Some((step, di)) => first_on_path(di, nj, paths, step[1]),
                    None => nj.bottom(),
                })
                .collect();
            NestedAttr::Record(l.clone(), components)
        }
        (Loose::List(_, di), NestedAttr::List(l, ni)) => {
            NestedAttr::List(l.clone(), Box::new(first_on_path(di, ni, paths, at)))
        }
        _ => unreachable!("only pairs with a resolution are walked"),
    }
}

/// The atom emitter: walks `n` in pre-order along the same path as
/// [`first_on_path`], with `next` the first atom of `n`. A kept flat or
/// list takes the next atom; a subtree the resolution leaves at bottom
/// advances `next` past its atoms. So `atom` sees exactly the atoms
/// `SubB` of the tree [`first_on_path`] builds, in ascending order.
fn atoms_on_path(
    d: &Loose<'_>,
    n: &NestedAttr,
    paths: &[usize],
    at: usize,
    next: &mut usize,
    atom: &mut impl FnMut(usize),
) {
    match (d, n) {
        (Loose::Lambda, _) => *next += n.basis_size(),
        (Loose::Flat(_), _) => {
            atom(*next);
            *next += 1;
        }
        (Loose::Record(_, ds), NestedAttr::Record(_, ns)) => {
            let mut matched = matches_on_path(ds, paths, at);
            for (j, nj) in ns.iter().enumerate() {
                match matched.next_if(|(step, _)| step[0] == j) {
                    Some((step, di)) => atoms_on_path(di, nj, paths, step[1], next, atom),
                    None => *next += nj.basis_size(),
                }
            }
        }
        (Loose::List(_, di), NestedAttr::List(_, ni)) => {
            atom(*next);
            *next += 1;
            atoms_on_path(di, ni, paths, at, next, atom);
        }
        _ => unreachable!("only pairs with a resolution are walked"),
    }
}

/// A record pair's first path as `([context position, path offset],
/// loose component)` steps, in order.
fn matches_on_path<'p, 'd, 'a>(
    ds: &'d [Loose<'a>],
    paths: &'p [usize],
    at: usize,
) -> Peekable<impl Iterator<Item = (&'p [usize], &'d Loose<'a>)>> {
    paths[at..at + 2 * ds.len()]
        .chunks_exact(2)
        .zip(ds)
        .peekable()
}

/// All subattributes of `n` matching the loose form `d`, in deterministic
/// order. The reference enumeration behind [`first_resolution`]; bounded
/// callers only (the count can be exponential for adversarial inputs —
/// use [`count_resolutions`] first).
pub fn resolutions(d: &Loose<'_>, n: &NestedAttr) -> Vec<NestedAttr> {
    match (d, n) {
        (Loose::Lambda, _) => vec![n.bottom()],
        (Loose::Flat(a), NestedAttr::Flat(b)) if *a == b => vec![n.clone()],
        (Loose::Record(l, ds), NestedAttr::Record(k, ncs)) if l == k && ds.len() <= ncs.len() => {
            let mut tape = Tape::new();
            let (at, w) = push_table(ds, ncs, &mut tape);
            let ways = Table {
                cells: &tape.tables[at..],
                w,
            };
            let mut out = Vec::new();
            assign(ds, ncs, 0, 0, &ways, &mut Vec::new(), &mut out);
            out.into_iter()
                .map(|components| NestedAttr::Record(k.clone(), components))
                .collect()
        }
        (Loose::List(l, di), NestedAttr::List(k, ni)) if l == k => resolutions(di, ni)
            .into_iter()
            .map(|inner| NestedAttr::List(k.clone(), Box::new(inner)))
            .collect(),
        _ => Vec::new(),
    }
}

/// Enumerates the assignments below cell `(i, j)`. The table prunes
/// branches with no completions — without it the backtracking revisits
/// exponentially many dead ends on wide records (e.g. the fully-explicit
/// canonical rendering of a 200-component record, where every prefix of
/// λs embeds everywhere).
fn assign(
    ds: &[Loose<'_>],
    ns: &[NestedAttr],
    i: usize,
    j: usize,
    ways: &Table<'_>,
    acc: &mut Vec<NestedAttr>,
    out: &mut Vec<Vec<NestedAttr>>,
) {
    if ways.ways(i, j) == 0 {
        return; // nothing down this branch completes
    }
    if i == ds.len() {
        let mut full = acc.clone();
        full.extend(ns[j..].iter().map(NestedAttr::bottom));
        out.push(full);
        return;
    }
    // match ds[i] at position j — only enumerate the (possibly large)
    // sub-resolution set when some completion actually uses it
    if ways.ways(i + 1, j + 1) > 0 {
        for r in resolutions(&ds[i], &ns[j]) {
            acc.push(r);
            assign(ds, ns, i + 1, j + 1, ways, acc, out);
            acc.pop();
        }
    }
    // skip position j (it becomes bottom)
    acc.push(ns[j].bottom());
    assign(ds, ns, i, j + 1, ways, acc, out);
    acc.pop();
}

/// Abbreviated loose form of `x ≤ n` that is guaranteed to resolve
/// uniquely: where maximal omission would be ambiguous (the paper's
/// `L(A, A)` case), the record is printed with all components explicit.
pub fn loose_unambiguous<'a>(x: &'a NestedAttr, n: &NestedAttr) -> Loose<'a> {
    debug_assert!(is_subattr(x, n), "loose_unambiguous requires x ≤ n");
    if x.is_bottom() {
        return Loose::Lambda;
    }
    match (x, n) {
        (NestedAttr::Flat(a), _) => Loose::Flat(a),
        (NestedAttr::Record(l, xcs), NestedAttr::Record(_, ncs)) => {
            let kept: Vec<Loose> = xcs
                .iter()
                .zip(ncs)
                .filter(|(xc, nc)| **xc != nc.bottom())
                .map(|(xc, nc)| loose_unambiguous(xc, nc))
                .collect();
            let candidate = Loose::Record(l, kept);
            if count_resolutions(&candidate, n) == 1 {
                candidate
            } else {
                // fall back to full arity: assignment is then forced.
                let explicit: Vec<Loose> = xcs
                    .iter()
                    .zip(ncs)
                    .map(|(xc, nc)| {
                        if *xc == nc.bottom() {
                            Loose::Lambda
                        } else {
                            loose_unambiguous(xc, nc)
                        }
                    })
                    .collect();
                Loose::Record(l, explicit)
            }
        }
        (NestedAttr::List(l, xi), NestedAttr::List(_, ni)) => {
            if **xi == ni.bottom() {
                Loose::List(l, Box::new(Loose::Lambda))
            } else {
                Loose::List(l, Box::new(loose_unambiguous(xi, ni)))
            }
        }
        _ => unreachable!("x ≤ n guarantees matching shapes for non-bottom x"),
    }
}

/// Paper-style abbreviated rendering of a subattribute `x ≤ n`
/// (Section 3.3).
///
/// ```
/// use nalist_types::{display::abbreviate, NestedAttr as A};
///
/// // L1(A, λ, L2[L3(λ, λ)]) ≤ L1(A, B, L2[L3(C, D)]) prints as L1(A, L2[λ])
/// let n = A::record("L1", vec![
///     A::flat("A"),
///     A::flat("B"),
///     A::list("L2", A::record("L3", vec![A::flat("C"), A::flat("D")]).unwrap()),
/// ]).unwrap();
/// let x = A::record("L1", vec![
///     A::flat("A"),
///     A::Null,
///     A::list("L2", A::record("L3", vec![A::Null, A::Null]).unwrap()),
/// ]).unwrap();
/// assert_eq!(abbreviate(&x, &n), "L1(A, L2[λ])");
/// ```
pub fn abbreviate(x: &NestedAttr, n: &NestedAttr) -> String {
    loose_unambiguous(x, n).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::NestedAttr as A;

    fn rec(l: &str, ch: Vec<A>) -> A {
        A::record(l, ch).unwrap()
    }

    #[test]
    fn canonical_display() {
        let n = rec(
            "L1",
            vec![
                A::flat("A"),
                A::Null,
                A::list("L2", rec("L3", vec![A::Null, A::Null])),
            ],
        );
        assert_eq!(n.to_string(), "L1(A, λ, L2[L3(λ, λ)])");
    }

    #[test]
    fn paper_abbreviation_example() {
        // Section 3.3: L1(A, λ, L2[L3(λ, λ)]) of L1(A, B, L2[L3(C, D)])
        // is abbreviated L1(A, L2[λ]).
        let n = rec(
            "L1",
            vec![
                A::flat("A"),
                A::flat("B"),
                A::list("L2", rec("L3", vec![A::flat("C"), A::flat("D")])),
            ],
        );
        let x = rec(
            "L1",
            vec![
                A::flat("A"),
                A::Null,
                A::list("L2", rec("L3", vec![A::Null, A::Null])),
            ],
        );
        assert_eq!(abbreviate(&x, &n), "L1(A, L2[λ])");
    }

    #[test]
    fn bottom_abbreviates_to_lambda() {
        let n = rec("L", vec![A::flat("A"), A::flat("B")]);
        assert_eq!(abbreviate(&n.bottom(), &n), "λ");
        assert_eq!(abbreviate(&A::Null, &A::flat("A")), "λ");
    }

    #[test]
    fn ambiguous_case_stays_explicit() {
        // Section 3.3: L(A, λ) ≤ L(A, A) cannot be abbreviated to L(A).
        let n = rec("L", vec![A::flat("A"), A::flat("A")]);
        let x = rec("L", vec![A::flat("A"), A::Null]);
        assert_eq!(abbreviate(&x, &n), "L(A, λ)");
        let y = rec("L", vec![A::Null, A::flat("A")]);
        assert_eq!(abbreviate(&y, &n), "L(λ, A)");
    }

    #[test]
    fn nested_ambiguity_falls_back_to_full_form() {
        // N = L(M(A), M(A)): omitting the bottom second component would
        // print L(M(A)), which has two resolutions — so the full form is
        // used, with the bottom record displayed as λ.
        let inner = rec("M", vec![A::flat("A")]);
        let n = rec("L", vec![inner.clone(), inner.clone()]);
        let x = rec("L", vec![inner.clone(), inner.bottom()]);
        assert_eq!(abbreviate(&x, &n), "L(M(A), λ)");
        let y = rec("L", vec![inner.bottom(), inner]);
        assert_eq!(abbreviate(&y, &n), "L(λ, M(A))");
    }

    #[test]
    fn identical_list_siblings_ambiguity() {
        // two identical list components: same fallback logic applies
        let inner = A::list("M", A::flat("A"));
        let n = rec("L", vec![inner.clone(), inner.clone()]);
        let x = rec("L", vec![inner.clone(), A::Null]);
        assert_eq!(abbreviate(&x, &n), "L(M[A], λ)");
        // and the abbreviation round-trips through the parser
        let printed = abbreviate(&x, &n);
        let reparsed = crate::parser::parse_subattr_of(&n, &printed).unwrap();
        assert_eq!(reparsed, x);
    }

    #[test]
    fn count_resolutions_detects_ambiguity() {
        let n = rec("L", vec![A::flat("A"), A::flat("A")]);
        let d = Loose::Record("L", vec![Loose::Flat("A")]);
        assert_eq!(count_resolutions(&d, &n), 2);
        let rs = resolutions(&d, &n);
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn wide_record_canonical_form_resolves_fast() {
        // a 200-component record whose loose form spells out every
        // component (the canonical rendering: mostly λs). The unique
        // diagonal assignment must be found by DP pruning — naive
        // backtracking wanders through exponentially many λ-prefix
        // embeddings that all die at the right edge
        let n = rec("W", (0..200).map(|i| A::flat(format!("A{i}"))).collect());
        let names: Vec<String> = (0..200).map(|i| format!("A{i}")).collect();
        let ds: Vec<Loose> = (0..200)
            .map(|i| {
                if i == 7 || i == 193 {
                    Loose::Flat(&names[i])
                } else {
                    Loose::Lambda
                }
            })
            .collect();
        let d = Loose::Record("W", ds);
        assert_eq!(count_resolutions(&d, &n), 1);
        let rs = resolutions(&d, &n);
        assert_eq!(rs.len(), 1);
        assert_eq!(abbreviate(&rs[0], &n), "W(A7, A193)");
    }

    #[test]
    fn unique_resolution_round_trips() {
        let n = rec(
            "L1",
            vec![
                A::flat("A"),
                A::flat("B"),
                A::list("L2", rec("L3", vec![A::flat("C"), A::flat("D")])),
            ],
        );
        let x = rec(
            "L1",
            vec![
                A::Null,
                A::flat("B"),
                A::list("L2", rec("L3", vec![A::flat("C"), A::Null])),
            ],
        );
        let d = loose_unambiguous(&x, &n);
        let rs = resolutions(&d, &n);
        assert_eq!(rs, vec![x]);
    }

    #[test]
    fn list_content_bottom_prints_bracket_lambda() {
        // the paper's A(C[λ]) — distinct from plain λ
        let n = rec(
            "A'",
            vec![A::list("C", rec("D", vec![A::flat("E"), A::flat("F")]))],
        );
        let x = rec("A'", vec![A::list("C", rec("D", vec![A::Null, A::Null]))]);
        assert_eq!(abbreviate(&x, &n), "A'(C[λ])");
        // plain bottom is λ, not C[λ]
        assert_eq!(abbreviate(&n.bottom(), &n), "λ");
    }

    #[test]
    fn lambda_resolves_to_bottom() {
        let n = rec("L", vec![A::flat("A"), A::flat("B")]);
        assert_eq!(resolutions(&Loose::Lambda, &n), vec![n.bottom()]);
        assert_eq!(count_resolutions(&Loose::Lambda, &n), 1);
    }

    #[test]
    fn no_match_counts_zero() {
        let d = Loose::Flat("Z");
        assert_eq!(count_resolutions(&d, &A::flat("A")), 0);
        assert!(resolutions(&d, &A::flat("A")).is_empty());
    }

    #[test]
    fn deep_list_lambda_display() {
        // X = L1(L2[L3[λ]]) inside L1(L2[L3[L4(A, B, C)]], F)
        let l4 = rec("L4", vec![A::flat("A"), A::flat("B"), A::flat("C")]);
        let n = rec(
            "L1",
            vec![A::list("L2", A::list("L3", l4.clone())), A::flat("F")],
        );
        let x = rec(
            "L1",
            vec![A::list("L2", A::list("L3", l4.bottom())), A::Null],
        );
        assert_eq!(abbreviate(&x, &n), "L1(L2[L3[λ]])");
        let y = rec("L1", vec![A::list("L2", A::Null), A::Null]);
        assert_eq!(abbreviate(&y, &n), "L1(L2[λ])");
    }
}
