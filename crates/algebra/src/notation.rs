//! Rendering of atom sets in the paper's abbreviated notation (§3.3) by
//! one walk over the schema, flattened once per [`Algebra`].
//!
//! The rule is the one `nalist_types::display::abbreviate` applies to
//! trees: bottoms are left out, and a record whose abbreviation names
//! more than one subattribute prints every component, `λ` for the
//! bottoms. The walk reaches the same text without building a tree:
//!
//! * atoms are numbered in pre-order, so the atoms of a subtree are one
//!   range `lo..hi`, and a subtree is *kept* (not bottom) exactly when
//!   the set has a bit in that range, tested with word masks;
//! * a kept component whose label no sibling shares can only match its
//!   own position, and by induction its own text resolves uniquely, so
//!   the abbreviation of a record without repeated labels is never
//!   ambiguous and needs no count;
//! * only a record with a repeated label (the paper's `L(A, A)`) is
//!   handed to `abbreviate` itself, on its own subtree of `N` and of the
//!   set: the reference decides each record from its subtree alone, so
//!   the text is the same as in the whole tree.
//!
//! The walk reads each node's kind and label from `N` itself, in step
//! with the flattened nodes, which add what `N` does not hold.
//!
//! Reading goes the other way without a tree as well:
//! [`Algebra::parse_subattr`] resolves the text with the parser's one
//! counting pass and takes the resolution's atoms from its atom emitter
//! (`nalist_types::display::first_resolution_atoms`).

use nalist_types::attr::NestedAttr;
use nalist_types::display::abbreviate;
use nalist_types::error::ParseError;
use nalist_types::parser::{parse_loose_with, resolve_loose_atoms, ParseLimits};

use crate::atoms::{to_attr_walk, Algebra};
use crate::bitset::AtomSet;

/// One node of the schema `N`, flattened in pre-order.
#[derive(Debug, Clone)]
pub(crate) struct SchemaNode {
    /// The node's atoms are `lo..hi`.
    lo: usize,
    hi: usize,
    /// One past the node's last descendant: the children of node `i`
    /// are `i + 1` and then each previous child's `end`.
    end: usize,
    /// A record two of whose components share a label, so that leaving
    /// out bottoms can make its text ambiguous.
    repeated: bool,
}

/// Flattens `n` in pre-order, numbering atoms as `Algebra` does.
pub(crate) fn flatten(n: &NestedAttr) -> Vec<SchemaNode> {
    let mut out = Vec::new();
    flatten_into(n, &mut 0, &mut out);
    out
}

fn flatten_into(n: &NestedAttr, next_atom: &mut usize, out: &mut Vec<SchemaNode>) {
    let at = out.len();
    let lo = *next_atom;
    out.push(SchemaNode {
        lo,
        hi: lo,
        end: at,
        repeated: false,
    });
    match n {
        NestedAttr::Null => {}
        NestedAttr::Flat(_) => *next_atom += 1,
        NestedAttr::List(_, inner) => {
            *next_atom += 1;
            flatten_into(inner, next_atom, out);
        }
        NestedAttr::Record(_, cs) => {
            let mut labels: Vec<&str> = cs.iter().filter_map(label_of).collect();
            labels.sort_unstable();
            out[at].repeated = labels.windows(2).any(|w| w[0] == w[1]);
            for c in cs {
                flatten_into(c, next_atom, out);
            }
        }
    }
    out[at].hi = *next_atom;
    out[at].end = out.len();
}

fn label_of(n: &NestedAttr) -> Option<&str> {
    match n {
        NestedAttr::Null => None,
        NestedAttr::Flat(l) | NestedAttr::Record(l, _) | NestedAttr::List(l, _) => Some(l),
    }
}

/// Does `words` have a bit in `lo..hi`?
fn any_in(words: &[u64], lo: usize, hi: usize) -> bool {
    if lo >= hi {
        return false;
    }
    let (first, last) = (lo / 64, (hi - 1) / 64);
    let head = u64::MAX << (lo % 64);
    let tail = u64::MAX >> (63 - (hi - 1) % 64);
    if first == last {
        return words[first] & head & tail != 0;
    }
    words[first] & head != 0
        || words[first + 1..last].iter().any(|&w| w != 0)
        || words[last] & tail != 0
}

impl Algebra {
    /// Renders a subattribute set in the paper's abbreviated notation:
    /// the text `nalist_types::display::abbreviate` gives for
    /// [`Algebra::to_attr`] of the set, without building the tree.
    pub fn render(&self, x: &AtomSet) -> String {
        let mut out = String::new();
        self.render_into(x, &mut out);
        out
    }

    /// [`Algebra::render`], appending to `out`.
    pub fn render_into(&self, x: &AtomSet, out: &mut String) {
        debug_assert!(
            self.is_downward_closed(x),
            "atom set must be downward closed"
        );
        if self.kept(0, x) {
            self.write_node(0, self.attr(), x, out);
        } else {
            out.push('λ');
        }
    }

    /// Reads a subattribute in the paper's abbreviated notation straight
    /// into its atom set: [`Algebra::from_attr`] of the tree
    /// `nalist_types::parser::parse_subattr_of_with` returns, and that
    /// function's error for every text it rejects, with no tree built.
    ///
    /// ```
    /// use nalist_algebra::Algebra;
    /// use nalist_types::parser::{parse_attr, ParseLimits};
    ///
    /// let alg = Algebra::new(&parse_attr("A'(B, C[D(E, F[G])])").unwrap());
    /// let x = alg.parse_subattr("A'(C[D(F[λ])])", ParseLimits::default()).unwrap();
    /// assert_eq!(x.iter().collect::<Vec<_>>(), [1, 3]);
    /// assert_eq!(alg.render(&x), "A'(C[D(F[λ])])");
    /// ```
    pub fn parse_subattr(&self, src: &str, limits: ParseLimits) -> Result<AtomSet, ParseError> {
        let d = parse_loose_with(src, limits)?;
        let mut set = AtomSet::empty(self.atom_count());
        resolve_loose_atoms(self.attr(), &d, src, |a| set.insert(a))?;
        Ok(set)
    }

    /// Is the subtree at node `i` not bottom in the set?
    fn kept(&self, i: usize, x: &AtomSet) -> bool {
        let node = &self.schema[i];
        any_in(x.words(), node.lo, node.hi)
    }

    /// Writes the text of the kept subtree `n` at node `i`.
    fn write_node(&self, i: usize, n: &NestedAttr, x: &AtomSet, out: &mut String) {
        match n {
            NestedAttr::Flat(a) => out.push_str(a),
            NestedAttr::List(l, inner) => {
                out.push_str(l);
                out.push('[');
                if self.kept(i + 1, x) {
                    self.write_node(i + 1, inner, x, out);
                } else {
                    out.push('λ');
                }
                out.push(']');
            }
            NestedAttr::Record(..) if self.schema[i].repeated => {
                // the tree-level rule, on this subtree alone: its text
                // depends on nothing outside it
                let mut cursor = self.schema[i].lo;
                out.push_str(&abbreviate(&to_attr_walk(n, x, &mut cursor), n));
            }
            NestedAttr::Record(l, cs) => {
                out.push_str(l);
                out.push('(');
                let mut sep = "";
                let nodes = std::iter::successors(Some(i + 1), |&c| Some(self.schema[c].end));
                for (nc, c) in cs.iter().zip(nodes) {
                    if self.kept(c, x) {
                        out.push_str(sep);
                        sep = ", ";
                        self.write_node(c, nc, x, out);
                    }
                }
                out.push(')');
            }
            NestedAttr::Null => unreachable!("λ has no atoms, so it is never kept"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::enumerate_sets;
    use nalist_types::parser::{parse_attr, parse_subattr_of, parse_subattr_of_with};

    /// Every element of `Sub(N)`, rendered; each text is checked against
    /// the tree-level reference and read back by the parser, as a tree
    /// and as atoms, and so is the canonical text of its tree.
    fn all_renders(src: &str) -> Vec<String> {
        let n = parse_attr(src).unwrap();
        let alg = Algebra::new(&n);
        let limits = ParseLimits::default();
        enumerate_sets(&alg)
            .iter()
            .map(|x| {
                let text = alg.render(x);
                assert_eq!(text, abbreviate(&alg.to_attr(x), &n), "in {src}");
                assert_eq!(parse_subattr_of(&n, &text).unwrap(), alg.to_attr(x));
                assert_eq!(alg.parse_subattr(&text, limits).as_ref(), Ok(x), "{text}");
                let full = alg.to_attr(x).to_string();
                assert_eq!(alg.parse_subattr(&full, limits).as_ref(), Ok(x), "{full}");
                text
            })
            .collect()
    }

    #[test]
    fn rejected_texts_fail_as_the_tree_parser_fails() {
        let n = parse_attr("L(A, A, M[B])").unwrap();
        let alg = Algebra::new(&n);
        let limits = ParseLimits { max_depth: 1 };
        for src in [
            "L(A)", "L(B)", "K(A)", "L(M(B))", "L(A", "L(M[B])", "", "L(A) x",
        ] {
            assert_eq!(
                alg.parse_subattr(src, limits),
                parse_subattr_of_with(&n, src, limits).map(|t| alg.from_attr(&t).unwrap()),
                "{src}"
            );
        }
    }

    fn sorted(mut v: Vec<String>) -> Vec<String> {
        v.sort();
        v
    }

    #[test]
    fn repeated_flat_labels_print_in_full() {
        // §3.3: L(A, λ) ≤ L(A, A) is not abbreviated to L(A)
        assert_eq!(
            sorted(all_renders("L(A, A)")),
            ["L(A, A)", "L(A, λ)", "L(λ, A)", "λ"]
        );
    }

    #[test]
    fn repeated_record_labels_print_in_full() {
        assert_eq!(
            sorted(all_renders("L(M(A), M(A))")),
            ["L(M(A), M(A))", "L(M(A), λ)", "L(λ, M(A))", "λ"]
        );
    }

    #[test]
    fn repeated_list_labels_print_in_full() {
        assert_eq!(
            sorted(all_renders("L(M[A], M[A])")),
            [
                "L(M[A], M[A])",
                "L(M[A], M[λ])",
                "L(M[A], λ)",
                "L(M[λ], M[A])",
                "L(M[λ], M[λ])",
                "L(M[λ], λ)",
                "L(λ, M[A])",
                "L(λ, M[λ])",
                "λ"
            ]
        );
    }

    #[test]
    fn repeated_labels_below_distinct_ones() {
        // the fallback applies to the inner record only, and a label that
        // repeats across levels (not among siblings) is no ambiguity
        let texts = all_renders("K(B, L(A, A), C[L(A, B)])");
        assert!(texts.iter().any(|t| t == "K(L(A, λ), C[L(B)])"));
        assert!(texts.iter().any(|t| t == "K(B, C[λ])"));
    }

    #[test]
    fn kept_ranges_cross_word_boundaries() {
        for (lo, hi) in [(0, 1), (63, 65), (60, 130), (64, 128), (127, 128), (5, 5)] {
            for bit in 0..192 {
                let mut words = [0u64; 3];
                words[bit / 64] |= 1 << (bit % 64);
                assert_eq!(
                    any_in(&words, lo, hi),
                    (lo..hi).contains(&bit),
                    "{lo}..{hi} at bit {bit}"
                );
            }
        }
    }

    #[test]
    fn every_element_of_small_schemas_matches_the_reference() {
        for src in [
            "λ",
            "A",
            "L(A, λ, M[λ])",
            "L(A, A, A)",
            "L(A, B, A)",
            "L(A, M[A], A)",
            "L(M(A, B), M(A))",
            "L(M(A), M(B))",
            "L(M[A], M[B])",
            "K[L(A, A)]",
            "L(M(A, A), M(A, A))",
            "L(M[M(A, A)], M[A])",
            "J[K(A, L[M(B, C)])]",
        ] {
            all_renders(src);
        }
    }
}
