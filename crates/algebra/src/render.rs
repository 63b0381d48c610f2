//! Rendering of `Sub(N)` lattices: Graphviz DOT output and plain-text
//! listings (regenerates the paper's Figure 1 and Figure 2).

use crate::atoms::Algebra;
use crate::bitset::AtomSet;
use crate::lattice::{enumerate_sets, hasse_edges};

/// Renders the Hasse diagram of the given elements as a Graphviz `dot`
/// graph (bottom-up layout, abbreviated node labels).
pub fn hasse_dot(alg: &Algebra, sets: &[AtomSet]) -> String {
    let edges = hasse_edges(sets);
    let mut out = String::new();
    out.push_str("digraph sub_lattice {\n");
    out.push_str("  rankdir=BT;\n  node [shape=plaintext, fontsize=11];\n");
    for (i, s) in sets.iter().enumerate() {
        out.push_str(&format!(
            "  n{} [label=\"{}\"];\n",
            i,
            escape(&alg.render(s))
        ));
    }
    for (i, j) in edges {
        out.push_str(&format!("  n{i} -> n{j};\n"));
    }
    out.push_str("}\n");
    out
}

/// Renders the full lattice of `Sub(N)` (enumerate + DOT); intended for
/// small `N` such as the paper's Figure 1 attribute.
pub fn full_lattice_dot(alg: &Algebra) -> String {
    let sets = enumerate_sets(alg);
    hasse_dot(alg, &sets)
}

/// Plain-text listing of the subattribute basis with maximality and
/// (optionally) possession markers relative to `x` — the content of the
/// paper's Figure 2.
pub fn basis_listing(alg: &Algebra, x: Option<&AtomSet>) -> String {
    let mut out = String::new();
    for (id, atom) in alg.atoms().iter().enumerate() {
        let m = if atom.maximal {
            "maximal"
        } else {
            "non-maximal"
        };
        out.push_str(&format!("  b{id}: {} [{m}]", alg.render(&atom.below)));
        if let Some(x) = x {
            if x.contains(id) {
                let p = if alg.possessed_by(id, x) {
                    "possessed"
                } else {
                    "not possessed"
                };
                out.push_str(&format!(" — in X, {p} by X"));
            } else {
                out.push_str(" — outside X");
            }
        }
        out.push('\n');
    }
    out
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use nalist_types::parser::{parse_attr, parse_subattr_of};

    #[test]
    fn figure_1_dot_contains_all_nodes() {
        let n = parse_attr("J[K(A, L[M(B, C)])]").unwrap();
        let alg = Algebra::new(&n);
        let dot = full_lattice_dot(&alg);
        assert_eq!(dot.matches("label=").count(), 11);
        assert!(dot.contains("digraph"));
        assert!(dot.contains("λ"));
        assert!(dot.contains("J[K(A, L[M(B, C)])]"));
    }

    #[test]
    fn figure_2_listing_reports_possession() {
        let n = parse_attr("K[L(M[N'(A, B)], C)]").unwrap();
        let alg = Algebra::new(&n);
        let x = alg
            .from_attr(&parse_subattr_of(&n, "K[L(M[N'(A, B)], λ)]").unwrap())
            .unwrap();
        let listing = basis_listing(&alg, Some(&x));
        // K[λ] is in X but not possessed; K[L(M[λ])] is possessed.
        let lines: Vec<&str> = listing.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].contains("K[λ]") && lines[0].contains("not possessed"));
        assert!(lines[1].contains("K[L(M[λ])]") && lines[1].contains("— in X, possessed"));
        assert!(lines[4].contains("outside X"));
    }

    #[test]
    fn dot_escaping() {
        assert_eq!(escape("a\"b"), "a\\\"b");
    }
}
