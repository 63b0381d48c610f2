//! Human-readable rendering of Algorithm 5.1 traces — regenerates the
//! initialisation (Figure 3), the per-pass intermediate results of
//! Example 5.1, and the final state (Figure 4) in the paper's notation.

use nalist_algebra::{Algebra, AtomSet};
use nalist_deps::CompiledDep;
use nalist_guard::{Budget, ResourceExhausted};

use crate::closure::{DependencyBasis, Trace};

fn render_db(alg: &Algebra, db: &[AtomSet]) -> String {
    db.iter()
        .map(|w| alg.render(w))
        .collect::<Vec<_>>()
        .join("; ")
}

/// Renders a full trace, one line per dependency-processing step.
///
/// Each dependency is rendered once, and `budget`'s deadline is checked
/// after every pass: a long trace can take longer to print than to run.
pub fn render_trace(
    alg: &Algebra,
    sigma: &[CompiledDep],
    trace: &Trace,
    budget: &Budget,
) -> Result<String, ResourceExhausted> {
    let deps: Vec<String> = sigma.iter().map(|d| d.render(alg)).collect();
    let mut out = String::new();
    out.push_str(&format!(
        "initialisation:\n  X_new = {}\n  DB_new = {{{}}}\n",
        alg.render(&trace.init_x),
        render_db(alg, &trace.init_db)
    ));
    for (p, pass) in trace.passes.iter().enumerate() {
        out.push_str(&format!("pass {}:\n", p + 1));
        for step in pass {
            let sigma_index = trace.order[step.dep_index];
            out.push_str(&format!(
                "  [{}] {}\n    Ū = {}, Ṽ = {}\n",
                sigma_index + 1,
                deps[sigma_index],
                alg.render(&step.ubar),
                alg.render(&step.vtilde),
            ));
            if step.changed {
                out.push_str(&format!(
                    "    X_new = {}\n    DB_new = {{{}}}\n",
                    alg.render(&step.x_after),
                    render_db(alg, &step.db_after)
                ));
            } else {
                out.push_str("    no changes\n");
            }
        }
        budget.check_deadline()?;
    }
    Ok(out)
}

/// Renders the final output (`X⁺` and `DepB(X)`) in the paper's notation.
pub fn render_result(alg: &Algebra, basis: &DependencyBasis) -> String {
    format!(
        "X+ = {}\nDepB(X) = {{{}}}\n",
        alg.render(&basis.closure),
        basis
            .basis
            .iter()
            .map(|w| alg.render(w))
            .collect::<Vec<_>>()
            .join("; ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worklist::closure_and_basis_traced;
    use nalist_deps::Dependency;
    use nalist_guard::Budget;
    use nalist_types::parser::{parse_attr, parse_subattr_of};

    #[test]
    fn trace_render_contains_states() {
        let n = parse_attr("L(A, B, C)").unwrap();
        let alg = Algebra::new(&n);
        let sigma: Vec<CompiledDep> = ["L(A) -> L(B)", "L(B) ->> L(C)"]
            .iter()
            .map(|s| Dependency::parse(&n, s).unwrap().compile(&alg).unwrap())
            .collect();
        let x = alg
            .from_attr(&parse_subattr_of(&n, "L(A)").unwrap())
            .unwrap();
        let (basis, trace) =
            closure_and_basis_traced(&alg, &sigma, &x, &Budget::unlimited()).unwrap();
        let rendered = render_trace(&alg, &sigma, &trace, &Budget::unlimited()).unwrap();
        assert!(rendered.contains("initialisation:"));
        assert!(rendered.contains("X_new = L(A)"));
        assert!(rendered.contains("pass 1:"));
        assert!(rendered.contains("no changes"));
        let result = render_result(&alg, &basis);
        assert!(result.starts_with("X+ = L(A, B)"));
        assert!(result.contains("DepB(X)"));

        // an expired deadline stops the rendering
        let expired = Budget::unlimited().with_deadline_in(std::time::Duration::ZERO);
        std::thread::sleep(std::time::Duration::from_millis(1));
        let err = render_trace(&alg, &sigma, &trace, &expired).unwrap_err();
        assert_eq!(err.kind, nalist_guard::ResourceKind::Deadline);
    }
}
