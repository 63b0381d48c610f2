//! Certified reasoning: every answer comes with evidence.
//!
//! For an implied dependency the library emits a machine-checkable
//! derivation over the paper's 14 inference rules (Lemma 6.1, made
//! constructive); for a non-implied dependency it emits a concrete
//! counterexample database (the completeness construction of
//! Section 4.2). Both certificates are re-verified by independent
//! checkers before being shown.
//!
//! Run with `cargo run -p nalist --example certified_reasoning`.

use nalist::prelude::*;

fn main() {
    // a versioned-document store: a document carries an ordered list of
    // revisions; each revision has an author and an ordered chunk list
    let n =
        parse_attr("Doc(Id, Revisions[Rev(Author, Chunks[Hash])], Owner)").expect("schema parses");
    println!("N = {n}\n");

    let unlimited = Budget::unlimited();
    let mut reasoner = Reasoner::new(&n);
    for dep in [
        // the id determines the owner
        "Doc(Id) -> Doc(Owner)",
        // chunk contents are exchangeable independently of authorship:
        // note the MVD's right-hand side cuts *through* the revision list
        "Doc(Id) ->> Doc(Revisions[Rev(Chunks[Hash])])",
    ] {
        reasoner.add_str(dep).expect("dependency parses");
        println!("Σ += {dep}");
    }
    let alg = reasoner.algebra();
    println!();

    // 1. an implied dependency with its derivation: because the MVD's RHS
    // shares the revision-list *shape* with its complement, the mixed meet
    // rule forces the id to determine the number of revisions — a
    // genuinely list-theoretic inference with no relational counterpart
    let implied = "Doc(Id) -> Doc(Revisions[λ])";
    let target = Dependency::parse(&n, implied)
        .expect("parses")
        .compile(alg)
        .expect("compiles");
    println!("query: Σ ⊨ {implied} ?");
    match certify_governed(alg, reasoner.compiled_sigma(), &target, &unlimited)
        .expect("well-formed query certifies cleanly")
    {
        Some(dag) => {
            dag.check(alg, reasoner.compiled_sigma())
                .expect("re-verifies");
            println!(
                "yes — derivation ({} nodes, independently re-checked):",
                dag.len()
            );
            print!("{}", dag.render(alg));
        }
        None => println!("no"),
    }
    println!();

    // 2. a non-implied dependency with its counterexample: the id does
    // NOT determine the revision authors
    let refutable = "Doc(Id) -> Doc(Revisions[Rev(Author)])";
    let target = Dependency::parse(&n, refutable)
        .expect("parses")
        .compile(alg)
        .expect("compiles");
    println!("query: Σ ⊨ {refutable} ?");
    match refute_governed(alg, reasoner.compiled_sigma(), &target, &unlimited).expect("machinery") {
        None => println!("yes"),
        Some(w) => {
            println!(
                "no — counterexample database ({} tuples; satisfies Σ, violates the FD):",
                w.instance.len()
            );
            for t in w.instance.iter() {
                println!("  {t}");
            }
        }
    }
}
