//! Quickstart: define a nested schema, state dependencies, ask membership
//! questions, and inspect closures, dependency bases and counterexamples.
//!
//! Run with `cargo run -p nalist --example quickstart`.

use nalist::prelude::*;

fn main() {
    // A nested attribute mixing records and lists (Definition 3.2):
    // a playlist service — a user has an ordered track queue and a profile.
    let n = parse_attr("Session(User, Queue[Track(Song, Artist)], Profile(Plan, Region))")
        .expect("schema parses");
    println!("schema N = {n}");
    println!("|SubB(N)| = {} basis attributes\n", n.basis_size());

    let unlimited = Budget::unlimited();
    let mut reasoner = Reasoner::new(&n);
    for dep in [
        // the user determines their subscription profile
        "Session(User) -> Session(Profile(Plan, Region))",
        // the queue (song+artist, in order) varies independently of the plan
        "Session(User) ->> Session(Queue[Track(Song, Artist)])",
        // within a queue position, the song determines the artist
        "Session(Queue[Track(Song)]) -> Session(Queue[Track(Artist)])",
    ] {
        reasoner.add_str(dep).expect("dependency parses");
        println!("Σ += {dep}");
    }
    println!();

    // Membership queries (Theorem 6.4: decidable in O(|N|^4 · |Σ|)).
    for query in [
        "Session(User) -> Session(Profile(Plan))",
        "Session(User) ->> Session(Profile(Plan, Region))",
        "Session(User, Queue[Track(Song)]) -> Session(Queue[Track(Artist)])",
        "Session(User) -> Session(Queue[λ])",
        "Session(User) -> Session(Queue[Track(Song)])",
    ] {
        let implied = reasoner
            .implies_str(query, &unlimited)
            .expect("query parses");
        println!("Σ ⊨ {query:<62} {}", if implied { "yes" } else { "no" });
    }
    println!();

    // Attribute-set closure (Algorithm 5.1).
    let closure = reasoner.closure_str("Session(User)").expect("closure");
    println!("Session(User)+ = {closure}");

    // Dependency basis: the blocks every derivable MVD is built from.
    let alg = reasoner.algebra();
    let x = alg
        .from_attr(&parse_subattr_of(&n, "Session(User)").expect("subattr"))
        .expect("atoms");
    let basis = reasoner.dependency_basis(&x);
    println!("DepB(Session(User)):");
    for b in &basis.basis {
        println!("  {}", alg.render(b));
    }
    println!();

    // A verified counterexample for a non-implied dependency.
    let target = Dependency::parse(&n, "Session(User) -> Session(Queue[Track(Song)])")
        .expect("parses")
        .compile(alg)
        .expect("compiles");
    match refute_governed(alg, reasoner.compiled_sigma(), &target, &unlimited)
        .expect("refutation machinery")
    {
        None => println!("(unexpected) the dependency is implied"),
        Some(w) => {
            println!(
                "counterexample with {} tuples (satisfies Σ, violates the FD):",
                w.instance.len()
            );
            for t in w.instance.iter() {
                println!("  {t}");
            }
        }
    }
}
