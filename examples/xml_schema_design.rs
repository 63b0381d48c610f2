//! Automated schema design for an XML-style document store: dependency-set
//! equivalence, redundancy elimination, minimal covers, and 4NF
//! normalisation — the applications the paper's introduction targets
//! ("a significant step towards automated database schema design").
//!
//! Run with `cargo run -p nalist --example xml_schema_design`.

use nalist::gen::scenarios::xml_orders;
use nalist::prelude::*;
use nalist::schema::cover::redundant_indices;
use nalist::schema::normalform::fourth_nf_violations;

fn main() {
    let scenario = xml_orders();
    let n = &scenario.attr;
    let alg = Algebra::new(n);
    let unlimited = Budget::unlimited();
    println!("N = {n}\n");

    // a designer's first draft, with some redundancy baked in
    let draft: Vec<CompiledDep> = [
        "Order(Customer) -> Order(Route[Hop])",
        "Order(Customer) ->> Order(Items[Item(Sku, Qty)], Priority)",
        "Order(Customer, Items[λ]) -> Order(Priority)",
        // redundant: implied by the first FD via the implication rule
        "Order(Customer) ->> Order(Route[Hop])",
        // redundant: weaker than the first FD
        "Order(Customer) -> Order(Route[λ])",
    ]
    .iter()
    .map(|s| {
        Dependency::parse(n, s)
            .expect("parses")
            .compile(&alg)
            .expect("compiles")
    })
    .collect();

    println!("draft Σ ({} dependencies):", draft.len());
    for d in &draft {
        println!("  {}", d.render(&alg));
    }
    let redundant = redundant_indices(&alg, &draft, &unlimited).expect("unlimited budget");
    println!("redundant members: {redundant:?}");

    let cover = minimal_cover(&alg, &draft, &unlimited).expect("unlimited budget");
    println!("\nminimal cover ({} dependencies):", cover.len());
    for d in &cover {
        println!("  {}", d.render(&alg));
    }
    println!(
        "cover equivalent to the draft: {}",
        equivalent(&alg, &cover, &draft, &unlimited).expect("unlimited budget")
    );
    println!();

    // 4NF analysis
    let violations = fourth_nf_violations(&alg, &cover, &unlimited).expect("unlimited budget");
    println!("4NF-with-lists violations: {}", violations.len());
    for v in &violations {
        println!("  [{}] {}", v.index, v.reason);
    }

    let components = decompose_4nf(&alg, &cover, 8, &unlimited).expect("unlimited budget");
    println!("\n4NF decomposition into {} components:", components.len());
    for c in &components {
        println!("  {}", alg.render(&c.atoms));
        for d in &c.local_deps {
            println!("    keeps {}", d.render(&alg));
        }
    }

    // verify losslessness against the sample document store
    let atom_sets: Vec<AtomSet> = components.iter().map(|c| c.atoms.clone()).collect();
    println!(
        "\nlossless on the sample store: {}",
        verify_lossless(&alg, &scenario.instance, &atom_sets).expect("verifies")
    );

    // equivalence check against an independently written Σ
    let alternative: Vec<CompiledDep> = [
        "Order(Customer) -> Order(Route[Hop])",
        "Order(Customer) ->> Order(Route[Hop], Priority)",
        "Order(Customer, Items[λ]) -> Order(Priority)",
    ]
    .iter()
    .map(|s| {
        Dependency::parse(n, s)
            .expect("parses")
            .compile(&alg)
            .expect("compiles")
    })
    .collect();
    println!(
        "\nalternative Σ' equivalent to the draft: {}",
        equivalent(&alg, &alternative, &draft, &unlimited).expect("unlimited budget")
    );
}
