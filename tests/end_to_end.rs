//! End-to-end workflows over the named scenarios: reasoning, witnesses,
//! covers, keys, normal forms and lossless decomposition working together
//! through the public facade API.

use nalist::prelude::*;
use nalist::schema::cover::{covers, is_redundant};
use nalist::schema::normalform::fourth_nf_violations;

fn reasoner_for(s: &nalist::gen::Scenario) -> Reasoner {
    let mut r = Reasoner::new(&s.attr);
    for d in &s.sigma {
        r.add(d.clone()).unwrap();
    }
    r
}

#[test]
fn pubcrawl_workflow() {
    let s = nalist::gen::scenarios::pubcrawl();
    let r = reasoner_for(&s);
    // implied facts
    assert!(r
        .implies_str("Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Beer)])")
        .unwrap());
    assert!(r
        .implies_str("Pubcrawl(Person) -> Pubcrawl(Visit[λ])")
        .unwrap());
    // non-implied fact gets a verified witness
    let alg = r.algebra();
    let target = Dependency::parse(&s.attr, "Pubcrawl(Person) -> Pubcrawl(Visit[Drink(Beer)])")
        .unwrap()
        .compile(alg)
        .unwrap();
    let w = refute(alg, r.compiled_sigma(), &target).unwrap().unwrap();
    assert!(w.instance.satisfies_all(alg, r.compiled_sigma()));
    assert!(!w.instance.satisfies(alg, &target));
    // the sample instance models Σ, so it must satisfy everything implied
    for query in [
        "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Beer)])",
        "Pubcrawl(Person) -> Pubcrawl(Visit[λ])",
    ] {
        let d = Dependency::parse(&s.attr, query).unwrap();
        assert!(s.instance.satisfies_dep(alg, &d).unwrap(), "{query}");
    }
}

#[test]
fn pubcrawl_second_sigma_member_is_redundant() {
    // Σ = {Person ↠ Visit[Drink(Pub)], Person → Visit[λ]}: the FD is the
    // mixed-meet consequence of the MVD, hence redundant.
    let s = nalist::gen::scenarios::pubcrawl();
    let r = reasoner_for(&s);
    let alg = r.algebra();
    assert!(is_redundant(alg, r.compiled_sigma(), 1));
    assert!(!is_redundant(alg, r.compiled_sigma(), 0));
    let cover = minimal_cover(alg, r.compiled_sigma());
    assert_eq!(cover.len(), 1);
    assert!(equivalent(alg, &cover, r.compiled_sigma()));
}

#[test]
fn genomic_workflow() {
    let s = nalist::gen::scenarios::genomic();
    let r = reasoner_for(&s);
    let alg = r.algebra();
    // locus determines exon shape through the FD, and residues only via
    // the protein name
    assert!(r.implies_str("Gene(Locus) -> Gene(Exons[λ])").unwrap());
    assert!(!r
        .implies_str("Gene(Locus) -> Gene(Product(Residues[Acid]))")
        .unwrap());
    assert!(r
        .implies_str("Gene(Locus, Product(Protein)) -> Gene(Product(Residues[Acid]))")
        .unwrap());
    // candidate keys exist and verify
    let keys = candidate_keys(alg, r.compiled_sigma(), 8);
    assert!(!keys.is_empty());
    for k in &keys {
        assert!(nalist::schema::is_candidate_key(alg, r.compiled_sigma(), k));
    }
    // 4NF analysis finds the non-key MVD and decomposition is lossless
    let violations = fourth_nf_violations(alg, r.compiled_sigma());
    assert!(!violations.is_empty());
    let comps = decompose_4nf(alg, r.compiled_sigma(), 8);
    assert!(comps.len() >= 2);
    let atom_sets: Vec<AtomSet> = comps.iter().map(|c| c.atoms.clone()).collect();
    assert!(verify_lossless(alg, &s.instance, &atom_sets).unwrap());
}

#[test]
fn xml_orders_workflow() {
    let s = nalist::gen::scenarios::xml_orders();
    let r = reasoner_for(&s);
    let alg = r.algebra();
    // route shape follows from the customer
    assert!(r.implies_str("Order(Customer) -> Order(Route[λ])").unwrap());
    // item list is not functionally determined
    assert!(!r
        .implies_str("Order(Customer) -> Order(Items[Item(Sku)])")
        .unwrap());
    // but the MVD plus the priority FD gives: customer ↠ route side
    assert!(r
        .implies_str("Order(Customer) ->> Order(Route[Hop])")
        .unwrap());
    // a reformulated Σ' with the MVD moved to the route side is STRICTLY
    // stronger: Customer ↠ Route⊔Priority plus the shape FD force
    // Customer → Priority (generalised coalescence), which the original
    // does not imply — priority stays tied to the item-list shape there.
    let alternative: Vec<CompiledDep> = [
        "Order(Customer) -> Order(Route[Hop])",
        "Order(Customer) ->> Order(Route[Hop], Priority)",
        "Order(Customer, Items[λ]) -> Order(Priority)",
    ]
    .iter()
    .map(|src| {
        Dependency::parse(&s.attr, src)
            .unwrap()
            .compile(alg)
            .unwrap()
    })
    .collect();
    assert!(covers(alg, &alternative, r.compiled_sigma()));
    assert!(!covers(alg, r.compiled_sigma(), &alternative));
    assert!(nalist::membership::implies(
        alg,
        &alternative,
        &Dependency::parse(&s.attr, "Order(Customer) -> Order(Priority)")
            .unwrap()
            .compile(alg)
            .unwrap()
    ));
    assert!(!r.implies_str("Order(Customer) -> Order(Priority)").unwrap());
}

#[test]
fn traced_run_is_consistent_with_untraced() {
    for s in nalist::gen::scenarios::all() {
        let r = reasoner_for(&s);
        let alg = r.algebra();
        for d in r.compiled_sigma() {
            let plain = closure_and_basis(alg, r.compiled_sigma(), &d.lhs);
            let (traced, trace) =
                closure_and_basis_traced(alg, r.compiled_sigma(), &d.lhs, &Budget::unlimited())
                    .unwrap();
            assert_eq!(plain, traced);
            assert!(!trace.passes.is_empty());
            // last pass is always a fixpoint confirmation
            assert!(trace.passes.last().unwrap().iter().all(|st| !st.changed));
        }
    }
}

#[test]
fn reasoners_are_cloneable_and_reusable() {
    let s = nalist::gen::scenarios::pubcrawl();
    let r1 = reasoner_for(&s);
    let mut r2 = r1.clone();
    r2.add_str("Pubcrawl(Visit[Drink(Beer)]) -> Pubcrawl(Person)")
        .unwrap();
    // r2 gained implications r1 does not have
    assert!(r2
        .implies_str("Pubcrawl(Visit[Drink(Beer, Pub)]) -> Pubcrawl(Person)")
        .unwrap());
    assert!(!r1
        .implies_str("Pubcrawl(Visit[Drink(Beer, Pub)]) -> Pubcrawl(Person)")
        .unwrap());
}

#[test]
fn witness_instances_are_realistic_databases() {
    // witnesses round-trip through the text format
    let s = nalist::gen::scenarios::genomic();
    let r = reasoner_for(&s);
    let alg = r.algebra();
    let target = Dependency::parse(&s.attr, "Gene(Locus) -> Gene(Product(Protein))")
        .unwrap()
        .compile(alg)
        .unwrap();
    let w = refute(alg, r.compiled_sigma(), &target).unwrap().unwrap();
    for t in w.instance.iter() {
        let printed = t.to_string();
        let reparsed = parse_value(&printed).unwrap();
        assert_eq!(&reparsed, t);
        assert!(t.conforms(&s.attr));
    }
}
