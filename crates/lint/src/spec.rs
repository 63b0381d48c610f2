//! Loading a spec for linting: the schema file (one nested attribute) and
//! the dependency file (one dependency per line, `#` comments and blank
//! lines ignored — the same grammar as [`nalist_deps::parse_sigma`]).
//!
//! Unlike the strict loaders used by the reasoner commands, loading here
//! is *fault-tolerant*: a line that fails to parse or resolve becomes an
//! error-severity diagnostic (L000 for syntax, L007 for resolution, with
//! a did-you-mean suggestion) with its span lifted to a file-global byte
//! offset, and the remaining lines still load so the Σ-level rules can
//! run over everything that is well-formed.

use nalist_algebra::{Algebra, AtomSet};
use nalist_deps::CompiledDep;
use nalist_guard::{Budget, ResourceExhausted};
use nalist_types::attr::NestedAttr;
use nalist_types::error::ParseError;
use nalist_types::parser::{
    parse_attr_with, parse_dependency_spanned_with, resolve_loose_atoms, ParseLimits, SpannedLoose,
};
use nalist_types::Span;

use crate::diagnostic::{Diagnostic, Severity};

/// Hard failures from spec loading and linting. Dependency-*line*
/// problems never land here — they become diagnostics in the returned
/// [`Spec`]; this type covers only the schema itself being unusable or
/// the budget running dry while loading or in the rule pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The schema attribute failed to parse (including exceeding the
    /// nesting limit derived from the budget).
    Parse(ParseError),
    /// The budget was exhausted while building the algebra, walking
    /// the dependency file or running the rules.
    Resource(ResourceExhausted),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Parse(e) => write!(f, "schema error: {e}"),
            SpecError::Resource(e) => write!(f, "spec loading stopped: {e}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<ParseError> for SpecError {
    fn from(e: ParseError) -> Self {
        SpecError::Parse(e)
    }
}

impl From<ResourceExhausted> for SpecError {
    fn from(e: ResourceExhausted) -> Self {
        SpecError::Resource(e)
    }
}

/// Rule code for syntax errors in the dependency file.
pub const SYNTAX: &str = "L000";
/// Rule code for unresolvable / ambiguous attribute paths.
pub const UNRESOLVED: &str = "L007";

/// One successfully loaded dependency.
#[derive(Debug, Clone)]
pub struct Entry {
    /// 1-based line number in the dependency file.
    pub line: usize,
    /// File-global byte span of the left-hand side's text.
    pub lhs_span: Span,
    /// File-global byte span of the arrow token.
    pub arrow: Span,
    /// File-global byte span of the right-hand side's text.
    pub rhs_span: Span,
    /// The dependency, its sides resolved to atom sets.
    pub compiled: CompiledDep,
}

impl Entry {
    /// File-global span of the whole dependency text.
    pub fn span(&self) -> Span {
        self.lhs_span.to(self.rhs_span)
    }
}

/// A loaded spec: ambient attribute, its algebra, the dependencies that
/// loaded cleanly, and the diagnostics for the lines that did not.
#[derive(Debug)]
pub struct Spec {
    /// The ambient nested attribute `N`.
    pub n: NestedAttr,
    /// The Brouwerian algebra of `Sub(N)`.
    pub alg: Algebra,
    /// Successfully loaded dependencies, in file order.
    pub entries: Vec<Entry>,
    /// L000/L007 findings produced while loading.
    pub load_diagnostics: Vec<Diagnostic>,
}

/// Parses the schema and loads the dependency source under a resource
/// budget. Fails only when the *schema* itself is unparseable or the
/// budget runs out — dependency-file problems become diagnostics in the
/// returned [`Spec`].
///
/// The schema (and every dependency line) parses under the budget's
/// nesting limit, the algebra construction respects its atom cap and
/// fuel, and each processed line charges one unit of fuel. A dependency
/// line that is nested too deeply is *not* a hard error — it degrades to
/// an L000 diagnostic like any other malformed line.
pub fn load_spec(schema_src: &str, deps_src: &str, budget: &Budget) -> Result<Spec, SpecError> {
    let limits = ParseLimits::from_budget(budget);
    let n = parse_attr_with(schema_src.trim(), limits)?;
    let alg = Algebra::try_new(&n, budget, nalist_obs::noop())?;
    let mut entries = Vec::new();
    let mut load_diagnostics = Vec::new();
    let mut offset = 0usize;
    for (idx, raw) in deps_src.split_inclusive('\n').enumerate() {
        let line_no = idx + 1;
        let line = raw.strip_suffix('\n').unwrap_or(raw);
        let line = line.strip_suffix('\r').unwrap_or(line);
        if !line.trim().is_empty() && !line.trim_start().starts_with('#') {
            budget.charge(1)?;
            match load_line(&alg, line, line_no, offset, limits) {
                Ok(entry) => entries.push(entry),
                Err(d) => load_diagnostics.push(d),
            }
        }
        offset += raw.len();
    }
    Ok(Spec {
        n,
        alg,
        entries,
        load_diagnostics,
    })
}

fn load_line(
    alg: &Algebra,
    line: &str,
    line_no: usize,
    offset: usize,
    limits: ParseLimits,
) -> Result<Entry, Diagnostic> {
    let spanned = parse_dependency_spanned_with(line, limits)
        .map_err(|e| syntax_diagnostic(&e, line, offset))?;
    let lhs = resolve_side(alg, &spanned.lhs, line, offset)?;
    let rhs = resolve_side(alg, &spanned.rhs, line, offset)?;
    Ok(Entry {
        line: line_no,
        lhs_span: spanned.lhs.span.shifted(offset),
        arrow: spanned.arrow.shifted(offset),
        rhs_span: spanned.rhs.span.shifted(offset),
        compiled: CompiledDep {
            kind: spanned.kind,
            lhs,
            rhs,
        },
    })
}

fn syntax_diagnostic(e: &ParseError, line: &str, offset: usize) -> Diagnostic {
    // Map the parser's byte position (relative to the line) to a
    // file-global span pointing at the offending character(s).
    let span = match e {
        ParseError::Unexpected { at, .. } | ParseError::TooDeep { at, .. } => {
            let width = line[*at..].chars().next().map_or(1, char::len_utf8);
            Span::new(at + offset, at + width + offset)
        }
        ParseError::TrailingInput { at } => Span::new(at + offset, line.len() + offset),
        // UnexpectedEnd (and resolution errors, which cannot occur here):
        // point just past the end of the line.
        _ => Span::point(line.len() + offset),
    };
    Diagnostic {
        code: SYNTAX,
        severity: Severity::Error,
        span,
        message: format!("syntax error: {e}"),
        suggestion: None,
    }
}

/// Resolves one side to its atom set, or to the L007 diagnostic that
/// explains why it names no subattribute, or more than one.
fn resolve_side(
    alg: &Algebra,
    side: &SpannedLoose,
    line: &str,
    offset: usize,
) -> Result<AtomSet, Diagnostic> {
    let side_text = side.span.text(line);
    let mut set = AtomSet::empty(alg.atom_count());
    match resolve_loose_atoms(alg.attr(), &side.node, side_text, |a| set.insert(a)) {
        Ok(()) => Ok(set),
        // an ambiguous side has been handed its first resolution
        Err(e) => Err(resolution_diagnostic(
            alg, side, side_text, &e, &set, offset,
        )),
    }
}

fn resolution_diagnostic(
    alg: &Algebra,
    side: &SpannedLoose,
    side_text: &str,
    e: &ParseError,
    first: &AtomSet,
    offset: usize,
) -> Diagnostic {
    let n = alg.attr();
    let known = known_names(n);
    // Blame the first identifier that names nothing in N, if any: that
    // token (rather than the whole side) is what the user got wrong.
    let unknown = side
        .idents
        .iter()
        .find(|(name, _)| !known.iter().any(|k| k == name));
    let (span, message, suggestion) = match (e, unknown) {
        (ParseError::Ambiguous { count, .. }, _) => (
            side.span,
            format!("`{side_text}` is ambiguous in {n}: {count} distinct resolutions"),
            Some(format!(
                "disambiguate by writing the subattribute in full, e.g. `{}`",
                alg.to_attr(first)
            )),
        ),
        (_, Some((name, span))) => (
            *span,
            format!("unknown attribute or label `{name}` (not part of {n})"),
            closest_name(name, &known).map(|c| format!("did you mean `{c}`?")),
        ),
        (_, None) => (
            side.span,
            format!("`{side_text}` does not denote a subattribute of {n}"),
            Some(
                "every name exists but the nesting structure does not match the schema".to_owned(),
            ),
        ),
    };
    Diagnostic {
        code: UNRESOLVED,
        severity: Severity::Error,
        span: span.shifted(offset),
        message,
        suggestion,
    }
}

/// All names occurring in `n`: flat attribute names plus record/list
/// labels, in depth-first order.
pub fn known_names(n: &NestedAttr) -> Vec<String> {
    fn walk(n: &NestedAttr, out: &mut Vec<String>) {
        match n {
            NestedAttr::Null => {}
            NestedAttr::Flat(name) => out.push(name.clone()),
            NestedAttr::Record(label, children) => {
                out.push(label.clone());
                for c in children {
                    walk(c, out);
                }
            }
            NestedAttr::List(label, inner) => {
                out.push(label.clone());
                walk(inner, out);
            }
        }
    }
    let mut out = Vec::new();
    walk(n, &mut out);
    out.dedup();
    out
}

/// The known name closest to `name` in Levenshtein distance, if any is
/// within editing distance 2 (and not identical).
fn closest_name<'a>(name: &str, known: &'a [String]) -> Option<&'a str> {
    known
        .iter()
        .map(|k| (levenshtein(name, k), k.as_str()))
        .filter(|&(d, k)| d > 0 && d <= 2 && k != name)
        .min_by_key(|&(d, k)| (d, k.len(), k))
        .map(|(_, k)| k)
}

fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use nalist_guard::ResourceKind;
    use nalist_types::parser::parse_attr;

    const SCHEMA: &str = "Pubcrawl(Person, Visit[Drink(Beer, Pub)])";

    #[test]
    fn clean_spec_loads_every_line() {
        let deps = "# header comment\n\
                    Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])\n\
                    \n\
                    Pubcrawl(Person) -> Pubcrawl(Visit[λ])\n";
        let spec = load_spec(SCHEMA, deps, &Budget::unlimited()).unwrap();
        assert_eq!(spec.entries.len(), 2);
        assert!(spec.load_diagnostics.is_empty());
        assert_eq!(spec.entries[0].line, 2);
        assert_eq!(spec.entries[1].line, 4);
        // spans are file-global
        let e = &spec.entries[1];
        assert_eq!(
            e.span().text(deps),
            "Pubcrawl(Person) -> Pubcrawl(Visit[λ])"
        );
        assert_eq!(e.arrow.text(deps), "->");
    }

    #[test]
    fn syntax_error_becomes_l000() {
        let deps = "Pubcrawl(Person) -> \n";
        let spec = load_spec(SCHEMA, deps, &Budget::unlimited()).unwrap();
        assert!(spec.entries.is_empty());
        assert_eq!(spec.load_diagnostics.len(), 1);
        let d = &spec.load_diagnostics[0];
        assert_eq!(d.code, SYNTAX);
        assert_eq!(d.severity, Severity::Error);
        assert!(d.message.contains("syntax error"));
    }

    #[test]
    fn typo_becomes_l007_with_did_you_mean() {
        let deps = "Pubcrawl(Persn) -> Pubcrawl(Visit[λ])\n";
        let spec = load_spec(SCHEMA, deps, &Budget::unlimited()).unwrap();
        assert_eq!(spec.load_diagnostics.len(), 1);
        let d = &spec.load_diagnostics[0];
        assert_eq!(d.code, UNRESOLVED);
        assert_eq!(d.span.text(deps), "Persn");
        assert!(d.message.contains("unknown attribute or label `Persn`"));
        assert_eq!(d.suggestion.as_deref(), Some("did you mean `Person`?"));
    }

    #[test]
    fn ambiguous_path_becomes_l007() {
        // In L(A, A) the abbreviation L(A) resolves two ways.
        let spec = load_spec("L(A, A)", "L(A) -> L(A, A)\n", &Budget::unlimited()).unwrap();
        assert_eq!(spec.load_diagnostics.len(), 1);
        let d = &spec.load_diagnostics[0];
        assert_eq!(d.code, UNRESOLVED);
        assert!(d.message.contains("ambiguous"));
        assert!(d.suggestion.as_deref().unwrap().contains("in full"));
    }

    #[test]
    fn structure_mismatch_without_unknown_name() {
        // All names exist but `Person[...]` treats a flat attribute as a
        // list label.
        let deps = "Person[Beer] -> Pubcrawl(Visit[λ])\n";
        let spec = load_spec(SCHEMA, deps, &Budget::unlimited()).unwrap();
        assert_eq!(spec.load_diagnostics.len(), 1);
        let d = &spec.load_diagnostics[0];
        assert_eq!(d.code, UNRESOLVED);
        assert!(d.message.contains("does not denote a subattribute"));
    }

    #[test]
    fn bad_schema_is_a_hard_error() {
        assert!(load_spec("L(", "", &Budget::unlimited()).is_err());
    }

    #[test]
    fn later_lines_still_load_after_an_error() {
        let deps = "Pubcrawl(Persn) -> Pubcrawl(Visit[λ])\n\
                    Pubcrawl(Person) -> Pubcrawl(Visit[λ])\n";
        let spec = load_spec(SCHEMA, deps, &Budget::unlimited()).unwrap();
        assert_eq!(spec.entries.len(), 1);
        assert_eq!(spec.entries[0].line, 2);
        assert_eq!(spec.load_diagnostics.len(), 1);
    }

    #[test]
    fn depth_bomb_line_degrades_to_l000() {
        // A pathologically nested dependency line must not take the whole
        // spec down: it becomes an L000 diagnostic whose span points at
        // the bracket that crossed the limit, and later lines still load.
        let bomb = format!(
            "Pubcrawl(Person) -> {}λ{}\n",
            "Visit[".repeat(200),
            "]".repeat(200)
        );
        let deps = format!("{bomb}Pubcrawl(Person) -> Pubcrawl(Visit[λ])\n");
        let spec = load_spec(SCHEMA, &deps, &Budget::unlimited()).unwrap();
        assert_eq!(spec.entries.len(), 1);
        assert_eq!(spec.entries[0].line, 2);
        assert_eq!(spec.load_diagnostics.len(), 1);
        let d = &spec.load_diagnostics[0];
        assert_eq!(d.code, SYNTAX);
        assert!(d.message.contains("nesting deeper"));
        assert_eq!(d.span.text(&deps), "[");
    }

    #[test]
    fn governed_load_charges_per_line() {
        let deps = "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])\n\
                    Pubcrawl(Person) -> Pubcrawl(Visit[λ])\n";
        // Ample budget: the whole file loads.
        let ok = load_spec(SCHEMA, deps, &Budget::unlimited().with_fuel(10_000)).unwrap();
        assert_eq!(ok.entries.len(), 2);
        // Starved budget: the algebra construction and the first line eat
        // the fuel and the load reports exhaustion rather than a partial
        // spec.
        let err = load_spec(SCHEMA, deps, &Budget::unlimited().with_fuel(3)).unwrap_err();
        match err {
            SpecError::Resource(e) => assert_eq!(e.kind, ResourceKind::Fuel),
            SpecError::Parse(e) => panic!("expected resource exhaustion, got {e}"),
        }
    }

    #[test]
    fn governed_load_applies_budget_depth_to_schema() {
        let budget = Budget::unlimited().with_max_depth(2);
        let err = load_spec(SCHEMA, "", &budget).unwrap_err();
        assert!(matches!(
            err,
            SpecError::Parse(ParseError::TooDeep { limit: 2, .. })
        ));
    }

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("Person", "Persn"), 1);
        assert_eq!(levenshtein("", "ab"), 2);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(
            closest_name("Persn", &known_names(&parse_attr(SCHEMA).unwrap())),
            Some("Person")
        );
        assert_eq!(
            closest_name("Zzzzzz", &known_names(&parse_attr(SCHEMA).unwrap())),
            None
        );
    }
}
