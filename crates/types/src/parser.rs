//! Text parser for the paper's notation.
//!
//! Three layers are supported:
//!
//! * **Attributes** ([`parse_attr`]): the literal notation of
//!   Definition 3.2, e.g.
//!   `L1(L2[L3[L4(A, B, C)]], L5[L6(D, E)], L7(F, L8[L9(G, L10[H])], I))`.
//!   `λ` (or the ASCII spelling `lambda`) denotes the null attribute.
//! * **Subattributes in context** ([`parse_subattr_of`]): the abbreviated
//!   notation of Section 3.3, resolved against a context attribute `N` —
//!   `L1(L5[λ], L7(F))` names a canonical element of `Sub(N)` with all
//!   omitted components restored as bottoms. Ambiguous abbreviations are
//!   rejected with [`ParseError::Ambiguous`].
//! * **Dependencies** ([`parse_dependency_atoms_with`]): `X -> Y` (FD)
//!   and `X ->> Y` (MVD), with `→` and `↠` accepted as well, each side
//!   resolved against the context and emitted as the atoms of `SubB`.
//! * **Values** ([`parse_value`]): `ok`, integers, booleans, bare or
//!   quoted strings, tuples `( … )` and lists `[ … ]`, e.g. the paper's
//!   `(Sven, [(Lübzer, Deanos), (Kindl, Highflyers)])`.

use crate::attr::NestedAttr;
use crate::display::{first_resolution_atoms, first_resolution_atoms_in, Loose, Tape};
use crate::error::ParseError;
use crate::span::Span;
use crate::subattr::from_atoms;
use crate::value::Value;

/// The two dependency classes of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DepKind {
    /// Functional dependency `X → Y`.
    Fd,
    /// Multi-valued dependency `X ↠ Y`.
    Mvd,
}

/// Default nesting-depth cap for all parse entry points.
///
/// Generous for any hand-written or paper-derived schema (the deepest
/// attribute in the paper nests 5 levels) while keeping adversarial
/// `L[L[L[…]]]` towers from overflowing the stack — parsing, rendering
/// and dropping a [`NestedAttr`] all recurse over its structure, so the
/// parse-time cap bounds every later traversal too.
pub const DEFAULT_MAX_DEPTH: usize = 128;

/// Limits applied while parsing untrusted text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseLimits {
    /// Maximum bracket-nesting depth (`(`/`[`) before
    /// [`ParseError::TooDeep`] is returned.
    pub max_depth: usize,
}

impl Default for ParseLimits {
    fn default() -> Self {
        ParseLimits {
            max_depth: DEFAULT_MAX_DEPTH,
        }
    }
}

impl ParseLimits {
    /// Derives parse limits from a [`nalist_guard::Budget`]: its
    /// `max_depth` if armed, [`DEFAULT_MAX_DEPTH`] otherwise.
    pub fn from_budget(budget: &nalist_guard::Budget) -> Self {
        match budget.max_depth() {
            Some(d) => ParseLimits {
                max_depth: usize::try_from(d).unwrap_or(usize::MAX),
            },
            None => ParseLimits::default(),
        }
    }
}

struct Cursor<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
    limits: ParseLimits,
}

impl<'a> Cursor<'a> {
    fn with_limits(src: &'a str, limits: ParseLimits) -> Self {
        Cursor {
            src,
            pos: 0,
            depth: 0,
            limits,
        }
    }

    /// Called on entering a bracketed construct; the matching
    /// [`Cursor::ascend`] runs when the construct closes.
    fn descend(&mut self) -> Result<(), ParseError> {
        if self.depth >= self.limits.max_depth {
            return Err(ParseError::TooDeep {
                at: self.pos,
                limit: self.limits.max_depth,
            });
        }
        self.depth += 1;
        Ok(())
    }

    fn ascend(&mut self) {
        self.depth -= 1;
    }

    fn rest(&self) -> &'a str {
        &self.src[self.pos..]
    }

    /// Skips whitespace (`char::is_whitespace`), ASCII a byte at a time.
    fn skip_ws(&mut self) {
        let bytes = self.src.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            match b {
                b'\t'..=b'\r' | b' ' => self.pos += 1,
                0x80.. => {
                    let trimmed = self.rest().trim_start();
                    self.pos = self.src.len() - trimmed.len();
                    return;
                }
                _ => return,
            }
        }
    }

    fn peek(&self) -> Option<char> {
        match self.src.as_bytes().get(self.pos) {
            Some(&b) if b.is_ascii() => Some(char::from(b)),
            _ => self.rest().chars().next(),
        }
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    fn eat(&mut self, c: char) -> bool {
        if self.peek() == Some(c) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: char) -> Result<(), ParseError> {
        self.skip_ws();
        if self.eat(c) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("'{c}'")))
        }
    }

    fn unexpected(&self, expected: &str) -> ParseError {
        match self.peek() {
            Some(c) => ParseError::Unexpected {
                at: self.pos,
                found: format!("'{c}'"),
                expected: expected.to_owned(),
            },
            None => ParseError::UnexpectedEnd {
                expected: expected.to_owned(),
            },
        }
    }

    /// An identifier (a run of alphanumerics, `_`, `'`, `-`, `.`)
    /// together with its byte span. A `-` followed by `>` is not part of
    /// it: it begins an arrow, so `A->B` reads `A`, `->`, `B`, while
    /// `A-B` stays one name.
    fn ident_spanned(&mut self) -> Result<(&'a str, Span), ParseError> {
        self.skip_ws();
        let start = self.pos;
        let bytes = self.src.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            if b.is_ascii() {
                let ident = b.is_ascii_alphanumeric() || matches!(b, b'_' | b'\'' | b'-' | b'.');
                if !ident || (b == b'-' && bytes.get(self.pos + 1) == Some(&b'>')) {
                    break;
                }
                self.pos += 1;
            } else {
                match self.peek() {
                    Some(c) if c.is_alphanumeric() => self.pos += c.len_utf8(),
                    _ => break,
                }
            }
        }
        if self.pos == start {
            Err(self.unexpected("identifier"))
        } else {
            Ok((&self.src[start..self.pos], Span::new(start, self.pos)))
        }
    }

    fn done(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.pos == self.src.len() {
            Ok(())
        } else {
            Err(ParseError::TrailingInput { at: self.pos })
        }
    }
}

fn is_lambda_name(s: &str) -> bool {
    s == "λ" || s == "lambda"
}

/// A loose (possibly abbreviated) attribute term together with the byte
/// spans the parser recorded while reading it: the span of the whole
/// term, plus one span per identifier (attribute names and labels, in
/// source order). The ident list is what powers did-you-mean diagnostics
/// — an unresolvable path can be blamed on the exact unknown token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpannedLoose<'a> {
    /// The parsed term.
    pub node: Loose<'a>,
    /// Byte span of the whole term.
    pub span: Span,
    /// Every identifier in the term with its span, in source order
    /// (`λ` / `lambda` are not identifiers and are not recorded).
    pub idents: Vec<(&'a str, Span)>,
}

/// Parses one loose term, pushing its identifiers onto `idents` when
/// given (only diagnostics read them, so resolution paths pass `None`).
/// Names are borrowed from the text, so no identifier is copied.
fn parse_loose_spanned_inner<'a>(
    cur: &mut Cursor<'a>,
    mut idents: Option<&mut Vec<(&'a str, Span)>>,
) -> Result<(Loose<'a>, Span), ParseError> {
    cur.skip_ws();
    let start = cur.pos;
    if cur.peek() == Some('λ') {
        cur.bump();
        return Ok((Loose::Lambda, Span::new(start, cur.pos)));
    }
    let (name, name_span) = cur.ident_spanned()?;
    if is_lambda_name(name) {
        return Ok((Loose::Lambda, name_span));
    }
    if let Some(ids) = idents.as_deref_mut() {
        ids.push((name, name_span));
    }
    cur.skip_ws();
    match cur.peek() {
        Some('(') => {
            cur.descend()?;
            cur.bump();
            let mut components = Vec::new();
            loop {
                components.push(parse_loose_spanned_inner(cur, idents.as_deref_mut())?.0);
                cur.skip_ws();
                if cur.eat(',') {
                    continue;
                }
                cur.expect(')')?;
                break;
            }
            cur.ascend();
            Ok((
                Loose::Record(name, components),
                Span::new(name_span.start, cur.pos),
            ))
        }
        Some('[') => {
            cur.descend()?;
            cur.bump();
            let inner = parse_loose_spanned_inner(cur, idents)?.0;
            cur.expect(']')?;
            cur.ascend();
            Ok((
                Loose::List(name, Box::new(inner)),
                Span::new(name_span.start, cur.pos),
            ))
        }
        _ => Ok((Loose::Flat(name), name_span)),
    }
}

/// Parses a loose (possibly abbreviated) attribute term without resolving
/// it against a context.
pub fn parse_loose(src: &str) -> Result<Loose<'_>, ParseError> {
    parse_loose_spanned(src).map(|s| s.node)
}

/// [`parse_loose`] with explicit [`ParseLimits`].
pub fn parse_loose_with(src: &str, limits: ParseLimits) -> Result<Loose<'_>, ParseError> {
    let mut cur = Cursor::with_limits(src, limits);
    let (node, _) = parse_loose_spanned_inner(&mut cur, None)?;
    cur.done()?;
    Ok(node)
}

/// [`parse_loose`] with byte-span tracking for the whole term and every
/// identifier in it.
///
/// ```
/// use nalist_types::parser::parse_loose_spanned;
///
/// let s = parse_loose_spanned("  L1(A, L2[λ])").unwrap();
/// assert_eq!(s.span.text("  L1(A, L2[λ])"), "L1(A, L2[λ])");
/// let names: Vec<&str> = s.idents.iter().map(|(n, _)| *n).collect();
/// assert_eq!(names, ["L1", "A", "L2"]);
/// ```
pub fn parse_loose_spanned(src: &str) -> Result<SpannedLoose<'_>, ParseError> {
    parse_loose_spanned_with(src, ParseLimits::default())
}

/// [`parse_loose_spanned`] with explicit [`ParseLimits`].
pub fn parse_loose_spanned_with(
    src: &str,
    limits: ParseLimits,
) -> Result<SpannedLoose<'_>, ParseError> {
    let mut cur = Cursor::with_limits(src, limits);
    let mut idents = Vec::new();
    let (node, span) = parse_loose_spanned_inner(&mut cur, Some(&mut idents))?;
    cur.done()?;
    Ok(SpannedLoose { node, span, idents })
}

fn loose_to_attr(d: &Loose<'_>) -> Result<NestedAttr, ParseError> {
    match d {
        Loose::Lambda => Ok(NestedAttr::Null),
        Loose::Flat(a) => Ok(NestedAttr::flat(*a)),
        Loose::Record(l, ds) => {
            let children = ds
                .iter()
                .map(loose_to_attr)
                .collect::<Result<Vec<_>, _>>()?;
            Ok(NestedAttr::Record((*l).to_owned(), children))
        }
        Loose::List(l, di) => Ok(NestedAttr::list(*l, loose_to_attr(di)?)),
    }
}

/// Parses a full nested attribute in the literal notation of
/// Definition 3.2 (components positional, nothing omitted).
///
/// ```
/// use nalist_types::parser::parse_attr;
///
/// let n = parse_attr("Pubcrawl(Person, Visit[Drink(Beer, Pub)])").unwrap();
/// assert_eq!(n.to_string(), "Pubcrawl(Person, Visit[Drink(Beer, Pub)])");
/// ```
pub fn parse_attr(src: &str) -> Result<NestedAttr, ParseError> {
    parse_attr_with(src, ParseLimits::default())
}

/// [`parse_attr`] with explicit [`ParseLimits`].
pub fn parse_attr_with(src: &str, limits: ParseLimits) -> Result<NestedAttr, ParseError> {
    let d = parse_loose_with(src, limits)?;
    loose_to_attr(&d)
}

/// Parses an abbreviated subattribute term and resolves it against the
/// context attribute `n`, returning the canonical element of `Sub(n)`.
///
/// ```
/// use nalist_types::parser::{parse_attr, parse_subattr_of};
///
/// let n = parse_attr("L1(A, B, L2[L3(C, D)])").unwrap();
/// let x = parse_subattr_of(&n, "L1(A, L2[λ])").unwrap();
/// assert_eq!(x.to_string(), "L1(A, λ, L2[L3(λ, λ)])");
/// ```
pub fn parse_subattr_of(n: &NestedAttr, src: &str) -> Result<NestedAttr, ParseError> {
    parse_subattr_of_with(n, src, ParseLimits::default())
}

/// [`parse_subattr_of`] with explicit [`ParseLimits`].
pub fn parse_subattr_of_with(
    n: &NestedAttr,
    src: &str,
    limits: ParseLimits,
) -> Result<NestedAttr, ParseError> {
    let d = parse_loose_with(src, limits)?;
    resolve_loose(n, &d, src)
}

/// Resolves an already-parsed loose term against `n`: the tree
/// [`from_atoms`] builds from the atoms [`resolve_loose_atoms`] emits,
/// or its error.
pub fn resolve_loose(n: &NestedAttr, d: &Loose<'_>, src: &str) -> Result<NestedAttr, ParseError> {
    let mut atoms = Vec::new();
    resolve_loose_atoms(n, d, src, |a| atoms.push(a))?;
    Ok(from_atoms(n, atoms))
}

/// Resolves an already-parsed loose term against `n` in one counting
/// pass, emitting atoms ([`first_resolution_atoms`]): on success `atom`
/// has been handed the atoms of `SubB` of the resolution, in ascending
/// order. A term with no resolution is [`ParseError::NoMatch`]; one
/// with several is [`ParseError::Ambiguous`], and `atom` has then been
/// handed the atoms of the first of them, in the order
/// [`crate::display::resolutions`] enumerates.
pub fn resolve_loose_atoms(
    n: &NestedAttr,
    d: &Loose<'_>,
    src: &str,
    atom: impl FnMut(usize),
) -> Result<(), ParseError> {
    match first_resolution_atoms(d, n, atom) {
        1 => Ok(()),
        count => Err(unresolved(n, src, count)),
    }
}

/// The error for a term of `src` with `count` ≠ 1 resolutions in `n`.
fn unresolved(n: &NestedAttr, src: &str, count: u64) -> ParseError {
    if count == 0 {
        ParseError::NoMatch {
            input: src.to_owned(),
            context: n.to_string(),
        }
    } else {
        ParseError::Ambiguous {
            input: src.to_owned(),
            context: n.to_string(),
            count: count as usize,
        }
    }
}

/// Parses a dependency `X -> Y` (FD) or `X ->> Y` (MVD) whose sides are
/// abbreviated subattributes of `n`; the Unicode arrows `→` and `↠` are
/// also accepted. Returns the kind, and hands `lhs` and `rhs` the atoms
/// of `SubB` of the two sides in ascending order, each resolved as
/// [`resolve_loose_atoms`] resolves it against the whole text `src`. No
/// tree is built, names are borrowed from `src`, and one working memory
/// serves both sides.
///
/// ```
/// use nalist_types::parser::{parse_attr, parse_dependency_atoms_with, DepKind, ParseLimits};
///
/// // atoms of A'(B, C[D(E, F[G])]): B 0, C 1, E 2, F 3, G 4
/// let n = parse_attr("A'(B, C[D(E, F[G])])").unwrap();
/// let (mut x, mut y) = (Vec::new(), Vec::new());
/// let kind = parse_dependency_atoms_with(
///     &n, "A'(B)->>A'(C[D(E)])", ParseLimits::default(), |a| x.push(a), |a| y.push(a),
/// );
/// assert_eq!(kind, Ok(DepKind::Mvd));
/// assert_eq!((x, y), (vec![0], vec![1, 2]));
/// ```
pub fn parse_dependency_atoms_with(
    n: &NestedAttr,
    src: &str,
    limits: ParseLimits,
    lhs: impl FnMut(usize),
    rhs: impl FnMut(usize),
) -> Result<DepKind, ParseError> {
    let (kind, x, y) = parse_dependency_loose_with(src, limits)?;
    let mut tape = Tape::new();
    match first_resolution_atoms_in(&mut tape, &x, n, lhs) {
        1 => {}
        count => return Err(unresolved(n, src, count)),
    }
    match first_resolution_atoms_in(&mut tape, &y, n, rhs) {
        1 => Ok(kind),
        count => Err(unresolved(n, src, count)),
    }
}

/// Reads a dependency text into its kind and its two loose sides, whose
/// names borrow from `src`, without resolving them: the syntax half of
/// [`parse_dependency_atoms_with`].
fn parse_dependency_loose_with(
    src: &str,
    limits: ParseLimits,
) -> Result<(DepKind, Loose<'_>, Loose<'_>), ParseError> {
    let mut cur = Cursor::with_limits(src, limits);
    let (lhs, _) = parse_loose_spanned_inner(&mut cur, None)?;
    let (kind, _) = parse_arrow(&mut cur)?;
    let (rhs, _) = parse_loose_spanned_inner(&mut cur, None)?;
    cur.done()?;
    Ok((kind, lhs, rhs))
}

/// A parsed but *unresolved* dependency with full span information: the
/// loose terms of both sides, the byte span of each side, of the arrow
/// token, and of every identifier. Resolution against an ambient
/// attribute is left to the caller (see [`resolve_loose`]) so that
/// resolution failures can be reported with precise source locations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpannedDependency<'a> {
    /// FD or MVD.
    pub kind: DepKind,
    /// Byte span of the arrow token (`->`, `->>`, `→`, `↠`).
    pub arrow: Span,
    /// Left-hand side with spans.
    pub lhs: SpannedLoose<'a>,
    /// Right-hand side with spans.
    pub rhs: SpannedLoose<'a>,
}

impl SpannedDependency<'_> {
    /// The span of the whole dependency text (LHS through RHS).
    pub fn span(&self) -> Span {
        self.lhs.span.to(self.rhs.span)
    }
}

/// Parses `"X -> Y"` / `"X ->> Y"` (or `→`/`↠`) into loose sides with
/// byte-span tracking, without resolving against a context attribute.
///
/// ```
/// use nalist_types::parser::{parse_dependency_spanned, DepKind};
///
/// let src = "L(A) ->> L(B, C[λ])";
/// let d = parse_dependency_spanned(src).unwrap();
/// assert_eq!(d.kind, DepKind::Mvd);
/// assert_eq!(d.arrow.text(src), "->>");
/// assert_eq!(d.lhs.span.text(src), "L(A)");
/// assert_eq!(d.rhs.span.text(src), "L(B, C[λ])");
/// ```
pub fn parse_dependency_spanned(src: &str) -> Result<SpannedDependency<'_>, ParseError> {
    parse_dependency_spanned_with(src, ParseLimits::default())
}

/// [`parse_dependency_spanned`] with explicit [`ParseLimits`].
pub fn parse_dependency_spanned_with(
    src: &str,
    limits: ParseLimits,
) -> Result<SpannedDependency<'_>, ParseError> {
    let mut cur = Cursor::with_limits(src, limits);
    let mut lhs_idents = Vec::new();
    let (lhs_node, lhs_span) = parse_loose_spanned_inner(&mut cur, Some(&mut lhs_idents))?;
    let (kind, arrow) = parse_arrow(&mut cur)?;
    let mut rhs_idents = Vec::new();
    let (rhs_node, rhs_span) = parse_loose_spanned_inner(&mut cur, Some(&mut rhs_idents))?;
    cur.done()?;
    Ok(SpannedDependency {
        kind,
        arrow,
        lhs: SpannedLoose {
            node: lhs_node,
            span: lhs_span,
            idents: lhs_idents,
        },
        rhs: SpannedLoose {
            node: rhs_node,
            span: rhs_span,
            idents: rhs_idents,
        },
    })
}

/// The arrow between a dependency's sides and its byte span.
fn parse_arrow(cur: &mut Cursor<'_>) -> Result<(DepKind, Span), ParseError> {
    cur.skip_ws();
    let start = cur.pos;
    let kind = if cur.eat('→') {
        DepKind::Fd
    } else if cur.eat('↠') {
        DepKind::Mvd
    } else if cur.eat('-') {
        cur.expect('>')?;
        if cur.eat('>') {
            DepKind::Mvd
        } else {
            DepKind::Fd
        }
    } else {
        return Err(cur.unexpected("'->', '->>', '→' or '↠'"));
    };
    Ok((kind, Span::new(start, cur.pos)))
}

fn parse_value_inner(cur: &mut Cursor<'_>) -> Result<Value, ParseError> {
    cur.skip_ws();
    match cur.peek() {
        Some('(') => {
            cur.descend()?;
            cur.bump();
            let mut items = Vec::new();
            loop {
                items.push(parse_value_inner(cur)?);
                cur.skip_ws();
                if cur.eat(',') {
                    continue;
                }
                cur.expect(')')?;
                break;
            }
            cur.ascend();
            Ok(Value::Tuple(items))
        }
        Some('[') => {
            cur.descend()?;
            cur.bump();
            cur.skip_ws();
            let mut items = Vec::new();
            if !cur.eat(']') {
                loop {
                    items.push(parse_value_inner(cur)?);
                    cur.skip_ws();
                    if cur.eat(',') {
                        continue;
                    }
                    cur.expect(']')?;
                    break;
                }
            }
            cur.ascend();
            Ok(Value::List(items))
        }
        Some('"') => {
            cur.bump();
            let start = cur.pos;
            while let Some(c) = cur.peek() {
                if c == '"' {
                    let s = cur.src[start..cur.pos].to_owned();
                    cur.bump();
                    return Ok(Value::str(s));
                }
                cur.bump();
            }
            Err(ParseError::UnexpectedEnd {
                expected: "closing '\"'".to_owned(),
            })
        }
        Some(_) => {
            // bare token: run of characters excluding delimiters
            let start = cur.pos;
            while let Some(c) = cur.peek() {
                if matches!(c, ',' | '(' | ')' | '[' | ']' | '"') {
                    break;
                }
                cur.bump();
            }
            let tok = cur.src[start..cur.pos].trim();
            if tok.is_empty() {
                return Err(cur.unexpected("value"));
            }
            if tok == "ok" {
                Ok(Value::Ok)
            } else if tok == "true" {
                Ok(Value::bool(true))
            } else if tok == "false" {
                Ok(Value::bool(false))
            } else if let Ok(i) = tok.parse::<i64>() {
                Ok(Value::int(i))
            } else {
                Ok(Value::str(tok))
            }
        }
        None => Err(ParseError::UnexpectedEnd {
            expected: "value".to_owned(),
        }),
    }
}

/// Parses a value in the paper's tuple/list notation.
///
/// ```
/// use nalist_types::parser::parse_value;
/// use nalist_types::Value;
///
/// let v = parse_value("(Klaus-Dieter, [(Guiness, Irish Pub), (Speights, 3Bar)])").unwrap();
/// assert_eq!(v.to_string(), "(Klaus-Dieter, [(Guiness, Irish Pub), (Speights, 3Bar)])");
/// assert_eq!(parse_value("[]").unwrap(), Value::empty_list());
/// ```
pub fn parse_value(src: &str) -> Result<Value, ParseError> {
    parse_value_with(src, ParseLimits::default())
}

/// [`parse_value`] with explicit [`ParseLimits`].
pub fn parse_value_with(src: &str, limits: ParseLimits) -> Result<Value, ParseError> {
    let mut cur = Cursor::with_limits(src, limits);
    let v = parse_value_inner(&mut cur)?;
    cur.done()?;
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::NestedAttr as A;

    /// A dependency's kind and its two sides as trees.
    fn dependency_trees(n: &A, src: &str) -> Result<(DepKind, A, A), ParseError> {
        let (mut x, mut y) = (Vec::new(), Vec::new());
        let limits = ParseLimits::default();
        let kind = parse_dependency_atoms_with(n, src, limits, |a| x.push(a), |a| y.push(a))?;
        Ok((kind, from_atoms(n, x), from_atoms(n, y)))
    }

    #[test]
    fn parse_flat_and_lambda() {
        assert_eq!(parse_attr("A").unwrap(), A::flat("A"));
        assert_eq!(parse_attr("λ").unwrap(), A::Null);
        assert_eq!(parse_attr("lambda").unwrap(), A::Null);
    }

    #[test]
    fn parse_example_51_attribute() {
        let s = "L1(L2[L3[L4(A, B, C)]], L5[L6(D, E)], L7(F, L8[L9(G, L10[H])], I))";
        let n = parse_attr(s).unwrap();
        assert_eq!(n.to_string(), s);
        assert_eq!(n.basis_size(), 14); // 9 flats + 5 list nodes
        assert_eq!(n.flat_leaf_count(), 9);
        assert_eq!(n.list_node_count(), 5);
    }

    #[test]
    fn parse_subattr_restores_bottoms() {
        let n = parse_attr("L1(L2[L3[L4(A, B, C)]], L5[L6(D, E)], L7(F))").unwrap();
        let x = parse_subattr_of(&n, "L1(L5[λ], L7(F))").unwrap();
        assert_eq!(x.to_string(), "L1(λ, L5[L6(λ, λ)], L7(F))");
        // round-trip through the abbreviation
        assert_eq!(crate::display::abbreviate(&x, &n), "L1(L5[λ], L7(F))");
    }

    #[test]
    fn ambiguous_subattr_rejected() {
        let n = parse_attr("L(A, A)").unwrap();
        assert!(matches!(
            parse_subattr_of(&n, "L(A)"),
            Err(ParseError::Ambiguous { count: 2, .. })
        ));
        // explicit forms resolve
        assert!(parse_subattr_of(&n, "L(A, λ)").is_ok());
        assert!(parse_subattr_of(&n, "L(λ, A)").is_ok());
    }

    #[test]
    fn no_match_rejected() {
        let n = parse_attr("L(A, B)").unwrap();
        assert!(matches!(
            parse_subattr_of(&n, "L(Z)"),
            Err(ParseError::NoMatch { .. })
        ));
        assert!(matches!(
            parse_subattr_of(&n, "M(A)"),
            Err(ParseError::NoMatch { .. })
        ));
    }

    #[test]
    fn lambda_resolves_to_bottom_of_context() {
        let n = parse_attr("L(A, B)").unwrap();
        assert_eq!(parse_subattr_of(&n, "λ").unwrap(), n.bottom());
    }

    #[test]
    fn parse_fd_and_mvd() {
        let n = parse_attr("Pubcrawl(Person, Visit[Drink(Beer, Pub)])").unwrap();
        let (k1, x1, y1) = dependency_trees(&n, "Pubcrawl(Person) -> Pubcrawl(Visit[λ])").unwrap();
        assert_eq!(k1, DepKind::Fd);
        assert_eq!(x1.to_string(), "Pubcrawl(Person, λ)");
        assert_eq!(y1.to_string(), "Pubcrawl(λ, Visit[Drink(λ, λ)])");
        let (k2, _, _) =
            dependency_trees(&n, "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])").unwrap();
        assert_eq!(k2, DepKind::Mvd);
        let (k3, _, _) =
            dependency_trees(&n, "Pubcrawl(Person) ↠ Pubcrawl(Visit[Drink(Beer)])").unwrap();
        assert_eq!(k3, DepKind::Mvd);
        let (k4, _, _) = dependency_trees(&n, "λ → Pubcrawl(Person)").unwrap();
        assert_eq!(k4, DepKind::Fd);
    }

    #[test]
    fn arrow_right_after_a_flat_name_is_an_arrow() {
        let a = parse_attr("A").unwrap();
        for (src, kind, arrow) in [
            ("A->A", DepKind::Fd, (1, 3)),
            ("A->>A", DepKind::Mvd, (1, 4)),
        ] {
            let d = parse_dependency_spanned(src).unwrap();
            assert_eq!((d.kind, d.arrow), (kind, Span::new(arrow.0, arrow.1)));
            assert_eq!(d.lhs.node, Loose::Flat("A"));
            assert_eq!(d.rhs.node, Loose::Flat("A"));
            assert_eq!(
                dependency_trees(&a, src).unwrap(),
                (kind, a.clone(), a.clone())
            );
        }
        // an inner `-` stays part of the name
        let ab = parse_attr("A-B").unwrap();
        assert_eq!(ab, A::flat("A-B"));
        let src = "A-B->A-B";
        let d = parse_dependency_spanned(src).unwrap();
        assert_eq!(d.arrow, Span::new(3, 5));
        assert_eq!(d.arrow.text(src), "->");
        assert_eq!((d.lhs.span.text(src), d.rhs.span.text(src)), ("A-B", "A-B"));
        assert_eq!(
            dependency_trees(&ab, src).unwrap(),
            (DepKind::Fd, ab.clone(), ab.clone())
        );
        // a `-` that does not begin an arrow is still a name character
        assert_eq!(parse_loose("A--").unwrap(), Loose::Flat("A--"));
        assert_eq!(
            parse_dependency_spanned("A-->B").unwrap().lhs.node,
            Loose::Flat("A-")
        );
    }

    #[test]
    fn parse_value_notation() {
        let v = parse_value("(Sven, [(Lübzer, Deanos), (Kindl, Highflyers)])").unwrap();
        assert_eq!(
            v.to_string(),
            "(Sven, [(Lübzer, Deanos), (Kindl, Highflyers)])"
        );
        assert_eq!(parse_value("ok").unwrap(), Value::Ok);
        assert_eq!(parse_value("42").unwrap(), Value::int(42));
        assert_eq!(parse_value("true").unwrap(), Value::bool(true));
        assert_eq!(
            parse_value("\"Irish Pub\"").unwrap(),
            Value::str("Irish Pub")
        );
        assert_eq!(parse_value("Irish Pub").unwrap(), Value::str("Irish Pub"));
        assert_eq!(
            parse_value("(Sebastian, [])").unwrap().to_string(),
            "(Sebastian, [])"
        );
    }

    #[test]
    fn parse_errors_report_position() {
        assert!(matches!(
            parse_attr("L(A,"),
            Err(ParseError::UnexpectedEnd { .. })
        ));
        assert!(matches!(
            parse_attr("L(A) junk"),
            Err(ParseError::TrailingInput { .. })
        ));
        assert!(matches!(
            parse_attr("L[A)"),
            Err(ParseError::Unexpected { .. })
        ));
        assert!(matches!(
            parse_value("(a,"),
            Err(ParseError::UnexpectedEnd { .. })
        ));
    }

    #[test]
    fn whitespace_tolerated() {
        let n = parse_attr("  L1 ( A ,  B , L2 [ C ] ) ").unwrap();
        assert_eq!(n.to_string(), "L1(A, B, L2[C])");
    }

    #[test]
    fn empty_record_syntax_rejected() {
        assert!(parse_attr("L()").is_err());
    }

    #[test]
    fn spanned_dependency_reports_token_positions() {
        let src = "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])";
        let d = parse_dependency_spanned(src).unwrap();
        assert_eq!(d.kind, DepKind::Mvd);
        assert_eq!(d.lhs.span.text(src), "Pubcrawl(Person)");
        assert_eq!(d.arrow.text(src), "->>");
        assert_eq!(d.rhs.span.text(src), "Pubcrawl(Visit[Drink(Pub)])");
        assert_eq!(d.span().text(src), src);
        let lhs_names: Vec<&str> = d.lhs.idents.iter().map(|(n, _)| *n).collect();
        assert_eq!(lhs_names, ["Pubcrawl", "Person"]);
        let rhs_names: Vec<&str> = d.rhs.idents.iter().map(|(n, _)| *n).collect();
        assert_eq!(rhs_names, ["Pubcrawl", "Visit", "Drink", "Pub"]);
        // every ident span slices back to its own text
        for (name, span) in d.lhs.idents.iter().chain(&d.rhs.idents) {
            assert_eq!(span.text(src), *name);
        }
    }

    #[test]
    fn spanned_dependency_with_unicode_arrow_and_lambda() {
        let src = "  λ ↠ L(A)  ";
        let d = parse_dependency_spanned(src).unwrap();
        assert_eq!(d.kind, DepKind::Mvd);
        assert_eq!(d.lhs.node, Loose::Lambda);
        assert_eq!(d.lhs.span.text(src), "λ");
        assert_eq!(d.arrow.text(src), "↠");
        assert_eq!(d.rhs.span.text(src), "L(A)");
        assert!(d.lhs.idents.is_empty());
        // ASCII lambda spelling is not recorded as an identifier either
        let d2 = parse_dependency_spanned("lambda -> L(A)").unwrap();
        assert!(d2.lhs.idents.is_empty());
        assert_eq!(d2.lhs.span.text("lambda -> L(A)"), "lambda");
    }

    #[test]
    fn depth_bomb_rejected_structurally() {
        // 4096 nested lists: must return TooDeep, not overflow the stack.
        let bomb = format!("{}A{}", "L[".repeat(4096), "]".repeat(4096));
        match parse_attr(&bomb) {
            Err(ParseError::TooDeep { at, limit }) => {
                assert_eq!(limit, DEFAULT_MAX_DEPTH);
                // The offending byte is the bracket that would exceed the cap.
                assert_eq!(&bomb[at..=at], "[");
            }
            other => panic!("expected TooDeep, got {other:?}"),
        }
    }

    #[test]
    fn depth_at_limit_accepted() {
        let limits = ParseLimits { max_depth: 4 };
        let ok = "L[L[L[L[A]]]]"; // depth exactly 4
        assert!(parse_attr_with(ok, limits).is_ok());
        let too_deep = "L[L[L[L[L[A]]]]]"; // depth 5
        assert!(matches!(
            parse_attr_with(too_deep, limits),
            Err(ParseError::TooDeep { limit: 4, .. })
        ));
    }

    #[test]
    fn depth_counts_nesting_not_siblings() {
        // Many siblings at the same level never trip the cap.
        let limits = ParseLimits { max_depth: 2 };
        let wide = format!(
            "L({})",
            (0..64)
                .map(|i| format!("A{i}"))
                .collect::<Vec<_>>()
                .join(", ")
        );
        assert!(parse_attr_with(&wide, limits).is_ok());
    }

    #[test]
    fn value_depth_bomb_rejected() {
        let bomb = format!("{}1{}", "[".repeat(4096), "]".repeat(4096));
        assert!(matches!(
            parse_value(&bomb),
            Err(ParseError::TooDeep { .. })
        ));
        let limits = ParseLimits { max_depth: 3 };
        assert!(parse_value_with("[(1, 2)]", limits).is_ok());
        assert!(parse_value_with("[[[[1]]]]", limits).is_err());
    }

    #[test]
    fn parse_limits_from_budget() {
        let b = nalist_guard::Budget::unlimited().with_max_depth(7);
        assert_eq!(ParseLimits::from_budget(&b).max_depth, 7);
        let unarmed = nalist_guard::Budget::unlimited();
        assert_eq!(
            ParseLimits::from_budget(&unarmed).max_depth,
            DEFAULT_MAX_DEPTH
        );
    }

    #[test]
    fn dependency_depth_cap_applies_to_both_sides() {
        let limits = ParseLimits { max_depth: 2 };
        assert!(parse_dependency_spanned_with("L(A) -> L(B)", limits).is_ok());
        assert!(matches!(
            parse_dependency_spanned_with("L(A) -> L(M[P[Q[B]]])", limits),
            Err(ParseError::TooDeep { .. })
        ));
    }

    #[test]
    fn spanned_loose_whole_term_span() {
        let src = " L1(A, L2[L3(B)]) ";
        let s = parse_loose_spanned(src).unwrap();
        assert_eq!(s.span.text(src), "L1(A, L2[L3(B)])");
        let names: Vec<&str> = s.idents.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["L1", "A", "L2", "L3", "B"]);
    }
}
