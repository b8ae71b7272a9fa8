//! Regular-expression expression generators (`{| re |}`).
//!
//! Per the paper (§4.1), generators support alternation `e1|e2`,
//! optionality `e?` and grouping — deliberately *no* Kleene closure, so
//! the language of a generator is always finite. A generator denotes
//! the set of token strings in its language; the desugaring phase
//! parses each string as an expression, filters the ill-typed ones, and
//! turns the rest into a switch on a fresh hole.

use crate::error::{Phase, SourceError, SourceResult, Span};
use crate::token::{Tok, Token};
use std::fmt;

/// The most strings one generator's language may hold: a cap that
/// defends against accidentally enormous generators.
pub const GENERATOR_CAP: usize = 4096;

/// A regular expression over language tokens.
#[derive(Clone, PartialEq, Debug)]
pub enum Regex {
    /// A single token.
    Atom(Tok),
    /// Concatenation.
    Seq(Vec<Regex>),
    /// Alternation `a | b | …`.
    Alt(Vec<Regex>),
    /// Optionality `e?`.
    Opt(Box<Regex>),
}

impl Eq for Regex {}

impl Regex {
    /// Number of strings in the language (with multiplicity collapsed
    /// only at the top; duplicates are possible before filtering).
    pub fn language_size(&self) -> u64 {
        match self {
            Regex::Atom(_) => 1,
            Regex::Seq(es) => es.iter().map(Regex::language_size).product(),
            Regex::Alt(es) => es.iter().map(Regex::language_size).sum(),
            Regex::Opt(e) => e.language_size() + 1,
        }
    }

    /// Enumerates every token string in the language.
    ///
    /// # Errors
    ///
    /// Returns an error if the language exceeds `cap` strings; caps
    /// defend against accidentally enormous generators.
    pub fn enumerate(&self, cap: usize) -> Result<Vec<Vec<Tok>>, LanguageTooLarge> {
        if self.language_size() > cap as u64 {
            return Err(LanguageTooLarge {
                size: self.language_size(),
                cap,
            });
        }
        let mut out = self.enumerate_unchecked();
        out.dedup();
        out.sort();
        out.dedup();
        Ok(out)
    }

    fn enumerate_unchecked(&self) -> Vec<Vec<Tok>> {
        match self {
            Regex::Atom(t) => vec![vec![t.clone()]],
            Regex::Opt(e) => {
                let mut v = vec![vec![]];
                v.extend(e.enumerate_unchecked());
                v
            }
            Regex::Alt(es) => es.iter().flat_map(Regex::enumerate_unchecked).collect(),
            Regex::Seq(es) => {
                let mut acc: Vec<Vec<Tok>> = vec![vec![]];
                for e in es {
                    let parts = e.enumerate_unchecked();
                    let mut next = Vec::with_capacity(acc.len() * parts.len());
                    for a in &acc {
                        for p in &parts {
                            let mut s = a.clone();
                            s.extend(p.iter().cloned());
                            next.push(s);
                        }
                    }
                    acc = next;
                }
                acc
            }
        }
    }
}

impl fmt::Display for Regex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Regex::Atom(t) => write!(f, "{}", t.spelling()),
            Regex::Seq(es) => {
                // Space-separate elements: adjacent word-like atoms
                // (`a` `next`) would otherwise re-lex as one token.
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    if matches!(e, Regex::Alt(_)) {
                        write!(f, "({e})")?;
                    } else {
                        write!(f, "{e}")?;
                    }
                }
                Ok(())
            }
            Regex::Alt(es) => {
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, " | ")?;
                    }
                    write!(f, "{e}")?;
                }
                Ok(())
            }
            Regex::Opt(e) => match &**e {
                Regex::Atom(t) => write!(f, "{}?", t.spelling()),
                other => write!(f, "({other})?"),
            },
        }
    }
}

/// Error: a generator language exceeded the enumeration cap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LanguageTooLarge {
    /// The computed language size.
    pub size: u64,
    /// The configured cap.
    pub cap: usize,
}

impl fmt::Display for LanguageTooLarge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "generator language has {} strings, above the cap of {}",
            self.size, self.cap
        )
    }
}

impl std::error::Error for LanguageTooLarge {}

/// Parses the token slice between `{|` and `|}` as a regex.
///
/// # Errors
///
/// Returns a parse [`SourceError`] for empty generators, unbalanced
/// parentheses, dangling `?`, or `||` (write `a | b`, spaced).
pub fn parse_regex(tokens: &[Token], open_span: Span) -> SourceResult<Regex> {
    let mut p = ReParser { tokens, pos: 0 };
    let re = p.alternation(open_span)?;
    if p.pos != tokens.len() {
        return Err(SourceError::new(
            Phase::Parse,
            p.tokens[p.pos].span,
            format!(
                "unexpected {:?} in generator",
                p.tokens[p.pos].tok.spelling()
            ),
        ));
    }
    Ok(re)
}

struct ReParser<'a> {
    tokens: &'a [Token],
    pos: usize,
}

impl<'a> ReParser<'a> {
    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|t| &t.tok)
    }

    fn alternation(&mut self, at: Span) -> SourceResult<Regex> {
        let mut alts = vec![self.sequence(at)?];
        while self.peek() == Some(&Tok::Pipe) {
            self.pos += 1;
            alts.push(self.sequence(at)?);
        }
        Ok(if alts.len() == 1 {
            alts.pop().unwrap()
        } else {
            Regex::Alt(alts)
        })
    }

    fn sequence(&mut self, at: Span) -> SourceResult<Regex> {
        let mut items = Vec::new();
        loop {
            match self.peek() {
                None | Some(Tok::Pipe) | Some(Tok::RParen) => break,
                _ => items.push(self.postfix(at)?),
            }
        }
        if items.is_empty() {
            return Err(SourceError::new(
                Phase::Parse,
                at,
                "empty alternative in generator",
            ));
        }
        Ok(if items.len() == 1 {
            items.pop().unwrap()
        } else {
            Regex::Seq(items)
        })
    }

    fn postfix(&mut self, at: Span) -> SourceResult<Regex> {
        let mut base = self.primary(at)?;
        while self.peek() == Some(&Tok::Question) {
            self.pos += 1;
            base = Regex::Opt(Box::new(base));
        }
        Ok(base)
    }

    fn primary(&mut self, at: Span) -> SourceResult<Regex> {
        let t = self.tokens.get(self.pos).ok_or_else(|| {
            SourceError::new(Phase::Parse, at, "unterminated generator expression")
        })?;
        match &t.tok {
            Tok::LParen => {
                self.pos += 1;
                let inner = self.alternation(t.span)?;
                match self.peek() {
                    Some(Tok::RParen) => {
                        self.pos += 1;
                        Ok(inner)
                    }
                    _ => Err(SourceError::new(
                        Phase::Parse,
                        t.span,
                        "missing ')' in generator",
                    )),
                }
            }
            Tok::OrOr => Err(SourceError::new(
                Phase::Parse,
                t.span,
                "'||' is ambiguous inside a generator; write 'a | b' with spaces",
            )),
            Tok::Question => Err(SourceError::new(
                Phase::Parse,
                t.span,
                "dangling '?' in generator",
            )),
            other => {
                self.pos += 1;
                Ok(Regex::Atom(other.clone()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn re(src: &str) -> Regex {
        let toks = lex(src).unwrap();
        parse_regex(&toks, Span::default()).unwrap()
    }

    fn strings(src: &str) -> Vec<String> {
        re(src)
            .enumerate(10_000)
            .unwrap()
            .into_iter()
            .map(|ts| ts.iter().map(|t| t.spelling()).collect::<Vec<_>>().join(""))
            .collect()
    }

    #[test]
    fn atom_and_alt() {
        let mut s = strings("a | b | c");
        s.sort();
        assert_eq!(s, vec!["a", "b", "c"]);
    }

    #[test]
    fn paper_location_generator() {
        // {| tail(.next)? | (tmp|newEntry).next |}
        let mut s = strings("tail(.next)? | (tmp|newEntry).next");
        s.sort();
        assert_eq!(s, vec!["newEntry.next", "tail", "tail.next", "tmp.next"]);
    }

    #[test]
    fn paper_value_generator_size() {
        // {| (tail|tmp|newEntry)(.next)? | null |} has 3*2 + 1 = 7 strings.
        let r = re("(tail|tmp|newEntry)(.next)? | null");
        assert_eq!(r.language_size(), 7);
        assert_eq!(strings("(tail|tmp|newEntry)(.next)? | null").len(), 7);
    }

    #[test]
    fn optional_negation_predicate() {
        // {| (!)? (a==b | c) |} → 4 strings.
        let s = strings("(!)? (a==b | c)");
        assert_eq!(s.len(), 4);
        assert!(s.contains(&"!a==b".to_string()));
        assert!(s.contains(&"c".to_string()));
    }

    #[test]
    fn double_deref() {
        let s = strings("prevHead(.next)?(.next)?");
        assert_eq!(s, vec!["prevHead", "prevHead.next", "prevHead.next.next"]);
    }

    #[test]
    fn nested_groups() {
        let s = strings("a(b|c(d|e))f");
        assert_eq!(s.len(), 3);
        assert!(s.contains(&"acdf".to_string()));
    }

    #[test]
    fn too_large_is_reported() {
        let r = re("(a|b)(a|b)(a|b)(a|b)");
        assert_eq!(r.language_size(), 16);
        assert!(r.enumerate(15).is_err());
        assert!(r.enumerate(16).is_ok());
    }

    #[test]
    fn parse_errors() {
        let toks = lex("a |").unwrap();
        assert!(parse_regex(&toks, Span::default()).is_err());
        let toks = lex("(a").unwrap();
        assert!(parse_regex(&toks, Span::default()).is_err());
        let toks = lex("? a").unwrap();
        assert!(parse_regex(&toks, Span::default()).is_err());
        let toks = lex("a || b").unwrap();
        assert!(parse_regex(&toks, Span::default()).is_err());
    }

    #[test]
    fn display_roundtrip() {
        for src in ["a | b", "tail(.next)?", "(!)? (a==b | c)", "a(b|c)d?"] {
            let r1 = re(src);
            let printed = r1.to_string();
            let r2 = re(&printed);
            assert_eq!(
                r1.enumerate(1000).unwrap(),
                r2.enumerate(1000).unwrap(),
                "display changed language for {src:?} -> {printed:?}"
            );
        }
    }

    #[test]
    fn hole_atom_allowed() {
        // Generators may embed ?? (fresh hole per expansion site).
        let s = strings("(a|b)==??");
        assert_eq!(s.len(), 2);
        assert!(s.contains(&"a==??".to_string()));
    }
}
