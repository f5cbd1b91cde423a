//! Lexer and recursive-descent parser for the paper's SQL-like SGF syntax.
//!
//! Grammar (§3.1 and the examples throughout the paper):
//!
//! ```text
//! program   := statement+
//! statement := Ident ":=" SELECT varlist FROM atom [ WHERE cond ] ";"
//! varlist   := var | "(" var ("," var)* ")"
//! atom      := Ident "(" term ("," term)* ")"
//! term      := var | integer | string-literal
//! cond      := conj ( OR conj )*
//! conj      := unary ( AND unary )*
//! unary     := NOT unary | "(" cond ")" | atom
//! ```
//!
//! One condition holds at most [`MAX_CONDITION_OPS`] connectives.
//! Keywords are case-insensitive; identifiers are `[A-Za-z_][A-Za-z0-9_]*`.
//! `OR` binds weaker than `AND`, matching the paper's example queries (e.g.
//! query (8) of Example 4 reads `S(x,z) AND (T(y) OR NOT U(x))` with
//! explicit parentheses, and query B2 relies on AND binding tighter).

use gumbo_common::{GumboError, Result};

use crate::atom::Atom;
use crate::condition::Condition;
use crate::query::{BsgfQuery, SgfQuery};
use crate::term::{Term, Var};

/// Connectives (`NOT`, `AND`, `OR`, an opening parenthesis) one condition
/// may hold. Each one deepens the parsed tree by at most one level, so
/// this bounds the parser's own recursion and every later recursive walk
/// of the condition: program text from a client (`((((…`, `NOT NOT …`, a
/// 100 000-term `AND` chain) gets a parse error, not a stack overflow.
/// Sized for a 2 MiB thread: 256 nested parentheses need just under 1 MB
/// of stack in an unoptimized build; the paper's largest condition (the
/// §5.2 stress query) has 47 connectives.
pub const MAX_CONDITION_OPS: usize = 256;

/// Parse a full SGF program (one or more `Z := SELECT …;` statements).
pub fn parse_program(input: &str) -> Result<SgfQuery> {
    let tokens = lex(input)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        ops: 0,
    };
    let mut queries = Vec::new();
    while !p.at_end() {
        queries.push(p.statement()?);
    }
    SgfQuery::new(queries)
}

/// Parse a single BSGF statement.
pub fn parse_query(input: &str) -> Result<BsgfQuery> {
    let tokens = lex(input)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        ops: 0,
    };
    let q = p.statement()?;
    if !p.at_end() {
        return Err(p.error("trailing input after statement"));
    }
    Ok(q)
}

// ---------------------------------------------------------------- lexer --

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Str(String),
    Assign, // :=
    LParen,
    RParen,
    Comma,
    Semi,
    Select,
    From,
    Where,
    And,
    Or,
    Not,
}

#[derive(Debug, Clone)]
struct Spanned {
    tok: Tok,
    offset: usize,
}

fn lex(input: &str) -> Result<Vec<Spanned>> {
    let bytes = input.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            '-' if i + 1 < bytes.len() && bytes[i + 1] == b'-' => {
                // SQL-style line comment.
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '(' => {
                out.push(Spanned {
                    tok: Tok::LParen,
                    offset: i,
                });
                i += 1;
            }
            ')' => {
                out.push(Spanned {
                    tok: Tok::RParen,
                    offset: i,
                });
                i += 1;
            }
            ',' => {
                out.push(Spanned {
                    tok: Tok::Comma,
                    offset: i,
                });
                i += 1;
            }
            ';' => {
                out.push(Spanned {
                    tok: Tok::Semi,
                    offset: i,
                });
                i += 1;
            }
            ':' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    out.push(Spanned {
                        tok: Tok::Assign,
                        offset: i,
                    });
                    i += 2;
                } else {
                    return Err(GumboError::Parse {
                        message: "expected ':='".into(),
                        offset: i,
                    });
                }
            }
            '"' => {
                let start = i;
                i += 1;
                let mut s = String::new();
                loop {
                    if i >= bytes.len() {
                        return Err(GumboError::Parse {
                            message: "unterminated string literal".into(),
                            offset: start,
                        });
                    }
                    if bytes[i] == b'"' {
                        i += 1;
                        break;
                    }
                    s.push(bytes[i] as char);
                    i += 1;
                }
                out.push(Spanned {
                    tok: Tok::Str(s),
                    offset: start,
                });
            }
            '0'..='9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let n: i64 = input[start..i].parse().map_err(|_| GumboError::Parse {
                    message: "integer literal out of range".into(),
                    offset: start,
                })?;
                out.push(Spanned {
                    tok: Tok::Int(n),
                    offset: start,
                });
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                let word = &input[start..i];
                let tok = match word.to_ascii_uppercase().as_str() {
                    "SELECT" => Tok::Select,
                    "FROM" => Tok::From,
                    "WHERE" => Tok::Where,
                    "AND" => Tok::And,
                    "OR" => Tok::Or,
                    "NOT" => Tok::Not,
                    _ => Tok::Ident(word.to_string()),
                };
                out.push(Spanned { tok, offset: start });
            }
            other => {
                return Err(GumboError::Parse {
                    message: format!("unexpected character {other:?}"),
                    offset: i,
                })
            }
        }
    }
    Ok(out)
}

// --------------------------------------------------------------- parser --

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    /// Connectives consumed by the condition being parsed.
    ops: usize,
}

impl Parser {
    /// Consume the connective under the cursor, charging it to the
    /// condition's [`MAX_CONDITION_OPS`] budget.
    fn connective(&mut self) -> Result<()> {
        self.ops += 1;
        if self.ops > MAX_CONDITION_OPS {
            return Err(self.error(format!(
                "condition has more than {MAX_CONDITION_OPS} connectives"
            )));
        }
        self.next();
        Ok(())
    }

    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|s| &s.tok)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.tokens.get(self.pos).map(|s| s.tok.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn offset(&self) -> usize {
        self.tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map_or(0, |s| s.offset)
    }

    fn error(&self, message: impl Into<String>) -> GumboError {
        GumboError::Parse {
            message: message.into(),
            offset: self.offset(),
        }
    }

    fn expect(&mut self, want: &Tok, what: &str) -> Result<()> {
        match self.next() {
            Some(t) if &t == want => Ok(()),
            got => Err(GumboError::Parse {
                message: format!("expected {what}, found {got:?}"),
                offset: self.offset(),
            }),
        }
    }

    fn ident(&mut self, what: &str) -> Result<String> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            got => Err(GumboError::Parse {
                message: format!("expected {what}, found {got:?}"),
                offset: self.offset(),
            }),
        }
    }

    fn statement(&mut self) -> Result<BsgfQuery> {
        let output = self.ident("output relation name")?;
        self.expect(&Tok::Assign, "':='")?;
        self.expect(&Tok::Select, "SELECT")?;
        let output_vars = self.varlist()?;
        self.expect(&Tok::From, "FROM")?;
        let guard = self.atom()?;
        let condition = if self.peek() == Some(&Tok::Where) {
            self.next();
            self.ops = 0;
            Some(self.cond()?)
        } else {
            None
        };
        self.expect(&Tok::Semi, "';'")?;
        BsgfQuery::new(output, output_vars, guard, condition)
    }

    fn varlist(&mut self) -> Result<Vec<Var>> {
        if self.peek() == Some(&Tok::LParen) {
            self.next();
            let mut vars = vec![Var::new(self.ident("variable")?)];
            while self.peek() == Some(&Tok::Comma) {
                self.next();
                vars.push(Var::new(self.ident("variable")?));
            }
            self.expect(&Tok::RParen, "')'")?;
            Ok(vars)
        } else {
            Ok(vec![Var::new(self.ident("variable")?)])
        }
    }

    fn atom(&mut self) -> Result<Atom> {
        let rel = self.ident("relation name")?;
        self.expect(&Tok::LParen, "'('")?;
        let mut terms = vec![self.term()?];
        while self.peek() == Some(&Tok::Comma) {
            self.next();
            terms.push(self.term()?);
        }
        self.expect(&Tok::RParen, "')'")?;
        Ok(Atom::new(rel, terms))
    }

    fn term(&mut self) -> Result<Term> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(Term::var(s)),
            Some(Tok::Int(n)) => Ok(Term::int(n)),
            Some(Tok::Str(s)) => Ok(Term::str(s)),
            got => Err(GumboError::Parse {
                message: format!("expected term, found {got:?}"),
                offset: self.offset(),
            }),
        }
    }

    /// `cond := conj (OR conj)*`
    fn cond(&mut self) -> Result<Condition> {
        let mut left = self.conj()?;
        while self.peek() == Some(&Tok::Or) {
            self.connective()?;
            let right = self.conj()?;
            left = Condition::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    /// `conj := unary (AND unary)*`
    fn conj(&mut self) -> Result<Condition> {
        let mut left = self.unary()?;
        while self.peek() == Some(&Tok::And) {
            self.connective()?;
            let right = self.unary()?;
            left = Condition::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    /// `unary := NOT unary | "(" cond ")" | atom`
    fn unary(&mut self) -> Result<Condition> {
        match self.peek() {
            Some(Tok::Not) => {
                self.connective()?;
                Ok(Condition::Not(Box::new(self.unary()?)))
            }
            Some(Tok::LParen) => {
                self.connective()?;
                let c = self.cond()?;
                self.expect(&Tok::RParen, "')'")?;
                Ok(c)
            }
            Some(Tok::Ident(_)) => Ok(Condition::Atom(self.atom()?)),
            _ => Err(self.error("expected NOT, '(' or atom")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_intro_query() {
        // The running example Q from §1.
        let q =
            parse_query("Z := SELECT (x, y) FROM R(x, y) WHERE (S(x, y) OR S(y, x)) AND T(x, z);")
                .unwrap();
        assert_eq!(q.output().as_str(), "Z");
        assert_eq!(q.output_vars().len(), 2);
        assert_eq!(q.guard().relation().as_str(), "R");
        assert_eq!(q.conditional_atoms().len(), 3);
    }

    #[test]
    fn parses_example1_queries() {
        // Intersection, difference, semijoin, antijoin from Example 1.
        parse_query("Z1 := SELECT x FROM R(x) WHERE S(x);").unwrap();
        parse_query("Z2 := SELECT x FROM R(x) WHERE NOT S(x);").unwrap();
        parse_query("Z3 := SELECT (x, y) FROM R(x, y) WHERE S(y, z);").unwrap();
        parse_query("Z4 := SELECT (x, y) FROM R(x, y) WHERE NOT S(y, z);").unwrap();
    }

    #[test]
    fn parses_constants_and_xor_structure() {
        // Z5 from Example 1: constants 4, 1, 10, and an exclusive-or shape.
        let q = parse_query(
            "Z5 := SELECT (x, y) FROM R(x, y, 4) \
             WHERE (S(1, x) AND NOT S(y, 10)) OR (NOT S(1, x) AND S(y, 10));",
        )
        .unwrap();
        // Two distinct conditional atoms: S(1,x) and S(y,10).
        assert_eq!(q.conditional_atoms().len(), 2);
    }

    #[test]
    fn parses_string_constants() {
        // Example 2 (book retailers).
        let program = parse_program(
            r#"Z1 := SELECT aut FROM Amaz(ttl, aut, "bad")
                     WHERE BN(ttl, aut, "bad") AND BD(ttl, aut, "bad");
               Z2 := SELECT (new, aut) FROM Upcoming(new, aut) WHERE NOT Z1(aut);"#,
        )
        .unwrap();
        assert_eq!(program.len(), 2);
        assert_eq!(program.output().as_str(), "Z2");
    }

    #[test]
    fn and_binds_tighter_than_or() {
        let q = parse_query("Z := SELECT x FROM R(x) WHERE S(x) OR T(x) AND U(x);").unwrap();
        // Must parse as S(x) OR (T(x) AND U(x)).
        match q.condition().unwrap() {
            Condition::Or(l, r) => {
                assert!(matches!(**l, Condition::Atom(_)));
                assert!(matches!(**r, Condition::And(..)));
            }
            other => panic!("expected OR at top, got {other:?}"),
        }
    }

    #[test]
    fn keywords_case_insensitive() {
        parse_query("Z := select x from R(x) where not S(x);").unwrap();
    }

    #[test]
    fn comments_are_skipped() {
        parse_program("-- the guard\nZ := SELECT x FROM R(x); -- done\n").unwrap();
    }

    #[test]
    fn error_reports_offset() {
        let err = parse_query("Z := SELECT x FROM R(x) WHERE ;").unwrap_err();
        match err {
            GumboError::Parse { offset, .. } => assert!(offset > 0),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    /// Found by `proptests::parse_program_never_panics`: each of these
    /// overflowed the stack — in the parser's recursion, or (the chains)
    /// when the left-deep tree was walked or dropped.
    #[test]
    fn runaway_conditions_are_parse_errors() {
        for nester in ["(", "NOT ", "S(x) AND ", "S(x) OR "] {
            let text = format!(
                "Z := SELECT x FROM R(x) WHERE {}S(x);",
                nester.repeat(200_000)
            );
            let err = parse_program(&text).unwrap_err();
            assert!(err.to_string().contains("connectives"), "{nester:?}: {err}");
        }
        // Exactly at the limit still parses, nested and chained.
        let nested = format!(
            "Z := SELECT x FROM R(x) WHERE {}S(x){};",
            "(".repeat(MAX_CONDITION_OPS),
            ")".repeat(MAX_CONDITION_OPS)
        );
        parse_program(&nested).unwrap();
        let chained = format!(
            "Z := SELECT x FROM R(x) WHERE {}S(x);",
            "S(x) AND NOT ".repeat(MAX_CONDITION_OPS / 2)
        );
        parse_program(&chained).unwrap();
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse_query("Z := SELECT x FROM R(x); extra").is_err());
    }

    #[test]
    fn display_round_trip() {
        let text = "Z := SELECT (x, y) FROM R(x, y) WHERE (S(x, y) OR S(y, x)) AND T(x, z);";
        let q = parse_query(text).unwrap();
        let reparsed = parse_query(&q.to_string()).unwrap();
        assert_eq!(q, reparsed);
    }

    #[test]
    fn program_display_round_trip() {
        let text = "Z1 := SELECT x FROM R(x, y) WHERE S(x);\n\
                    Z2 := SELECT x FROM Z1(x) WHERE NOT T(x);";
        let p = parse_program(text).unwrap();
        let reparsed = parse_program(&p.to_string()).unwrap();
        assert_eq!(p, reparsed);
    }

    #[test]
    fn validation_errors_surface() {
        // Unguarded shared variable w.
        let err = parse_query("Z := SELECT x FROM R(x, y) WHERE S(x, w) AND T(y, w);").unwrap_err();
        assert!(matches!(err, GumboError::InvalidQuery(_)));
    }
}
