//! The MiniC lexer, including a tiny object-macro preprocessor.
//!
//! The lexer turns source text into a `Vec<Token>`. Two preprocessor
//! directives are supported, enough for the benchmark suite:
//!
//! - `#define NAME <tokens...>` — object-like macros, substituted at the
//!   token level (recursively, with a depth limit).
//! - `#include ...` — ignored (the suite programs are self-contained).
//!
//! Comments (`/* */` and `//`) are skipped.

use crate::error::{CompileError, ErrorKind};
use crate::token::{Keyword, Punct, Span, Token, TokenKind};
use std::collections::HashMap;

/// Lexes `src` into tokens, applying `#define` substitution.
///
/// The returned stream always ends with a single [`TokenKind::Eof`] token.
///
/// # Errors
///
/// Returns a [`CompileError`] for unterminated strings or comments, bad
/// escapes, malformed numbers, and stray characters.
///
/// # Examples
///
/// ```
/// use minic::lexer::lex;
/// use minic::token::TokenKind;
///
/// let toks = lex("#define N 3\nint x = N;").unwrap();
/// assert!(toks.iter().any(|t| t.kind == TokenKind::Int(3)));
/// ```
pub fn lex(src: &str) -> Result<Vec<Token>, CompileError> {
    let raw = RawLexer::new(src).run()?;
    expand_macros(raw, src)
}

/// A raw token or a directive marker, before macro expansion.
enum RawItem {
    Token(Token),
    /// `#define name body` (body = raw tokens up to end of line).
    Define(String, Vec<Token>),
}

struct RawLexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> RawLexer<'a> {
    fn new(src: &'a str) -> Self {
        RawLexer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
        }
    }

    fn run(mut self) -> Result<Vec<RawItem>, CompileError> {
        let mut items = Vec::new();
        loop {
            self.skip_ws_and_comments()?;
            if self.pos >= self.bytes.len() {
                let span = Span::new(self.pos as u32, self.pos as u32);
                items.push(RawItem::Token(Token {
                    kind: TokenKind::Eof,
                    span,
                }));
                return Ok(items);
            }
            if self.bytes[self.pos] == b'#' {
                if let Some(item) = self.directive()? {
                    items.push(item);
                }
                continue;
            }
            let tok = self.next_token()?;
            items.push(RawItem::Token(tok));
        }
    }

    fn skip_ws_and_comments(&mut self) -> Result<(), CompileError> {
        loop {
            while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
                self.pos += 1;
            }
            if self.pos + 1 < self.bytes.len() && &self.bytes[self.pos..self.pos + 2] == b"//" {
                while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\n' {
                    self.pos += 1;
                }
                continue;
            }
            if self.pos + 1 < self.bytes.len() && &self.bytes[self.pos..self.pos + 2] == b"/*" {
                let start = self.pos;
                self.pos += 2;
                loop {
                    if self.pos + 1 >= self.bytes.len() {
                        return Err(self.err(start, "unterminated block comment"));
                    }
                    if &self.bytes[self.pos..self.pos + 2] == b"*/" {
                        self.pos += 2;
                        break;
                    }
                    self.pos += 1;
                }
                continue;
            }
            return Ok(());
        }
    }

    /// Skips spaces/tabs (not newlines) and non-newline comments within a
    /// directive line.
    fn skip_line_ws(&mut self) {
        while self.pos < self.bytes.len()
            && (self.bytes[self.pos] == b' ' || self.bytes[self.pos] == b'\t')
        {
            self.pos += 1;
        }
    }

    fn directive(&mut self) -> Result<Option<RawItem>, CompileError> {
        let start = self.pos;
        self.pos += 1; // '#'
        self.skip_line_ws();
        let name = self.ident_str();
        match name {
            "define" => {
                self.skip_line_ws();
                let macro_name = self.ident_str().to_string();
                if macro_name.is_empty() {
                    return Err(self.err(start, "#define requires a name"));
                }
                let mut body = Vec::new();
                loop {
                    self.skip_line_ws();
                    if self.pos >= self.bytes.len()
                        || self.bytes[self.pos] == b'\n'
                        || (self.pos + 1 < self.bytes.len()
                            && &self.bytes[self.pos..self.pos + 2] == b"//")
                    {
                        break;
                    }
                    // A block comment inside the directive is skipped
                    // like the C preprocessor does (replaced by a space).
                    if self.pos + 1 < self.bytes.len()
                        && &self.bytes[self.pos..self.pos + 2] == b"/*"
                    {
                        let cstart = self.pos;
                        self.pos += 2;
                        loop {
                            if self.pos + 1 >= self.bytes.len() {
                                return Err(self.err(cstart, "unterminated block comment"));
                            }
                            if &self.bytes[self.pos..self.pos + 2] == b"*/" {
                                self.pos += 2;
                                break;
                            }
                            self.pos += 1;
                        }
                        continue;
                    }
                    body.push(self.next_token()?);
                }
                Ok(Some(RawItem::Define(macro_name, body)))
            }
            "include" => {
                // Ignore the rest of the line.
                while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\n' {
                    self.pos += 1;
                }
                Ok(None)
            }
            other => Err(self.err(start, &format!("unsupported directive #{other}"))),
        }
    }

    fn ident_str(&mut self) -> &'a str {
        let start = self.pos;
        while self.pos < self.bytes.len()
            && (self.bytes[self.pos].is_ascii_alphanumeric() || self.bytes[self.pos] == b'_')
        {
            self.pos += 1;
        }
        &self.src[start..self.pos]
    }

    fn err(&self, at: usize, msg: &str) -> CompileError {
        CompileError::new(
            ErrorKind::Lex,
            msg.to_string(),
            Span::new(at as u32, (at + 1).min(self.bytes.len()) as u32),
        )
    }

    fn next_token(&mut self) -> Result<Token, CompileError> {
        let start = self.pos;
        let b = self.bytes[self.pos];
        let kind = if b.is_ascii_alphabetic() || b == b'_' {
            let s = self.ident_str();
            match Keyword::lookup(s) {
                Some(kw) => TokenKind::Kw(kw),
                None => TokenKind::Ident(s.to_string()),
            }
        } else if b.is_ascii_digit() {
            self.number(start)?
        } else if b == b'"' {
            self.string(start)?
        } else if b == b'\'' {
            self.char_const(start)?
        } else {
            self.punct(start)?
        };
        Ok(Token {
            kind,
            span: Span::new(start as u32, self.pos as u32),
        })
    }

    fn number(&mut self, start: usize) -> Result<TokenKind, CompileError> {
        // Hex.
        if self.bytes[self.pos] == b'0'
            && self.pos + 1 < self.bytes.len()
            && (self.bytes[self.pos + 1] | 0x20) == b'x'
        {
            self.pos += 2;
            let digits_start = self.pos;
            while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_hexdigit() {
                self.pos += 1;
            }
            let digits = &self.src[digits_start..self.pos];
            if digits.is_empty() {
                return Err(self.err(start, "hex literal needs digits"));
            }
            let v = i64::from_str_radix(digits, 16)
                .map_err(|_| self.err(start, "hex literal out of range"))?;
            self.eat_int_suffix();
            return Ok(TokenKind::Int(v));
        }
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_digit() {
            self.pos += 1;
        }
        let is_float = self.pos < self.bytes.len()
            && (self.bytes[self.pos] == b'.'
                || (self.bytes[self.pos] | 0x20) == b'e'
                    && self.pos + 1 < self.bytes.len()
                    && (self.bytes[self.pos + 1].is_ascii_digit()
                        || self.bytes[self.pos + 1] == b'-'
                        || self.bytes[self.pos + 1] == b'+'));
        if is_float {
            if self.bytes[self.pos] == b'.' {
                self.pos += 1;
                while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_digit() {
                    self.pos += 1;
                }
            }
            if self.pos < self.bytes.len() && (self.bytes[self.pos] | 0x20) == b'e' {
                self.pos += 1;
                if self.pos < self.bytes.len()
                    && (self.bytes[self.pos] == b'-' || self.bytes[self.pos] == b'+')
                {
                    self.pos += 1;
                }
                while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_digit() {
                    self.pos += 1;
                }
            }
            let text = &self.src[start..self.pos];
            let v: f64 = text
                .parse()
                .map_err(|_| self.err(start, "malformed float literal"))?;
            // Allow `f` suffix.
            if self.pos < self.bytes.len() && (self.bytes[self.pos] | 0x20) == b'f' {
                self.pos += 1;
            }
            Ok(TokenKind::Float(v))
        } else {
            let text = &self.src[start..self.pos];
            let v: i64 = if text.len() > 1 && text.starts_with('0') {
                i64::from_str_radix(&text[1..], 8)
                    .map_err(|_| self.err(start, "malformed octal literal"))?
            } else {
                text.parse()
                    .map_err(|_| self.err(start, "integer literal out of range"))?
            };
            self.eat_int_suffix();
            Ok(TokenKind::Int(v))
        }
    }

    fn eat_int_suffix(&mut self) {
        while self.pos < self.bytes.len() && matches!(self.bytes[self.pos] | 0x20, b'l' | b'u') {
            self.pos += 1;
        }
    }

    fn escape(&mut self, start: usize) -> Result<u8, CompileError> {
        self.pos += 1; // backslash
        if self.pos >= self.bytes.len() {
            return Err(self.err(start, "unterminated escape"));
        }
        let c = self.bytes[self.pos];
        self.pos += 1;
        Ok(match c {
            b'n' => b'\n',
            b't' => b'\t',
            b'r' => b'\r',
            b'0' => 0,
            b'\\' => b'\\',
            b'\'' => b'\'',
            b'"' => b'"',
            b'a' => 7,
            b'b' => 8,
            b'f' => 12,
            b'v' => 11,
            other => return Err(self.err(start, &format!("unknown escape \\{}", other as char))),
        })
    }

    fn string(&mut self, start: usize) -> Result<TokenKind, CompileError> {
        self.pos += 1; // opening quote
        let mut out = Vec::new();
        loop {
            if self.pos >= self.bytes.len() {
                return Err(self.err(start, "unterminated string literal"));
            }
            match self.bytes[self.pos] {
                b'"' => {
                    self.pos += 1;
                    break;
                }
                b'\\' => out.push(self.escape(start)?),
                c => {
                    out.push(c);
                    self.pos += 1;
                }
            }
        }
        Ok(TokenKind::Str(String::from_utf8_lossy(&out).into_owned()))
    }

    fn char_const(&mut self, start: usize) -> Result<TokenKind, CompileError> {
        self.pos += 1; // opening quote
        if self.pos >= self.bytes.len() {
            return Err(self.err(start, "unterminated char constant"));
        }
        let v = if self.bytes[self.pos] == b'\\' {
            self.escape(start)? as i64
        } else {
            let c = self.bytes[self.pos] as i64;
            self.pos += 1;
            c
        };
        if self.pos >= self.bytes.len() || self.bytes[self.pos] != b'\'' {
            return Err(self.err(start, "unterminated char constant"));
        }
        self.pos += 1;
        Ok(TokenKind::Int(v))
    }

    fn punct(&mut self, start: usize) -> Result<TokenKind, CompileError> {
        use Punct::*;
        let rest = &self.bytes[self.pos..];
        let table3: &[(&[u8], Punct)] = &[(b"<<=", ShlEq), (b">>=", ShrEq)];
        for &(pat, p) in table3 {
            if rest.starts_with(pat) {
                self.pos += 3;
                return Ok(TokenKind::Punct(p));
            }
        }
        let table2: &[(&[u8], Punct)] = &[
            (b"==", EqEq),
            (b"!=", Ne),
            (b"<=", Le),
            (b">=", Ge),
            (b"&&", AmpAmp),
            (b"||", PipePipe),
            (b"<<", Shl),
            (b">>", Shr),
            (b"+=", PlusEq),
            (b"-=", MinusEq),
            (b"*=", StarEq),
            (b"/=", SlashEq),
            (b"%=", PercentEq),
            (b"&=", AmpEq),
            (b"|=", PipeEq),
            (b"^=", CaretEq),
            (b"++", PlusPlus),
            (b"--", MinusMinus),
            (b"->", Arrow),
        ];
        for &(pat, p) in table2 {
            if rest.starts_with(pat) {
                self.pos += 2;
                return Ok(TokenKind::Punct(p));
            }
        }
        let p = match rest[0] {
            b'(' => LParen,
            b')' => RParen,
            b'{' => LBrace,
            b'}' => RBrace,
            b'[' => LBracket,
            b']' => RBracket,
            b';' => Semi,
            b',' => Comma,
            b':' => Colon,
            b'?' => Question,
            b'+' => Plus,
            b'-' => Minus,
            b'*' => Star,
            b'/' => Slash,
            b'%' => Percent,
            b'&' => Amp,
            b'|' => Pipe,
            b'^' => Caret,
            b'~' => Tilde,
            b'!' => Bang,
            b'<' => Lt,
            b'>' => Gt,
            b'=' => Assign,
            b'.' => Dot,
            other => {
                return Err(self.err(start, &format!("stray character `{}`", other as char)));
            }
        };
        self.pos += 1;
        Ok(TokenKind::Punct(p))
    }
}

/// Applies object-macro substitution to the raw item stream.
fn expand_macros(items: Vec<RawItem>, _src: &str) -> Result<Vec<Token>, CompileError> {
    const MAX_DEPTH: usize = 16;
    let mut macros: HashMap<String, Vec<Token>> = HashMap::new();
    let mut out = Vec::new();

    fn push_expanded(
        tok: Token,
        macros: &HashMap<String, Vec<Token>>,
        out: &mut Vec<Token>,
        depth: usize,
    ) -> Result<(), CompileError> {
        if let TokenKind::Ident(name) = &tok.kind {
            if let Some(body) = macros.get(name) {
                if depth >= MAX_DEPTH {
                    return Err(CompileError::new(
                        ErrorKind::Lex,
                        format!("macro `{name}` expands too deeply (recursive #define?)"),
                        tok.span,
                    ));
                }
                for t in body {
                    // Re-span replacement tokens at the use site so
                    // diagnostics point at the macro use.
                    let mut t = t.clone();
                    t.span = tok.span;
                    push_expanded(t, macros, out, depth + 1)?;
                }
                return Ok(());
            }
        }
        out.push(tok);
        Ok(())
    }

    for item in items {
        match item {
            RawItem::Define(name, body) => {
                macros.insert(name, body);
            }
            RawItem::Token(tok) => push_expanded(tok, &macros, &mut out, 0)?,
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_basic_tokens() {
        let ks = kinds("int x = 42;");
        assert_eq!(
            ks,
            vec![
                TokenKind::Kw(Keyword::Int),
                TokenKind::Ident("x".into()),
                TokenKind::Punct(Punct::Assign),
                TokenKind::Int(42),
                TokenKind::Punct(Punct::Semi),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_numbers() {
        assert_eq!(kinds("0x1f")[0], TokenKind::Int(31));
        assert_eq!(kinds("010")[0], TokenKind::Int(8));
        assert_eq!(kinds("3.5")[0], TokenKind::Float(3.5));
        assert_eq!(kinds("1e3")[0], TokenKind::Float(1000.0));
        assert_eq!(kinds("2.5e-1")[0], TokenKind::Float(0.25));
        assert_eq!(kinds("100L")[0], TokenKind::Int(100));
        assert_eq!(kinds("7UL")[0], TokenKind::Int(7));
    }

    #[test]
    fn lexes_strings_and_chars() {
        assert_eq!(kinds(r#""a\nb""#)[0], TokenKind::Str("a\nb".into()));
        assert_eq!(kinds("'a'")[0], TokenKind::Int(97));
        assert_eq!(kinds(r"'\n'")[0], TokenKind::Int(10));
        assert_eq!(kinds(r"'\0'")[0], TokenKind::Int(0));
    }

    #[test]
    fn lexes_multi_char_operators() {
        let ks = kinds("a <<= b >>= c -> d ++ <= >= == != && ||");
        assert!(ks.contains(&TokenKind::Punct(Punct::ShlEq)));
        assert!(ks.contains(&TokenKind::Punct(Punct::ShrEq)));
        assert!(ks.contains(&TokenKind::Punct(Punct::Arrow)));
        assert!(ks.contains(&TokenKind::Punct(Punct::PlusPlus)));
    }

    #[test]
    fn skips_comments() {
        let ks = kinds("a /* b \n c */ d // e\n f");
        assert_eq!(
            ks,
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Ident("d".into()),
                TokenKind::Ident("f".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn define_substitutes() {
        let ks = kinds("#define N 10\n#define M (N + 1)\nM");
        assert_eq!(
            ks,
            vec![
                TokenKind::Punct(Punct::LParen),
                TokenKind::Int(10),
                TokenKind::Punct(Punct::Plus),
                TokenKind::Int(1),
                TokenKind::Punct(Punct::RParen),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn include_is_ignored() {
        let ks = kinds("#include <stdio.h>\nint");
        assert_eq!(ks, vec![TokenKind::Kw(Keyword::Int), TokenKind::Eof]);
    }

    #[test]
    fn recursive_macro_errors() {
        assert!(lex("#define A A\nA").is_err());
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(lex("\"abc").is_err());
        assert!(lex("/* abc").is_err());
        assert!(lex("'a").is_err());
    }

    #[test]
    fn stray_char_errors() {
        assert!(lex("@").is_err());
    }

    #[test]
    fn eof_is_last() {
        let toks = lex("").unwrap();
        assert_eq!(toks.len(), 1);
        assert_eq!(toks[0].kind, TokenKind::Eof);
    }
}
