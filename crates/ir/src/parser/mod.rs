//! Parser for the textual IR format produced by [`crate::printer`].
//!
//! # Streaming, in two phases
//!
//! The lexer (`parser/lexer.rs`) hands out one borrowed token at a time;
//! the parser keeps the current token plus, only where a block label may
//! start, a second one. No token vector and no owned name is built:
//! identifiers and unquoted `%`/`@` names are slices of the input.
//!
//! * **Phase 1** reads the module, interning types and globals into the
//!   [`Module`] as they are read. Each definition's body goes into a
//!   borrowed AST — a `Vec` of instructions whose operands and branch
//!   labels are ranges into two more arrays — that is emptied and reused
//!   for the next definition, so it stays the size of one function.
//! * **Phase 2** (`parser/resolve.rs`) builds a definition as soon as
//!   phase 1 has read its closing brace, while its AST is still in cache:
//!   it lays out the instructions in block order, resolves their operands
//!   in instruction order, and fills the function's constant map on the
//!   way (the function keeps that map; nothing rebuilds it). Locals and
//!   labels in the printer's own spellings (`%7`, `%p0`) resolve through
//!   dense per-function tables; any other spelling goes through a hash
//!   map. Callees and `@name` operands may point forwards, so they are
//!   resolved once the whole module is read, after every function name is
//!   registered.
//!
//! # Same module, same errors
//!
//! The output is pinned down to arena order, because the rolling engine
//! walks arenas in id order and its decisions, statistics and output
//! bytes follow from it; `tests/parser_pinned.rs` digests the RLIR
//! encoding (an arena dump) of parsed corpora. Everything that interns
//! does so in a fixed order — types while phase 1 reads them, then per
//! function the parameters, the instruction results in block order, and
//! the constants and global/function addresses in operand order — so a
//! given text always yields the same type, value, instruction and
//! constant ids.
//!
//! Errors are precedence-ordered the way a lex-everything-first parser
//! orders them: any lex error in the module beats any syntax error (after
//! a syntax error the rest of the input is still lexed, looking for one),
//! and every syntax error beats every resolution error. Of those, the
//! first in module order is reported: all function-name clashes first,
//! then each function's errors in the order a function-at-a-time build
//! meets them. Positions are byte offsets while parsing and turn into a
//! 1-based line and a column in characters only when an error is
//! reported.

mod lexer;
mod resolve;

pub(crate) use lexer::{is_bare_label, is_plain_symbol};

use std::borrow::Cow;
use std::fmt;

use crate::function::Effects;
use crate::inst::{FloatPredicate, IntPredicate, Opcode};
use crate::module::{GlobalData, GlobalInit, Module};
use crate::types::{TypeId, TypeKind};

use lexer::{Lexer, Tok};
use resolve::{FuncDef, Resolver};

/// How deeply array and struct types may nest.
pub const MAX_TYPE_DEPTH: usize = 256;

/// Error produced when parsing IR text.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Human-readable message.
    pub message: String,
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number (in characters).
    pub col: u32,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at line {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// An error while parsing, positioned by byte offset. Boxed, so that the
/// `Result`s every parsing step returns stay a word or two wide.
#[derive(Debug)]
struct Error(Box<ErrorData>);

#[derive(Debug)]
struct ErrorData {
    offset: usize,
    message: String,
    /// Raised by the lexer (and so outranking any other error).
    lex: bool,
}

impl Error {
    fn new(offset: usize, message: impl Into<String>, lex: bool) -> Self {
        Error(Box::new(ErrorData {
            offset,
            message: message.into(),
            lex,
        }))
    }

    fn lex(offset: usize, message: impl Into<String>) -> Self {
        Error::new(offset, message, true)
    }

    fn at(offset: usize, message: impl Into<String>) -> Self {
        Error::new(offset, message, false)
    }

    fn located(self, input: &str) -> ParseError {
        let (line, col) = lexer::position(input, self.0.offset);
        ParseError {
            message: self.0.message,
            line,
            col,
        }
    }
}

type Result<T> = std::result::Result<T, Error>;

/// Parses a complete module from IR text.
///
/// # Errors
///
/// Returns a [`ParseError`] with a line and column on malformed input or
/// unresolved references.
pub fn parse_module(input: &str) -> std::result::Result<Module, ParseError> {
    let mut parser = Parser::new(input);
    let funcs = match parser.module() {
        Ok(funcs) => funcs,
        Err(e) => return Err(parser.first_lex_error(e).located(input)),
    };
    resolve::link(parser.module, funcs).map_err(|e| e.located(input))
}

/// A name as written after `%`/`@` or as a label: a slice of the input
/// unless decoding escapes forced a copy.
type Name<'a> = Cow<'a, str>;

#[derive(Debug)]
enum OperandAst<'a> {
    Local(Name<'a>),
    CInt(TypeId, i64),
    CFloat(TypeId, f64),
    /// Bit-exact float constant (`0x...` spelling).
    CFloatBits(TypeId, u64),
    Ref(Name<'a>),
    Undef(TypeId),
}

/// Opcode payload as far as phase 1 can know it.
#[derive(Debug)]
enum ExtraAst<'a> {
    None,
    Icmp(IntPredicate),
    Fcmp(FloatPredicate),
    /// `gep`/`alloca` element type.
    ElemTy(TypeId),
    Callee(Name<'a>),
}

/// A `start..end` range into one of the arrays of a `BodyAst`.
type Span = (u32, u32);

#[derive(Debug)]
struct InstAst<'a> {
    offset: usize,
    result: Option<Name<'a>>,
    opcode: Opcode,
    ty: TypeId,
    extra: ExtraAst<'a>,
    /// Into the body's operand array.
    operands: Span,
    /// Into the body's label array: phi incoming blocks, branch
    /// targets.
    labels: Span,
}

/// The AST of the definition being read: the parameter names, each
/// block's label and the end of its instructions, and the instructions,
/// whose operands and labels are ranges into the last two arrays. Cleared
/// and refilled for each definition.
#[derive(Debug, Default)]
struct BodyAst<'a> {
    param_names: Vec<Name<'a>>,
    blocks: Vec<(Name<'a>, u32)>,
    insts: Vec<InstAst<'a>>,
    operands: Vec<OperandAst<'a>>,
    labels: Vec<Name<'a>>,
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    tok: Tok<'a>,
    /// Byte offset of `tok`.
    offset: usize,
    /// The token after `tok`, once something peeked at it.
    ahead: Option<(Tok<'a>, usize)>,
    module: Module,
    body: BodyAst<'a>,
    resolver: Resolver<'a>,
}

fn span(start: usize, end: usize) -> Span {
    (start as u32, end as u32)
}

/// The width `digits` spells after the `i` of an integer type name, as
/// `u16::from_str` reads it (an identifier holds no sign): `None` unless
/// it is one or more decimal digits below 65,536.
fn int_width(digits: &[u8]) -> Option<u16> {
    if digits.is_empty() {
        return None;
    }
    let mut width: u16 = 0;
    for &d in digits {
        if !d.is_ascii_digit() {
            return None;
        }
        width = width.checked_mul(10)?.checked_add(u16::from(d - b'0'))?;
    }
    Some(width)
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            lexer: Lexer::new(input),
            tok: Tok::Eof,
            offset: 0,
            ahead: None,
            module: Module::new(""),
            body: BodyAst::default(),
            resolver: Resolver::default(),
        }
    }

    /// Makes the next token current.
    fn advance(&mut self) -> Result<()> {
        let (tok, offset) = match self.ahead.take() {
            Some(next) => next,
            None => self.lexer.next_token()?,
        };
        self.offset = offset;
        self.tok = tok;
        Ok(())
    }

    /// Makes the next token current and returns the previous one.
    fn bump(&mut self) -> Result<Tok<'a>> {
        let tok = std::mem::replace(&mut self.tok, Tok::Eof);
        self.advance()?;
        Ok(tok)
    }

    /// The token after the current one.
    fn peek2(&mut self) -> Result<&Tok<'a>> {
        if self.ahead.is_none() {
            self.ahead = Some(self.lexer.next_token()?);
        }
        Ok(&self.ahead.as_ref().expect("just filled").0)
    }

    /// Picks the error to report for a failed phase 1: `e` unless the rest
    /// of the input holds a lex error, which outranks it.
    fn first_lex_error(&mut self, e: Error) -> Error {
        if e.0.lex {
            return e;
        }
        loop {
            match self.lexer.next_token() {
                Ok((Tok::Eof, _)) => return e,
                Ok(_) => {}
                Err(lex) => return lex,
            }
        }
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T> {
        Err(Error::at(self.offset, message))
    }

    fn at(&self, tok: &Tok<'_>) -> bool {
        std::mem::discriminant(&self.tok) == std::mem::discriminant(tok)
    }

    fn eat(&mut self, tok: &Tok<'_>) -> Result<bool> {
        let hit = self.at(tok);
        if hit {
            self.advance()?;
        }
        Ok(hit)
    }

    /// Consumes the punctuation token `want` (compared by kind only).
    fn expect(&mut self, want: &Tok<'_>) -> Result<()> {
        if self.eat(want)? {
            Ok(())
        } else {
            self.err(format!("expected {want}, found {}", self.tok))
        }
    }

    fn expect_ident(&mut self) -> Result<&'a str> {
        match self.tok {
            Tok::Ident(s) => {
                self.advance()?;
                Ok(s)
            }
            ref other => self.err(format!("expected identifier, found {other}")),
        }
    }

    /// Consumes the current token, a `%`/`@` name or a string the caller
    /// has matched, and returns its text.
    fn take_text(&mut self) -> Result<Name<'a>> {
        match self.bump()? {
            Tok::Local(s) | Tok::Global(s) | Tok::Str(s) => Ok(s),
            other => unreachable!("no text in {other}"),
        }
    }

    fn expect_global(&mut self) -> Result<Name<'a>> {
        match self.tok {
            Tok::Global(_) => self.take_text(),
            ref other => self.err(format!("expected @name, found {other}")),
        }
    }

    fn expect_local(&mut self) -> Result<Name<'a>> {
        match self.tok {
            Tok::Local(_) => self.take_text(),
            ref other => self.err(format!("expected %name, found {other}")),
        }
    }

    fn expect_int(&mut self) -> Result<i64> {
        match self.tok {
            Tok::Int(v) => {
                self.advance()?;
                Ok(v)
            }
            ref other => self.err(format!("expected integer, found {other}")),
        }
    }

    /// A block label, bare or quoted, where one is defined or referenced.
    fn expect_label(&mut self) -> Result<Name<'a>> {
        match self.tok {
            Tok::Ident(s) => {
                self.advance()?;
                Ok(Cow::Borrowed(s))
            }
            Tok::Str(_) => self.take_text(),
            ref other => self.err(format!("expected identifier, found {other}")),
        }
    }

    fn skip_newlines(&mut self) -> Result<()> {
        while let Tok::Newline = self.tok {
            self.advance()?;
        }
        Ok(())
    }

    fn expect_end_of_stmt(&mut self) -> Result<()> {
        match self.tok {
            Tok::Newline => {
                self.advance()?;
                Ok(())
            }
            Tok::Eof | Tok::RBrace => Ok(()),
            ref other => self.err(format!("expected end of line, found {other}")),
        }
    }

    fn at_type_start(&self) -> bool {
        match self.tok {
            Tok::LBracket | Tok::LBrace => true,
            Tok::Ident(s) => match s.as_bytes() {
                [b'i', digits @ ..] => !digits.is_empty() && digits.iter().all(u8::is_ascii_digit),
                b"void" | b"ptr" | b"float" | b"double" => true,
                _ => false,
            },
            _ => false,
        }
    }

    fn parse_type(&mut self) -> Result<TypeId> {
        self.parse_type_at(0)
    }

    /// [`Parser::parse_type`] inside `depth` enclosing array and struct
    /// types. The depth is capped, so a hostile type cannot recurse the
    /// parser off its stack.
    fn parse_type_at(&mut self, depth: usize) -> Result<TypeId> {
        match self.tok {
            Tok::LBracket | Tok::LBrace if depth == MAX_TYPE_DEPTH => {
                self.err(format!("type nesting deeper than {MAX_TYPE_DEPTH} levels"))
            }
            Tok::Ident(s) => {
                self.advance()?;
                let types = &self.module.types;
                match s.as_bytes() {
                    b"void" => Ok(types.void()),
                    b"ptr" => Ok(types.ptr()),
                    b"float" => Ok(types.float()),
                    b"double" => Ok(types.double()),
                    [b'i', digits @ ..] => {
                        let Some(width) = int_width(digits) else {
                            return self.err(format!("bad type name {s}"));
                        };
                        // The common widths are pre-interned: skip the hash.
                        Ok(match width {
                            1 => types.i1(),
                            8 => types.i8(),
                            16 => types.i16(),
                            32 => types.i32(),
                            64 => types.i64(),
                            _ if (1..=128).contains(&width) => self.module.types.int(width),
                            _ => return self.err(format!("invalid integer width {width}")),
                        })
                    }
                    _ => self.err(format!("unknown type {s}")),
                }
            }
            Tok::LBracket => {
                self.advance()?;
                let len = self.expect_int()?;
                if len < 0 {
                    return self.err("negative array length");
                }
                let x = self.expect_ident()?;
                if x != "x" {
                    return self.err(format!("expected 'x' in array type, found {x}"));
                }
                let elem = self.parse_type_at(depth + 1)?;
                self.expect(&Tok::RBracket)?;
                Ok(self.module.types.array(elem, len as u64))
            }
            Tok::LBrace => {
                self.advance()?;
                let mut fields = Vec::new();
                loop {
                    fields.push(self.parse_type_at(depth + 1)?);
                    if !self.eat(&Tok::Comma)? {
                        break;
                    }
                }
                self.expect(&Tok::RBrace)?;
                Ok(self.module.types.struct_(fields))
            }
            ref other => self.err(format!("expected type, found {other}")),
        }
    }

    fn parse_operand(&mut self) -> Result<OperandAst<'a>> {
        match self.tok {
            Tok::Local(_) => Ok(OperandAst::Local(self.take_text()?)),
            Tok::Global(_) => Ok(OperandAst::Ref(self.take_text()?)),
            _ if self.at_type_start() => {
                let ty = self.parse_type()?;
                let is_float = self.module.types.is_float(ty);
                let operand = match self.tok {
                    Tok::Int(v) if is_float => OperandAst::CFloat(ty, v as f64),
                    Tok::Int(v) => OperandAst::CInt(ty, v),
                    Tok::Float(v) => OperandAst::CFloat(ty, v),
                    Tok::HexBits(bits) if is_float => OperandAst::CFloatBits(ty, bits),
                    Tok::HexBits(bits) => OperandAst::CInt(ty, bits as i64),
                    Tok::Ident("undef") => OperandAst::Undef(ty),
                    ref other => {
                        return self.err(format!("expected constant after type, found {other}"))
                    }
                };
                self.advance()?;
                Ok(operand)
            }
            ref other => self.err(format!("expected operand, found {other}")),
        }
    }

    /// Parses an operand into the body's operand array.
    fn push_operand(&mut self) -> Result<()> {
        let operand = self.parse_operand()?;
        self.body.operands.push(operand);
        Ok(())
    }

    /// `a, b` into the body's operand array.
    fn push_operand_pair(&mut self) -> Result<()> {
        self.push_operand()?;
        self.expect(&Tok::Comma)?;
        self.push_operand()
    }

    fn push_label(&mut self) -> Result<()> {
        let label = self.expect_label()?;
        self.body.labels.push(label);
        Ok(())
    }

    /// Phase 1: the whole module. Globals and types go straight into
    /// `self.module`; each definition's body is built as soon as it is
    /// read, and functions come back as headers with their bodies.
    fn module(&mut self) -> Result<Vec<FuncDef<'a>>> {
        self.advance()?;
        self.skip_newlines()?;
        if self.tok != Tok::Ident("module") {
            return self.err(format!("expected module, found {}", self.tok));
        }
        self.advance()?;
        // A bad name is reported at the token after it, unlike the other
        // "expected" errors (`tests/parser_pinned.rs` pins the position).
        let name = match self.bump()? {
            Tok::Str(s) => s,
            other => return self.err(format!("expected module name string, found {other}")),
        };
        self.module.name = name.into_owned();
        self.expect_end_of_stmt()?;

        let mut funcs = Vec::new();
        loop {
            self.skip_newlines()?;
            match self.tok {
                Tok::Eof => break,
                Tok::Ident(kw @ ("global" | "const")) => {
                    self.advance()?;
                    self.parse_global(kw == "const")?;
                }
                Tok::Ident("declare") => {
                    self.advance()?;
                    funcs.push(self.parse_func_header(true)?);
                }
                Tok::Ident("func") => {
                    self.advance()?;
                    let mut def = self.parse_func_header(false)?;
                    self.parse_func_body()?;
                    def.body = Some(self.resolver.body(&self.body, &def.param_tys, def.offset));
                    funcs.push(def);
                }
                ref other => return self.err(format!("expected top-level item, found {other}")),
            }
        }
        Ok(funcs)
    }

    fn parse_global(&mut self, is_const: bool) -> Result<()> {
        let offset = self.offset;
        let name = self.expect_global()?;
        if self.module.global_by_name(&name).is_some() {
            return Err(Error::at(offset, format!("global @{name} defined twice")));
        }
        self.expect(&Tok::Colon)?;
        let ty = self.parse_type()?;
        self.expect(&Tok::Eq)?;
        // The declared length sizes a list's vector, within the bound its
        // line puts on it.
        let expect = match *self.module.types.kind(ty) {
            TypeKind::Array { len, .. } => len,
            _ => 0,
        };
        let init = match self.expect_ident()? {
            "zero" => GlobalInit::Zero,
            "ints" => {
                let elem_ty = self.parse_type()?;
                let values = match self.printed_int_list(expect, Some)? {
                    Some(values) => values,
                    None => self.int_list(|_| Ok(()))?,
                };
                GlobalInit::Ints { elem_ty, values }
            }
            "bytes" => match self.printed_int_list(expect, |v| u8::try_from(v).ok())? {
                Some(values) => GlobalInit::Bytes(values),
                None => {
                    let values = self.int_list(|v| {
                        if (0..=255).contains(&v) {
                            Ok(())
                        } else {
                            Err(format!("byte out of range: {v}"))
                        }
                    })?;
                    GlobalInit::Bytes(values.into_iter().map(|v| v as u8).collect())
                }
            },
            other => return self.err(format!("unknown global initializer {other}")),
        };
        self.module.add_global(GlobalData {
            name: name.into_owned(),
            ty,
            init,
            is_const,
        });
        self.expect_end_of_stmt()
    }

    /// `[a, b, ...]` spelled as the printer spells it, read by the lexer
    /// in one loop over the bytes (`Lexer::int_list`), each element
    /// converted by `elem`; `None` when the list is spelled otherwise or
    /// holds a value `elem` refuses, and then nothing is consumed.
    fn printed_int_list<T>(
        &mut self,
        expect: u64,
        elem: impl Fn(i64) -> Option<T>,
    ) -> Result<Option<Vec<T>>> {
        // The lexer's cursor is just past the `[` only if nothing after it
        // was peeked at.
        if !self.at(&Tok::LBracket) || self.ahead.is_some() {
            return Ok(None);
        }
        let Some(values) = self.lexer.int_list(expect, elem) else {
            return Ok(None);
        };
        // The token after the `]`, as the token path lexes it.
        self.advance()?;
        Ok(Some(values))
    }

    /// `[a, b, ...]`, each element passing `check` (whose error is
    /// reported at the token after the element).
    fn int_list(
        &mut self,
        check: impl Fn(i64) -> std::result::Result<(), String>,
    ) -> Result<Vec<i64>> {
        self.expect(&Tok::LBracket)?;
        let mut values = Vec::new();
        if !self.at(&Tok::RBracket) {
            loop {
                let v = self.expect_int()?;
                if let Err(message) = check(v) {
                    return self.err(message);
                }
                values.push(v);
                if !self.eat(&Tok::Comma)? {
                    break;
                }
            }
        }
        self.expect(&Tok::RBracket)?;
        Ok(values)
    }

    /// A function header; its parameter names go to `self.body`.
    fn parse_func_header(&mut self, is_decl: bool) -> Result<FuncDef<'a>> {
        let offset = self.offset;
        let name = self.expect_global()?;
        self.expect(&Tok::LParen)?;
        let mut param_tys = Vec::new();
        self.body.param_names.clear();
        if !self.at(&Tok::RParen) {
            loop {
                let ty = self.parse_type()?;
                let param_offset = self.offset;
                let pname = self.expect_local()?;
                if self.body.param_names.contains(&pname) {
                    return Err(Error::at(
                        param_offset,
                        format!("parameter %{pname} defined twice"),
                    ));
                }
                param_tys.push(ty);
                self.body.param_names.push(pname);
                if !self.eat(&Tok::Comma)? {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen)?;
        self.expect(&Tok::Arrow)?;
        let ret_ty = self.parse_type()?;
        let mut effects = Effects::ReadWrite;
        if is_decl {
            if let Tok::Ident(s) = self.tok {
                if let Some(e) = Effects::from_mnemonic(s) {
                    self.advance()?;
                    effects = e;
                }
            }
            self.expect_end_of_stmt()?;
        }
        Ok(FuncDef {
            offset,
            name,
            param_tys,
            ret_ty,
            effects,
            body: None,
        })
    }

    /// True at `label :`, where a new block starts.
    fn at_label(&mut self) -> Result<bool> {
        Ok(matches!(self.tok, Tok::Ident(_) | Tok::Str(_)) && matches!(self.peek2()?, Tok::Colon))
    }

    /// A definition's body, into `self.body`.
    fn parse_func_body(&mut self) -> Result<()> {
        self.expect(&Tok::LBrace)?;
        let body = &mut self.body;
        body.blocks.clear();
        body.insts.clear();
        body.operands.clear();
        body.labels.clear();
        loop {
            self.skip_newlines()?;
            if self.eat(&Tok::RBrace)? {
                return self.expect_end_of_stmt();
            }
            let label = self.expect_label()?;
            self.expect(&Tok::Colon)?;
            self.expect_end_of_stmt()?;
            loop {
                self.skip_newlines()?;
                if self.at(&Tok::RBrace) || self.at_label()? {
                    break;
                }
                let inst = self.parse_inst()?;
                self.body.insts.push(inst);
            }
            let end = self.body.insts.len() as u32;
            self.body.blocks.push((label, end));
        }
    }

    fn parse_inst(&mut self) -> Result<InstAst<'a>> {
        let offset = self.offset;
        let result = match self.tok {
            Tok::Local(_) => {
                let name = self.take_text()?;
                self.expect(&Tok::Eq)?;
                Some(name)
            }
            _ => None,
        };
        let mnemonic = self.expect_ident()?;
        let Some(opcode) = Opcode::from_mnemonic(mnemonic) else {
            return Err(Error::at(offset, format!("unknown opcode {mnemonic}")));
        };
        let (operands, labels) = (self.body.operands.len(), self.body.labels.len());
        let types = &self.module.types;
        let (void, i1, ptr) = (types.void(), types.i1(), types.ptr());
        let mut extra = ExtraAst::None;
        let ty = match opcode {
            op if op.is_binop() => {
                let ty = self.parse_type()?;
                self.push_operand_pair()?;
                ty
            }
            Opcode::Icmp => {
                let p = self.expect_ident()?;
                let Some(pred) = IntPredicate::from_mnemonic(p) else {
                    return Err(Error::at(offset, format!("unknown icmp predicate {p}")));
                };
                extra = ExtraAst::Icmp(pred);
                self.push_operand_pair()?;
                i1
            }
            Opcode::Fcmp => {
                let p = self.expect_ident()?;
                let Some(pred) = FloatPredicate::from_mnemonic(p) else {
                    return Err(Error::at(offset, format!("unknown fcmp predicate {p}")));
                };
                extra = ExtraAst::Fcmp(pred);
                self.push_operand_pair()?;
                i1
            }
            Opcode::Select => {
                let ty = self.parse_type()?;
                self.push_operand()?;
                for _ in 0..2 {
                    self.expect(&Tok::Comma)?;
                    self.push_operand()?;
                }
                ty
            }
            op if op.is_cast() => {
                let ty = self.parse_type()?;
                self.push_operand()?;
                ty
            }
            Opcode::Alloca => {
                extra = ExtraAst::ElemTy(self.parse_type()?);
                if self.eat(&Tok::Comma)? {
                    self.push_operand()?;
                }
                ptr
            }
            Opcode::Load => {
                let ty = self.parse_type()?;
                self.expect(&Tok::Comma)?;
                self.push_operand()?;
                ty
            }
            Opcode::Store => {
                self.push_operand_pair()?;
                void
            }
            Opcode::Gep => {
                extra = ExtraAst::ElemTy(self.parse_type()?);
                self.expect(&Tok::Comma)?;
                self.push_operand()?;
                while self.eat(&Tok::Comma)? {
                    self.push_operand()?;
                }
                ptr
            }
            Opcode::Call => {
                let ty = self.parse_type()?;
                extra = ExtraAst::Callee(self.expect_global()?);
                self.expect(&Tok::LParen)?;
                if !self.at(&Tok::RParen) {
                    loop {
                        self.push_operand()?;
                        if !self.eat(&Tok::Comma)? {
                            break;
                        }
                    }
                }
                self.expect(&Tok::RParen)?;
                ty
            }
            Opcode::Phi => {
                let ty = self.parse_type()?;
                loop {
                    self.expect(&Tok::LBracket)?;
                    self.push_operand()?;
                    self.expect(&Tok::Comma)?;
                    self.push_label()?;
                    self.expect(&Tok::RBracket)?;
                    if !self.eat(&Tok::Comma)? {
                        break;
                    }
                }
                ty
            }
            Opcode::Br => {
                self.push_label()?;
                void
            }
            Opcode::CondBr => {
                self.push_operand()?;
                self.expect(&Tok::Comma)?;
                self.push_label()?;
                self.expect(&Tok::Comma)?;
                self.push_label()?;
                void
            }
            Opcode::Ret => {
                if !matches!(self.tok, Tok::Newline | Tok::Eof | Tok::RBrace) {
                    self.push_operand()?;
                }
                void
            }
            Opcode::Unreachable => void,
            other => return self.err(format!("cannot parse opcode {other:?}")),
        };
        self.expect_end_of_stmt()?;
        Ok(InstAst {
            offset,
            result,
            opcode,
            ty,
            extra,
            operands: span(operands, self.body.operands.len()),
            labels: span(labels, self.body.labels.len()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::printer::print_module;
    use crate::value::ValueId;

    const SAMPLE: &str = r#"
module "demo"
const @tab : [3 x i32] = ints i32 [1, 2, 3]
declare @ext(ptr %p0) -> void readwrite

func @f(i32 %p0, ptr %p1) -> i32 {
entry:
  %2 = add i32 %p0, i32 1
  %3 = gep i32, %p1, %2
  store %2, %3
  call void @ext(%p1)
  %4 = icmp slt %2, %p0
  condbr %4, then, exit
then:
  br exit
exit:
  %5 = phi i32 [ %2, entry ], [ i32 0, then ]
  ret %5
}
"#;

    #[test]
    fn int_widths_read_as_u16_parse_reads_them() {
        let mut names: Vec<String> = (0..=70_000).step_by(7).map(|w| w.to_string()).collect();
        names.extend(
            [
                "",
                "0",
                "00032",
                "65535",
                "65536",
                "99999999999",
                "3x",
                "x3",
                "1.5",
            ]
            .map(String::from),
        );
        for digits in names {
            assert_eq!(
                int_width(digits.as_bytes()),
                digits.parse::<u16>().ok(),
                "{digits:?}"
            );
        }
    }

    #[test]
    fn parse_and_reprint_round_trip() {
        let m = parse_module(SAMPLE).expect("parse failed");
        let printed = print_module(&m);
        let m2 = parse_module(&printed).expect("re-parse failed");
        let printed2 = print_module(&m2);
        assert_eq!(printed, printed2, "printing must be a fixed point");
    }

    #[test]
    fn parse_resolves_globals_and_calls() {
        let m = parse_module(SAMPLE).unwrap();
        assert!(m.global_by_name("tab").is_some());
        let f = m.func(m.func_by_name("f").unwrap());
        assert_eq!(f.num_blocks(), 3);
        assert_eq!(f.num_live_insts(), 9);
    }

    #[test]
    fn forward_call_references_work() {
        let text = r#"
module "fwd"
func @a() -> void {
entry:
  call void @b()
  ret
}
func @b() -> void {
entry:
  ret
}
"#;
        let m = parse_module(text).unwrap();
        assert_eq!(m.num_funcs(), 2);
    }

    #[test]
    fn unknown_value_is_an_error() {
        let text = "module \"e\"\nfunc @f() -> void {\nentry:\n  ret %nope\n}\n";
        let err = parse_module(text).unwrap_err();
        assert!(err.message.contains("unknown value"));
    }

    #[test]
    fn unknown_opcode_is_an_error() {
        let text = "module \"e\"\nfunc @f() -> void {\nentry:\n  frobnicate\n}\n";
        assert!(parse_module(text).is_err());
    }

    #[test]
    fn duplicate_definition_is_an_error() {
        let text = "module \"e\"\nfunc @f(i32 %p0) -> void {\nentry:\n  %1 = add i32 %p0, i32 1\n  %1 = add i32 %p0, i32 2\n  ret\n}\n";
        let err = parse_module(text).unwrap_err();
        assert!(err.message.contains("defined twice"));
    }

    #[test]
    fn duplicate_global_is_a_spanned_error() {
        let text = "module \"e\"\nglobal @g : i32 = zero\nglobal @g : i64 = zero\n";
        let err = parse_module(text).unwrap_err();
        assert!(err.message.contains("global @g defined twice"));
        assert_eq!((err.line, err.col), (3, 8));
    }

    #[test]
    fn duplicate_function_is_a_spanned_error() {
        let text = "module \"e\"\nfunc @f() -> void {\nentry:\n  ret\n}\nfunc @f() -> void {\nentry:\n  ret\n}\n";
        let err = parse_module(text).unwrap_err();
        assert!(err.message.contains("function @f defined twice"));
        assert_eq!(err.line, 6);
    }

    #[test]
    fn global_function_name_clash_is_an_error() {
        let text = "module \"e\"\nglobal @f : i32 = zero\nfunc @f() -> void {\nentry:\n  ret\n}\n";
        let err = parse_module(text).unwrap_err();
        assert!(err.message.contains("both a global and a function"));
    }

    #[test]
    fn duplicate_parameter_is_a_spanned_error() {
        let text = "module \"e\"\nfunc @f(i32 %a, i64 %a) -> void {\nentry:\n  ret\n}\n";
        let err = parse_module(text).unwrap_err();
        assert!(err.message.contains("parameter %a defined twice"));
        assert_eq!((err.line, err.col), (2, 21));
    }

    #[test]
    fn lex_errors_outrank_earlier_syntax_errors() {
        let text = "module \"e\"\nbogus\nglobal @g : i32 = zero $\n";
        let err = parse_module(text).unwrap_err();
        assert_eq!(
            (err.line, err.col, err.message.as_str()),
            (3, 24, "unexpected character '$'")
        );
    }

    #[test]
    fn canonical_and_other_spellings_are_distinct_names() {
        let text = "module \"n\"\nfunc @f(i32 %a) -> i32 {\nentry:\n  %1 = add i32 %a, %a\n  %01 = add i32 %1, %1\n  ret %01\n}\n";
        let m = parse_module(text).unwrap();
        let f = m.func(m.func_by_name("f").unwrap());
        assert_eq!(f.num_live_insts(), 3);
        let bad =
            "module \"n\"\nfunc @f(i32 %a) -> i32 {\nentry:\n  %1 = add i32 %a, %a\n  ret %01\n}\n";
        assert_eq!(parse_module(bad).unwrap_err().message, "unknown value %01");
    }

    #[test]
    fn non_finite_floats_round_trip_bit_exactly() {
        use crate::value::ValueDef;
        let text = "module \"f\"\nfunc @f() -> double {\nentry:\n  %0 = fadd double double 0x7ff0000000000000, double 0x7ff8000000000dea\n  ret %0\n}\n";
        let m = parse_module(text).unwrap();
        let printed = print_module(&m);
        assert!(printed.contains("0x7ff0000000000000"));
        assert!(printed.contains("0x7ff8000000000dea"));
        let m2 = parse_module(&printed).unwrap();
        let f = m2.func(m2.func_by_name("f").unwrap());
        let bits: Vec<u64> = (0..f.num_values())
            .filter_map(|i| match f.value(ValueId::from_index(i)) {
                ValueDef::ConstFloat { bits, .. } => Some(*bits),
                _ => None,
            })
            .collect();
        assert!(bits.contains(&0x7ff0000000000000));
        assert!(bits.contains(&0x7ff8000000000dea));
    }

    #[test]
    fn escaped_names_round_trip() {
        let mut m = Module::new("has \"quotes\"\nand newline");
        let ty = m.types.i32();
        m.add_zero_global("weird name/\\", ty);
        let printed = print_module(&m);
        let m2 = parse_module(&printed).expect("escaped output must re-parse");
        assert_eq!(m2.name, m.name);
        assert!(m2.global_by_name("weird name/\\").is_some());
        assert_eq!(printed, print_module(&m2));
    }

    #[test]
    fn struct_and_float_types_parse() {
        let text = "module \"t\"\nglobal @s : { i32, [2 x double] } = zero\n";
        let m = parse_module(text).unwrap();
        let g = m.global(m.global_by_name("s").unwrap());
        assert_eq!(m.types.size_of(g.ty), 24);
    }
}
