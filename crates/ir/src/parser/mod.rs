//! Parser for the textual IR format produced by [`crate::printer`].
//!
//! # Streaming, in two phases
//!
//! The lexer (`parser/lexer.rs`) hands out one borrowed token at a time;
//! the parser keeps the current token plus, only where a block label may
//! start, a second one. No token vector and no owned name is built:
//! identifiers and unquoted `%`/`@` names are slices of the input.
//!
//! * **Phase 1** reads the whole module into a flat, borrowed AST. Each
//!   function gets one `Vec` of instructions; their operands and branch
//!   labels are ranges into two arrays shared by the whole module. Types
//!   and globals are interned into the [`Module`] as they are read.
//! * **Phase 2** (`parser/resolve.rs`) registers every function name (so
//!   calls and `@f` references may point forwards), then, function by
//!   function, lays out the instructions in block order and resolves
//!   their operands in instruction order. Locals and labels in the
//!   printer's own spellings (`%7`, `%p0`) resolve through dense
//!   per-function tables; any other spelling goes through a hash map.
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
//! and every syntax error beats every resolution error, which phase 2
//! reports in the order it meets them. Positions are byte offsets while
//! parsing and turn into a 1-based line and a column in characters only
//! when an error is reported.

mod lexer;
mod resolve;

pub(crate) use lexer::{is_bare_label, is_plain_symbol};

use std::borrow::Cow;
use std::fmt;

use crate::function::Effects;
use crate::inst::{FloatPredicate, IntPredicate, Opcode};
use crate::module::{GlobalData, GlobalInit, Module};
use crate::types::TypeId;

use lexer::{Lexer, Tok};

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
    let Parser {
        module,
        operands,
        labels,
        ..
    } = parser;
    resolve::build(module, &funcs, &operands, &labels).map_err(|e| e.located(input))
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

/// A `start..end` range into one of the module-wide arrays.
type Span = (u32, u32);

#[derive(Debug)]
struct InstAst<'a> {
    offset: usize,
    result: Option<Name<'a>>,
    opcode: Opcode,
    ty: TypeId,
    extra: ExtraAst<'a>,
    /// Into the module-wide operand array.
    operands: Span,
    /// Into the module-wide label array: phi incoming blocks, branch
    /// targets.
    labels: Span,
}

#[derive(Debug)]
struct FuncAst<'a> {
    offset: usize,
    name: Name<'a>,
    param_tys: Vec<TypeId>,
    param_names: Vec<Name<'a>>,
    ret_ty: TypeId,
    is_decl: bool,
    effects: Effects,
    /// Each block's label and the end of its instructions in `insts`.
    blocks: Vec<(Name<'a>, u32)>,
    insts: Vec<InstAst<'a>>,
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    tok: Tok<'a>,
    /// Byte offset of `tok`.
    offset: usize,
    /// The token after `tok`, once something peeked at it.
    ahead: Option<(Tok<'a>, usize)>,
    module: Module,
    operands: Vec<OperandAst<'a>>,
    labels: Vec<Name<'a>>,
}

fn span(start: usize, end: usize) -> Span {
    (start as u32, end as u32)
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            lexer: Lexer::new(input),
            tok: Tok::Eof,
            offset: 0,
            ahead: None,
            module: Module::new(""),
            operands: Vec::new(),
            labels: Vec::new(),
        }
    }

    /// Makes the next token current and returns the previous one.
    fn bump(&mut self) -> Result<Tok<'a>> {
        let (tok, offset) = match self.ahead.take() {
            Some(next) => next,
            None => self.lexer.next_token()?,
        };
        self.offset = offset;
        Ok(std::mem::replace(&mut self.tok, tok))
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
            self.bump()?;
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
                self.bump()?;
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
                self.bump()?;
                Ok(v)
            }
            ref other => self.err(format!("expected integer, found {other}")),
        }
    }

    /// A block label, bare or quoted, where one is defined or referenced.
    fn expect_label(&mut self) -> Result<Name<'a>> {
        match self.tok {
            Tok::Ident(s) => {
                self.bump()?;
                Ok(Cow::Borrowed(s))
            }
            Tok::Str(_) => self.take_text(),
            ref other => self.err(format!("expected identifier, found {other}")),
        }
    }

    fn skip_newlines(&mut self) -> Result<()> {
        while let Tok::Newline = self.tok {
            self.bump()?;
        }
        Ok(())
    }

    fn expect_end_of_stmt(&mut self) -> Result<()> {
        match self.tok {
            Tok::Newline => {
                self.bump()?;
                Ok(())
            }
            Tok::Eof | Tok::RBrace => Ok(()),
            ref other => self.err(format!("expected end of line, found {other}")),
        }
    }

    fn at_type_start(&self) -> bool {
        match self.tok {
            Tok::LBracket | Tok::LBrace => true,
            Tok::Ident(s) => {
                matches!(s, "void" | "ptr" | "float" | "double")
                    || (s.len() > 1
                        && s.starts_with('i')
                        && s[1..].bytes().all(|b| b.is_ascii_digit()))
            }
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
                self.bump()?;
                let types = &self.module.types;
                match s {
                    "void" => Ok(types.void()),
                    "ptr" => Ok(types.ptr()),
                    "float" => Ok(types.float()),
                    "double" => Ok(types.double()),
                    _ if s.starts_with('i') => {
                        let Ok(width) = s[1..].parse::<u16>() else {
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
                self.bump()?;
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
                self.bump()?;
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
                self.bump()?;
                Ok(operand)
            }
            ref other => self.err(format!("expected operand, found {other}")),
        }
    }

    /// Parses an operand into the shared operand array.
    fn push_operand(&mut self) -> Result<()> {
        let operand = self.parse_operand()?;
        self.operands.push(operand);
        Ok(())
    }

    /// `a, b` into the shared operand array.
    fn push_operand_pair(&mut self) -> Result<()> {
        self.push_operand()?;
        self.expect(&Tok::Comma)?;
        self.push_operand()
    }

    fn push_label(&mut self) -> Result<()> {
        let label = self.expect_label()?;
        self.labels.push(label);
        Ok(())
    }

    /// Phase 1: the whole module, syntax only. Globals and types go
    /// straight into `self.module`; functions come back as ASTs.
    fn module(&mut self) -> Result<Vec<FuncAst<'a>>> {
        self.bump()?;
        self.skip_newlines()?;
        if self.tok != Tok::Ident("module") {
            return self.err(format!("expected module, found {}", self.tok));
        }
        self.bump()?;
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
                    self.bump()?;
                    self.parse_global(kw == "const")?;
                }
                Tok::Ident("declare") => {
                    self.bump()?;
                    funcs.push(self.parse_func_header(true)?);
                }
                Tok::Ident("func") => {
                    self.bump()?;
                    let mut ast = self.parse_func_header(false)?;
                    self.parse_func_body(&mut ast)?;
                    funcs.push(ast);
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
        let init = match self.expect_ident()? {
            "zero" => GlobalInit::Zero,
            "ints" => {
                let elem_ty = self.parse_type()?;
                let values = self.int_list(|_| Ok(()))?;
                GlobalInit::Ints { elem_ty, values }
            }
            "bytes" => {
                let values = self.int_list(|v| {
                    if (0..=255).contains(&v) {
                        Ok(())
                    } else {
                        Err(format!("byte out of range: {v}"))
                    }
                })?;
                GlobalInit::Bytes(values.into_iter().map(|v| v as u8).collect())
            }
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

    fn parse_func_header(&mut self, is_decl: bool) -> Result<FuncAst<'a>> {
        let offset = self.offset;
        let name = self.expect_global()?;
        self.expect(&Tok::LParen)?;
        let mut param_tys = Vec::new();
        let mut param_names: Vec<Name<'a>> = Vec::new();
        if !self.at(&Tok::RParen) {
            loop {
                let ty = self.parse_type()?;
                let param_offset = self.offset;
                let pname = self.expect_local()?;
                if param_names.contains(&pname) {
                    return Err(Error::at(
                        param_offset,
                        format!("parameter %{pname} defined twice"),
                    ));
                }
                param_tys.push(ty);
                param_names.push(pname);
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
                    self.bump()?;
                    effects = e;
                }
            }
            self.expect_end_of_stmt()?;
        }
        Ok(FuncAst {
            offset,
            name,
            param_tys,
            param_names,
            ret_ty,
            is_decl,
            effects,
            blocks: Vec::new(),
            insts: Vec::new(),
        })
    }

    /// True at `label :`, where a new block starts.
    fn at_label(&mut self) -> Result<bool> {
        Ok(matches!(self.tok, Tok::Ident(_) | Tok::Str(_)) && matches!(self.peek2()?, Tok::Colon))
    }

    fn parse_func_body(&mut self, ast: &mut FuncAst<'a>) -> Result<()> {
        self.expect(&Tok::LBrace)?;
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
                ast.insts.push(inst);
            }
            ast.blocks.push((label, ast.insts.len() as u32));
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
        let (operands, labels) = (self.operands.len(), self.labels.len());
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
            operands: span(operands, self.operands.len()),
            labels: span(labels, self.labels.len()),
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
