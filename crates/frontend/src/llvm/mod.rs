//! LLVM-textual-IR subset importer.
//!
//! Imports the slice of LLVM IR our generators and the TSVC kernels
//! exercise: integer/float/pointer scalars, `alloca`/`load`/`store`/
//! `getelementptr`, arithmetic, `icmp`/`fcmp`/`select`, casts, direct
//! `call`s, `br`/`switch`/`ret`/`phi`/`unreachable`, and constant
//! array globals. `switch` is lowered to a compare/branch chain on
//! import (the project IR has no switch).
//!
//! Anything outside the subset is a clean **per-function skip** with a
//! [`SkipCode`] — the function stays registered as an external
//! declaration so callers still resolve — never a panic. Only
//! module-structural problems (lex errors, malformed top level,
//! duplicate symbols) are module-fatal.

mod body;
mod lexer;

use std::collections::HashMap;

use rolag_ir::parser::MAX_TYPE_DEPTH;
use rolag_ir::types::TypeId;
use rolag_ir::{Effects, Function, Module};

use crate::{Diagnostic, Frontend, FrontendResult, Skip, SkipCode};
use lexer::{lex, Sp, Tok};

/// Frontend for the LLVM textual IR subset.
#[derive(Debug, Clone, Copy, Default)]
pub struct LlvmFrontend;

/// Per-function skip error: reason code plus source span.
#[derive(Debug, Clone)]
pub(crate) struct SkipErr {
    pub code: SkipCode,
    pub detail: String,
    pub line: u32,
    pub col: u32,
}

impl SkipErr {
    pub(crate) fn new(code: SkipCode, detail: impl Into<String>, line: u32, col: u32) -> Self {
        SkipErr {
            code,
            detail: detail.into(),
            line,
            col,
        }
    }
}

/// Type-parse outcome: hard skip or a reference to a named type that is
/// not resolved yet (only possible while resolving typedefs).
pub(crate) enum TyErr {
    Skip(SkipErr),
    Unresolved(String),
}

impl TyErr {
    fn into_skip(self) -> SkipErr {
        match self {
            TyErr::Skip(e) => e,
            TyErr::Unresolved(name) => SkipErr::new(
                SkipCode::UnsupportedType,
                format!("undefined or recursive named type %{name}"),
                0,
                0,
            ),
        }
    }
}

const EOF: Tok = Tok::Eof;

/// Range-bounded cursor over the token stream.
pub(crate) struct Cursor<'a> {
    toks: &'a [Sp],
    pub pos: usize,
    end: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(toks: &'a [Sp], start: usize, end: usize) -> Self {
        Cursor {
            toks,
            pos: start,
            end,
        }
    }

    pub(crate) fn peek(&self) -> &Tok {
        if self.pos < self.end {
            &self.toks[self.pos].tok
        } else {
            &EOF
        }
    }

    pub(crate) fn peek2(&self) -> &Tok {
        if self.pos + 1 < self.end {
            &self.toks[self.pos + 1].tok
        } else {
            &EOF
        }
    }

    pub(crate) fn line(&self) -> u32 {
        self.toks
            .get(self.pos.min(self.toks.len() - 1))
            .map(|s| s.line)
            .unwrap_or(0)
    }

    pub(crate) fn col(&self) -> u32 {
        self.toks
            .get(self.pos.min(self.toks.len() - 1))
            .map(|s| s.col)
            .unwrap_or(0)
    }

    pub(crate) fn next(&mut self) -> Tok {
        let t = self.peek().clone();
        if self.pos < self.end {
            self.pos += 1;
        }
        t
    }

    pub(crate) fn bump(&mut self) {
        if self.pos < self.end {
            self.pos += 1;
        }
    }

    pub(crate) fn skip_newlines(&mut self) {
        while matches!(self.peek(), Tok::Newline) {
            self.bump();
        }
    }

    /// Skips past the next newline (end of the current statement).
    pub(crate) fn skip_line(&mut self) {
        while !matches!(self.peek(), Tok::Newline | Tok::Eof) {
            self.bump();
        }
        if matches!(self.peek(), Tok::Newline) {
            self.bump();
        }
    }

    pub(crate) fn err<T>(&self, code: SkipCode, detail: impl Into<String>) -> Result<T, SkipErr> {
        Err(SkipErr::new(code, detail, self.line(), self.col()))
    }

    pub(crate) fn expect(&mut self, want: &Tok, what: &str) -> Result<(), SkipErr> {
        if self.peek() == want {
            self.bump();
            Ok(())
        } else {
            self.err(
                SkipCode::MalformedBody,
                format!("expected {what}, found {:?}", self.peek()),
            )
        }
    }

    pub(crate) fn expect_word(&mut self, want: &str) -> Result<(), SkipErr> {
        match self.peek() {
            Tok::Word(w) if w == want => {
                self.bump();
                Ok(())
            }
            other => self.err(
                SkipCode::MalformedBody,
                format!("expected '{want}', found {other:?}"),
            ),
        }
    }

    pub(crate) fn expect_local(&mut self) -> Result<String, SkipErr> {
        match self.peek().clone() {
            Tok::Local(n) => {
                self.bump();
                Ok(n)
            }
            other => self.err(
                SkipCode::MalformedBody,
                format!("expected %name, found {other:?}"),
            ),
        }
    }

    /// Consumes `label %name` and returns the label.
    pub(crate) fn expect_label_ref(&mut self) -> Result<String, SkipErr> {
        self.expect_word("label")?;
        self.expect_local()
    }
}

/// True when the token can start a type.
pub(crate) fn at_type_start(t: &Tok) -> bool {
    match t {
        Tok::LBracket | Tok::LBrace | Tok::Lt | Tok::Local(_) => true,
        Tok::Word(w) => is_type_word(w),
        _ => false,
    }
}

fn is_type_word(w: &str) -> bool {
    matches!(
        w,
        "void"
            | "ptr"
            | "float"
            | "double"
            | "half"
            | "bfloat"
            | "fp128"
            | "x86_fp80"
            | "ppc_fp128"
            | "x86_mmx"
            | "x86_amx"
            | "label"
            | "token"
            | "metadata"
            | "opaque"
    ) || (w.len() > 1 && w.starts_with('i') && w[1..].bytes().all(|c| c.is_ascii_digit()))
}

/// Parses a type. Typed pointers (`T*`) collapse to the opaque `ptr`.
pub(crate) fn parse_type(
    c: &mut Cursor,
    module: &mut Module,
    named: &HashMap<String, Result<TypeId, SkipErr>>,
) -> Result<TypeId, TyErr> {
    parse_type_at(c, module, named, 0)
}

/// [`parse_type`] inside `depth` enclosing array and struct types. The
/// depth is capped as in the native parser, so a hostile type cannot
/// recurse the importer off its stack.
fn parse_type_at(
    c: &mut Cursor,
    module: &mut Module,
    named: &HashMap<String, Result<TypeId, SkipErr>>,
    depth: usize,
) -> Result<TypeId, TyErr> {
    let (line, col) = (c.line(), c.col());
    let unsup =
        |detail: String| TyErr::Skip(SkipErr::new(SkipCode::UnsupportedType, detail, line, col));
    let mut base = match c.peek().clone() {
        Tok::LBracket | Tok::LBrace if depth == MAX_TYPE_DEPTH => {
            return Err(unsup(format!(
                "type nesting deeper than {MAX_TYPE_DEPTH} levels"
            )))
        }
        Tok::Word(w) => {
            c.bump();
            match w.as_str() {
                "void" => module.types.void(),
                "ptr" => module.types.ptr(),
                "float" => module.types.float(),
                "double" => module.types.double(),
                _ if w.starts_with('i') && w[1..].bytes().all(|b| b.is_ascii_digit()) => {
                    let width: u32 = w[1..].parse().unwrap_or(0);
                    if !(1..=128).contains(&width) {
                        return Err(unsup(format!("unsupported integer width {w}")));
                    }
                    module.types.int(width as u16)
                }
                other => return Err(unsup(format!("unsupported type '{other}'"))),
            }
        }
        Tok::LBracket => {
            c.bump();
            let len = match c.next() {
                Tok::Int(v) if v >= 0 => v as u64,
                other => return Err(unsup(format!("bad array length {other:?}"))),
            };
            match c.next() {
                Tok::Word(x) if x == "x" => {}
                other => {
                    return Err(unsup(format!(
                        "expected 'x' in array type, found {other:?}"
                    )))
                }
            }
            let elem = parse_type_at(c, module, named, depth + 1)?;
            if !matches!(c.next(), Tok::RBracket) {
                return Err(unsup("unterminated array type".into()));
            }
            module.types.array(elem, len)
        }
        Tok::LBrace => {
            c.bump();
            let mut fields = Vec::new();
            if !matches!(c.peek(), Tok::RBrace) {
                loop {
                    fields.push(parse_type_at(c, module, named, depth + 1)?);
                    if matches!(c.peek(), Tok::Comma) {
                        c.bump();
                    } else {
                        break;
                    }
                }
            }
            if !matches!(c.next(), Tok::RBrace) {
                return Err(unsup("unterminated struct type".into()));
            }
            module.types.struct_(fields)
        }
        Tok::Lt => return Err(unsup("vector or packed-struct type".into())),
        Tok::Local(name) => {
            c.bump();
            match named.get(&name) {
                Some(Ok(t)) => *t,
                Some(Err(e)) => return Err(TyErr::Skip(e.clone())),
                None => return Err(TyErr::Unresolved(name)),
            }
        }
        other => return Err(unsup(format!("expected type, found {other:?}"))),
    };
    while matches!(c.peek(), Tok::Star) {
        c.bump();
        base = module.types.ptr();
    }
    Ok(base)
}

/// One sliced top-level item (token index ranges).
enum Item {
    TypeDef {
        name: String,
        start: usize,
        end: usize,
    },
    Global {
        start: usize,
        end: usize,
    },
    Declare {
        start: usize,
        end: usize,
    },
    Define {
        header: (usize, usize),
        body: (usize, usize),
    },
}

/// The item slices, attribute-group effects, and module-level skips of
/// one token stream.
type SplitItems = (Vec<Item>, HashMap<u64, Effects>, Vec<Skip>);

/// Splits the token stream into top-level items; parses `attributes`
/// groups inline (into an effects map). Module-structural problems are
/// fatal.
fn split_items(toks: &[Sp], origin: &str) -> Result<SplitItems, Diagnostic> {
    let mut items = Vec::new();
    let mut groups = HashMap::new();
    let mut skips = Vec::new();
    let mut i = 0usize;
    let fatal = |sp: &Sp, msg: String| Diagnostic {
        origin: origin.to_string(),
        line: sp.line,
        col: sp.col,
        message: msg,
    };
    let line_end = |mut j: usize| {
        while !matches!(toks[j].tok, Tok::Newline | Tok::Eof) {
            j += 1;
        }
        j
    };
    while i < toks.len() {
        match &toks[i].tok {
            Tok::Newline => i += 1,
            Tok::Eof => break,
            Tok::Meta => i = line_end(i) + 1,
            Tok::Word(w) => match w.as_str() {
                "source_filename" | "target" | "uselistorder" | "uselistorder_bb" | "deplibs" => {
                    i = line_end(i) + 1;
                }
                "module" => {
                    skips.push(Skip {
                        symbol: "<module-asm>".into(),
                        code: SkipCode::InlineAsm,
                        detail: "module-level inline assembly dropped".into(),
                        line: toks[i].line,
                        col: toks[i].col,
                    });
                    i = line_end(i) + 1;
                }
                _ if w.starts_with('$') => i = line_end(i) + 1,
                "attributes" => {
                    // attributes #N = { word... }
                    let end = line_end(i);
                    let mut j = i + 1;
                    let mut group = None;
                    if let Tok::AttrRef(n) = toks[j].tok {
                        group = Some(n);
                        j += 1;
                    }
                    let mut effects = None;
                    while j < end {
                        match &toks[j].tok {
                            Tok::Word(a) if a == "readnone" => effects = Some(Effects::ReadNone),
                            Tok::Word(a) if a == "readonly" => effects = Some(Effects::ReadOnly),
                            Tok::Word(a) if a == "memory" => {
                                if let (Tok::LParen, Tok::Word(m)) =
                                    (&toks[j + 1].tok, &toks[j + 2].tok)
                                {
                                    if m == "none" {
                                        effects = Some(Effects::ReadNone);
                                    } else if m == "read" && matches!(toks[j + 3].tok, Tok::RParen)
                                    {
                                        effects = Some(Effects::ReadOnly);
                                    }
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    if let (Some(n), Some(e)) = (group, effects) {
                        groups.insert(n, e);
                    }
                    i = end + 1;
                }
                "declare" => {
                    let end = line_end(i);
                    items.push(Item::Declare { start: i + 1, end });
                    i = end + 1;
                }
                "define" => {
                    // Header runs to the opening `{`; the body to its
                    // matching `}` (struct braces nest).
                    let mut j = i + 1;
                    while !matches!(toks[j].tok, Tok::Eof) {
                        if matches!(toks[j].tok, Tok::LBrace) {
                            // A `{` opening a struct type is always closed
                            // before the line ends; the function-body `{`
                            // is the last token before a newline.
                            if matches!(toks[j + 1].tok, Tok::Newline) {
                                break;
                            }
                        }
                        j += 1;
                    }
                    if matches!(toks[j].tok, Tok::Eof) {
                        return Err(fatal(&toks[i], "unterminated function definition".into()));
                    }
                    let header = (i + 1, j);
                    let mut depth = 1usize;
                    let mut k = j + 1;
                    while depth > 0 {
                        match toks[k].tok {
                            Tok::LBrace => depth += 1,
                            Tok::RBrace => depth -= 1,
                            Tok::Eof => {
                                return Err(fatal(
                                    &toks[i],
                                    "unterminated function definition".into(),
                                ))
                            }
                            _ => {}
                        }
                        if depth == 0 {
                            break;
                        }
                        k += 1;
                    }
                    items.push(Item::Define {
                        header,
                        body: (j + 1, k),
                    });
                    i = line_end(k) + 1;
                }
                other => {
                    return Err(fatal(
                        &toks[i],
                        format!("unexpected top-level token '{other}'"),
                    ))
                }
            },
            Tok::Local(name) => {
                // %name = type ...
                if matches!(toks[i + 1].tok, Tok::Eq)
                    && matches!(&toks[i + 2].tok, Tok::Word(w) if w == "type")
                {
                    let end = line_end(i);
                    items.push(Item::TypeDef {
                        name: name.clone(),
                        start: i + 3,
                        end,
                    });
                    i = end + 1;
                } else {
                    return Err(fatal(&toks[i], "unexpected top-level local".into()));
                }
            }
            Tok::Global(_) => {
                let end = line_end(i);
                items.push(Item::Global { start: i, end });
                i = end + 1;
            }
            other => {
                return Err(fatal(
                    &toks[i],
                    format!("unexpected top-level token {other:?}"),
                ))
            }
        }
    }
    Ok((items, groups, skips))
}

/// Resolves named type definitions to interned [`TypeId`]s with an
/// iterate-to-fixpoint pass (handles forward references; cycles and
/// unsupported bodies poison the name).
fn resolve_named_types(
    items: &[Item],
    toks: &[Sp],
    module: &mut Module,
) -> HashMap<String, Result<TypeId, SkipErr>> {
    let mut pending: Vec<(&String, usize, usize)> = items
        .iter()
        .filter_map(|it| match it {
            Item::TypeDef { name, start, end } => Some((name, *start, *end)),
            _ => None,
        })
        .collect();
    let mut named: HashMap<String, Result<TypeId, SkipErr>> = HashMap::new();
    loop {
        let before = pending.len();
        let mut still = Vec::new();
        for (name, start, end) in pending {
            let mut c = Cursor::new(toks, start, end);
            if matches!(c.peek(), Tok::Word(w) if w == "opaque") {
                named.insert(
                    name.clone(),
                    Err(SkipErr::new(
                        SkipCode::UnsupportedType,
                        format!("opaque type %{name}"),
                        c.line(),
                        c.col(),
                    )),
                );
                continue;
            }
            match parse_type(&mut c, module, &named) {
                Ok(t) if matches!(c.peek(), Tok::Newline | Tok::Eof) => {
                    named.insert(name.clone(), Ok(t));
                }
                Ok(_) => {
                    named.insert(
                        name.clone(),
                        Err(SkipErr::new(
                            SkipCode::UnsupportedType,
                            format!("unsupported type definition %{name}"),
                            c.line(),
                            c.col(),
                        )),
                    );
                }
                Err(TyErr::Skip(e)) => {
                    named.insert(name.clone(), Err(e));
                }
                Err(TyErr::Unresolved(_)) => still.push((name, start, end)),
            }
        }
        if still.is_empty() {
            break;
        }
        if still.len() == before {
            for (name, start, _) in still {
                named.insert(
                    name.clone(),
                    Err(SkipErr::new(
                        SkipCode::UnsupportedType,
                        format!("recursive named type %{name}"),
                        toks[start].line,
                        toks[start].col,
                    )),
                );
            }
            break;
        }
        pending = still;
    }
    named
}

/// Words that may precede the value type of a global definition.
const GLOBAL_QUALIFIERS: &[&str] = &[
    "private",
    "internal",
    "external",
    "linkonce",
    "linkonce_odr",
    "weak",
    "weak_odr",
    "common",
    "appending",
    "extern_weak",
    "available_externally",
    "dso_local",
    "dso_preemptable",
    "hidden",
    "protected",
    "default",
    "thread_local",
    "unnamed_addr",
    "local_unnamed_addr",
    "externally_initialized",
    "addrspace",
    "align",
    "dllimport",
    "dllexport",
];

/// Parses one global definition line into [`rolag_ir::GlobalData`], or a
/// skip reason.
fn parse_global(
    c: &mut Cursor,
    module: &mut Module,
    named: &HashMap<String, Result<TypeId, SkipErr>>,
) -> Result<rolag_ir::GlobalData, SkipErr> {
    let name = match c.next() {
        Tok::Global(n) => n,
        other => {
            return c.err(
                SkipCode::UnsupportedGlobal,
                format!("expected @name, found {other:?}"),
            )
        }
    };
    c.expect(&Tok::Eq, "'='")?;
    let mut is_const = false;
    loop {
        match c.peek().clone() {
            Tok::Word(w) if w == "global" => {
                c.bump();
                break;
            }
            Tok::Word(w) if w == "constant" => {
                is_const = true;
                c.bump();
                break;
            }
            Tok::Word(w) if GLOBAL_QUALIFIERS.contains(&w.as_str()) => {
                c.bump();
                if matches!(c.peek(), Tok::LParen) {
                    // e.g. thread_local(localdynamic), addrspace(1)
                    while !matches!(c.peek(), Tok::RParen | Tok::Newline | Tok::Eof) {
                        c.bump();
                    }
                    c.bump();
                }
            }
            other => {
                return Err(SkipErr::new(
                    SkipCode::UnsupportedGlobal,
                    format!("@{name}: unsupported global qualifier {other:?}"),
                    c.line(),
                    c.col(),
                ))
            }
        }
    }
    let ty = parse_type(c, module, named).map_err(|e| {
        let mut e = e.into_skip();
        e.detail = format!("@{name}: {}", e.detail);
        e
    })?;
    let init = parse_global_init(c, module, named, &name, ty)?;
    Ok(rolag_ir::GlobalData {
        name,
        ty,
        init,
        is_const,
    })
}

fn parse_global_init(
    c: &mut Cursor,
    module: &mut Module,
    named: &HashMap<String, Result<TypeId, SkipErr>>,
    name: &str,
    ty: TypeId,
) -> Result<rolag_ir::GlobalInit, SkipErr> {
    use rolag_ir::GlobalInit;
    let unsup = |c: &Cursor, detail: String| {
        Err(SkipErr::new(
            SkipCode::UnsupportedGlobal,
            format!("@{name}: {detail}"),
            c.line(),
            c.col(),
        ))
    };
    match c.peek().clone() {
        // External declaration (no initializer): model as zero-filled.
        Tok::Newline | Tok::Eof | Tok::Comma => Ok(GlobalInit::Zero),
        Tok::Word(w) if w == "zeroinitializer" || w == "undef" || w == "poison" => {
            c.bump();
            Ok(GlobalInit::Zero)
        }
        Tok::Int(v) => {
            c.bump();
            if module.types.is_int(ty) {
                Ok(GlobalInit::Ints {
                    elem_ty: ty,
                    values: vec![v],
                })
            } else if module.types.is_float(ty) {
                Ok(GlobalInit::Bytes(float_bytes(module, ty, v as f64)))
            } else {
                unsup(c, "integer initializer for non-int type".to_string())
            }
        }
        Tok::Float(v) => {
            c.bump();
            Ok(GlobalInit::Bytes(float_bytes(module, ty, v)))
        }
        Tok::HexBits(bits) => {
            c.bump();
            Ok(GlobalInit::Bytes(float_bytes(
                module,
                ty,
                f64::from_bits(bits),
            )))
        }
        Tok::CStr(bytes) => {
            c.bump();
            Ok(GlobalInit::Bytes(bytes))
        }
        Tok::LBracket => {
            c.bump();
            let mut elem_ty = None;
            let mut ints: Vec<i64> = Vec::new();
            let mut floats: Vec<u8> = Vec::new();
            let mut any_float = false;
            if !matches!(c.peek(), Tok::RBracket) {
                loop {
                    let ety = parse_type(c, module, named).map_err(|e| e.into_skip())?;
                    elem_ty.get_or_insert(ety);
                    match c.next() {
                        Tok::Int(v) => {
                            if module.types.is_float(ety) {
                                any_float = true;
                                floats.extend(float_bytes(module, ety, v as f64));
                            } else {
                                ints.push(v);
                            }
                        }
                        Tok::Float(v) => {
                            any_float = true;
                            floats.extend(float_bytes(module, ety, v));
                        }
                        Tok::HexBits(bits) => {
                            if module.types.is_float(ety) {
                                any_float = true;
                                floats.extend(float_bytes(module, ety, f64::from_bits(bits)));
                            } else {
                                ints.push(bits as i64);
                            }
                        }
                        other => return unsup(c, format!("unsupported array element {other:?}")),
                    }
                    if matches!(c.peek(), Tok::Comma) {
                        c.bump();
                    } else {
                        break;
                    }
                }
            }
            c.expect(&Tok::RBracket, "']'").map_err(|mut e| {
                e.code = SkipCode::UnsupportedGlobal;
                e
            })?;
            if any_float {
                if !ints.is_empty() {
                    return unsup(c, "mixed int/float array initializer".into());
                }
                Ok(GlobalInit::Bytes(floats))
            } else {
                let elem_ty = elem_ty.unwrap_or_else(|| match module.types.kind(ty) {
                    rolag_ir::TypeKind::Array { elem, .. } => *elem,
                    _ => module.types.i8(),
                });
                Ok(GlobalInit::Ints {
                    elem_ty,
                    values: ints,
                })
            }
        }
        other => unsup(c, format!("unsupported initializer {other:?}")),
    }
}

/// Little-endian bytes of a float constant at the width of `ty`.
fn float_bytes(module: &Module, ty: TypeId, v: f64) -> Vec<u8> {
    if matches!(module.types.kind(ty), rolag_ir::TypeKind::Float) {
        (v as f32).to_bits().to_le_bytes().to_vec()
    } else {
        v.to_bits().to_le_bytes().to_vec()
    }
}

/// Parsed function header (declare or define).
struct FnHeader {
    name: String,
    param_tys: Vec<TypeId>,
    param_names: Vec<String>,
    ret_ty: TypeId,
    effects: Effects,
    /// Subset violation found while parsing (function body is skipped,
    /// but the declaration is still registered when the signature is
    /// representable).
    unsupported: Option<SkipErr>,
    line: u32,
    col: u32,
    /// Count of implicitly-numbered (unnamed) values consumed so far.
    unnamed_next: usize,
}

/// Parameter attributes that change call semantics: the callee receives
/// a copy/out-slot rather than the pointer itself, so we skip.
const SEMANTIC_PARAM_ATTRS: &[&str] = &["byval", "sret", "inalloca", "preallocated"];

fn parse_header(
    c: &mut Cursor,
    module: &mut Module,
    named: &HashMap<String, Result<TypeId, SkipErr>>,
    groups: &HashMap<u64, Effects>,
    is_decl: bool,
) -> Result<FnHeader, SkipErr> {
    let (line, col) = (c.line(), c.col());
    // Qualifiers and return attributes precede the return type.
    while !at_type_start(c.peek()) {
        match c.peek().clone() {
            Tok::Word(_) => {
                c.bump();
                if matches!(c.peek(), Tok::LParen) {
                    let mut depth = 0usize;
                    loop {
                        match c.next() {
                            Tok::LParen => depth += 1,
                            Tok::RParen => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            Tok::Newline | Tok::Eof => break,
                            _ => {}
                        }
                    }
                } else if matches!(c.peek(), Tok::Int(_)) {
                    // e.g. `align 8`, `cc 10`
                    c.bump();
                }
            }
            other => {
                return c.err(
                    SkipCode::MalformedBody,
                    format!("unexpected token {other:?} before return type"),
                )
            }
        }
    }
    let mut unsupported: Option<SkipErr> = None;
    let ret_ty = match parse_type(c, module, named) {
        Ok(t) => t,
        Err(e) => {
            unsupported = Some(e.into_skip());
            module.types.void()
        }
    };
    // If an unsupported return type left tokens behind, scan forward to
    // the function name so we can still report the right symbol.
    while !matches!(c.peek(), Tok::Global(_) | Tok::Newline | Tok::Eof) {
        c.bump();
    }
    let name = match c.next() {
        Tok::Global(n) => n,
        other => {
            return c.err(
                SkipCode::MalformedBody,
                format!("expected function name, found {other:?}"),
            )
        }
    };
    c.expect(&Tok::LParen, "'('")?;
    let mut param_tys = Vec::new();
    let mut param_names = Vec::new();
    let mut unnamed_next = 0usize;
    if !matches!(c.peek(), Tok::RParen) {
        loop {
            if matches!(c.peek(), Tok::Ellipsis) {
                return Err(SkipErr::new(
                    SkipCode::Varargs,
                    format!("@{name} is variadic"),
                    c.line(),
                    c.col(),
                ));
            }
            match parse_type(c, module, named) {
                Ok(t) => param_tys.push(t),
                Err(e) => {
                    let mut e = e.into_skip();
                    e.detail = format!("@{name}: {}", e.detail);
                    return Err(e);
                }
            }
            // Parameter attributes.
            while let Tok::Word(w) = c.peek().clone() {
                if SEMANTIC_PARAM_ATTRS.contains(&w.as_str()) && unsupported.is_none() {
                    unsupported = Some(SkipErr::new(
                        SkipCode::UnsupportedType,
                        format!("@{name}: {w} parameter"),
                        c.line(),
                        c.col(),
                    ));
                }
                c.bump();
                if matches!(c.peek(), Tok::LParen) {
                    while !matches!(c.peek(), Tok::RParen | Tok::Newline | Tok::Eof) {
                        c.bump();
                    }
                    c.bump();
                } else if w == "align" && matches!(c.peek(), Tok::Int(_)) {
                    c.bump();
                }
            }
            let pname = if let Tok::Local(n) = c.peek().clone() {
                c.bump();
                n
            } else {
                let n = unnamed_next.to_string();
                unnamed_next += 1;
                n
            };
            param_names.push(pname);
            if matches!(c.peek(), Tok::Comma) {
                c.bump();
            } else {
                break;
            }
        }
    }
    c.expect(&Tok::RParen, "')'")?;
    // Trailing attributes: effects for declarations only (definitions
    // lose effects through the native print/parse cycle, so imports
    // mirror that and stay conservative).
    let mut effects = Effects::ReadWrite;
    if is_decl {
        while !matches!(c.peek(), Tok::Newline | Tok::Eof) {
            match c.next() {
                Tok::Word(w) if w == "readnone" => effects = Effects::ReadNone,
                Tok::Word(w) if w == "readonly" => effects = Effects::ReadOnly,
                Tok::Word(w) if w == "memory" => {
                    if matches!(c.peek(), Tok::LParen) {
                        c.bump();
                        let mut words = Vec::new();
                        while !matches!(c.peek(), Tok::RParen | Tok::Newline | Tok::Eof) {
                            if let Tok::Word(m) = c.peek() {
                                words.push(m.clone());
                            }
                            c.bump();
                        }
                        c.bump();
                        if words == ["none"] {
                            effects = Effects::ReadNone;
                        } else if words == ["read"] {
                            effects = Effects::ReadOnly;
                        }
                    }
                }
                Tok::AttrRef(n) => {
                    if let Some(e) = groups.get(&n) {
                        effects = *e;
                    }
                }
                _ => {}
            }
        }
    }
    Ok(FnHeader {
        name,
        param_tys,
        param_names,
        ret_ty,
        effects,
        unsupported,
        line,
        col,
        unnamed_next,
    })
}

/// Extracts `; ModuleID = '...'` from the raw text (comments are
/// dropped by the lexer, so this runs on the source).
fn module_name(source: &str, origin: &str) -> String {
    for line in source.lines() {
        let t = line.trim();
        if let Some(rest) = t.strip_prefix("; ModuleID = '") {
            if let Some(end) = rest.rfind('\'') {
                return rest[..end].to_string();
            }
        }
        if !t.is_empty() && !t.starts_with(';') {
            break;
        }
    }
    let base = origin.rsplit('/').next().unwrap_or(origin);
    let stem = base.strip_suffix(".ll").unwrap_or(base);
    if stem.is_empty() || stem == "<stdin>" {
        "llvm-import".to_string()
    } else {
        stem.to_string()
    }
}

impl Frontend for LlvmFrontend {
    fn name(&self) -> &'static str {
        "llvm"
    }

    fn parse(&self, source: &[u8], origin: &str) -> Result<FrontendResult, Diagnostic> {
        let text = std::str::from_utf8(source).map_err(|e| Diagnostic {
            origin: origin.to_string(),
            line: 0,
            col: 0,
            message: format!("input is not UTF-8: {e}"),
        })?;
        let toks = lex(text).map_err(|e| Diagnostic {
            origin: origin.to_string(),
            line: e.line,
            col: e.col,
            message: e.message,
        })?;
        let (items, groups, mut skips) = split_items(&toks, origin)?;
        let mut module = Module::new(module_name(text, origin));
        let named = resolve_named_types(&items, &toks, &mut module);

        let fatal = |line: u32, col: u32, message: String| Diagnostic {
            origin: origin.to_string(),
            line,
            col,
            message,
        };

        // Globals, in source order.
        for item in &items {
            if let Item::Global { start, end } = item {
                let mut c = Cursor::new(&toks, *start, *end);
                let (line, col) = (c.line(), c.col());
                match parse_global(&mut c, &mut module, &named) {
                    Ok(data) => {
                        if module.global_by_name(&data.name).is_some() {
                            return Err(fatal(
                                line,
                                col,
                                format!("global @{} defined twice", data.name),
                            ));
                        }
                        module.add_global(data);
                    }
                    Err(e) => skips.push(Skip {
                        symbol: format!("<global:{}>", global_symbol(&toks, *start)),
                        code: e.code,
                        detail: e.detail,
                        line: e.line,
                        col: e.col,
                    }),
                }
            }
        }

        // Function headers, in source order. Every representable header
        // is registered (as a declaration) so calls resolve even when a
        // body is later skipped.
        let mut headers: Vec<Option<FnHeader>> = Vec::new();
        for item in &items {
            let (range, is_decl) = match item {
                Item::Declare { start, end } => ((*start, *end), true),
                Item::Define { header, .. } => (*header, false),
                _ => continue,
            };
            let mut c = Cursor::new(&toks, range.0, range.1);
            match parse_header(&mut c, &mut module, &named, &groups, is_decl) {
                Ok(h) => {
                    if module.func_by_name(&h.name).is_some() {
                        return Err(fatal(
                            h.line,
                            h.col,
                            format!("function @{} defined twice", h.name),
                        ));
                    }
                    if module.global_by_name(&h.name).is_some() {
                        return Err(fatal(
                            h.line,
                            h.col,
                            format!("@{} defined as both a global and a function", h.name),
                        ));
                    }
                    module.add_func(Function::declare(
                        h.name.clone(),
                        h.param_tys.clone(),
                        h.ret_ty,
                        h.effects,
                    ));
                    headers.push(Some(h));
                }
                Err(e) => {
                    skips.push(Skip {
                        symbol: global_symbol(&toks, range.0),
                        code: e.code,
                        detail: e.detail,
                        line: e.line,
                        col: e.col,
                    });
                    headers.push(None);
                }
            }
        }

        // Function bodies.
        let mut hi = 0usize;
        for item in &items {
            let body_range = match item {
                Item::Declare { .. } => {
                    hi += 1;
                    continue;
                }
                Item::Define { body, .. } => *body,
                _ => continue,
            };
            let header = headers[hi].take();
            hi += 1;
            let Some(h) = header else { continue };
            if let Some(e) = h.unsupported {
                skips.push(Skip {
                    symbol: h.name.clone(),
                    code: e.code,
                    detail: e.detail,
                    line: e.line,
                    col: e.col,
                });
                continue;
            }
            let mut c = Cursor::new(&toks, body_range.0, body_range.1);
            match body::parse_and_build(&mut c, &mut module, &named, &h) {
                Ok(func) => {
                    let id = module.func_by_name(&h.name).expect("registered above");
                    module.replace_func(id, func);
                }
                Err(e) => skips.push(Skip {
                    symbol: h.name.clone(),
                    code: e.code,
                    detail: e.detail,
                    line: e.line,
                    col: e.col,
                }),
            }
        }

        Ok(FrontendResult { module, skips })
    }
}

/// Best-effort symbol name from an item's token range (for skip records
/// when the header itself failed to parse).
fn global_symbol(toks: &[Sp], start: usize) -> String {
    for sp in &toks[start..] {
        match &sp.tok {
            Tok::Global(n) => return n.clone(),
            Tok::Newline | Tok::Eof => break,
            _ => {}
        }
    }
    "<unknown>".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nested_array(depth: usize) -> String {
        format!("{}i32{}", "[1 x ".repeat(depth), "]".repeat(depth))
    }

    fn skips_of(source: &str) -> Vec<String> {
        let result = LlvmFrontend
            .parse(source.as_bytes(), "t.ll")
            .expect("imports");
        result
            .skips
            .iter()
            .map(|s| {
                format!(
                    "{}:{}: {} {}: {}",
                    s.line,
                    s.col,
                    s.code.code(),
                    s.symbol,
                    s.detail
                )
            })
            .collect()
    }

    /// A type nested one level past the cap skips its symbol with a pinned
    /// message at the first bracket past the cap, however deep it goes.
    #[test]
    fn type_nesting_is_capped() {
        let ok = format!(
            "@a = global {} zeroinitializer\n",
            nested_array(MAX_TYPE_DEPTH)
        );
        assert_eq!(skips_of(&ok), Vec::<String>::new());
        for depth in [MAX_TYPE_DEPTH + 1, 200_000] {
            let global = format!("@a = global {} zeroinitializer\n", nested_array(depth));
            assert_eq!(
                skips_of(&global),
                ["1:1293: unsupported-type <global:a>: @a: type nesting deeper than 256 levels"]
            );
            let body = format!(
                "define void @f() {{\nentry:\n  %p = alloca {}i8{}\n  ret void\n}}\n",
                "{ ".repeat(depth),
                " }".repeat(depth)
            );
            assert_eq!(
                skips_of(&body),
                ["3:527: unsupported-type f: type nesting deeper than 256 levels"]
            );
        }
    }
}
