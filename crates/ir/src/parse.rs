//! Textual frontend: the FIR language.
//!
//! FIR is a compact partial-SSA syntax for writing analysis inputs by hand —
//! the paper's example programs (Figures 1, 6, 8, 9, 11) are included as FIR
//! sources in the integration tests. The pretty printer
//! ([`crate::print::module_to_string`]) emits FIR that parses back to an
//! equivalent module.
//!
//! # Grammar
//!
//! ```text
//! module  := item*
//! item    := 'global' 'array'? NAME
//!          | 'extern' 'func' NAME '(' params? ')'
//!          | 'func' NAME '(' params? ')' '{' local* block+ '}'
//! local   := 'local' 'array'? NAME
//! block   := NAME ':' stmt* term
//! stmt    := NAME '=' rhs
//!          | 'store' NAME ',' NAME
//!          | 'call' callee '(' args? ')'
//!          | 'join' NAME | 'lock' NAME | 'unlock' NAME
//!          | 'signal' NAME | 'wait' NAME | 'broadcast' NAME
//!          | 'barrier_init' NAME ',' INT | 'barrier_wait' NAME
//!          | 'atomic_store' NAME ',' NAME order?
//! rhs     := '&' NAME | 'alloc' STRING? | 'load' NAME
//!          | 'gep' NAME ',' INT
//!          | 'phi' '[' NAME ':' NAME (',' NAME ':' NAME)* ']'
//!          | 'call' callee '(' args? ')'
//!          | 'fork' callee '(' NAME? ')'
//!          | 'atomic_load' NAME order?
//!          | 'atomic_rmw' NAME ',' NAME order?
//!          | NAME
//! order   := ',' ('acq' | 'rel' | 'acqrel')
//! term    := 'br' NAME | 'br' ('?' | NAME) ',' NAME ',' NAME | 'ret' NAME?
//! callee  := NAME | '*' NAME
//! ```
//!
//! `&NAME` resolves to a local of the current function, then a global, then
//! a function (function pointer). Line comments start with `//`.
//!
//! # Examples
//!
//! ```
//! let src = r#"
//! global x
//! global y
//!
//! func foo() {
//! entry:
//!   q = &y
//!   ret
//! }
//!
//! func main() {
//! entry:
//!   p = &x
//!   t = fork foo()
//!   join t
//!   c = load p
//!   ret
//! }
//! "#;
//! let module = fsam_ir::parse::parse_module(src)?;
//! assert_eq!(module.func_count(), 2);
//! # Ok::<(), fsam_ir::parse::ParseError>(())
//! ```

use std::collections::HashMap;
use std::fmt;

use crate::builder::{FunctionBuilder, ModuleBuilder};
use crate::ids::{BlockId, FuncId, ObjId, VarId};
use crate::module::Module;
use crate::stmt::{Callee, MemOrder, PhiArm, StmtKind};

/// A parse failure with source position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for ParseError {}

// ---------------------------------------------------------------- lexer ---

/// Declares FIR's keywords: the [`Kw`] enum, their texts (a keyword's
/// symbol is its index) and the `match` that recognizes them.
macro_rules! keywords {
    ($($kw:ident = $text:literal,)*) => {
        #[derive(Clone, Copy, PartialEq, Eq)]
        enum Kw { $($kw,)* }
        const KEYWORDS: &[&str] = &[$($text,)*];
        const KW_BY_SYM: &[Kw] = &[$(Kw::$kw,)*];
        fn keyword(text: &str) -> Option<Kw> {
            // Every keyword ends in a lowercase letter; most names do not.
            if !matches!(text.as_bytes().last(), Some(b'a'..=b'z')) {
                return None;
            }
            match text { $($text => Some(Kw::$kw),)* _ => None }
        }
    };
}

keywords! {
    // The keywords that start a statement of their own come first, so
    // `Kw::AtomicStore` ends them.
    Store = "store", Call = "call", Join = "join", Lock = "lock", Unlock = "unlock",
    Signal = "signal", Wait = "wait", Broadcast = "broadcast", BarrierInit = "barrier_init",
    BarrierWait = "barrier_wait", AtomicStore = "atomic_store",
    Global = "global", Array = "array", Extern = "extern", Func = "func", Local = "local",
    Alloc = "alloc", Load = "load", Gep = "gep", Phi = "phi", Fork = "fork", Br = "br",
    Ret = "ret", AtomicLoad = "atomic_load", AtomicRmw = "atomic_rmw",
}

/// What a token is. A name carries its symbol — keywords first, then each
/// distinct name of the module in order of appearance — and a string the
/// byte offset of its closing quote.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Name(u32),
    Str(u32),
    Int(u32),
    Punct(u8), // = & , ( ) { } [ ] : * ?
    Eof,
}

/// A token and the byte offset it starts at; line and column are
/// recovered from the offset when needed.
#[derive(Clone, Copy)]
struct Tok {
    kind: Kind,
    at: u32,
}

/// The keyword a token spells, if any.
fn kw(kind: Kind) -> Option<Kw> {
    match kind {
        Kind::Name(sym) => KW_BY_SYM.get(sym as usize).copied(),
        _ => None,
    }
}

/// An error at byte offset `at`. Columns count characters, so a tab or
/// an `é` is one column.
fn error_at(src: &str, at: u32, message: impl Into<String>) -> ParseError {
    let before = &src[..at as usize];
    let line_start = before.rfind('\n').map_or(0, |i| i + 1);
    ParseError {
        line: before.bytes().filter(|&b| b == b'\n').count() as u32 + 1,
        col: before[line_start..].chars().count() as u32 + 1,
        message: message.into(),
    }
}

/// The lexed source: tokens ending in `Eof`; the text of each symbol
/// (keywords first, then each other name in order of first sight); each
/// comment as the byte range after its `//`; and how many statements,
/// variables and objects the function bodies define.
struct Lexed<'s> {
    toks: Vec<Tok>,
    names: Vec<&'s str>,
    comments: Vec<(u32, u32)>,
    sizes: [usize; 3],
}

/// Whether ASCII byte `c` goes on with a name.
fn is_name_byte(c: u8) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'$')
}

fn lex(src: &str) -> Result<Lexed<'_>, ParseError> {
    let b = src.as_bytes();
    let err = |at: usize, message: String| error_at(src, at as u32, message);
    let mut ids: HashMap<&str, u32> = HashMap::new();
    // Printed FIR runs about four bytes to a token.
    let mut toks: Vec<Tok> = Vec::with_capacity(src.len() / 4);
    let (mut names, mut comments) = (KEYWORDS.to_vec(), Vec::new());
    let [mut stmts, mut vars, mut objs] = [0; 3];
    // Where `Eof` sits: the end, or just past the `//` of a comment the
    // source ends in.
    let (mut i, mut eof) = (0, src.len());
    while let Some(&c) = b.get(i) {
        let start = i;
        i += 1;
        let kind = match c {
            b' ' | b'\n' | b'\t' | b'\r' => continue,
            b'=' | b'&' | b',' | b'(' | b')' | b'{' | b'}' | b'[' | b']' | b':' | b'*' | b'?' => {
                // Each `=` defines a variable in a statement.
                if c == b'=' {
                    (stmts, vars) = (stmts + 1, vars + 1);
                }
                Kind::Punct(c)
            }
            b'/' if b.get(i) == Some(&b'/') => {
                i = src[i..].find('\n').map_or(src.len(), |n| i + n);
                comments.push((start as u32 + 2, i as u32));
                if i == src.len() {
                    eof = start + 2;
                }
                continue;
            }
            b'/' => return Err(err(start, "unexpected `/` (comments are `//`)".into())),
            b'"' => match src[i..].find(['"', '\n']) {
                Some(n) if b[i + n] == b'"' => {
                    i += n + 1;
                    Kind::Str(i as u32 - 1)
                }
                _ => return Err(err(start, "unterminated string".into())),
            },
            b'0'..=b'9' => {
                i += b[i..].iter().take_while(|c| c.is_ascii_digit()).count();
                let digits = &src[start..i];
                let n = digits.parse();
                Kind::Int(n.map_err(|_| err(start, format!("integer `{digits}` out of range")))?)
            }
            _ => {
                if !(c.is_ascii_alphabetic() || c == b'_') {
                    let c = src[start..].chars().next().expect("in bounds");
                    if c.is_whitespace() {
                        i = start + c.len_utf8();
                        continue;
                    }
                    if !c.is_alphabetic() {
                        return Err(err(start, format!("unexpected character `{c}`")));
                    }
                }
                i = start + b[start..].iter().take_while(|&&c| is_name_byte(c)).count();
                if b.get(i).is_some_and(|&c| c >= 0x80) {
                    // A non-ASCII letter or digit may go on with the name.
                    i = src[i..]
                        .char_indices()
                        .find(|&(_, c)| !(c.is_alphanumeric() || matches!(c, '_' | '.' | '$')))
                        .map_or(src.len(), |(n, _)| i + n);
                }
                let text = &src[start..i];
                Kind::Name(match keyword(text) {
                    Some(kw) => {
                        // A statement keyword makes a statement unless it
                        // follows an `=`, as a `call` on a right-hand side
                        // does; some keywords make an object.
                        let rhs = toks.last().is_some_and(|t| t.kind == Kind::Punct(b'='));
                        stmts += usize::from(kw as u8 <= Kw::AtomicStore as u8 && !rhs);
                        objs += usize::from(matches!(kw, Kw::Local | Kw::Alloc | Kw::Fork));
                        kw as u32
                    }
                    None => {
                        let next = names.len() as u32;
                        let sym = *ids.entry(text).or_insert(next);
                        if sym == next {
                            names.push(text);
                        }
                        sym
                    }
                })
            }
        };
        toks.push(Tok {
            kind,
            at: start as u32,
        });
    }
    toks.push(Tok {
        kind: Kind::Eof,
        at: eof as u32,
    });
    Ok(Lexed {
        toks,
        names,
        comments,
        sizes: [stmts, vars, objs],
    })
}

/// Recognizes `fsam-lint: allow(CODE, ...)` comments. Returns `Ok(None)`
/// for ordinary comments, the suppressed codes for well-formed directives,
/// and an error message for malformed ones (a directive that silently did
/// nothing would be worse than a parse error).
fn parse_lint_directive(text: &str) -> Result<Option<Vec<String>>, String> {
    let Some(rest) = text.trim_start().strip_prefix("fsam-lint:") else {
        return Ok(None);
    };
    let rest = rest.trim();
    let Some(args) = rest
        .strip_prefix("allow")
        .map(str::trim_start)
        .and_then(|r| r.strip_prefix('('))
        .and_then(|r| r.strip_suffix(')'))
    else {
        return Err(format!(
            "malformed fsam-lint directive `{}` (expected `fsam-lint: allow(CODE, ...)`)",
            text.trim()
        ));
    };
    let mut codes = Vec::new();
    for code in args.split(',') {
        let code = code.trim();
        if code.is_empty() || !code.chars().all(|c| c.is_ascii_alphanumeric()) {
            return Err(format!("bad checker code `{code}` in fsam-lint directive"));
        }
        codes.push(code.to_owned());
    }
    if codes.is_empty() {
        return Err("fsam-lint: allow(...) lists no checker codes".into());
    }
    Ok(Some(codes))
}

// --------------------------------------------------------------- parser ---

/// Parses FIR source text into a [`Module`].
///
/// # Errors
///
/// Returns a [`ParseError`] with line/column on malformed input. Note that
/// semantic SSA violations are *not* caught here; run
/// [`verify_module`](crate::verify::verify_module) afterwards.
pub fn parse_module(src: &str) -> Result<Module, ParseError> {
    if u32::try_from(src.len()).is_err() {
        return Err(error_at("", 0, "source exceeds 4 GiB"));
    }
    let lexed = lex(src)?;
    let mut p = Parser {
        src,
        end: lexed.toks.len() - 1,
        toks: lexed.toks,
        pos: 0,
        bind: vec![Binding::default(); lexed.names.len()],
        names: lexed.names,
        funcs: Vec::new(),
        epoch: 0,
        line: (0, 1),
    };
    let mut mb = ModuleBuilder::new();
    p.module(&mut mb, lexed.sizes)?;
    for (start, end) in lexed.comments {
        match parse_lint_directive(&src[start as usize..end as usize]) {
            Ok(None) => {}
            Ok(Some(codes)) => mb.lint_directive(p.line_of(start), codes),
            Err(message) => {
                return Err(ParseError {
                    line: p.line_of(start),
                    col: 1,
                    message,
                })
            }
        }
    }
    Ok(mb.build())
}

/// What one symbol names: module-wide, a global and a function; in the
/// function being parsed, a variable, a label and a local. The
/// function-level names hold only while `epoch` is that function's, so
/// moving to the next body forgets them all at once.
#[derive(Clone, Copy, Default)]
struct Binding {
    global: Option<ObjId>,
    func: Option<FuncId>,
    epoch: u32,
    var: Option<VarId>,
    label: Option<BlockId>,
    local: Option<ObjId>,
}

/// A deferred function body: its parameters' symbols and the token range
/// to parse in the second pass.
struct PendingBody {
    func: FuncId,
    params: Vec<u32>,
    start: usize,
    end: usize,
}

struct Parser<'s> {
    src: &'s str,
    toks: Vec<Tok>,
    names: Vec<&'s str>,
    pos: usize,
    /// The token the current range ends at: `Eof` for the module, a body's
    /// closing `}`. At `end` the parser reads `Eof`.
    end: usize,
    bind: Vec<Binding>,
    /// Each function's function object, by function id.
    funcs: Vec<ObjId>,
    epoch: u32,
    /// A line cursor `(offset, line)`: statement lines are read in source
    /// order, so each is counted from the last.
    line: (u32, u32),
}

impl<'s> Parser<'s> {
    fn peek(&self) -> Tok {
        let t = self.toks[self.pos];
        let kind = if self.pos < self.end {
            t.kind
        } else {
            Kind::Eof
        };
        Tok { kind, ..t }
    }

    fn peek2(&self) -> Kind {
        let next = (self.pos + 1 < self.end).then(|| self.toks[self.pos + 1].kind);
        next.unwrap_or(Kind::Eof)
    }

    fn bump(&mut self) -> Tok {
        let t = self.peek();
        if self.pos < self.end {
            self.pos += 1;
        }
        t
    }

    fn at(&self, kw: Kw) -> bool {
        self.peek().kind == Kind::Name(kw as u32)
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        error_at(self.src, self.toks[self.pos].at, message)
    }

    /// "expected `what`, found `t`", at the current token.
    fn unexpected(&self, what: &str, t: Tok) -> ParseError {
        let found = match t.kind {
            Kind::Name(sym) => format!("Name({:?})", self.names[sym as usize]),
            Kind::Str(end) => format!("Str({:?})", &self.src[t.at as usize + 1..end as usize]),
            Kind::Int(v) => format!("Int({v})"),
            Kind::Punct(c) => format!("Punct({:?})", char::from(c)),
            Kind::Eof => "Eof".into(),
        };
        self.error(format!("expected {what}, found {found}"))
    }

    fn eat(&mut self, c: u8) -> Result<(), ParseError> {
        let t = self.peek();
        if t.kind != Kind::Punct(c) {
            return Err(self.unexpected(&format!("`{}`", char::from(c)), t));
        }
        self.bump();
        Ok(())
    }

    fn name(&mut self) -> Result<u32, ParseError> {
        let t = self.peek();
        match t.kind {
            Kind::Name(sym) if kw(t.kind).is_none() => {
                self.bump();
                Ok(sym)
            }
            Kind::Name(sym) => Err(self.error(format!(
                "`{}` is a keyword, not a name",
                self.names[sym as usize]
            ))),
            _ => Err(self.unexpected("a name", t)),
        }
    }

    /// `'array'? NAME`, after `global` or `local`.
    fn decl(&mut self) -> Result<(bool, u32), ParseError> {
        self.bump();
        let is_array = self.at(Kw::Array);
        if is_array {
            self.bump();
        }
        Ok((is_array, self.name()?))
    }

    /// `'(' (NAME (',' NAME)*)? ')'`.
    fn names_list(&mut self) -> Result<Vec<u32>, ParseError> {
        self.eat(b'(')?;
        let mut names = Vec::new();
        if self.peek().kind != Kind::Punct(b')') {
            loop {
                names.push(self.name()?);
                if self.peek().kind != Kind::Punct(b',') {
                    break;
                }
                self.bump();
            }
        }
        self.eat(b')')?;
        Ok(names)
    }

    /// `sym`'s bindings, with those of an earlier function cleared.
    fn scope(&mut self, sym: u32) -> &mut Binding {
        let b = &mut self.bind[sym as usize];
        if b.epoch != self.epoch {
            *b = Binding {
                global: b.global,
                func: b.func,
                epoch: self.epoch,
                ..Binding::default()
            };
        }
        b
    }

    /// The 1-based line of byte offset `at`.
    fn line_of(&mut self, at: u32) -> u32 {
        if at < self.line.0 {
            self.line = (0, 1);
        }
        let skipped = &self.src.as_bytes()[self.line.0 as usize..at as usize];
        self.line.1 += skipped.iter().filter(|&&b| b == b'\n').count() as u32;
        self.line.0 = at;
        self.line.1
    }

    /// Tags `f` with the line of the upcoming statement, so every appended
    /// statement records where it came from.
    fn tag_line(&mut self, f: &mut FunctionBuilder<'_>) {
        let line = self.line_of(self.toks[self.pos].at);
        f.at_line(line);
    }

    /// The variable `sym` names in the current function, minted on first
    /// mention (forward references are the verifier's business).
    fn var(&mut self, f: &mut FunctionBuilder<'_>, sym: u32) -> VarId {
        if let Some(v) = self.scope(sym).var {
            return v;
        }
        let v = f.var(self.names[sym as usize].to_owned());
        self.scope(sym).var = Some(v);
        v
    }

    /// `NAME`, as a variable.
    fn operand(&mut self, f: &mut FunctionBuilder<'_>) -> Result<VarId, ParseError> {
        let sym = self.name()?;
        Ok(self.var(f, sym))
    }

    /// `NAME ',' NAME`, as variables.
    fn operands(&mut self, f: &mut FunctionBuilder<'_>) -> Result<(VarId, VarId), ParseError> {
        let p = self.name()?;
        self.eat(b',')?;
        let v = self.name()?;
        Ok((self.var(f, p), self.var(f, v)))
    }

    fn lookup_label(&mut self, sym: u32) -> Result<BlockId, ParseError> {
        match self.scope(sym).label {
            Some(b) => Ok(b),
            None => Err(self.error(format!("unknown label `{}`", self.names[sym as usize]))),
        }
    }

    /// Resolves `&name`: local, then global, then function.
    fn resolve_addr(&mut self, sym: u32) -> Result<ObjId, ParseError> {
        let b = *self.scope(sym);
        match b
            .local
            .or(b.global)
            .or(b.func.map(|f| self.funcs[f.index()]))
        {
            Some(obj) => Ok(obj),
            None => Err(self.error(format!(
                "`&{}` does not name a local, global or function",
                self.names[sym as usize]
            ))),
        }
    }

    fn module(&mut self, mb: &mut ModuleBuilder, sizes: [usize; 3]) -> Result<(), ParseError> {
        // Pass 1: globals + function signatures; remember body token ranges.
        let mut pending = Vec::new();
        loop {
            let t = self.peek();
            match kw(t.kind) {
                _ if t.kind == Kind::Eof => break,
                Some(Kw::Global) => {
                    let (is_array, sym) = self.decl()?;
                    let name = self.names[sym as usize];
                    let obj = if is_array {
                        mb.global_array(name)
                    } else {
                        mb.global(name)
                    };
                    self.bind[sym as usize].global = Some(obj);
                }
                Some(item @ (Kw::Extern | Kw::Func)) => {
                    self.bump();
                    if item == Kw::Extern {
                        if !self.at(Kw::Func) {
                            return Err(self.unexpected("`func`", self.peek()));
                        }
                        self.bump();
                    }
                    let sym = self.name()?;
                    let params = self.names_list()?;
                    let name = self.names[sym as usize];
                    if self.bind[sym as usize].func.is_some() {
                        return Err(self.error(format!("function `{name}` defined twice")));
                    }
                    let param_names: Vec<&str> =
                        params.iter().map(|&p| self.names[p as usize]).collect();
                    let id = mb.declare_func(name, &param_names);
                    self.bind[sym as usize].func = Some(id);
                    self.funcs.push(mb.module().func(id).func_obj);
                    if item == Kw::Extern {
                        continue;
                    }
                    self.eat(b'{')?;
                    let start = self.pos;
                    let mut depth = 1;
                    while depth > 0 {
                        match self.peek().kind {
                            Kind::Punct(b'{') => depth += 1,
                            Kind::Punct(b'}') => depth -= 1,
                            Kind::Eof => return Err(self.error("unterminated function body")),
                            _ => {}
                        }
                        if depth > 0 {
                            self.bump();
                        }
                    }
                    let end = self.pos;
                    self.eat(b'}')?;
                    pending.push(PendingBody {
                        func: id,
                        params,
                        start,
                        end,
                    });
                }
                _ => return Err(self.unexpected("an item", t)),
            }
        }
        // Pass 2: bodies, into tables sized by what the lexer counted.
        let [stmts, vars, objs] = sizes;
        mb.reserve(stmts, vars, objs);
        for body in pending {
            (self.pos, self.end) = (body.start, body.end);
            self.epoch += 1;
            let mut f = mb.define_func(body.func);
            for (i, &p) in body.params.iter().enumerate() {
                self.scope(p).var = Some(f.param(i));
            }
            self.body(&mut f)?;
        }
        Ok(())
    }

    fn body(&mut self, f: &mut FunctionBuilder<'_>) -> Result<(), ParseError> {
        // Locals first.
        while self.at(Kw::Local) {
            let (is_array, sym) = self.decl()?;
            let name = self.names[sym as usize];
            let obj = if is_array {
                f.local_array(name)
            } else {
                f.local(name)
            };
            self.scope(sym).local = Some(obj);
        }
        // Pre-scan labels: a label is NAME ':' at statement position. We scan
        // the token stream for `Name ':'` pairs that are not phi arms (phi
        // arms appear inside brackets).
        let mut depth = 0;
        let mut blocks = 0;
        let mut i = self.pos;
        while i < self.end {
            match self.toks[i].kind {
                Kind::Punct(b'[') => depth += 1,
                Kind::Punct(b']') => depth -= 1,
                Kind::Name(sym)
                    if depth == 0
                        && i + 1 < self.end
                        && self.toks[i + 1].kind == Kind::Punct(b':') =>
                {
                    let label = self.names[sym as usize];
                    if self.scope(sym).label.is_some() {
                        let at = self.toks[i].at;
                        return Err(error_at(self.src, at, format!("duplicate label `{label}`")));
                    }
                    let bid = if blocks == 0 {
                        f.rename_block(BlockId::ENTRY, label);
                        BlockId::ENTRY
                    } else {
                        f.block(label)
                    };
                    blocks += 1;
                    self.scope(sym).label = Some(bid);
                    i += 1; // skip ':' too
                }
                _ => {}
            }
            i += 1;
        }
        if blocks == 0 {
            return Err(self.error("function body has no blocks"));
        }

        // Parse blocks.
        while self.pos < self.end {
            let label = self.name()?;
            self.eat(b':')?;
            let bid = self.scope(label).label.expect("labels are pre-scanned");
            f.switch_to(bid);
            self.block(f)?;
        }
        Ok(())
    }

    fn callee(&mut self, f: &mut FunctionBuilder<'_>) -> Result<Callee, ParseError> {
        if self.peek().kind == Kind::Punct(b'*') {
            self.bump();
            return Ok(Callee::Indirect(self.operand(f)?));
        }
        let sym = self.name()?;
        match self.bind[sym as usize].func {
            Some(func) => Ok(Callee::Direct(func)),
            None => Err(self.error(format!("unknown function `{}`", self.names[sym as usize]))),
        }
    }

    fn args(&mut self, f: &mut FunctionBuilder<'_>) -> Result<Vec<VarId>, ParseError> {
        let names = self.names_list()?;
        Ok(names.into_iter().map(|a| self.var(f, a)).collect())
    }

    /// Parses the optional trailing memory-order of an atomic statement:
    /// `, acq` / `, rel` / `, acqrel`, defaulting to relaxed when absent.
    /// Statements never begin with `,`, so a trailing comma unambiguously
    /// introduces an order token.
    fn opt_order(&mut self) -> Result<MemOrder, ParseError> {
        if self.peek().kind != Kind::Punct(b',') {
            return Ok(MemOrder::Relaxed);
        }
        self.bump();
        let t = self.bump();
        let name = match t.kind {
            Kind::Name(sym) => self.names[sym as usize],
            _ => "",
        };
        match name {
            "acq" => Ok(MemOrder::Acquire),
            "rel" => Ok(MemOrder::Release),
            "acqrel" => Ok(MemOrder::AcqRel),
            _ => Err(self.unexpected("memory order `acq`, `rel` or `acqrel`", t)),
        }
    }

    /// A count or field index: an `Int` token.
    fn int(&mut self, what: &str) -> Result<u32, ParseError> {
        let t = self.bump();
        match t.kind {
            Kind::Int(i) => Ok(i),
            _ => Err(self.unexpected(what, t)),
        }
    }

    /// The statements and terminator of one block.
    fn block(&mut self, f: &mut FunctionBuilder<'_>) -> Result<(), ParseError> {
        loop {
            self.tag_line(f);
            let t = self.peek();
            let stmt = match kw(t.kind) {
                _ if t.kind == Kind::Eof => {
                    f.ret(None);
                    return Ok(());
                }
                _ if !matches!(t.kind, Kind::Name(_)) => {
                    return Err(self.unexpected("a statement", t))
                }
                Some(Kw::Br) => {
                    self.bump();
                    return self.br(f);
                }
                Some(Kw::Ret) => {
                    self.bump();
                    // A name followed by ':' is the next block's label.
                    let val = match self.peek().kind {
                        k @ Kind::Name(_)
                            if kw(k).is_none() && self.peek2() != Kind::Punct(b':') =>
                        {
                            Some(self.operand(f)?)
                        }
                        _ => None,
                    };
                    f.ret(val);
                    return Ok(());
                }
                Some(Kw::Store) => {
                    self.bump();
                    let (ptr, val) = self.operands(f)?;
                    StmtKind::Store { ptr, val }
                }
                Some(Kw::Call) => {
                    self.bump();
                    let callee = self.callee(f)?;
                    let args = self.args(f)?;
                    StmtKind::Call {
                        callee,
                        args,
                        dst: None,
                    }
                }
                Some(
                    op @ (Kw::Join
                    | Kw::Lock
                    | Kw::Unlock
                    | Kw::Signal
                    | Kw::Wait
                    | Kw::Broadcast
                    | Kw::BarrierWait),
                ) => {
                    self.bump();
                    let v = self.operand(f)?;
                    match op {
                        Kw::Join => StmtKind::Join { handle: v },
                        Kw::Lock => StmtKind::Lock { lock: v },
                        Kw::Unlock => StmtKind::Unlock { lock: v },
                        Kw::Signal => StmtKind::Signal { cond: v },
                        Kw::Wait => StmtKind::Wait { cond: v },
                        Kw::Broadcast => StmtKind::Broadcast { cond: v },
                        _ => StmtKind::BarrierWait { bar: v },
                    }
                }
                Some(Kw::BarrierInit) => {
                    self.bump();
                    let bar = self.operand(f)?;
                    self.eat(b',')?;
                    let count = self.int("barrier count")?;
                    StmtKind::BarrierInit { bar, count }
                }
                Some(Kw::AtomicStore) => {
                    self.bump();
                    let (ptr, val) = self.operands(f)?;
                    let order = self.opt_order()?;
                    StmtKind::AtomicStore { ptr, val, order }
                }
                // Either `label:` (end of this block) or `dst = rhs`.
                _ if self.peek2() == Kind::Punct(b':') => {
                    // Block fell through without a terminator: default ret.
                    f.ret(None);
                    return Ok(());
                }
                _ => {
                    let dst = self.name()?;
                    self.eat(b'=')?;
                    self.rhs(f, dst)?;
                    continue;
                }
            };
            f.push(stmt);
        }
    }

    /// `br label` or `br cond, l1, l2`.
    fn br(&mut self, f: &mut FunctionBuilder<'_>) -> Result<(), ParseError> {
        let t = self.peek();
        let first = match t.kind {
            Kind::Punct(b'?') => {
                self.bump();
                None
            }
            Kind::Name(_) => Some(self.name()?),
            _ => return Err(self.unexpected("branch target", t)),
        };
        if self.peek().kind != Kind::Punct(b',') {
            let label = first.ok_or_else(|| self.error("`br ?` needs two targets"))?;
            let target = self.lookup_label(label)?;
            f.jump(target);
            return Ok(());
        }
        self.bump();
        let t = self.name()?;
        self.eat(b',')?;
        let e = self.name()?;
        let (t, e) = (self.lookup_label(t)?, self.lookup_label(e)?);
        // A named condition variable is opaque; just reference it so typos
        // in cond names surface through the verifier.
        if let Some(c) = first {
            if self.scope(c).label.is_some() {
                return Err(self.error(format!(
                    "`{}` is a label; conditions must be `?` or a variable",
                    self.names[c as usize]
                )));
            }
            self.var(f, c);
        }
        f.branch(t, e);
        Ok(())
    }

    /// The right-hand side of `dst = ...`; the operands' variables are
    /// minted before `dst`'s.
    fn rhs(&mut self, f: &mut FunctionBuilder<'_>, dst: u32) -> Result<(), ParseError> {
        let t = self.peek();
        let stmt = match kw(t.kind) {
            _ if t.kind == Kind::Punct(b'&') => {
                self.bump();
                let name = self.name()?;
                let obj = self.resolve_addr(name)?;
                let dst = self.var(f, dst);
                StmtKind::Addr { dst, obj }
            }
            Some(Kw::Alloc) => {
                self.bump();
                let t = self.peek();
                let name = match t.kind {
                    Kind::Str(end) => {
                        self.bump();
                        self.src[t.at as usize + 1..end as usize].to_owned()
                    }
                    _ => format!("{}.heap", self.names[dst as usize]),
                };
                let obj = f.heap(name);
                let dst = self.var(f, dst);
                StmtKind::Addr { dst, obj }
            }
            Some(Kw::Load) => {
                self.bump();
                let ptr = self.operand(f)?;
                let dst = self.var(f, dst);
                StmtKind::Load { dst, ptr }
            }
            Some(Kw::Gep) => {
                self.bump();
                let base = self.operand(f)?;
                self.eat(b',')?;
                let field = self.int("field index")?;
                let dst = self.var(f, dst);
                StmtKind::Gep { dst, base, field }
            }
            Some(Kw::Phi) => {
                self.bump();
                self.eat(b'[')?;
                let mut arms = Vec::new();
                loop {
                    let label = self.name()?;
                    self.eat(b':')?;
                    let var = self.name()?;
                    let pred = self.lookup_label(label)?;
                    let var = self.var(f, var);
                    arms.push(PhiArm { pred, var });
                    if self.peek().kind != Kind::Punct(b',') {
                        break;
                    }
                    self.bump();
                }
                self.eat(b']')?;
                let dst = self.var(f, dst);
                StmtKind::Phi { dst, arms }
            }
            Some(Kw::Call) => {
                self.bump();
                let callee = self.callee(f)?;
                let args = self.args(f)?;
                StmtKind::Call {
                    callee,
                    args,
                    dst: Some(self.var(f, dst)),
                }
            }
            Some(Kw::AtomicLoad) => {
                self.bump();
                let ptr = self.operand(f)?;
                let order = self.opt_order()?;
                StmtKind::AtomicLoad {
                    dst: self.var(f, dst),
                    ptr,
                    order,
                }
            }
            Some(Kw::AtomicRmw) => {
                self.bump();
                let (ptr, val) = self.operands(f)?;
                let order = self.opt_order()?;
                StmtKind::AtomicRmw {
                    dst: self.var(f, dst),
                    ptr,
                    val,
                    order,
                }
            }
            Some(Kw::Fork) => {
                self.bump();
                let callee = self.callee(f)?;
                let args = self.args(f)?;
                if args.len() > 1 {
                    return Err(self.error("fork takes at most one argument"));
                }
                let dst = self.var(f, dst);
                f.fork_with(dst, callee, args.first().copied());
                return Ok(());
            }
            _ if matches!(t.kind, Kind::Name(_)) => {
                let src = self.operand(f)?;
                let dst = self.var(f, dst);
                StmtKind::Copy { dst, src }
            }
            _ => return Err(self.unexpected("an expression", t)),
        };
        f.push(stmt);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::ObjKind;
    use crate::stmt::StmtKind;
    use crate::verify::verify_module;

    #[test]
    fn parse_minimal_main() {
        let m = parse_module("func main() {\nentry:\n  ret\n}").unwrap();
        assert_eq!(m.func_count(), 1);
        verify_module(&m).unwrap();
    }

    #[test]
    fn parse_figure_1a() {
        let src = r#"
            global x
            global y
            global z
            func foo() {
            entry:
              q = &y
              p2 = &x
              store p2, q      // *p = q
              ret
            }
            func main() {
            entry:
              p = &x
              r = &z
              t = fork foo()
              store p, r       // *p = r
              c = load p       // c = *p
              ret
            }
        "#;
        let m = parse_module(src).unwrap();
        verify_module(&m).unwrap();
        assert_eq!(m.func_count(), 2);
        assert!(m.global_by_name("x").is_some());
        let forks = m
            .stmts()
            .filter(|(_, s)| matches!(s.kind, StmtKind::Fork { .. }))
            .count();
        assert_eq!(forks, 1);
    }

    #[test]
    fn parse_branches_and_phi() {
        let src = r#"
            global g
            func main() {
            entry:
              br ?, l, r
            l:
              p = &g
              br merge
            r:
              q = &g
              br merge
            merge:
              m = phi [l: p, r: q]
              ret m
            }
        "#;
        let m = parse_module(src).unwrap();
        verify_module(&m).unwrap();
        let phis = m
            .stmts()
            .filter(|(_, s)| matches!(s.kind, StmtKind::Phi { .. }))
            .count();
        assert_eq!(phis, 1);
    }

    #[test]
    fn parse_locals_arrays_and_alloc() {
        let src = r#"
            global array tids
            func main() {
            local buf
            local array cache
            entry:
              p = &buf
              q = &cache
              h = alloc "obj"
              t = &tids
              ret
            }
        "#;
        let m = parse_module(src).unwrap();
        verify_module(&m).unwrap();
        let heap = m.objs().filter(|(_, o)| o.kind == ObjKind::Heap).count();
        assert_eq!(heap, 1);
        let arrays = m.objs().filter(|(_, o)| o.is_array).count();
        assert_eq!(arrays, 2);
    }

    #[test]
    fn parse_locks_and_indirect_calls() {
        let src = r#"
            global l1
            func handler(x) {
            entry:
              ret
            }
            func main() {
            entry:
              l = &l1
              fp = &handler
              lock l
              call *fp(l)
              unlock l
              r = call handler(l)
              ret
            }
        "#;
        let m = parse_module(src).unwrap();
        verify_module(&m).unwrap();
        let locks = m
            .stmts()
            .filter(|(_, s)| matches!(s.kind, StmtKind::Lock { .. }))
            .count();
        assert_eq!(locks, 1);
    }

    #[test]
    fn parse_sync_intrinsics_roundtrip() {
        let src = r#"
            global c
            global b
            global flag
            func worker() {
            entry:
              cv = &c
              wait cv
              bp = &b
              barrier_wait bp
              fp = &flag
              one = alloc "tok"
              v = atomic_rmw fp, one, acq
              ret
            }
            func main() {
            entry:
              cv = &c
              signal cv
              broadcast cv
              bp = &b
              barrier_init bp, 2
              barrier_wait bp
              fp = &flag
              tok = alloc "tok"
              atomic_store fp, tok, rel
              relaxed = atomic_load fp
              acd = atomic_load fp, acq
              both = atomic_rmw fp, tok, acqrel
              t = fork worker()
              join t
              ret
            }
        "#;
        let m1 = parse_module(src).unwrap();
        verify_module(&m1).unwrap();
        use crate::stmt::MemOrder;
        let mut orders = Vec::new();
        for (_, s) in m1.stmts() {
            match &s.kind {
                StmtKind::AtomicLoad { order, .. }
                | StmtKind::AtomicStore { order, .. }
                | StmtKind::AtomicRmw { order, .. } => orders.push(*order),
                _ => {}
            }
        }
        assert_eq!(
            orders,
            vec![
                MemOrder::Acquire, // worker rmw
                MemOrder::Release, // main store
                MemOrder::Relaxed, // main relaxed load
                MemOrder::Acquire, // main acq load
                MemOrder::AcqRel,  // main acqrel rmw
            ]
        );
        let sync = m1.stmts().filter(|(_, s)| s.is_sync_intrinsic()).count();
        assert_eq!(sync, 11);
        let printed = crate::print::module_to_string(&m1);
        let m2 =
            parse_module(&printed).unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
        verify_module(&m2).unwrap();
        assert_eq!(printed, crate::print::module_to_string(&m2));
    }

    #[test]
    fn bad_memory_order_is_rejected() {
        let src = "global f\nfunc main() {\nentry:\n  p = &f\n  q = alloc\n  atomic_store p, q, sequential\n  ret\n}";
        let err = parse_module(src).unwrap_err();
        assert!(err.message.contains("memory order"), "{err}");
    }

    #[test]
    fn error_has_position() {
        let err = parse_module("func main() {\nentry:\n  p = load\n  ret\n}").unwrap_err();
        assert_eq!(err.line, 4); // `ret` is where the bad operand shows up
        assert!(err.message.contains("keyword"));
    }

    #[test]
    fn a_truncated_body_reads_eof_to_every_operand() {
        for (stmt, want) in [
            ("x = load", "expected a name, found Eof"),
            ("x = gep p,", "expected field index, found Eof"),
            ("x = atomic_load p,", "found Eof"),
            ("barrier_init b,", "expected barrier count, found Eof"),
        ] {
            let src = format!("func main() {{\nentry:\n  {stmt}\n}}");
            let err = parse_module(&src).unwrap_err();
            assert!(err.message.ends_with(want), "{stmt}: {err}");
        }
    }

    #[test]
    fn operands_are_numbered_before_destinations() {
        let src = "global g\nfunc f(a) {\ne:\n  ret\n}\nfunc main() {\ne:\n  x1 = load p1
  x2 = gep p2, 1\n  x3 = phi [e: p3]\n  x4 = call f(p4)\n  x5 = call *p5(p6)
  x6 = atomic_load p7, acq\n  x7 = atomic_rmw p8, p9\n  x8 = fork *p10(p11)\n  x9 = p12
  x10 = &g\n  x11 = alloc\n  store p13, p14\n  atomic_store p15, p16
  barrier_init p17, 2\n  br p18, e, e\n}";
        let m = parse_module(src).unwrap();
        let names: Vec<&str> = m.var_ids().map(|v| m.var(v).name.as_str()).collect();
        assert_eq!(
            names.join(" "),
            "a p1 x1 p2 x2 p3 x3 p4 x4 p5 p6 x5 p7 x6 p8 p9 x7 p10 p11 x8 p12 x9 x10 x11 \
             p13 p14 p15 p16 p17 p18"
        );
    }

    #[test]
    fn unknown_function_is_rejected() {
        let err = parse_module("func main() {\nentry:\n  call nope()\n  ret\n}").unwrap_err();
        assert!(err.message.contains("unknown function"));
    }

    #[test]
    fn unknown_label_is_rejected() {
        let err = parse_module("func main() {\nentry:\n  br nowhere\n}").unwrap_err();
        assert!(err.message.contains("unknown label"));
    }

    #[test]
    fn duplicate_function_is_rejected() {
        let err = parse_module("func f() {\ne:\n ret\n}\nfunc f() {\ne:\n ret\n}").unwrap_err();
        assert!(err.message.contains("defined twice"));
    }

    #[test]
    fn statement_lines_are_recorded() {
        let src = "func main() {\nentry:\n  p = alloc\n  q = p\n  store q, p\n  ret\n}";
        let m = parse_module(src).unwrap();
        let lines: Vec<Option<u32>> = m.stmt_ids().map(|s| m.stmt_line(s)).collect();
        assert_eq!(lines, vec![Some(3), Some(4), Some(5)]);
        // Programmatic modules carry no lines.
        let mut mb = crate::builder::ModuleBuilder::new();
        let g = mb.global("g");
        let mut f = mb.func("main", &[]);
        f.addr("p", g);
        f.ret(None);
        f.finish();
        let m2 = mb.build();
        assert_eq!(m2.stmt_line(crate::ids::StmtId::new(0)), None);
    }

    #[test]
    fn lint_directives_are_collected() {
        let src = r#"
            global g
            func main() {
            entry:
              p = &g           // fsam-lint: allow(FL0001, FL0003)
              // fsam-lint: allow(FL0002)
              store p, p       // an ordinary trailing comment
              ret
            }
        "#;
        let m = parse_module(src).unwrap();
        let dirs = m.lint_directives();
        assert_eq!(dirs.len(), 2);
        assert_eq!(dirs[0].codes, vec!["FL0001", "FL0003"]);
        assert_eq!(dirs[1].codes, vec!["FL0002"]);
        assert!(dirs[0].line < dirs[1].line);
    }

    #[test]
    fn malformed_lint_directive_is_rejected() {
        for bad in [
            "func main() {\nentry:\n  ret // fsam-lint: deny(FL0001)\n}",
            "func main() {\nentry:\n  ret // fsam-lint: allow()\n}",
            "func main() {\nentry:\n  ret // fsam-lint: allow(FL-1)\n}",
        ] {
            let err = parse_module(bad).unwrap_err();
            assert!(err.message.contains("fsam-lint"), "{err}");
        }
    }

    #[test]
    fn roundtrip_through_printer() {
        let src = r#"
            global x
            global array arr
            extern func ext(a)
            func worker(w) {
            entry:
              v = load w
              store w, v
              f = gep v, 3
              br ?, one, two
            one:
              a = &x
              br done
            two:
              b = &x
              br done
            done:
              m = phi [one: a, two: b]
              ret m
            }
            func main() {
            local slot
            entry:
              p = &slot
              t = fork worker(p)
              join t
              lock p
              unlock p
              h = alloc "blob"
              r = call worker(h)
              call ext(r)
              ret
            }
        "#;
        let m1 = parse_module(src).unwrap();
        verify_module(&m1).unwrap();
        let printed = crate::print::module_to_string(&m1);
        let m2 =
            parse_module(&printed).unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
        verify_module(&m2).unwrap();
        // Same shape: counts of everything match.
        assert_eq!(m1.func_count(), m2.func_count());
        assert_eq!(m1.stmt_count(), m2.stmt_count());
        assert_eq!(m1.var_count(), m2.var_count());
        assert_eq!(m1.obj_count(), m2.obj_count());
        // And printing again is a fixed point.
        assert_eq!(printed, crate::print::module_to_string(&m2));
    }
}
