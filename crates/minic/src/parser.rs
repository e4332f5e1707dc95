//! Recursive-descent parser for MiniC.
//!
//! Produces the [`crate::ast::Program`] for a source file. Expressions use a
//! precedence-climbing (Pratt) core with the usual C precedence table.

use crate::ast::*;
use crate::lexer::lex;
use crate::span::{Diagnostic, Span};
use crate::token::{Keyword, Token, TokenKind};

/// Parse MiniC source text into a [`Program`].
///
/// # Errors
///
/// Returns the first lexical or syntactic error.
///
/// # Examples
///
/// ```
/// let prog = minic::parse("proc main() { int x = 1; }")?;
/// assert!(prog.proc("main").is_some());
/// # Ok::<(), minic::Diagnostic>(())
/// ```
pub fn parse(src: &str) -> Result<Program, Diagnostic> {
    let tokens = lex(src)?;
    Parser::new(tokens).program()
}

/// The deepest nesting a procedure body may have. Each statement, each
/// expression, each operand of an operator and each parenthesis is one
/// level below the construct around it. Sema, normalization and CFG
/// construction recurse once per level, so bounding the parse bounds
/// them too: a deeper program is a diagnostic, not a stack overflow.
pub const MAX_NESTING: usize = 256;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// The level of the construct being parsed (0 outside any body).
    depth: usize,
    /// The deepest level any node of the current expression reaches.
    deepest: usize,
}

type PResult<T> = Result<T, Diagnostic>;

impl Parser {
    fn new(tokens: Vec<Token>) -> Self {
        Parser {
            tokens,
            pos: 0,
            depth: 0,
            deepest: 0,
        }
    }

    /// Parse `f` one level deeper.
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> PResult<T>) -> PResult<T> {
        self.reach(self.depth + 1)?;
        self.depth += 1;
        let r = f(self);
        self.depth -= 1;
        r
    }

    /// Note a node at `level`, failing past [`MAX_NESTING`].
    fn reach(&mut self, level: usize) -> PResult<()> {
        if level > MAX_NESTING {
            return Err(Diagnostic::error(
                format!("nested deeper than {MAX_NESTING} levels"),
                self.peek().span,
            ));
        }
        self.deepest = self.deepest.max(level);
        Ok(())
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek_kind(&self) -> &TokenKind {
        &self.peek().kind
    }

    fn peek2_kind(&self) -> &TokenKind {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn at(&self, kind: &TokenKind) -> bool {
        self.peek_kind() == kind
    }

    fn at_kw(&self, kw: Keyword) -> bool {
        matches!(self.peek_kind(), TokenKind::Keyword(k) if *k == kw)
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.at(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> PResult<Token> {
        if self.at(&kind) {
            Ok(self.bump())
        } else {
            Err(Diagnostic::error(
                format!("expected {kind}, found {}", self.peek_kind()),
                self.peek().span,
            ))
        }
    }

    fn expect_kw(&mut self, kw: Keyword) -> PResult<Token> {
        self.expect(TokenKind::Keyword(kw))
    }

    fn ident(&mut self) -> PResult<Ident> {
        match self.peek_kind().clone() {
            TokenKind::Ident(name) => {
                let t = self.bump();
                Ok(Ident { name, span: t.span })
            }
            other => Err(Diagnostic::error(
                format!("expected identifier, found {other}"),
                self.peek().span,
            )),
        }
    }

    /// An optionally-negated integer literal.
    fn int_const(&mut self) -> PResult<(i64, Span)> {
        let neg = self.eat(&TokenKind::Minus);
        match *self.peek_kind() {
            TokenKind::Int(v) => {
                let t = self.bump();
                Ok((if neg { -v } else { v }, t.span))
            }
            ref other => Err(Diagnostic::error(
                format!("expected integer literal, found {other}"),
                self.peek().span,
            )),
        }
    }

    // ------------------------------------------------------------------
    // Items
    // ------------------------------------------------------------------

    fn program(&mut self) -> PResult<Program> {
        let mut items = Vec::new();
        while !self.at(&TokenKind::Eof) {
            items.push(self.item()?);
        }
        Ok(Program { items })
    }

    fn item(&mut self) -> PResult<Item> {
        match self.peek_kind() {
            TokenKind::Keyword(Keyword::Chan) => self.chan_decl(false),
            TokenKind::Keyword(Keyword::Extern) => {
                let start = self.bump().span;
                if !self.at_kw(Keyword::Chan) {
                    return Err(Diagnostic::error(
                        "`extern` must be followed by `chan`",
                        start,
                    ));
                }
                self.chan_decl(true)
            }
            TokenKind::Keyword(Keyword::Sem) => self.sem_decl(),
            TokenKind::Keyword(Keyword::Shared) => self.shared_decl(),
            TokenKind::Keyword(Keyword::Int) => self.global_decl(),
            TokenKind::Keyword(Keyword::Input) => self.input_decl(),
            TokenKind::Keyword(Keyword::Process) => self.process_decl(),
            TokenKind::Keyword(Keyword::Proc) => self.proc_decl(),
            other => Err(Diagnostic::error(
                format!("expected a top-level item, found {other}"),
                self.peek().span,
            )),
        }
    }

    fn chan_decl(&mut self, external: bool) -> PResult<Item> {
        let start = self.expect_kw(Keyword::Chan)?.span;
        let name = self.ident()?;
        let (capacity, domain);
        if external {
            // extern chan ev : 0..7;
            if self.eat(&TokenKind::Colon) {
                let (lo, _) = self.int_const()?;
                self.expect(TokenKind::DotDot)?;
                let (hi, hspan) = self.int_const()?;
                if lo > hi {
                    return Err(Diagnostic::error(
                        "channel domain lower bound exceeds upper bound",
                        hspan,
                    ));
                }
                domain = Some((lo, hi));
            } else {
                domain = None;
            }
            capacity = None;
        } else {
            // chan ring[4];
            self.expect(TokenKind::LBracket)?;
            let (cap, cspan) = self.int_const()?;
            if cap <= 0 || cap > u32::MAX as i64 {
                return Err(Diagnostic::error(
                    "channel capacity must be a positive u32",
                    cspan,
                ));
            }
            self.expect(TokenKind::RBracket)?;
            capacity = Some(cap as u32);
            domain = None;
        }
        let end = self.expect(TokenKind::Semi)?.span;
        Ok(Item::Chan(ChanDecl {
            name,
            capacity,
            external,
            domain,
            span: start.to(end),
        }))
    }

    fn sem_decl(&mut self) -> PResult<Item> {
        let start = self.expect_kw(Keyword::Sem)?.span;
        let name = self.ident()?;
        self.expect(TokenKind::Assign)?;
        let (initial, ispan) = self.int_const()?;
        if initial < 0 {
            return Err(Diagnostic::error(
                "semaphore initial count must be nonnegative",
                ispan,
            ));
        }
        let end = self.expect(TokenKind::Semi)?.span;
        Ok(Item::Sem(SemDecl {
            name,
            initial,
            span: start.to(end),
        }))
    }

    fn shared_decl(&mut self) -> PResult<Item> {
        let start = self.expect_kw(Keyword::Shared)?.span;
        let name = self.ident()?;
        let initial = if self.eat(&TokenKind::Assign) {
            self.int_const()?.0
        } else {
            0
        };
        let end = self.expect(TokenKind::Semi)?.span;
        Ok(Item::Shared(SharedDecl {
            name,
            initial,
            span: start.to(end),
        }))
    }

    fn global_decl(&mut self) -> PResult<Item> {
        let start = self.expect_kw(Keyword::Int)?.span;
        let name = self.ident()?;
        let initial = if self.eat(&TokenKind::Assign) {
            self.int_const()?.0
        } else {
            0
        };
        let end = self.expect(TokenKind::Semi)?.span;
        Ok(Item::Global(GlobalDecl {
            name,
            initial,
            span: start.to(end),
        }))
    }

    fn input_decl(&mut self) -> PResult<Item> {
        let start = self.expect_kw(Keyword::Input)?.span;
        let name = self.ident()?;
        self.expect(TokenKind::Colon)?;
        let (lo, _) = self.int_const()?;
        self.expect(TokenKind::DotDot)?;
        let (hi, hspan) = self.int_const()?;
        if lo > hi {
            return Err(Diagnostic::error(
                "input domain lower bound exceeds upper bound",
                hspan,
            ));
        }
        let end = self.expect(TokenKind::Semi)?.span;
        Ok(Item::Input(InputDecl {
            name,
            domain: (lo, hi),
            span: start.to(end),
        }))
    }

    fn process_decl(&mut self) -> PResult<Item> {
        let start = self.expect_kw(Keyword::Process)?.span;
        let first = self.ident()?;
        let (name, proc) = if self.eat(&TokenKind::Assign) {
            (Some(first), self.ident()?)
        } else {
            (None, first)
        };
        self.expect(TokenKind::LParen)?;
        let mut args = Vec::new();
        if !self.at(&TokenKind::RParen) {
            loop {
                match self.peek_kind().clone() {
                    TokenKind::Ident(_) => args.push(ProcessArg::Input(self.ident()?)),
                    _ => {
                        let (v, s) = self.int_const()?;
                        args.push(ProcessArg::Const(v, s));
                    }
                }
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(TokenKind::RParen)?;
        let end = self.expect(TokenKind::Semi)?.span;
        Ok(Item::Process(ProcessDecl {
            name,
            proc,
            args,
            span: start.to(end),
        }))
    }

    fn proc_decl(&mut self) -> PResult<Item> {
        let start = self.expect_kw(Keyword::Proc)?.span;
        let name = self.ident()?;
        self.expect(TokenKind::LParen)?;
        let mut params = Vec::new();
        if !self.at(&TokenKind::RParen) {
            loop {
                self.expect_kw(Keyword::Int)?;
                let ty = if self.eat(&TokenKind::Star) {
                    Ty::IntPtr
                } else {
                    Ty::Int
                };
                let pname = self.ident()?;
                params.push(Param { name: pname, ty });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(TokenKind::RParen)?;
        let body = self.block()?;
        let span = start.to(body.span);
        Ok(Item::Proc(ProcDecl {
            name,
            params,
            body,
            span,
        }))
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn block(&mut self) -> PResult<Block> {
        let start = self.expect(TokenKind::LBrace)?.span;
        let mut stmts = Vec::new();
        while !self.at(&TokenKind::RBrace) {
            if self.at(&TokenKind::Eof) {
                return Err(Diagnostic::error("unterminated block", start));
            }
            stmts.push(self.stmt()?);
        }
        let end = self.expect(TokenKind::RBrace)?.span;
        Ok(Block {
            stmts,
            span: start.to(end),
        })
    }

    fn stmt(&mut self) -> PResult<Stmt> {
        self.nested(Self::stmt_here)
    }

    fn stmt_here(&mut self) -> PResult<Stmt> {
        match self.peek_kind().clone() {
            TokenKind::LBrace => Ok(Stmt::Block(self.block()?)),
            TokenKind::Semi => {
                let t = self.bump();
                Ok(Stmt::Empty { span: t.span })
            }
            TokenKind::Keyword(Keyword::Int) => self.local_stmt(),
            TokenKind::Keyword(Keyword::If) => self.if_stmt(),
            TokenKind::Keyword(Keyword::While) => self.while_stmt(),
            TokenKind::Keyword(Keyword::For) => self.for_stmt(),
            TokenKind::Keyword(Keyword::Switch) => self.switch_stmt(),
            TokenKind::Keyword(Keyword::Return) => {
                let start = self.bump().span;
                let value = if self.at(&TokenKind::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                let end = self.expect(TokenKind::Semi)?.span;
                Ok(Stmt::Return {
                    value,
                    span: start.to(end),
                })
            }
            TokenKind::Keyword(Keyword::Break) => {
                let start = self.bump().span;
                let end = self.expect(TokenKind::Semi)?.span;
                Ok(Stmt::Break {
                    span: start.to(end),
                })
            }
            TokenKind::Keyword(Keyword::Continue) => {
                let start = self.bump().span;
                let end = self.expect(TokenKind::Semi)?.span;
                Ok(Stmt::Continue {
                    span: start.to(end),
                })
            }
            TokenKind::Keyword(Keyword::Spawn) => self.spawn_stmt(),
            _ => self.simple_stmt(true),
        }
    }

    fn local_stmt(&mut self) -> PResult<Stmt> {
        let start = self.expect_kw(Keyword::Int)?.span;
        let ty = if self.eat(&TokenKind::Star) {
            Ty::IntPtr
        } else {
            Ty::Int
        };
        let name = self.ident()?;
        // `int a[N];` — a fixed-size array declaration.
        if ty == Ty::Int && self.at(&TokenKind::LBracket) {
            self.bump();
            let (len, _) = self.int_const()?;
            self.expect(TokenKind::RBracket)?;
            let end = self.expect(TokenKind::Semi)?.span;
            return Ok(Stmt::ArrayDecl {
                name,
                len,
                span: start.to(end),
            });
        }
        let init = if self.eat(&TokenKind::Assign) {
            Some(self.expr()?)
        } else {
            None
        };
        let end = self.expect(TokenKind::Semi)?.span;
        Ok(Stmt::Local {
            name,
            ty,
            init,
            span: start.to(end),
        })
    }

    /// An assignment or expression statement. With `want_semi`, a
    /// terminating `;` is required (false inside `for` headers).
    fn simple_stmt(&mut self, want_semi: bool) -> PResult<Stmt> {
        let start = self.peek().span;
        // `*p = e;`
        if self.at(&TokenKind::Star) {
            let star = self.bump().span;
            let base = self.ident()?;
            self.expect(TokenKind::Assign)?;
            let rhs = self.expr()?;
            let end = if want_semi {
                self.expect(TokenKind::Semi)?.span
            } else {
                rhs.span()
            };
            return Ok(Stmt::Assign {
                lhs: LValue::Deref(base, star.to(end)),
                rhs,
                span: start.to(end),
            });
        }
        // `a[i] = e;` — identifier followed by `[`.
        if matches!(self.peek_kind(), TokenKind::Ident(_))
            && *self.peek2_kind() == TokenKind::LBracket
        {
            let base = self.ident()?;
            self.expect(TokenKind::LBracket)?;
            let index = self.expr()?;
            let rb = self.expect(TokenKind::RBracket)?.span;
            self.expect(TokenKind::Assign)?;
            let rhs = self.expr()?;
            let end = if want_semi {
                self.expect(TokenKind::Semi)?.span
            } else {
                rhs.span()
            };
            let lspan = base.span.to(rb);
            return Ok(Stmt::Assign {
                lhs: LValue::Index {
                    base,
                    index: Box::new(index),
                    span: lspan,
                },
                rhs,
                span: start.to(end),
            });
        }
        // `x = e;` — identifier followed by `=` (not `==`).
        if matches!(self.peek_kind(), TokenKind::Ident(_))
            && *self.peek2_kind() == TokenKind::Assign
        {
            let name = self.ident()?;
            self.expect(TokenKind::Assign)?;
            let rhs = self.expr()?;
            let end = if want_semi {
                self.expect(TokenKind::Semi)?.span
            } else {
                rhs.span()
            };
            return Ok(Stmt::Assign {
                lhs: LValue::Var(name),
                rhs,
                span: start.to(end),
            });
        }
        // Expression statement (usually a call).
        let expr = self.expr()?;
        let end = if want_semi {
            self.expect(TokenKind::Semi)?.span
        } else {
            expr.span()
        };
        Ok(Stmt::Expr {
            expr,
            span: start.to(end),
        })
    }

    /// `spawn f(a, b);` — dynamic process creation.
    fn spawn_stmt(&mut self) -> PResult<Stmt> {
        let start = self.expect_kw(Keyword::Spawn)?.span;
        let proc = self.ident()?;
        self.expect(TokenKind::LParen)?;
        let mut args = Vec::new();
        if !self.at(&TokenKind::RParen) {
            loop {
                args.push(self.expr()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(TokenKind::RParen)?;
        let end = self.expect(TokenKind::Semi)?.span;
        Ok(Stmt::Spawn {
            proc,
            args,
            span: start.to(end),
        })
    }

    fn if_stmt(&mut self) -> PResult<Stmt> {
        let start = self.expect_kw(Keyword::If)?.span;
        self.expect(TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(TokenKind::RParen)?;
        let then_branch = Box::new(self.stmt()?);
        let (else_branch, end) = if self.at_kw(Keyword::Else) {
            self.bump();
            let e = self.stmt()?;
            let sp = e.span();
            (Some(Box::new(e)), sp)
        } else {
            (None, then_branch.span())
        };
        Ok(Stmt::If {
            cond,
            then_branch,
            else_branch,
            span: start.to(end),
        })
    }

    fn while_stmt(&mut self) -> PResult<Stmt> {
        let start = self.expect_kw(Keyword::While)?.span;
        self.expect(TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(TokenKind::RParen)?;
        let body = Box::new(self.stmt()?);
        let end = body.span();
        Ok(Stmt::While {
            cond,
            body,
            span: start.to(end),
        })
    }

    fn for_stmt(&mut self) -> PResult<Stmt> {
        let start = self.expect_kw(Keyword::For)?.span;
        self.expect(TokenKind::LParen)?;
        let init = if self.at(&TokenKind::Semi) {
            self.bump();
            None
        } else if self.at_kw(Keyword::Int) {
            let s = self.nested(Self::local_stmt)?; // consumes the `;`
            Some(Box::new(s))
        } else {
            let s = self.nested(|p| p.simple_stmt(false))?;
            self.expect(TokenKind::Semi)?;
            Some(Box::new(s))
        };
        let cond = if self.at(&TokenKind::Semi) {
            None
        } else {
            Some(self.expr()?)
        };
        self.expect(TokenKind::Semi)?;
        let step = if self.at(&TokenKind::RParen) {
            None
        } else {
            Some(Box::new(self.nested(|p| p.simple_stmt(false))?))
        };
        self.expect(TokenKind::RParen)?;
        let body = Box::new(self.stmt()?);
        let end = body.span();
        Ok(Stmt::For {
            init,
            cond,
            step,
            body,
            span: start.to(end),
        })
    }

    fn switch_stmt(&mut self) -> PResult<Stmt> {
        let start = self.expect_kw(Keyword::Switch)?.span;
        self.expect(TokenKind::LParen)?;
        let scrutinee = self.expr()?;
        self.expect(TokenKind::RParen)?;
        self.expect(TokenKind::LBrace)?;
        let mut cases = Vec::new();
        let mut default = None;
        while !self.at(&TokenKind::RBrace) {
            if self.at_kw(Keyword::Case) {
                let cstart = self.bump().span;
                let mut labels = Vec::new();
                let (v, _) = self.int_const()?;
                labels.push(v);
                self.expect(TokenKind::Colon)?;
                // Additional stacked labels: `case 1: case 2:`
                while self.at_kw(Keyword::Case) {
                    self.bump();
                    let (v, _) = self.int_const()?;
                    labels.push(v);
                    self.expect(TokenKind::Colon)?;
                }
                let body = self.case_body()?;
                let cspan = cstart.to(body.span);
                cases.push(SwitchCase {
                    labels,
                    body,
                    span: cspan,
                });
            } else if self.at_kw(Keyword::Default) {
                let dstart = self.bump().span;
                self.expect(TokenKind::Colon)?;
                if default.is_some() {
                    return Err(Diagnostic::error("duplicate `default` arm", dstart));
                }
                default = Some(self.case_body()?);
            } else {
                return Err(Diagnostic::error(
                    format!("expected `case` or `default`, found {}", self.peek_kind()),
                    self.peek().span,
                ));
            }
        }
        let end = self.expect(TokenKind::RBrace)?.span;
        Ok(Stmt::Switch {
            scrutinee,
            cases,
            default,
            span: start.to(end),
        })
    }

    /// Statements of a case arm: up to the next `case`/`default`/`}`.
    fn case_body(&mut self) -> PResult<Block> {
        let start = self.peek().span;
        let mut stmts = Vec::new();
        while !self.at(&TokenKind::RBrace)
            && !self.at_kw(Keyword::Case)
            && !self.at_kw(Keyword::Default)
        {
            if self.at(&TokenKind::Eof) {
                return Err(Diagnostic::error("unterminated switch arm", start));
            }
            stmts.push(self.stmt()?);
        }
        let span = stmts.last().map(|s| start.to(s.span())).unwrap_or(start);
        Ok(Block { stmts, span })
    }

    // ------------------------------------------------------------------
    // Expressions — precedence climbing.
    // ------------------------------------------------------------------

    fn expr(&mut self) -> PResult<Expr> {
        self.nested(|p| p.binary_expr(0))
    }

    /// A left-associative chain at the current level. Each operator
    /// moves the chain parsed so far one level down, so the deepest
    /// level its nodes reach is tracked across the loop.
    fn binary_expr(&mut self, min_prec: u8) -> PResult<Expr> {
        let outer = std::mem::replace(&mut self.deepest, self.depth);
        let mut lhs = self.unary_expr()?;
        let mut lhs_deepest = self.deepest;
        while let Some((op, prec)) = bin_op_of(self.peek_kind()) {
            if prec < min_prec {
                break;
            }
            self.bump();
            self.reach(lhs_deepest + 1)?;
            self.deepest = self.depth;
            let rhs = self.nested(|p| p.binary_expr(prec + 1))?;
            lhs_deepest = (lhs_deepest + 1).max(self.deepest);
            let span = lhs.span().to(rhs.span());
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
        self.deepest = outer.max(lhs_deepest);
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> PResult<Expr> {
        match self.peek_kind() {
            TokenKind::Minus => {
                let start = self.bump().span;
                let inner = self.nested(Self::unary_expr)?;
                let span = start.to(inner.span());
                Ok(Expr::Unary {
                    op: UnOp::Neg,
                    expr: Box::new(inner),
                    span,
                })
            }
            TokenKind::Bang => {
                let start = self.bump().span;
                let inner = self.nested(Self::unary_expr)?;
                let span = start.to(inner.span());
                Ok(Expr::Unary {
                    op: UnOp::Not,
                    expr: Box::new(inner),
                    span,
                })
            }
            TokenKind::Star => {
                let start = self.bump().span;
                let var = self.ident()?;
                let span = start.to(var.span);
                Ok(Expr::Deref { var, span })
            }
            TokenKind::Amp => {
                let start = self.bump().span;
                let var = self.ident()?;
                let span = start.to(var.span);
                Ok(Expr::AddrOf { var, span })
            }
            _ => self.primary_expr(),
        }
    }

    fn primary_expr(&mut self) -> PResult<Expr> {
        match self.peek_kind().clone() {
            TokenKind::Int(v) => {
                let t = self.bump();
                Ok(Expr::Int(v, t.span))
            }
            TokenKind::Ident(_) => {
                let name = self.ident()?;
                if self.at(&TokenKind::LParen) {
                    self.bump();
                    let mut args = Vec::new();
                    if !self.at(&TokenKind::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(&TokenKind::Comma) {
                                break;
                            }
                        }
                    }
                    let end = self.expect(TokenKind::RParen)?.span;
                    let span = name.span.to(end);
                    Ok(Expr::Call {
                        callee: name,
                        args,
                        span,
                    })
                } else if self.at(&TokenKind::LBracket) {
                    self.bump();
                    let index = self.expr()?;
                    let end = self.expect(TokenKind::RBracket)?.span;
                    let span = name.span.to(end);
                    Ok(Expr::Index {
                        base: name,
                        index: Box::new(index),
                        span,
                    })
                } else {
                    Ok(Expr::Var(name))
                }
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(e)
            }
            other => Err(Diagnostic::error(
                format!("expected an expression, found {other}"),
                self.peek().span,
            )),
        }
    }
}

/// Binding power table: higher binds tighter. Mirrors C.
fn bin_op_of(kind: &TokenKind) -> Option<(BinOp, u8)> {
    Some(match kind {
        TokenKind::OrOr => (BinOp::Or, 1),
        TokenKind::AndAnd => (BinOp::And, 2),
        TokenKind::Pipe => (BinOp::BitOr, 3),
        TokenKind::Caret => (BinOp::BitXor, 4),
        TokenKind::Amp => (BinOp::BitAnd, 5),
        TokenKind::EqEq => (BinOp::Eq, 6),
        TokenKind::NotEq => (BinOp::Ne, 6),
        TokenKind::Lt => (BinOp::Lt, 7),
        TokenKind::Le => (BinOp::Le, 7),
        TokenKind::Gt => (BinOp::Gt, 7),
        TokenKind::Ge => (BinOp::Ge, 7),
        TokenKind::Shl => (BinOp::Shl, 8),
        TokenKind::Shr => (BinOp::Shr, 8),
        TokenKind::Plus => (BinOp::Add, 9),
        TokenKind::Minus => (BinOp::Sub, 9),
        TokenKind::Star => (BinOp::Mul, 10),
        TokenKind::Slash => (BinOp::Div, 10),
        TokenKind::Percent => (BinOp::Rem, 10),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_empty_program() {
        assert_eq!(parse("").unwrap().items.len(), 0);
    }

    #[test]
    fn parses_figure2_procedure() {
        let src = r#"
            extern chan evens : 0..0;
            extern chan odds : 0..0;
            input x : 0..1023;
            proc p(int x) {
                int y = x % 2;
                int cnt = 0;
                while (cnt < 10) {
                    if (y == 0) send(evens, cnt);
                    else send(odds, cnt + 1);
                    cnt = cnt + 1;
                }
            }
            process p(x);
        "#;
        let prog = parse(src).unwrap();
        assert_eq!(prog.procs().count(), 1);
        assert_eq!(prog.processes().count(), 1);
        assert_eq!(prog.chans().count(), 2);
        assert_eq!(prog.inputs().count(), 1);
        let p = prog.proc("p").unwrap();
        assert_eq!(p.params.len(), 1);
        assert_eq!(p.body.stmts.len(), 3);
    }

    #[test]
    fn precedence_mul_over_add() {
        let prog = parse("proc f() { int a = 1 + 2 * 3; }").unwrap();
        let p = prog.proc("f").unwrap();
        let Stmt::Local {
            init: Some(Expr::Binary { op, rhs, .. }),
            ..
        } = &p.body.stmts[0]
        else {
            panic!("expected local with binary init");
        };
        assert_eq!(*op, BinOp::Add);
        assert!(matches!(**rhs, Expr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn precedence_cmp_over_logic() {
        let prog = parse("proc f(int a, int b) { int c = a < 1 && b > 2; }").unwrap();
        let p = prog.proc("f").unwrap();
        let Stmt::Local {
            init: Some(Expr::Binary { op, .. }),
            ..
        } = &p.body.stmts[0]
        else {
            panic!()
        };
        assert_eq!(*op, BinOp::And);
    }

    #[test]
    fn parses_pointer_forms() {
        let prog =
            parse("proc f(int v) { int *p; int x = 0; p = &x; *p = v; int y = *p + 1; }").unwrap();
        let body = &prog.proc("f").unwrap().body.stmts;
        assert!(matches!(
            &body[2],
            Stmt::Assign {
                lhs: LValue::Var(_),
                rhs: Expr::AddrOf { .. },
                ..
            }
        ));
        assert!(matches!(
            &body[3],
            Stmt::Assign {
                lhs: LValue::Deref(..),
                ..
            }
        ));
    }

    #[test]
    fn parses_switch_with_stacked_labels() {
        let src = r#"
            proc f(int x) {
                switch (x) {
                    case 1: case 2:
                        x = 0;
                    case 3:
                        x = 1;
                    default:
                        x = 2;
                }
            }
        "#;
        let prog = parse(src).unwrap();
        let Stmt::Switch { cases, default, .. } = &prog.proc("f").unwrap().body.stmts[0] else {
            panic!()
        };
        assert_eq!(cases.len(), 2);
        assert_eq!(cases[0].labels, vec![1, 2]);
        assert_eq!(cases[1].labels, vec![3]);
        assert!(default.is_some());
    }

    #[test]
    fn rejects_duplicate_default() {
        let src = "proc f(int x) { switch (x) { default: x = 1; default: x = 2; } }";
        assert!(parse(src).is_err());
    }

    #[test]
    fn parses_for_loop_variants() {
        parse("proc f() { for (int i = 0; i < 10; i = i + 1) { } }").unwrap();
        parse("proc f() { int i; for (i = 0; i < 10; i = i + 1) ; }").unwrap();
        parse("proc f() { for (;;) { break; } }").unwrap();
    }

    #[test]
    fn parses_negative_constants_in_decls() {
        let prog = parse("input t : -5..5; shared v = -3;").unwrap();
        let i = prog.inputs().next().unwrap();
        assert_eq!(i.domain, (-5, 5));
    }

    #[test]
    fn rejects_empty_domain() {
        assert!(parse("input t : 5..-5;").is_err());
    }

    #[test]
    fn rejects_zero_capacity_channel() {
        assert!(parse("chan c[0];").is_err());
    }

    #[test]
    fn process_with_explicit_name() {
        let prog = parse("proc main() { } process worker = main();").unwrap();
        let p = prog.processes().next().unwrap();
        assert_eq!(p.name.as_ref().unwrap().name, "worker");
        assert_eq!(p.proc.name, "main");
    }

    #[test]
    fn amp_is_bitand_in_binary_position() {
        let prog = parse("proc f(int a, int b) { int c = a & b; }").unwrap();
        let Stmt::Local {
            init: Some(Expr::Binary { op, .. }),
            ..
        } = &prog.proc("f").unwrap().body.stmts[0]
        else {
            panic!()
        };
        assert_eq!(*op, BinOp::BitAnd);
    }

    #[test]
    fn error_messages_point_at_problem() {
        let err = parse("proc f() { if x }").unwrap_err();
        assert!(err.message.contains("expected"));
    }

    #[test]
    fn nested_calls_parse() {
        let prog = parse("proc g(int a) { } proc f() { g(VS_toss(3) + 1); }").unwrap();
        let Stmt::Expr { expr, .. } = &prog.proc("f").unwrap().body.stmts[0] else {
            panic!()
        };
        assert!(!expr.is_call_free());
    }

    #[test]
    fn dangling_else_binds_to_nearest_if() {
        let src = "proc f(int a, int b) { if (a) if (b) a = 1; else a = 2; }";
        let prog = parse(src).unwrap();
        let Stmt::If {
            else_branch: outer_else,
            then_branch,
            ..
        } = &prog.proc("f").unwrap().body.stmts[0]
        else {
            panic!()
        };
        assert!(outer_else.is_none());
        assert!(matches!(
            **then_branch,
            Stmt::If {
                else_branch: Some(_),
                ..
            }
        ));
    }
}
