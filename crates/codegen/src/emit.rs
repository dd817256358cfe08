//! The C emitter: analyzed AST → one C99 translation unit.
//!
//! Mirrors the paper's `lcc`: shared declarations become static
//! symmetric objects, remote references become `shmem_*_g`/`shmem_*_p`
//! calls, `HUGZ` becomes `shmem_barrier_all()`, and everything dynamic
//! rides on the emitted `lol_value_t` runtime. User identifiers are
//! prefixed (`v_`, `g_`, `f_`) so they can never collide with C
//! keywords or the runtime.
//!
//! Typed lowering: every expression carries its static type
//! ([`Ty`], from the one typing analysis in [`lol_sema::types`]). Where
//! the type is pinned at compile time values live in native
//! `int`/`long long`/`double` and operators lower to native C (NUMBR
//! ops through the wrapping `lol_i*` helpers, so no signed-overflow
//! UB). Everything boxed (`IT`, untyped variables, YARNs, function
//! parameters and returns) rides on `lol_value_t`.

use crate::runtime::LOL_RUNTIME;
use lol_ast::diag::Diagnostic;
use lol_ast::*;
use lol_sema::types::{self, Ty};
use lol_sema::{Analysis, SharedKind, SharedVar};
use std::collections::HashMap;
use std::fmt::Write as _;

type CResult<T> = Result<T, Diagnostic>;

/// A C expression and its static type.
#[derive(Clone, Debug)]
struct CExpr {
    c: String,
    ty: Ty,
}

impl CExpr {
    fn new(c: impl Into<String>, ty: Ty) -> Self {
        CExpr { c: c.into(), ty }
    }

    /// The value as a `lol_value_t`.
    fn boxed(self) -> String {
        match self.ty {
            Ty::Int => format!("lol_from_int({})", self.c),
            Ty::Dbl => format!("lol_from_dbl({})", self.c),
            Ty::Bool => format!("lol_from_bool({})", self.c),
            Ty::Boxed => self.c,
        }
    }

    /// The value coerced to NUMBR, as a `long long`.
    fn int(self) -> String {
        match self.ty {
            Ty::Int => self.c,
            Ty::Dbl => format!("lol_dtoi({})", self.c),
            Ty::Bool => format!("(long long)({})", self.c),
            Ty::Boxed => format!("lol_to_int({})", self.c),
        }
    }

    /// The value coerced to NUMBAR, as a `double`.
    fn dbl(self) -> String {
        match self.ty {
            Ty::Int | Ty::Bool => format!("(double)({})", self.c),
            Ty::Dbl => self.c,
            Ty::Boxed => format!("lol_to_dbl({})", self.c),
        }
    }

    /// The value coerced to TROOF, as an `int` 0/1.
    fn truth(self) -> String {
        match self.ty {
            Ty::Int => format!("({} != 0)", self.c),
            Ty::Dbl => format!("({} != 0.0)", self.c),
            Ty::Bool => self.c,
            Ty::Boxed => format!("lol_to_bool({})", self.c),
        }
    }

    /// The value coerced to `ty`, as that type's C representation.
    fn to(self, ty: Ty) -> String {
        match ty {
            Ty::Int => self.int(),
            Ty::Dbl => self.dbl(),
            Ty::Bool => self.truth(),
            Ty::Boxed => self.boxed(),
        }
    }
}

/// How a name resolves for the emitter.
#[derive(Clone, Copy)]
enum CKind {
    /// A scalar of static type `ty`; boxed `SRSLY` scalars keep their
    /// `pinned` type through a cast on every store.
    Scalar { ty: Ty, pinned: Option<LolType> },
    /// A local array: `lol_iarr_t`/`lol_darr_t` for `Int`/`Dbl`
    /// elements, `lol_arr_t` for `Boxed` ones.
    Array { elem: Ty },
}

pub(crate) struct CEmitter<'a> {
    analysis: &'a Analysis,
    out: String,
    indent: usize,
    /// C variable names holding the active `TXT MAH BFF` targets.
    bff: Vec<String>,
    /// Open loop/switch count (GTFO → `break`).
    breakable: usize,
    in_function: bool,
    scopes: Vec<HashMap<Symbol, CKind>>,
    tmp: usize,
}

const BOXED: CKind = CKind::Scalar { ty: Ty::Boxed, pinned: None };

impl<'a> CEmitter<'a> {
    pub(crate) fn new(analysis: &'a Analysis) -> Self {
        CEmitter {
            analysis,
            out: String::new(),
            indent: 0,
            bff: Vec::new(),
            breakable: 0,
            in_function: false,
            scopes: vec![HashMap::new()],
            tmp: 0,
        }
    }

    pub(crate) fn emit_program(mut self, program: &Program) -> CResult<String> {
        self.line("/* generated by lcc — parallel LOLCODE to C + OpenSHMEM */");
        self.out.push_str(LOL_RUNTIME);
        self.out.push('\n');

        // Symmetric data segment (Figure 1): one static object per
        // WE HAS A declaration, plus lock cells. `LOL_SYMMETRIC` is
        // empty under a real OpenSHMEM library (process-per-PE) and
        // `__thread` under the pthread stub (thread-per-PE), so every
        // PE owns its copy either way.
        let shared: Vec<SharedVar> = self.analysis.shared.iter().cloned().collect();
        if !shared.is_empty() {
            self.line("/* ---- symmetric data segment ---- */");
            for sv in &shared {
                let cty = c_type(sv.ty);
                match sv.kind {
                    SharedKind::Scalar => {
                        self.line(&format!("static LOL_SYMMETRIC {cty} g_{};", sv.name));
                    }
                    SharedKind::Array { len } => {
                        self.line(&format!("static LOL_SYMMETRIC {cty} g_{}[{len}];", sv.name));
                    }
                }
                if sv.lock.is_some() {
                    // Three symmetric longs per lock — [owner,
                    // next_ticket, now_serving] — so both lock
                    // algorithms (see LOL_LOCK_KIND) fit one layout.
                    self.line(&format!("static LOL_SYMMETRIC long g_{}__lock[3];", sv.name));
                }
            }
            self.out.push('\n');
        }

        // Function prototypes, then definitions.
        for f in &program.funcs {
            self.line(&format!("static lol_value_t {};", self.fn_sig(f)));
        }
        if !program.funcs.is_empty() {
            self.out.push('\n');
        }
        for f in &program.funcs {
            self.emit_function(f)?;
        }

        // The SPMD body: transparent shmem_init per Section VI.A. Each
        // PE registers its symmetric objects in program order — the
        // pthread stub uses the registry to translate remote
        // addresses; real OpenSHMEM builds compile it away.
        self.line("static int lol_main(void) {");
        self.indent += 1;
        self.line("shmem_init();");
        for sv in &shared {
            let sym = match sv.kind {
                SharedKind::Scalar => format!("&g_{}", sv.name),
                SharedKind::Array { .. } => format!("g_{}", sv.name),
            };
            self.line(&format!("LOL_SYM_REG({sym}, sizeof g_{});", sv.name));
            if sv.lock.is_some() {
                self.line(&format!("LOL_SYM_REG(g_{0}__lock, sizeof g_{0}__lock);", sv.name));
            }
        }
        self.line("LOL_SYM_REG_DONE();");
        self.line("LOL_SRAND(1337u + (unsigned)shmem_my_pe());");
        self.line("lol_value_t v_IT = lol_noob(); (void)v_IT;");
        self.scopes.push(HashMap::from([(Symbol::it(), BOXED)]));
        for s in &program.body {
            self.stmt(s)?;
        }
        self.scopes.pop();
        self.line("shmem_finalize();");
        self.line("return 0;");
        self.indent -= 1;
        self.line("}");
        self.out.push('\n');
        // Real main: one process-wide entry. Under the stub the driver
        // macro fans lol_main out over LOL_STUB_NPES threads.
        self.line("int main(void) { return LOL_MAIN_DRIVER(lol_main); }");
        Ok(self.out)
    }

    fn fn_sig(&self, f: &FuncDef) -> String {
        let params: Vec<String> =
            f.params.iter().map(|p| format!("lol_value_t v_{}", p.sym)).collect();
        let params = if params.is_empty() { "void".to_string() } else { params.join(", ") };
        format!("f_{}({})", f.name.sym, params)
    }

    fn emit_function(&mut self, f: &FuncDef) -> CResult<()> {
        self.line(&format!("static lol_value_t {} {{", self.fn_sig(f)));
        self.indent += 1;
        self.line("lol_value_t v_IT = lol_noob(); (void)v_IT;");
        self.in_function = true;
        let mut scope = HashMap::from([(Symbol::it(), BOXED)]);
        scope.extend(f.params.iter().map(|p| (p.sym, BOXED)));
        self.scopes.push(scope);
        for s in &f.body {
            self.stmt(s)?;
        }
        self.scopes.pop();
        self.in_function = false;
        self.line("return v_IT;");
        self.indent -= 1;
        self.line("}");
        self.out.push('\n');
        Ok(())
    }

    // -- plumbing --------------------------------------------------------

    fn line(&mut self, text: &str) {
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
        self.out.push_str(text);
        self.out.push('\n');
    }

    fn fresh(&mut self, base: &str) -> String {
        self.tmp += 1;
        format!("__{base}{}", self.tmp)
    }

    fn err(&self, code: &'static str, msg: String, span: Span) -> Diagnostic {
        Diagnostic::error(code, msg, span)
    }

    fn lookup(&self, name: Symbol) -> Option<CKind> {
        self.scopes.iter().rev().find_map(|s| s.get(&name)).copied()
    }

    fn declare(&mut self, name: Symbol, kind: CKind) {
        self.scopes.last_mut().expect("a scope is always open").insert(name, kind);
    }

    /// The local binding `vr` names, unless it is a `UR` reference.
    fn local(&self, vr: &VarRef, name: Symbol) -> Option<CKind> {
        if vr.locality == Locality::Ur {
            None
        } else {
            self.lookup(name)
        }
    }

    fn shared(&self, name: Symbol) -> Option<&'a SharedVar> {
        self.analysis.shared.get(name)
    }

    fn shared_or_err(&self, name: Symbol, span: Span) -> CResult<&'a SharedVar> {
        self.shared(name).ok_or_else(|| self.err("CGC0004", format!("WHO IZ {name}?"), span))
    }

    /// The length of shared array `name`.
    fn shared_len(&self, name: Symbol, span: Span) -> CResult<(&'a SharedVar, usize)> {
        let sv = self.shared_or_err(name, span)?;
        match sv.kind {
            SharedKind::Array { len } => Ok((sv, len)),
            SharedKind::Scalar => Err(self.err("CGC0005", format!("{name} IZ A SCALAR"), span)),
        }
    }

    fn named(&self, vr: &VarRef) -> CResult<Symbol> {
        match &vr.name {
            VarName::Named(id) => Ok(id.sym),
            VarName::Srs(_) => Err(self.err(
                "CGC0001",
                "SRS IZ 2 DYNAMIC 4 DA C BACKEND — RUN DIS WIF DA INTERPRETER".to_string(),
                vr.span,
            )),
        }
    }

    /// The C expression for the current remote target PE.
    fn bff_expr(&self, vr: &VarRef) -> CResult<String> {
        if vr.locality == Locality::Ur {
            self.bff
                .last()
                .cloned()
                .ok_or_else(|| self.err("CGC0002", "UR OUTSIDE TXT MAH BFF".to_string(), vr.span))
        } else {
            Ok("shmem_my_pe()".to_string())
        }
    }

    // -- expressions -----------------------------------------------------

    fn expr(&mut self, e: &Expr) -> CResult<CExpr> {
        Ok(match &e.kind {
            ExprKind::Lit(l) => self.literal(l)?,
            ExprKind::Var(vr) => self.var_read(vr)?,
            ExprKind::Index { arr, idx } => {
                let i = self.expr(idx)?.int();
                self.elem_read(arr, &i)?
            }
            ExprKind::Bin { op, lhs, rhs } => {
                let a = self.expr(lhs)?;
                let b = self.expr(rhs)?;
                binop(*op, a, b)
            }
            ExprKind::Un { op, expr } => {
                let v = self.expr(expr)?;
                let ty = types::un(*op, v.ty);
                let c = match (op, ty) {
                    (UnOp::Not, _) => format!("(!{})", v.truth()),
                    (UnOp::Squar, Ty::Boxed) => format!("lol_squar({})", v.c),
                    (UnOp::Squar, Ty::Dbl) => format!("lol_dsquar({})", v.c),
                    (UnOp::Squar, _) => format!("lol_isquar({})", v.int()),
                    (UnOp::Unsquar, _) => format!("sqrt({})", v.dbl()),
                    (UnOp::Flip, _) => format!("(1.0 / {})", v.dbl()),
                };
                CExpr::new(c, ty)
            }
            ExprKind::Nary { op, args } => {
                let parts: CResult<Vec<CExpr>> = args.iter().map(|a| self.expr(a)).collect();
                let parts = parts?;
                let logic = |sep: &str, parts: Vec<CExpr>| {
                    let terms: Vec<String> = parts.into_iter().map(CExpr::truth).collect();
                    CExpr::new(format!("({})", terms.join(sep)), types::nary(*op))
                };
                match op {
                    NaryOp::Smoosh => smoosh(parts.into_iter().map(CExpr::boxed)),
                    NaryOp::AllOf => logic(" && ", parts),
                    NaryOp::AnyOf => logic(" || ", parts),
                }
            }
            ExprKind::Cast { expr, ty } => {
                let v = self.expr(expr)?;
                match types::cast(*ty) {
                    Ty::Boxed => CExpr::new(
                        format!("lol_cast({}, {})", v.boxed(), lol_ty_enum(*ty)),
                        Ty::Boxed,
                    ),
                    cty => CExpr::new(v.to(cty), cty),
                }
            }
            ExprKind::Call { name, args } => {
                let parts: CResult<Vec<String>> =
                    args.iter().map(|a| self.expr(a).map(CExpr::boxed)).collect();
                CExpr::new(format!("f_{}({})", name.sym, parts?.join(", ")), Ty::Boxed)
            }
            ExprKind::Me | ExprKind::MahFrenz | ExprKind::Whatevr | ExprKind::Whatevar => {
                let c = match &e.kind {
                    ExprKind::Me => "shmem_my_pe()",
                    ExprKind::MahFrenz => "shmem_n_pes()",
                    ExprKind::Whatevr => "lol_whatevr()",
                    _ => "lol_whatevar()",
                };
                CExpr::new(c, types::query(&e.kind).expect("a PE query or random draw"))
            }
        })
    }

    fn literal(&mut self, l: &Lit) -> CResult<CExpr> {
        Ok(match l {
            Lit::Numbr(n) => {
                let c = if *n == i64::MIN {
                    "(-9223372036854775807LL - 1)".to_string()
                } else {
                    format!("{n}LL")
                };
                CExpr::new(c, types::lit(l))
            }
            Lit::Numbar(f) => CExpr::new(format!("{f:?}"), types::lit(l)),
            Lit::Troof(b) => CExpr::new((*b as i32).to_string(), types::lit(l)),
            Lit::Noob => CExpr::new("lol_noob()", types::lit(l)),
            Lit::Yarn(parts) => {
                let mut pieces = Vec::new();
                for p in parts {
                    match p {
                        YarnPart::Text(t) => {
                            pieces.push(format!("lol_from_str(\"{}\")", c_escape(t)));
                        }
                        YarnPart::Var(id) => {
                            let vr = VarRef::named(*id);
                            let v = self.var_read(&vr)?.boxed();
                            pieces.push(format!("lol_cast({v}, LOL_YARN)"));
                        }
                    }
                }
                smoosh(pieces.into_iter())
            }
        })
    }

    /// Read a scalar variable.
    fn var_read(&mut self, vr: &VarRef) -> CResult<CExpr> {
        let name = self.named(vr)?;
        if let Some(k) = self.local(vr, name) {
            return match k {
                CKind::Scalar { ty, .. } => Ok(CExpr::new(format!("v_{name}"), ty)),
                CKind::Array { .. } => {
                    Err(self.err("CGC0003", format!("{name} IZ A WHOLE ARRAY"), vr.span))
                }
            };
        }
        let sv = self.shared_or_err(name, vr.span)?;
        if matches!(sv.kind, SharedKind::Array { .. }) {
            return Err(self.err("CGC0003", format!("{name} IZ A WHOLE ARRAY"), vr.span));
        }
        let pe = self.bff_expr(vr)?;
        Ok(if vr.locality == Locality::Ur {
            cell(sv.ty, &format!("{}(&g_{name}, {pe})", shmem_get(sv.ty)))
        } else {
            cell(sv.ty, &format!("g_{name}"))
        })
    }

    /// Read `arr'Z idx` where `idx_c` is a C `long long` expression.
    fn elem_read(&mut self, arr: &VarRef, idx_c: &str) -> CResult<CExpr> {
        let name = self.named(arr)?;
        match self.local(arr, name) {
            Some(CKind::Array { elem }) => return Ok(arr_get(elem, &format!("v_{name}"), idx_c)),
            Some(CKind::Scalar { .. }) => {
                return Err(self.err("CGC0005", format!("{name} IZ NOT LOTZ A THINGZ"), arr.span))
            }
            None => {}
        }
        let (sv, len) = self.shared_len(name, arr.span)?;
        let slot = format!("g_{name}[lol_idx({idx_c}, {len})]");
        let pe = self.bff_expr(arr)?;
        Ok(if arr.locality == Locality::Ur {
            cell(sv.ty, &format!("{}(&{slot}, {pe})", shmem_get(sv.ty)))
        } else {
            cell(sv.ty, &slot)
        })
    }

    /// Emit a store of `val` into a scalar variable.
    fn var_store(&mut self, vr: &VarRef, val: CExpr) -> CResult<()> {
        let name = self.named(vr)?;
        if let Some(k) = self.local(vr, name) {
            return match k {
                CKind::Scalar { ty: Ty::Boxed, pinned: Some(ty) } => {
                    self.line(&format!(
                        "v_{name} = lol_cast({}, {});",
                        val.boxed(),
                        lol_ty_enum(ty)
                    ));
                    Ok(())
                }
                CKind::Scalar { ty, .. } => {
                    self.line(&format!("v_{name} = {};", val.to(ty)));
                    Ok(())
                }
                CKind::Array { .. } => {
                    Err(self.err("CGC0003", format!("{name} IZ A WHOLE ARRAY"), vr.span))
                }
            };
        }
        let sv = self.shared_or_err(name, vr.span)?;
        if matches!(sv.kind, SharedKind::Array { .. }) {
            return Err(self.err("CGC0003", format!("{name} IZ A WHOLE ARRAY"), vr.span));
        }
        let pe = self.bff_expr(vr)?;
        let native = to_cell(sv.ty, val);
        if vr.locality == Locality::Ur {
            self.line(&format!("{}(&g_{name}, {native}, {pe});", shmem_put(sv.ty)));
        } else {
            self.line(&format!("g_{name} = {native};"));
        }
        Ok(())
    }

    fn elem_store(&mut self, arr: &VarRef, idx_c: &str, val: CExpr) -> CResult<()> {
        let name = self.named(arr)?;
        match self.local(arr, name) {
            Some(CKind::Array { elem }) => {
                self.line(&arr_set(elem, &format!("v_{name}"), idx_c, val));
                return Ok(());
            }
            Some(CKind::Scalar { .. }) => {
                return Err(self.err("CGC0005", format!("{name} IZ NOT LOTZ A THINGZ"), arr.span))
            }
            None => {}
        }
        let (sv, len) = self.shared_len(name, arr.span)?;
        let slot = format!("g_{name}[lol_idx({idx_c}, {len})]");
        let native = to_cell(sv.ty, val);
        if arr.locality == Locality::Ur {
            let pe = self.bff_expr(arr)?;
            self.line(&format!("{}(&{slot}, {native}, {pe});", shmem_put(sv.ty)));
        } else {
            self.line(&format!("{slot} = {native};"));
        }
        Ok(())
    }

    fn is_array_ref(&self, vr: &VarRef) -> CResult<bool> {
        let name = self.named(vr)?;
        if let Some(k) = self.local(vr, name) {
            return Ok(matches!(k, CKind::Array { .. }));
        }
        Ok(self.shared(name).map(|sv| matches!(sv.kind, SharedKind::Array { .. })).unwrap_or(false))
    }

    // -- statements ------------------------------------------------------

    fn block(&mut self, b: &Block) -> CResult<()> {
        self.line("{");
        self.indent += 1;
        self.scopes.push(HashMap::new());
        for s in b {
            self.stmt(s)?;
        }
        self.scopes.pop();
        self.indent -= 1;
        self.line("}");
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> CResult<()> {
        match &s.kind {
            StmtKind::Declare(d) => self.decl(d),
            StmtKind::Assign { target, value } => self.assign(s, target, value),
            StmtKind::ExprStmt(e) => {
                let v = self.expr(e)?.boxed();
                self.line(&format!("v_IT = {v};"));
                Ok(())
            }
            StmtKind::Visible { args, newline } => {
                for a in args {
                    let v = self.expr(a)?.boxed();
                    self.line(&format!("lol_print({v});"));
                }
                if *newline {
                    self.line("LOL_PUTS(\"\\n\");");
                }
                Ok(())
            }
            StmtKind::Gimmeh(lv) => self.store_lvalue(lv, CExpr::new("lol_gimmeh()", Ty::Boxed)),
            StmtKind::If(ifs) => {
                self.line("if (lol_to_bool(v_IT))");
                self.block(&ifs.then_block)?;
                for m in &ifs.mebbes {
                    let c = self.expr(&m.cond)?.truth();
                    self.line(&format!("else if ({c})"));
                    self.block(&m.body)?;
                }
                if let Some(e) = &ifs.else_block {
                    self.line("else");
                    self.block(e)?;
                }
                Ok(())
            }
            StmtKind::Switch(sw) => self.switch(sw),
            StmtKind::Loop(lp) => self.loop_stmt(lp),
            StmtKind::Gtfo => {
                if self.breakable > 0 {
                    self.line("break;");
                } else if self.in_function {
                    self.line("return lol_noob();");
                } else {
                    return Err(self.err("CGC0006", "GTFO OF WHERE?".to_string(), s.span));
                }
                Ok(())
            }
            StmtKind::FoundYr(e) => {
                let v = self.expr(e)?.boxed();
                self.line(&format!("return {v};"));
                Ok(())
            }
            StmtKind::IsNowA { target, ty } => match target {
                LValue::Var(vr) => {
                    let name = self.named(vr)?;
                    match self.lookup(name) {
                        Some(CKind::Scalar { ty: Ty::Boxed, .. }) => {
                            self.line(&format!(
                                "v_{name} = lol_cast(v_{name}, {});",
                                lol_ty_enum(*ty)
                            ));
                            Ok(())
                        }
                        _ => Err(self.err("CGC0007", format!("{name} CANT CHANGE TYPE"), vr.span)),
                    }
                }
                LValue::Index { span, .. } => Err(self.err(
                    "CGC0007",
                    "ARRAY ELEMENTS KEEP DA ARRAY'S TYPE".to_string(),
                    *span,
                )),
            },
            StmtKind::Hugz => {
                self.line("shmem_barrier_all();");
                Ok(())
            }
            StmtKind::LockAcquire(vr) => {
                let (cell, pe) = self.lock_cell(vr)?;
                self.line(&format!("lol_lock_acquire({cell}, {pe});"));
                self.line("v_IT = lol_from_bool(1);");
                Ok(())
            }
            StmtKind::LockTry(vr) => {
                let (cell, pe) = self.lock_cell(vr)?;
                self.line(&format!("v_IT = lol_from_bool(lol_lock_try({cell}, {pe}));"));
                Ok(())
            }
            StmtKind::LockRelease(vr) => {
                let (cell, pe) = self.lock_cell(vr)?;
                self.line(&format!("lol_lock_release({cell}, {pe});"));
                Ok(())
            }
            StmtKind::TxtStmt { pe, stmt } => {
                self.open_bff(pe)?;
                self.stmt(stmt)?;
                self.close_bff();
                Ok(())
            }
            StmtKind::TxtBlock { pe, body } => {
                self.open_bff(pe)?;
                self.scopes.push(HashMap::new());
                for st in body {
                    self.stmt(st)?;
                }
                self.scopes.pop();
                self.close_bff();
                Ok(())
            }
        }
    }

    /// Open a `TXT MAH BFF pe` region: a C block binding the checked
    /// target PE.
    fn open_bff(&mut self, pe: &Expr) -> CResult<()> {
        let k = self.expr(pe)?.int();
        let var = self.fresh("bff");
        self.line("{");
        self.indent += 1;
        self.line(&format!("const int {var} = (int)({k});"));
        self.line(&format!(
            "if ({var} < 0 || {var} >= shmem_n_pes()) lol_die(\"RUN0017\", \"DAT PE IZ NOT MAH FREN\");"
        ));
        self.bff.push(var);
        Ok(())
    }

    fn close_bff(&mut self) {
        self.bff.pop();
        self.indent -= 1;
        self.line("}");
    }

    fn lock_cell(&mut self, vr: &VarRef) -> CResult<(String, String)> {
        let name = self.named(vr)?;
        let sv = self
            .shared(name)
            .ok_or_else(|| self.err("CGC0004", format!("{name} IZ NOT SHARED"), vr.span))?;
        if sv.lock.is_none() {
            return Err(self.err(
                "CGC0008",
                format!("{name} HAS NO LOCK — DECLARE IT WIF AN IM SHARIN IT"),
                vr.span,
            ));
        }
        let pe = self.bff_expr(vr)?;
        Ok((format!("g_{name}__lock"), pe))
    }

    fn decl(&mut self, d: &Decl) -> CResult<()> {
        let name = d.name.sym;
        match d.scope {
            DeclScope::We => {
                // Static storage already emitted; run the initializer.
                if let Some(init) = &d.init {
                    let v = self.expr(init)?;
                    if let Some(sv) = self.shared(name) {
                        if matches!(sv.kind, SharedKind::Scalar) {
                            let native = to_cell(sv.ty, v);
                            self.line(&format!("g_{name} = {native};"));
                        }
                    }
                }
                Ok(())
            }
            DeclScope::I => {
                if let Some(size) = &d.array_size {
                    let n = self.expr(size)?.int();
                    // NUMBR/NUMBAR elements are native buffers.
                    let elem = types::local_array(d);
                    let ty = lol_ty_enum(d.ty.unwrap_or(LolType::Noob));
                    self.line(&format!(
                        "{} v_{name} = {};",
                        arr_c_type(elem),
                        arr_new(elem, &n, ty)
                    ));
                    self.declare(name, CKind::Array { elem });
                    return Ok(());
                }
                let (init, cast) = match (&d.init, d.ty) {
                    (Some(i), ty) => (self.expr(i)?, ty),
                    (None, Some(ty)) => (default_value(ty), None),
                    (None, None) => (CExpr::new("lol_noob()", Ty::Boxed), None),
                };
                let (ty, init) = match (types::local(d), cast) {
                    (Ty::Boxed, Some(t)) => {
                        (Ty::Boxed, format!("lol_cast({}, {})", init.boxed(), lol_ty_enum(t)))
                    }
                    (ty, _) => (ty, init.to(ty)),
                };
                self.line(&format!("{} v_{name} = {init};", scalar_c_type(ty)));
                let pinned = if d.srsly { d.ty } else { None };
                let kind = CKind::Scalar { ty, pinned };
                self.declare(name, kind);
                Ok(())
            }
        }
    }

    fn assign(&mut self, s: &Stmt, target: &LValue, value: &Expr) -> CResult<()> {
        if let LValue::Var(dst) = target {
            if let ExprKind::Var(src) = &value.kind {
                let (da, sa) = (self.is_array_ref(dst)?, self.is_array_ref(src)?);
                match (da, sa) {
                    (true, true) => return self.array_copy(dst, src),
                    (true, false) | (false, true) => {
                        return Err(self.err(
                            "CGC0009",
                            "U CANT MIX A WHOLE ARRAY AN A SCALAR".to_string(),
                            s.span,
                        ))
                    }
                    (false, false) => {}
                }
            } else if self.is_array_ref(dst)? {
                return Err(self.err(
                    "CGC0009",
                    "AN ARRAY CAN ONLY BE ASSIGNED FROM ANOTHER ARRAY".to_string(),
                    s.span,
                ));
            }
        }
        let v = self.expr(value)?;
        self.store_lvalue(target, v)
    }

    fn store_lvalue(&mut self, lv: &LValue, val: CExpr) -> CResult<()> {
        match lv {
            LValue::Var(vr) => self.var_store(vr, val),
            LValue::Index { arr, idx, .. } => {
                let i = self.expr(idx)?.int();
                self.elem_store(arr, &i, val)
            }
        }
    }

    /// `MAH array R UR array` — element-wise copy loop. A local
    /// destination adopts the source length (dynamic arrays): the copy
    /// fills a fresh buffer that replaces it, so the source is read in
    /// full before the destination changes (as on the other engines).
    fn array_copy(&mut self, dst: &VarRef, src: &VarRef) -> CResult<()> {
        let dst_name = self.named(dst)?;
        let src_name = self.named(src)?;
        let i = self.fresh("i");
        // Source length as a C expression.
        let src_len = match self.local(src, src_name) {
            Some(CKind::Array { .. }) => format!("v_{src_name}.n"),
            _ => self.shared_len(src_name, src.span)?.1.to_string(),
        };

        self.line("{");
        self.indent += 1;
        let target = match self.local(dst, dst_name) {
            Some(CKind::Array { elem }) => {
                let fresh = self.fresh("a");
                let ctor = arr_new(elem, &src_len, &format!("v_{dst_name}.ty"));
                self.line(&format!("{} {fresh} = {ctor};", arr_c_type(elem)));
                Some((fresh, elem))
            }
            _ => {
                let (_, len) = self.shared_len(dst_name, dst.span)?;
                self.line(&format!(
                    "if ({src_len} != {len}) lol_die(\"RUN0013\", \"ARRAY COPY SIZE MISMATCH\");"
                ));
                None
            }
        };
        self.line(&format!("for (long long {i} = 0; {i} < {src_len}; {i}++)"));
        self.line("{");
        self.indent += 1;
        let elem = self.elem_read(src, &i)?;
        match &target {
            Some((fresh, ty)) => self.line(&arr_set(*ty, fresh, &i, elem)),
            None => self.elem_store(dst, &i, elem)?,
        }
        self.indent -= 1;
        self.line("}");
        if let Some((fresh, _)) = target {
            self.line(&format!("v_{dst_name} = {fresh};"));
        }
        self.indent -= 1;
        self.line("}");
        Ok(())
    }

    fn switch(&mut self, sw: &SwitchStmt) -> CResult<()> {
        let arm = self.fresh("arm");
        self.line("do {");
        self.indent += 1;
        self.line(&format!("int {arm} = -1;"));
        for (i, a) in sw.arms.iter().enumerate() {
            let k = self.literal(&a.value)?.boxed();
            let prefix = if i == 0 { "if" } else { "else if" };
            self.line(&format!("{prefix} (lol_saem(v_IT, {k})) {arm} = {i};"));
        }
        self.line(&format!("switch ({arm}) {{"));
        self.breakable += 1;
        for (i, a) in sw.arms.iter().enumerate() {
            self.line(&format!("case {i}:"));
            self.indent += 1;
            self.scopes.push(HashMap::new());
            for st in &a.body {
                self.stmt(st)?;
            }
            self.scopes.pop();
            self.line("/* fallthrough */");
            self.indent -= 1;
        }
        if let Some(d) = &sw.default {
            self.line("default:");
            self.indent += 1;
            self.scopes.push(HashMap::new());
            for st in d {
                self.stmt(st)?;
            }
            self.scopes.pop();
            self.line("break;");
            self.indent -= 1;
        } else {
            self.line("default: break;");
        }
        self.breakable -= 1;
        self.line("}");
        self.indent -= 1;
        self.line("} while (0);");
        Ok(())
    }

    /// A counted loop. The counter is a native `long long` unless the
    /// body assigns it (then it may change type, so it stays boxed).
    fn loop_stmt(&mut self, lp: &LoopStmt) -> CResult<()> {
        self.line("{");
        self.indent += 1;
        self.scopes.push(HashMap::new());
        let counter =
            lp.update.as_ref().map(|(dir, var)| (*dir, var.sym, types::counter(&lp.body, var.sym)));
        if let Some((_, var, ty)) = counter {
            let init = CExpr::new("0LL", Ty::Int);
            self.line(&format!("{} v_{var} = {};", scalar_c_type(ty), init.to(ty)));
            self.declare(var, CKind::Scalar { ty, pinned: None });
        }
        self.line("for (;;) {");
        self.indent += 1;
        if let Some((kind, guard)) = &lp.guard {
            let g = self.expr(guard)?.truth();
            match kind {
                GuardKind::Til => self.line(&format!("if ({g}) break;")),
                GuardKind::Wile => self.line(&format!("if (!{g}) break;")),
            }
        }
        self.breakable += 1;
        self.scopes.push(HashMap::new());
        for st in &lp.body {
            self.stmt(st)?;
        }
        self.scopes.pop();
        self.breakable -= 1;
        if let Some((dir, var, ty)) = counter {
            let op = match dir {
                LoopDir::Uppin => BinOp::Sum,
                LoopDir::Nerfin => BinOp::Diff,
            };
            let next = binop(op, CExpr::new(format!("v_{var}"), ty), CExpr::new("1LL", Ty::Int));
            self.line(&format!("v_{var} = {};", next.to(ty)));
        }
        self.indent -= 1;
        self.line("}");
        self.scopes.pop();
        self.indent -= 1;
        self.line("}");
        Ok(())
    }
}

// ---- typed lowering ----------------------------------------------------

/// Lower a binary operator at the type [`types::bin`] gives it:
/// native arithmetic over two statically numeric operands, the dynamic
/// runtime for a boxed one; comparisons and logic always yield a
/// native TROOF.
fn binop(op: BinOp, a: CExpr, b: CExpr) -> CExpr {
    use BinOp::*;
    let ty = types::bin(op, a.ty, b.ty);
    let c = match op {
        Sum | Diff | Produkt | Quoshunt | Mod | BiggrOf | SmallrOf => match ty {
            Ty::Boxed => {
                let f = match op {
                    Sum => "lol_sum",
                    Diff => "lol_diff",
                    Produkt => "lol_produkt",
                    Quoshunt => "lol_quoshunt",
                    Mod => "lol_mod",
                    BiggrOf => "lol_biggr",
                    _ => "lol_smallr",
                };
                format!("{f}({}, {})", a.boxed(), b.boxed())
            }
            Ty::Dbl => {
                let (x, y) = (a.dbl(), b.dbl());
                match op {
                    Sum => format!("({x} + {y})"),
                    Diff => format!("({x} - {y})"),
                    Produkt => format!("({x} * {y})"),
                    Quoshunt => format!("({x} / {y})"),
                    Mod => format!("fmod({x}, {y})"),
                    BiggrOf => format!("lol_fmax({x}, {y})"),
                    _ => format!("lol_fmin({x}, {y})"),
                }
            }
            _ => {
                let f = match op {
                    Sum => "lol_iadd",
                    Diff => "lol_isub",
                    Produkt => "lol_imul",
                    Quoshunt => "lol_idiv",
                    Mod => "lol_imod",
                    BiggrOf => "lol_imax",
                    _ => "lol_imin",
                };
                format!("{f}({}, {})", a.int(), b.int())
            }
        },
        // Comparison is float-domain on every backend.
        Bigger => format!("({} > {})", a.dbl(), b.dbl()),
        Smallr => format!("({} < {})", a.dbl(), b.dbl()),
        BothSaem | Diffrint => {
            let eq = match types::saem_domain(a.ty, b.ty) {
                Some(Ty::Int | Ty::Bool) => format!("({} == {})", a.c, b.c),
                Some(_) => format!("({} == {})", a.dbl(), b.dbl()),
                None => format!("lol_saem({}, {})", a.boxed(), b.boxed()),
            };
            if op == Diffrint {
                format!("(!{eq})")
            } else {
                eq
            }
        }
        BothOf => format!("({} && {})", a.truth(), b.truth()),
        EitherOf => format!("({} || {})", a.truth(), b.truth()),
        WonOf => format!("({} ^ {})", a.truth(), b.truth()),
    };
    CExpr::new(c, ty)
}

/// `SMOOSH` of boxed parts (the empty YARN when there are none).
fn smoosh(parts: impl Iterator<Item = String>) -> CExpr {
    let c = parts
        .reduce(|acc, p| format!("lol_smoosh({acc}, {p})"))
        .unwrap_or_else(|| "lol_from_str(\"\")".to_string());
    CExpr::new(c, Ty::Boxed)
}

fn scalar_c_type(ty: Ty) -> &'static str {
    match ty {
        Ty::Int => "long long",
        Ty::Dbl => "double",
        Ty::Bool => "int",
        Ty::Boxed => "lol_value_t",
    }
}

fn arr_c_type(elem: Ty) -> &'static str {
    match elem {
        Ty::Int => "lol_iarr_t",
        Ty::Dbl => "lol_darr_t",
        _ => "lol_arr_t",
    }
}

/// The constructor call for a local array of `n_c` elements; `ty_c`
/// is the element-type tag of a boxed array.
fn arr_new(elem: Ty, n_c: &str, ty_c: &str) -> String {
    match elem {
        Ty::Int => format!("lol_iarr_new({n_c})"),
        Ty::Dbl => format!("lol_darr_new({n_c})"),
        _ => format!("lol_arr_new({n_c}, {ty_c})"),
    }
}

/// Read element `idx_c` of the local array `arr_c`.
fn arr_get(elem: Ty, arr_c: &str, idx_c: &str) -> CExpr {
    match elem {
        Ty::Int | Ty::Dbl => CExpr::new(format!("{arr_c}.e[lol_idx({idx_c}, {arr_c}.n)]"), elem),
        _ => CExpr::new(format!("lol_arr_get(&{arr_c}, {idx_c})"), Ty::Boxed),
    }
}

/// The statement storing `val` into element `idx_c` of local `arr_c`.
fn arr_set(elem: Ty, arr_c: &str, idx_c: &str, val: CExpr) -> String {
    match elem {
        Ty::Int | Ty::Dbl => {
            format!("{arr_c}.e[lol_idx({idx_c}, {arr_c}.n)] = {};", val.to(elem))
        }
        _ => format!("lol_arr_set(&{arr_c}, {idx_c}, {});", val.boxed()),
    }
}

// ---- small helpers -----------------------------------------------------

fn c_type(ty: LolType) -> &'static str {
    match ty {
        LolType::Numbar => "double",
        // NUMBR and TROOF both travel as long long in symmetric memory.
        _ => "long long",
    }
}

fn shmem_get(ty: LolType) -> &'static str {
    match ty {
        LolType::Numbar => "shmem_double_g",
        _ => "shmem_longlong_g",
    }
}

fn shmem_put(ty: LolType) -> &'static str {
    match ty {
        LolType::Numbar => "shmem_double_p",
        _ => "shmem_longlong_p",
    }
}

/// A native shared cell value of type `ty` as a typed expression.
fn cell(ty: LolType, native: &str) -> CExpr {
    match types::cell(ty) {
        Ty::Bool => CExpr::new(format!("({native} != 0)"), Ty::Bool),
        cty => CExpr::new(native, cty),
    }
}

/// A typed expression → the native value of a shared cell of type `ty`.
fn to_cell(ty: LolType, v: CExpr) -> String {
    match ty {
        LolType::Numbar => v.dbl(),
        LolType::Troof => format!("(long long){}", v.truth()),
        _ => v.int(),
    }
}

/// The default value of a declared-but-uninitialized `ty`.
fn default_value(ty: LolType) -> CExpr {
    match ty {
        LolType::Noob => CExpr::new("lol_noob()", Ty::Boxed),
        LolType::Troof => CExpr::new("0", Ty::Bool),
        LolType::Numbr => CExpr::new("0LL", Ty::Int),
        LolType::Numbar => CExpr::new("0.0", Ty::Dbl),
        LolType::Yarn => CExpr::new("lol_from_str(\"\")", Ty::Boxed),
    }
}

fn lol_ty_enum(ty: LolType) -> &'static str {
    match ty {
        LolType::Noob => "LOL_NOOB",
        LolType::Troof => "LOL_TROOF",
        LolType::Numbr => "LOL_NUMBR",
        LolType::Numbar => "LOL_NUMBAR",
        LolType::Yarn => "LOL_YARN",
    }
}

fn c_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            '\x07' => out.push_str("\\a"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\x{:02x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c_escape_covers_specials() {
        assert_eq!(c_escape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
        assert_eq!(c_escape("bell\x07"), "bell\\a");
        assert_eq!(c_escape("ctrl\x01"), "ctrl\\x01");
    }

    #[test]
    fn type_mapping() {
        assert_eq!(c_type(LolType::Numbar), "double");
        assert_eq!(c_type(LolType::Numbr), "long long");
        assert_eq!(c_type(LolType::Troof), "long long");
        assert_eq!(shmem_get(LolType::Numbar), "shmem_double_g");
        assert_eq!(shmem_put(LolType::Numbr), "shmem_longlong_p");
    }

    #[test]
    fn wrapping_round_trip_shapes() {
        let boxed = |c: &str| CExpr::new(c, Ty::Boxed);
        assert_eq!(cell(LolType::Numbr, "g_x").boxed(), "lol_from_int(g_x)");
        assert_eq!(to_cell(LolType::Numbar, boxed("v")), "lol_to_dbl(v)");
        assert_eq!(to_cell(LolType::Troof, boxed("v")), "(long long)lol_to_bool(v)");
    }
}
